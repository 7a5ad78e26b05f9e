"""Command-line surface for the package.

Subcommands cover the whole pipeline: coordinate transforms, distance
matrices, dataset censuses, model fitting and prediction, Monte Carlo
cross-validation, grid search with figure-ready tables, and synthetic
dataset generation.  Every report embeds a schema version, the software
version, the seed (``null`` for deterministic commands) and a digest of
the input data; rerunning an identical configuration reproduces every
output file byte for byte.

Exit codes: 0 on success, 1 when a validly specified computation fails,
2 on input or configuration errors.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import (
    GaussianGroupModel,
    KnnFit,
    _pooled_covariance,
    _rda_from_groups,
    fit_knn,
    fit_rda,
    knn_predict_batch,
    rda_predict,
)
from .core import (
    _check_seed, alpha_transform, closure, inverse_alpha_transform)
from .dataio import (
    DatasetSchema,
    SyntheticSpec,
    _TextScratch,
    _float_lines,
    generate_synthetic,
    group_summary,
    load_dataset,
    read_table,
    zero_summary,
)
from .errors import (
    ComputationError,
    DimensionMismatchError,
    GroupTooSmallError,
    IllConditionedError,
    InvalidSpecError,
    ParameterOutOfRangeError,
    ParseError,
    UserInputError,
)
from .evaluation import (
    _PARAMS,
    METHOD_PARAMS,
    CvConfig,
    GridSpec,
    MethodSpec,
    cv_evaluate,
    grid_search,
)
from .metrics import MetricSpec, _coords, _distances, _row_slices

SCHEMA_VERSION = "2"

_DELIMITERS = {"tsv": "\t", "csv": ","}

# Values a lo:hi:step grid axis may expand to, counted before any is made.
_MAX_AXIS_VALUES = 10_000


# ---------------------------------------------------------------------------
# serialization helpers


_CONTAINERS = (dict, list, tuple)


def _dumps(doc):
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    json's ``indent`` turns its C encoder off, so the layout is made here:
    a container whose values are all scalars is one C-encoder call with
    the item separator of its depth, and only containers of containers
    are walked in Python.  A value json cannot encode raises
    ``TypeError``, and so does a key that is not a string in a dict that
    holds containers; ``doc`` must be a tree, as json's cycle check is off.
    """
    return _json_text(doc, 0, {}) + "\n"


def _json_text(obj, depth, levels):
    """The text of ``obj`` at nesting ``depth``; ``levels`` holds the line
    break, item separator and C encoder of each depth, made on first use."""
    if depth not in levels:
        pad = "\n" + "  " * depth
        sep = "," + pad + "  "
        levels[depth] = pad, sep, c_make_encoder(
            None, json.JSONEncoder().default, encode_basestring_ascii, None,
            ": ", sep, True, False, True)
    pad, sep, enc = levels[depth]
    if not (isinstance(obj, _CONTAINERS) and obj):
        return "".join(enc(obj, 0))  # a scalar or an empty container
    is_dict = isinstance(obj, dict)
    if not any(issubclass(t, _CONTAINERS)
               for t in set(map(type, obj.values() if is_dict else obj))):
        text = "".join(enc(obj, 0))
        return f"{text[0]}{pad}  {text[1:-1]}{pad}{text[-1]}"
    if not is_dict:
        items = sep.join([_json_text(v, depth + 1, levels) for v in obj])
        return f"[{pad}  {items}{pad}]"
    items = sep.join([
        f"{encode_basestring_ascii(k)}: {_json_text(v, depth + 1, levels)}"
        for k, v in sorted(obj.items())])
    return f"{{{pad}  {items}{pad}}}"


@contextlib.contextmanager
def _atomic(path):
    """Yield the ``.part`` name to write ``path`` through.

    It is renamed over ``path`` when the block ends and removed when the
    block raises, so a failure leaves no partial file and an existing
    ``path`` as it was.  An ``OSError`` (``path`` is a directory, say)
    becomes a ``UserInputError`` naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".part")
    try:
        try:
            yield tmp
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise UserInputError(f"cannot write {path}: {exc}")


def _write_text(path, text):
    with _atomic(path) as tmp:
        tmp.write_text(text)
    return Path(path)


def _cell(value):
    """One table cell: full-precision floats, ``nan`` for missing."""
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _format_block(block, sep, scratch=None):
    """The lines of one row block as UTF-8 bytes, in pieces: a float array
    (its text made in the :class:`_TextScratch` ``scratch``), a tuple of
    columns of ints and strings, or a list of rows of mixed cells."""
    if isinstance(block, np.ndarray):
        # each cell as "%.17g" % x, which is _cell of a float
        return _float_lines(block, sep, scratch)
    if isinstance(block, tuple):
        # "%s" writes an int or a string as _cell does
        line = sep.join(["%s"] * len(block)) + "\n"
        return [((line * len(block[0])) % tuple(chain.from_iterable(
            zip(*block)))).encode()]
    return ["".join(sep.join(_cell(v) for v in row) + "\n"
                    for row in block).encode()]


def _block_rows(block):
    """The rows of one row block (see ``_format_block``) as lists."""
    if isinstance(block, np.ndarray):
        return block.tolist()
    if isinstance(block, tuple):
        return list(map(list, zip(*block)))
    return block


def _write_table(path, header, blocks, fmt):
    """A rectangular data file in the requested format.

    ``blocks`` yields consecutive row blocks (see ``_format_block``).
    ``tsv`` and ``csv`` get an optional header line and append each block
    to the file as it comes, so only one block is held at a time, and the
    float blocks of a table share one text scratch; ``json``
    gathers every row and wraps them as ``{"columns": ..., "rows": ...}``,
    so a block's cells must be plain Python values.
    """
    if fmt == "json":
        rows = []
        for block in blocks:
            rows += _block_rows(block)
        doc = {"columns": list(header) if header else None, "rows": rows}
        return _write_text(path, _dumps(doc))
    sep = _DELIMITERS[fmt]
    scratch = _TextScratch()
    with _atomic(path) as tmp, open(tmp, "wb") as fh:
        if header:
            fh.write((sep.join(str(h) for h in header) + "\n").encode())
        for block in blocks:
            fh.writelines(_format_block(block, sep, scratch))
    return Path(path)


def _render_table(header, rows):
    """Aligned text table: first column left, the rest right."""
    cells = [[str(h) for h in header]] + [
        [_text_cell(v) for v in row] for row in rows
    ]
    widths = [max(len(r[j]) for r in cells) for j in range(len(header))]
    out = []
    for i, row in enumerate(cells):
        parts = [row[0].ljust(widths[0])]
        parts += [row[j].rjust(widths[j]) for j in range(1, len(row))]
        out.append("  ".join(parts).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def _text_cell(value):
    if value is None:
        return "-"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.4f}"
    return str(value)


def _write_doc(path, command, config, seed, **fields):
    """Write the JSON report ``fields`` under the envelope every output
    carries; returns the path written."""
    return _write_text(path, _dumps(dict(
        fields, schema_version=SCHEMA_VERSION, version=__version__,
        command=command, seed=seed, config=config)))


def _dataset_block(dataset, path):
    return {
        "path": str(path),
        "digest": dataset.content_digest(),
        "n": dataset.n,
        "D": dataset.D,
        "groups": list(dataset.group_names),
    }


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_values(text, flag):
    """A grid axis: ``lo:hi:step`` or a comma-separated list."""
    text = text.strip()
    try:
        if ":" in text:
            pieces = text.split(":")
            if len(pieces) != 3:
                raise ValueError("ranges look like lo:hi:step")
            lo, hi, step = (float(p) for p in pieces)
            if step <= 0:
                raise ValueError("step must be positive")
            if hi < lo:
                raise ValueError("hi must be at least lo")
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            if count > _MAX_AXIS_VALUES:
                raise ValueError(f"the range holds {count} values, more "
                                 f"than {_MAX_AXIS_VALUES}")
            return tuple(round(lo + i * step, 10) for i in range(count))
        return tuple(float(p) for p in text.split(",") if p.strip())
    except (ValueError, OverflowError) as exc:
        raise ParameterOutOfRangeError(f"bad {flag} value {text!r}: {exc}")


def _read_json(path, what):
    """The document in the JSON file at the ``Path`` ``path``, which holds
    a ``what``."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}")
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")


def _field(doc, key, shape, where):
    """Field ``key`` of the JSON object ``doc`` as a float array: JSON
    numbers, all finite, of the given ``shape``.  ``where`` opens the
    error message."""
    try:
        arr = np.asarray(doc.get(key))
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    # numpy reads a JSON boolean among numbers as a number, so the cells
    # of a numeric array are checked one by one
    if (arr.dtype.kind not in "iuf" or arr.shape != shape
            or not np.isfinite(arr).all()
            or bool in map(type, np.ravel(np.array(doc[key], dtype=object)))):
        want = f"an array of shape {shape} of" if shape else "a"
        raise InvalidSpecError(
            f"{where} field {key!r} must be {want} finite JSON number"
            f"{'s' if shape else ''}, got {doc.get(key)!r:.60}")
    return arr.astype(float)


def _schema_for(args):
    drop = tuple(c.strip() for c in args.drop_cols.split(",") if c.strip())
    return DatasetSchema(label_col=args.label_col, drop_cols=drop)


def _load(args):
    path = Path(args.data)
    return load_dataset(path, _schema_for(args)), path


def _out_dir(args):
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, say
        raise UserInputError(f"cannot write {out}: {exc}")
    return out


def _metric_from_args(args):
    if args.metric == "esov":
        if args.alpha is not None:
            raise ParameterOutOfRangeError(
                "the esov metric has no alpha; drop --alpha or use "
                "--metric alpha"
            )
        return MetricSpec.esov()
    if args.alpha is None:
        raise ParameterOutOfRangeError("the alpha metric needs --alpha")
    return MetricSpec.alpha_metric(args.alpha)


def _method_from_args(args):
    """The method a single-model command names through its flags.

    ``--k`` selects k-NN under the ``--metric`` distance, and no ``--k``
    selects RDA.  Every method flag goes to ``MethodSpec``, which rejects
    the ones the method does not take.
    """
    if args.k is not None:
        name = "KNN_" + _metric_from_args(args).kind.upper()
    elif args.metric == "esov":
        raise ParameterOutOfRangeError(
            "--metric selects the k-NN distance; pass --k with it"
        )
    else:
        name = "RDA"
        missing = [f"--{_PARAMS[p].label}" for p in METHOD_PARAMS[name]
                   if getattr(args, p) is None]
        if missing:
            raise ParameterOutOfRangeError(
                "the Gaussian model needs " + ", ".join(missing)
                + " (or pass --k for nearest neighbours)"
            )
    return MethodSpec(name, alpha=args.alpha, lam=args.lam, gamma=args.gamma,
                      k=args.k, prior=args.prior)


def _method_config(args):
    config = {label: getattr(args, p) for p, (_, label, _) in _PARAMS.items()}
    return dict(config, metric=args.metric, prior=args.prior)


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args):
    out = _out_dir(args)
    if args.inverse:
        return _transform_inverse(args, out)
    if args.alpha is None:
        raise ParameterOutOfRangeError("transform needs --alpha")
    dataset, path = _load(args)
    z = alpha_transform(dataset.rows, args.alpha, name="the data")
    columns = [f"z{j}" for j in range(1, dataset.D)]
    table = _write_table(out / f"transformed.{args.format}", columns,
                         (z[rows] for rows in _row_slices(*z.shape)),
                         args.format)
    manifest = _write_doc(
        out / "manifest.json", "transform",
        {"alpha": args.alpha, "inverse": False, "format": args.format}, None,
        dataset=_dataset_block(dataset, path), alpha=args.alpha, D=dataset.D,
        n=dataset.n, components=list(dataset.component_names),
        columns=columns, output=table.name)
    print(f"wrote {table} and {manifest}")
    return 0


def _transform_inverse(args, out):
    manifest_path = Path(args.manifest) if args.manifest else (
        Path(args.data).parent / "manifest.json"
    )
    manifest = _read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict):
        raise InvalidSpecError(f"{manifest_path} is not a transform manifest")
    where = f"manifest {manifest_path}:"
    _field(manifest, "alpha", (), where)
    D = _field(manifest, "D", (), where)
    if D % 1 or D < 2:
        raise InvalidSpecError(
            f"{where} field 'D' must be an integer of at least 2, got {D}")
    D, names = int(D), manifest.get("components")
    if not (isinstance(names, list) and len(names) == D
            and all(isinstance(c, str) for c in names)):
        raise InvalidSpecError(f"{where} field 'components' must be a list "
                               f"of {D} strings, got {names!r:.60}")
    # echoed as stored: an int alpha stays an int
    alpha = args.alpha if args.alpha is not None else manifest["alpha"]
    parsed = read_table(args.data, _schema_for(args), require_label=False,
                        parts=False)
    z = parsed.values
    if z.shape[1] != D - 1:
        raise DimensionMismatchError(
            f"transformed vectors have {z.shape[1]} coordinates, "
            f"manifest says D={D} needs {D - 1}"
        )
    x = inverse_alpha_transform(z, alpha, D)
    table = _write_table(out / f"recovered.{args.format}", names,
                         (x[rows] for rows in _row_slices(*x.shape)),
                         args.format)
    manifest = _write_doc(
        out / "manifest.json", "transform",
        {"alpha": alpha, "inverse": True, "format": args.format}, None,
        input={"path": str(args.data), "file_sha256": parsed.digest},
        alpha=alpha, D=D, n=int(x.shape[0]), components=names,
        output=table.name)
    print(f"wrote {table} and {manifest}")
    return 0


def cmd_distance(args):
    dataset, path = _load(args)
    metric = _metric_from_args(args)
    x, n = _coords(dataset.rows, metric, "the data"), dataset.n
    out = _out_dir(args)
    blocks = (_distances(x[rows], x, metric) for rows in _row_slices(n, n))
    table = _write_table(out / f"distances.{args.format}", None, blocks,
                         args.format)
    _write_doc(out / "manifest.json", "distance",
               {"metric": args.metric, "alpha": args.alpha,
                "format": args.format}, None,
               dataset=_dataset_block(dataset, path), output=table.name)
    print(f"wrote {table} ({dataset.n} x {dataset.n})")
    return 0


def cmd_summarize(args):
    dataset, path = _load(args)
    zeros = zero_summary(dataset)
    groups = group_summary(dataset)
    n = dataset.n

    print(f"{path}: {n} compositions, D={dataset.D}, "
          f"{dataset.g} groups")
    print()
    print(_render_table(
        ("group", "size", "rows with zeros"),
        [(g["group"], g["size"], g["rows_with_zeros"]) for g in groups],
    ))
    print()
    print(_render_table(
        ("component", "zero rows", "percent"),
        [(c["component"], c["zeros"], f"{100 * c['fraction']:.2f}")
         for c in zeros["per_component"]],
    ))
    print()
    print(_render_table(
        ("zero parts", "rows", "percent"),
        [(r["zeros"], r["rows"], f"{100 * r['fraction']:.2f}")
         for r in zeros["per_row_zero_count"]],
    ))

    out = _out_dir(args)
    report = _write_doc(out / "summary.json", "summarize", {}, None,
                        dataset=_dataset_block(dataset, path),
                        zero_summary=zeros, group_summary=groups)
    print(f"\nwrote {report}")
    return 0


_GAUSS_FIELDS = ("alpha", "lam", "gamma", "prior", "source_dim",
                 "group_labels", "counts", "means", "covariances")


def _gauss_payload(model):
    """The sufficient statistics of a Gaussian model; loading rebuilds the
    rest through the fitting path."""
    return {"kind": "gauss", **{k: np.asarray(getattr(model, k)).tolist()
                                for k in _GAUSS_FIELDS}}


def _gauss_from_payload(payload, path):
    """Validate the stored moments and rebuild the model exactly as fitting
    does: pooled covariance, shrinkage, checks and factors."""
    where = f"{path}: model"
    labels = [str(v) for v in payload["group_labels"]]
    source_dim = _field(payload, "source_dim", (), where)
    g, d = len(labels), int(source_dim) - 1
    if g < 2 or len(set(labels)) != g or d < 1 or source_dim % 1:
        raise InvalidSpecError(
            f"{path}: the model needs two or more distinct group_labels "
            f"and an integer source_dim of at least 2"
        )
    counts = _field(payload, "counts", (g,), where)
    # 2**63 is the first float beyond the int64 range
    if not ((counts >= 2) & (counts < 2.0 ** 63)).all() or (counts % 1).any():
        raise GroupTooSmallError(
            f"{path}: model field 'counts' must hold integers from 2 to "
            f"2**63 - 1, got {counts.tolist()}"
        )
    covariances = _field(payload, "covariances", (g, d, d), where)
    if not np.array_equal(covariances, np.swapaxes(covariances, 1, 2)):
        raise InvalidSpecError(
            f"{path}: model field 'covariances' holds a non-symmetric matrix"
        )
    models = [GaussianGroupModel(*group) for group in zip(
        labels, _field(payload, "means", (g, d), where),
        covariances, counts.astype(int).tolist())]
    alpha, lam, gamma = (float(_field(payload, key, (), where))
                         for key in ("alpha", "lam", "gamma"))
    try:
        return _rda_from_groups(
            models, _pooled_covariance(models), lam, gamma, alpha=alpha,
            prior=payload["prior"], source_dim=d + 1,
        )
    except IllConditionedError as exc:
        raise InvalidSpecError(f"{path}: the model does not rebuild: {exc}")


def cmd_fit(args):
    dataset, path = _load(args)
    method = _method_from_args(args)
    if method.engine == "knn":
        fit = fit_knn(dataset, method.k, method.metric())
        payload = {
            "kind": "knn",
            "k": fit.k,
            "metric": {"kind": fit.metric.kind, "alpha": fit.metric.alpha},
            "points": fit.points.tolist(),
            "labels": fit.labels.tolist(),
        }
    else:
        lam, gamma = method.effective_lam_gamma()
        model = fit_rda(dataset, method.alpha, lam, gamma,
                        prior=method.prior)
        payload = _gauss_payload(model)
    model_path = _write_doc(
        _out_dir(args) / "model.json", "fit", _method_config(args), None,
        dataset=_dataset_block(dataset, path), method=method.to_dict(),
        display=method.display(), model=payload)
    print(f"fitted {method.display()} on n={dataset.n}, D={dataset.D}, "
          f"{dataset.g} groups")
    print(f"wrote {model_path}")
    return 0


def _load_model(path):
    """The method and the model of a ``fit`` output file, rebuilt through
    the checks of fitting; a method block that disagrees with the model is
    rejected and a schema-1 file's derived arrays are ignored."""
    path = Path(path)
    doc = _read_json(path, "model")
    payload = doc.get("model") if isinstance(doc, dict) else None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise InvalidSpecError(f"{path} is not a model file")
    try:
        method = MethodSpec(**doc["method"])
        if payload["kind"] == "gauss":
            model = _gauss_from_payload(payload, path)
            agree = method.engine == "gauss" and (
                method.alpha, *method.effective_lam_gamma(), method.prior
            ) == (model.alpha, model.lam, model.gamma, model.prior)
        elif payload["kind"] == "knn":
            model = KnnFit(payload["points"], payload["labels"],
                           payload["k"], MetricSpec(**payload["metric"]))
            agree = method.engine == "knn" and (
                method.k, method.metric()) == (model.k, model.metric)
        else:
            raise InvalidSpecError(f"unknown model kind {payload['kind']!r}")
    except UserInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{path}: malformed model file: {exc!r}")
    if not agree:
        raise InvalidSpecError(
            f"{path}: the method block {doc['method']} disagrees with the "
            f"model's hyperparameters"
        )
    return method, model


def cmd_predict(args):
    _check_seed(args.seed)
    method, model = _load_model(args.model)
    # a file carrying the label column is scored against it; otherwise
    # the rows are treated as bare compositions
    parsed = read_table(args.data, _schema_for(args), require_label=False)
    x, labels = closure(parsed.values), parsed.labels

    gauss = method.engine == "gauss"
    expect = model.source_dim if gauss else model.points.shape[1]
    if x.shape[1] != expect:
        raise DimensionMismatchError(
            f"model expects D={expect} parts, data has {x.shape[1]}"
        )
    predictions = (rda_predict(model, x) if gauss
                   else knn_predict_batch(model, x, args.seed))

    out = _out_dir(args)
    cells = (range(len(predictions)), predictions.tolist())
    if labels is not None:
        correct = predictions == labels
        accuracy = float(correct.mean())
        cells += (labels, correct.astype(int).tolist())
        columns = ("row", "predicted", "actual", "correct")
    else:
        accuracy = None
        columns = ("row", "predicted")
    table = _write_table(out / f"predictions.{args.format}", columns,
                         [cells], args.format)

    display = method.display()
    _write_doc(out / "report.json", "predict",
               {"model": str(args.model), "format": args.format}, args.seed,
               input={"path": str(args.data), "file_sha256": parsed.digest},
               model_kind=method.engine, display=display, n=int(x.shape[0]),
               accuracy=accuracy, output=table.name)
    if accuracy is None:
        print(f"{display}: predicted {x.shape[0]} rows -> {table}")
    else:
        print(f"{display}: accuracy {accuracy:.4f} "
              f"on {x.shape[0]} labelled rows -> {table}")
    return 0


def _cv_config(args):
    if args.n_test is None:
        raise ParameterOutOfRangeError("cross-validation needs --n-test")
    return CvConfig(n_test=args.n_test, B=args.reps, seed=args.seed)


def cmd_cv(args):
    dataset, path = _load(args)
    method = _method_from_args(args)
    cv = _cv_config(args)
    report = cv_evaluate(dataset, method, cv)

    report_path = _write_doc(
        _out_dir(args) / "report.json", "cv",
        dict(_method_config(args), n_test=cv.n_test, reps=cv.B), cv.seed,
        dataset=_dataset_block(dataset, path), report=report.to_dict())

    sd = "-" if report.sd_q is None else f"{report.sd_q:.4f}"
    print(f"{method.display()}: mean q {report.mean_q:.4f} (sd {sd}) "
          f"over B={report.B} splits of size {report.n_test}")
    print(f"wrote {report_path}")
    return 0


def _figure_tables(result, out):
    """Plot-ready TSV matrices distilled from a grid search.

    One file per panel: accuracy against alpha for each family (RDA
    maximised over its shrinkage pair, k-NN over k), the k x alpha
    accuracy grid, the per-k best-alpha curve with the esov column, and
    the per-group accuracy against within-group zero fraction for the
    winning method.
    """
    written = []
    q_at = {}  # (name, alpha, k) -> mean q
    best = {}  # (name, alpha) -> best mean q over the other parameters
    for r in result.reports:
        m = r.method
        q_at[(m.name, m.alpha, m.k)] = r.mean_q
        family = (m.name, m.alpha)
        best[family] = max(best.get(family, r.mean_q), r.mean_q)
    names = {r.method.name for r in result.reports}
    alphas = sorted({r.method.alpha for r in result.reports
                     if r.method.alpha is not None})
    ks = sorted({r.method.k for r in result.reports
                 if r.method.k is not None})

    families = [n for n, params in METHOD_PARAMS.items()
                if "alpha" in params and n in names]
    if families and alphas:
        rows = [[a] + [best.get((n, a)) for n in families] for a in alphas]
        written.append(_write_table(out / "accuracy_by_alpha.tsv",
                                    ["alpha"] + families, [rows], "tsv"))
    if "KNN_ALPHA" in names and ks:
        rows = [[k] + [q_at.get(("KNN_ALPHA", a, k)) for a in alphas]
                for k in ks]
        written.append(_write_table(out / "knn_k_by_alpha.tsv",
                                    ["k"] + alphas, [rows], "tsv"))
    if ks and names & {"KNN_ALPHA", "KNN_ESOV"}:
        rows = []
        for k in ks:
            cell = [k, None, None, q_at.get(("KNN_ESOV", None, k))]
            qs = [(q_at.get(("KNN_ALPHA", a, k)), a) for a in alphas]
            qs = [(q, abs(a), a) for q, a in qs if q is not None]
            if qs:
                q, _, a = max(qs, key=lambda t: (t[0], -t[1], -t[2]))
                cell[1:3] = [a, q]
            rows.append(cell)
        written.append(_write_table(
            out / "knn_by_k.tsv",
            ("k", "best_alpha", "alpha_q", "esov_q"), [rows], "tsv"))

    best_report = result.best
    rows = [(g["group"], g["size"], g["zero_fraction"], g["mean"], g["sd"])
            for g in best_report.per_group]
    written.append(_write_table(
        out / "group_zero_scatter.tsv",
        ("group", "size", "zero_fraction", "accuracy", "sd"), [rows],
        "tsv"))
    return written


def cmd_grid(args):
    dataset, path = _load(args)
    axes = {}
    for axis, label, _ in _PARAMS.values():
        text = getattr(args, f"{label}_grid")
        axes[axis] = _parse_values(text, f"--{label}-grid") if text else ()
    methods = tuple(m.strip().upper() for m in args.methods.split(",")
                    if m.strip()) if args.methods else None
    grid = GridSpec(**axes, methods=methods, prior=args.prior)
    cv = _cv_config(args)
    result = grid_search(dataset, grid, cv)

    out = _out_dir(args)
    config = {f"{label}_grid": list(getattr(grid, axis))
              for axis, label, _ in _PARAMS.values()}
    config.update(methods=list(grid.methods), prior=grid.prior,
                  n_test=cv.n_test, reps=cv.B)
    report_path = _write_doc(out / "report.json", "grid", config, cv.seed,
                             dataset=_dataset_block(dataset, path),
                             search=result.to_dict())
    figures = _figure_tables(result, out)

    rows = [(r.method.display(), r.mean_q,
             "-" if r.sd_q is None else f"{r.sd_q:.4f}")
            for r in result.best_per_method().values()]
    print(f"searched {len(result.reports)} combinations "
          f"({len(result.skipped)} skipped), B={cv.B}, "
          f"n_test={cv.n_test}")
    print()
    print(_render_table(("method", "mean q", "sd"), rows))
    print()
    best = result.best
    print(f"best: {best.method.display()} with mean q {best.mean_q:.4f}")
    print(f"wrote {report_path}")
    for f in figures:
        print(f"wrote {f}")
    return 0


def cmd_synth(args):
    spec = SyntheticSpec(regime=args.regime, D=args.dim, groups=args.groups,
                         group_size=args.group_size,
                         separation=args.separation, seed=args.seed)
    dataset = generate_synthetic(spec)
    out = _out_dir(args)
    data_path = out / f"synthetic.{args.format}"
    if args.format == "json":
        header = list(dataset.component_names) + [dataset.label_name]
        rows = [row + [label] for row, label
                in zip(dataset.raw.tolist(), dataset.labels.tolist())]
        _write_table(data_path, header, [rows], "json")
    else:
        with _atomic(data_path) as tmp:
            dataset.to_csv(tmp, delimiter=_DELIMITERS[args.format])

    _write_doc(out / "manifest.json", "synth",
               {"regime": spec.regime, "dim": spec.D, "groups": spec.groups,
                "group_size": spec.group_size, "separation": spec.separation,
                "format": args.format}, spec.seed,
               dataset=_dataset_block(dataset, data_path),
               output=data_path.name)
    print(f"wrote {data_path}: {dataset.n} compositions, D={dataset.D}, "
          f"{dataset.g} groups ({spec.regime} regime)")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="input data file")
    p.add_argument("--label-col", default="label",
                   help="label column name (default: label)")
    p.add_argument("--drop-cols", default="",
                   help="comma-separated columns to ignore")


def _add_method_flags(p):
    p.add_argument("--alpha", type=float, default=None,
                   help="transformation parameter")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="within-group shrinkage weight in [0, 1]")
    p.add_argument("--gamma", type=float, default=None,
                   help="pooled-target shrinkage weight in [0, 1]")
    p.add_argument("--k", type=int, default=None,
                   help="neighbour count (selects the k-NN family)")
    p.add_argument("--metric", choices=("alpha", "esov"), default="alpha",
                   help="k-NN distance (default: alpha)")
    p.add_argument("--prior", choices=("proportional", "uniform"),
                   default="proportional",
                   help="group prior mode (default: proportional)")


def _add_seed_flag(p, what):
    p.add_argument("--seed", type=int, default=0,
                   help=f"{what} (default: 0)")


def _add_cv_flags(p):
    p.add_argument("--n-test", type=int, default=None,
                   help="test-set size per replicate")
    p.add_argument("--reps", type=int, default=200,
                   help="number of random splits (default: 200)")
    _add_seed_flag(p, "master seed")


def _add_output_flags(p, formats=("tsv", "csv", "json"), default="tsv"):
    p.add_argument("--out-dir", default=".",
                   help="directory for output files (default: .)")
    if formats:
        p.add_argument("--format", choices=formats, default=default,
                       help=f"data file format (default: {default})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simplex-clf",
        description="Classify compositional data through the "
                    "alpha-transformation family.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("transform",
                       help="write alpha-transformed coordinates")
    _add_data_flags(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="transformation parameter")
    p.add_argument("--inverse", action="store_true",
                   help="map transformed coordinates back to compositions")
    p.add_argument("--manifest", default=None,
                   help="manifest of the forward run "
                        "(default: manifest.json next to --data)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("distance", help="write a pairwise distance matrix")
    _add_data_flags(p)
    p.add_argument("--metric", choices=("alpha", "esov"), default="alpha")
    p.add_argument("--alpha", type=float, default=None,
                   help="parameter for the alpha metric")
    _add_output_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("summarize",
                       help="zero-part and group censuses of a dataset")
    _add_data_flags(p)
    _add_output_flags(p, formats=None)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("fit", help="fit one model and save it")
    _add_data_flags(p)
    _add_method_flags(p)
    _add_output_flags(p, formats=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict",
                       help="classify compositions with a saved model")
    p.add_argument("--model", required=True, help="model.json from fit")
    _add_data_flags(p)
    _add_seed_flag(p, "tie-break seed for k-NN")
    _add_output_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="cross-validate one model")
    _add_data_flags(p)
    _add_method_flags(p)
    _add_cv_flags(p)
    _add_output_flags(p, formats=None)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("grid",
                       help="grid search over methods and parameters")
    _add_data_flags(p)
    axis = (f"lo:hi:step (at most {_MAX_AXIS_VALUES:,} values) or comma "
            f"list")
    p.add_argument("--alpha-grid", default=None, metavar="LO:HI:STEP",
                   help=f"alpha axis, {axis}")
    p.add_argument("--lambda-grid", default=None, metavar="LO:HI:STEP",
                   help=f"lambda axis in [0, 1], {axis}")
    p.add_argument("--gamma-grid", default=None, metavar="LO:HI:STEP",
                   help=f"gamma axis in [0, 1], {axis}")
    p.add_argument("--k-grid", default=None, metavar="LO:HI:STEP",
                   help=f"neighbour counts, integers of at least 1, {axis}")
    p.add_argument("--methods", default=None,
                   help="comma list from RDA,LDA,QDA,KNN_ALPHA,KNN_ESOV "
                        "(default: every family whose axes were given)")
    p.add_argument("--prior", choices=("proportional", "uniform"),
                   default="proportional")
    _add_cv_flags(p)
    _add_output_flags(p, formats=None)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--regime", choices=("lra", "eda"), required=True,
                   help="which end of the family the groups favour")
    p.add_argument("--dim", type=int, default=4,
                   help="number of parts (default: 4)")
    p.add_argument("--groups", type=int, default=2,
                   help="number of groups (default: 2)")
    p.add_argument("--group-size", type=int, default=50,
                   help="observations per group (default: 50)")
    p.add_argument("--separation", type=float, default=10.0,
                   help="mean gap in noise-scale units (default: 10)")
    _add_seed_flag(p, "generator seed")
    _add_output_flags(p, default="csv")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    for flag in ("alpha", "lam", "gamma"):  # echoed -0 reads 0, as used
        if getattr(args, flag, None) is not None:
            setattr(args, flag, getattr(args, flag) + 0.0)
    try:
        return args.func(args)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
