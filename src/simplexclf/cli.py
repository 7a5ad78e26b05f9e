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
import csv
import hashlib
import json
import math
import os
import sys
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
    _check_zero_alpha,
    alpha_transform,
    closure,
    inverse_alpha_transform,
)
from .dataio import (
    DatasetSchema,
    SyntheticSpec,
    generate_synthetic,
    group_summary,
    load_dataset,
    zero_summary,
)
from .errors import (
    ComputationError,
    DimensionMismatchError,
    GroupTooSmallError,
    IllConditionedError,
    InvalidSpecError,
    MissingColumnError,
    ParameterOutOfRangeError,
    ParseError,
    UserInputError,
)
from .evaluation import (
    CvConfig,
    GridSpec,
    MethodSpec,
    cv_evaluate,
    grid_search,
)
from .metrics import MetricSpec, pairwise_distances

SCHEMA_VERSION = "2"

_DELIMITERS = {"tsv": "\t", "csv": ","}


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays for ``json.dumps``.

    NaN becomes ``null`` so emitted reports stay strict JSON.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, np.str_):
        return str(value)
    return value


def _dumps(doc):
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


def _write_text(path, text):
    # write-temp-then-rename so a crash never leaves a partial file
    path = Path(path)
    tmp = path.with_name(path.name + ".part")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def _cell(value):
    """One table cell: full-precision floats, ``nan`` for missing."""
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_table(path, header, rows, fmt):
    """A rectangular data file in the requested format.

    ``tsv`` and ``csv`` get an optional header line; ``json`` wraps the
    same content as ``{"columns": ..., "rows": ...}``.
    """
    if fmt == "json":
        doc = {"columns": list(header) if header else None,
               "rows": [[_jsonable(v) for v in row] for row in rows]}
        return _write_text(path, _dumps(doc))
    sep = _DELIMITERS[fmt]
    lines = []
    if header:
        lines.append(sep.join(str(h) for h in header))
    for row in rows:
        lines.append(sep.join(_cell(v) for v in row))
    return _write_text(path, "\n".join(lines) + "\n")


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


def _file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _envelope(command, config, seed):
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
    }


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


def _parse_values(text, flag, *, integer=False):
    """A grid axis: ``lo:hi:step`` or a comma-separated list."""
    text = text.strip()
    cast = int if integer else float
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
            values = [round(lo + i * step, 10) for i in range(count)]
            return tuple(cast(v) for v in values)
        return tuple(cast(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ParameterOutOfRangeError(f"bad {flag} value {text!r}: {exc}")


def _schema_for(args, path):
    drop = tuple(c.strip() for c in args.drop_cols.split(",") if c.strip())
    delimiter = "\t" if Path(path).suffix == ".tsv" else ","
    return DatasetSchema(label_col=args.label_col, drop_cols=drop,
                         delimiter=delimiter)


def _load(args):
    path = Path(args.data)
    return load_dataset(path, _schema_for(args, path)), path


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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

    ``--k`` selects the nearest-neighbour family, with ``--metric``
    picking the distance; otherwise the Gaussian family requires
    ``--alpha``, ``--lambda`` and ``--gamma``.
    """
    if args.k is not None:
        metric = _metric_from_args(args)
        if metric.kind == "esov":
            return MethodSpec.knn_esov(args.k)
        return MethodSpec.knn_alpha(args.k, metric.alpha)
    missing = [flag for flag, value in (("--alpha", args.alpha),
                                        ("--lambda", args.lam),
                                        ("--gamma", args.gamma))
               if value is None]
    if missing:
        raise ParameterOutOfRangeError(
            "the Gaussian model needs " + ", ".join(missing)
            + " (or pass --k for nearest neighbours)"
        )
    return MethodSpec.rda(args.alpha, args.lam, args.gamma, prior=args.prior)


def _method_config(args):
    return {
        "alpha": args.alpha,
        "lambda": args.lam,
        "gamma": args.gamma,
        "k": args.k,
        "metric": args.metric,
        "prior": args.prior,
    }


def _read_matrix(path):
    """A headed numeric table with no label column.

    The delimiter is taken from the header line (tab wins over comma),
    so both emitted formats read back without flags.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path} is empty", line=1)
    sep = "\t" if "\t" in lines[0] else ","
    reader = csv.reader(lines, delimiter=sep)
    header = next(reader)
    rows = []
    for i, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: expected {len(header)} fields, got {len(row)}",
                line=i,
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ParseError(f"{path}: not a number", line=i)
    if not rows:
        raise ParseError(f"{path} has no data rows", line=1)
    mat = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{path}: non-finite value", line=i + 2,
                         column=header[j])
    return [str(h) for h in header], mat


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args):
    out = _out_dir(args)
    if args.inverse:
        return _transform_inverse(args, out)
    if args.alpha is None:
        raise ParameterOutOfRangeError("transform needs --alpha")
    dataset, path = _load(args)
    _check_zero_alpha(dataset.raw, args.alpha, "the data")
    z = alpha_transform(dataset.rows, args.alpha)
    columns = [f"z{j}" for j in range(1, dataset.D)]
    table = _write_table(out / f"transformed.{args.format}", columns, z,
                         args.format)
    doc = _envelope("transform",
                    {"alpha": args.alpha, "inverse": False,
                     "format": args.format},
                    None)
    doc["dataset"] = _dataset_block(dataset, path)
    doc["alpha"] = args.alpha
    doc["D"] = dataset.D
    doc["n"] = dataset.n
    doc["components"] = list(dataset.component_names)
    doc["columns"] = columns
    doc["output"] = table.name
    _write_text(out / "manifest.json", _dumps(doc))
    print(f"wrote {table} and {out / 'manifest.json'}")
    return 0


def _transform_inverse(args, out):
    manifest_path = Path(args.manifest) if args.manifest else (
        Path(args.data).parent / "manifest.json"
    )
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read manifest: {exc}")
    except ValueError as exc:
        raise ParseError(f"{manifest_path} is not valid JSON: {exc}")
    for key in ("alpha", "D", "components"):
        if key not in manifest:
            raise InvalidSpecError(
                f"manifest {manifest_path} lacks the {key!r} field"
            )
    alpha = args.alpha if args.alpha is not None else manifest["alpha"]
    D = int(manifest["D"])
    _, z = _read_matrix(args.data)
    if z.shape[1] != D - 1:
        raise DimensionMismatchError(
            f"transformed vectors have {z.shape[1]} coordinates, "
            f"manifest says D={D} needs {D - 1}"
        )
    x = inverse_alpha_transform(z, alpha, D)
    names = [str(c) for c in manifest["components"]]
    table = _write_table(out / f"recovered.{args.format}", names, x,
                         args.format)
    doc = _envelope("transform",
                    {"alpha": alpha, "inverse": True, "format": args.format},
                    None)
    doc["input"] = {"path": str(args.data),
                    "file_sha256": _file_sha256(args.data)}
    doc["alpha"] = alpha
    doc["D"] = D
    doc["n"] = int(x.shape[0])
    doc["components"] = names
    doc["output"] = table.name
    _write_text(out / "manifest.json", _dumps(doc))
    print(f"wrote {table} and {out / 'manifest.json'}")
    return 0


def cmd_distance(args):
    dataset, path = _load(args)
    metric = _metric_from_args(args)
    if metric.kind == "alpha":
        _check_zero_alpha(dataset.raw, metric.alpha, "the data",
                          "the alpha metric")
    out = _out_dir(args)
    dm = pairwise_distances(dataset.rows, dataset.rows, metric)
    table = _write_table(out / f"distances.{args.format}", None, dm,
                         args.format)
    doc = _envelope("distance",
                    {"metric": args.metric, "alpha": args.alpha,
                     "format": args.format},
                    None)
    doc["dataset"] = _dataset_block(dataset, path)
    doc["output"] = table.name
    _write_text(out / "manifest.json", _dumps(doc))
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
    doc = _envelope("summarize", {}, None)
    doc["dataset"] = _dataset_block(dataset, path)
    doc["zero_summary"] = zeros
    doc["group_summary"] = groups
    report = _write_text(out / "summary.json", _dumps(doc))
    print(f"\nwrote {report}")
    return 0


_GAUSS_FIELDS = ("alpha", "lam", "gamma", "prior", "source_dim",
                 "group_labels", "counts", "means", "covariances")


def _gauss_payload(model):
    """The sufficient statistics of a Gaussian model; loading rebuilds the
    rest through the fitting path."""
    return {"kind": "gauss", **{k: getattr(model, k) for k in _GAUSS_FIELDS}}


def _payload_array(payload, key, shape, path):
    """A finite numeric field of the model payload with the given shape."""
    try:
        arr = np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        raise InvalidSpecError(
            f"{path}: model field {key!r} is not a finite array of shape "
            f"{shape}"
        )
    return arr


def _gauss_from_payload(payload, path):
    """Validate the stored moments and rebuild the model exactly as fitting
    does: pooled covariance, shrinkage, checks and factors."""
    labels = [str(v) for v in payload["group_labels"]]
    source_dim = _payload_array(payload, "source_dim", (), path)
    g, d = len(labels), int(source_dim) - 1
    if g < 2 or len(set(labels)) != g or d < 1 or source_dim % 1:
        raise InvalidSpecError(
            f"{path}: the model needs two or more distinct group_labels "
            f"and an integer source_dim of at least 2"
        )
    counts = _payload_array(payload, "counts", (g,), path)
    if (counts < 2).any() or (counts % 1).any():
        raise GroupTooSmallError(
            f"{path}: model field 'counts' must hold integers of at least "
            f"2, got {counts.tolist()}"
        )
    covariances = _payload_array(payload, "covariances", (g, d, d), path)
    if not np.array_equal(covariances, np.swapaxes(covariances, 1, 2)):
        raise InvalidSpecError(
            f"{path}: model field 'covariances' holds a non-symmetric matrix"
        )
    models = [GaussianGroupModel(*group) for group in zip(
        labels, _payload_array(payload, "means", (g, d), path),
        covariances, counts.astype(int).tolist())]
    alpha, lam, gamma = (float(_payload_array(payload, key, (), path))
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
            "points": fit.points,
            "labels": [str(v) for v in fit.labels],
        }
    else:
        lam, gamma = method.effective_lam_gamma()
        model = fit_rda(dataset, method.alpha, lam, gamma,
                        prior=method.prior)
        payload = _gauss_payload(model)
    out = _out_dir(args)
    doc = _envelope("fit", _method_config(args), None)
    doc["dataset"] = _dataset_block(dataset, path)
    doc["method"] = method.to_dict()
    doc["display"] = method.display()
    doc["model"] = payload
    model_path = _write_text(out / "model.json", _dumps(doc))
    print(f"fitted {method.display()} on n={dataset.n}, D={dataset.D}, "
          f"{dataset.g} groups")
    print(f"wrote {model_path}")
    return 0


def _load_model(path):
    """The method and the model of a ``fit`` output file, rebuilt through
    the checks of fitting; a method block that disagrees with the model is
    rejected and a schema-1 file's derived arrays are ignored."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read model: {exc}")
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")
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
    method, model = _load_model(args.model)
    # a file carrying the label column is scored against it; otherwise
    # the rows are treated as bare compositions and closed
    try:
        dataset, _ = _load(args)
        x, labels = dataset.rows, dataset.labels
    except MissingColumnError:
        _, x = _read_matrix(args.data)
        x = closure(x)
        labels = None

    gauss = method.engine == "gauss"
    expect = model.source_dim if gauss else model.points.shape[1]
    if x.shape[1] != expect:
        raise DimensionMismatchError(
            f"model expects D={expect} parts, data has {x.shape[1]}"
        )
    predictions = (rda_predict(model, x) if gauss
                   else knn_predict_batch(model, x, args.seed))

    out = _out_dir(args)
    if labels is not None:
        correct = predictions == labels
        accuracy = float(correct.mean())
        rows = [(i, p, t, int(c)) for i, (p, t, c)
                in enumerate(zip(predictions, labels, correct))]
        columns = ("row", "predicted", "actual", "correct")
    else:
        accuracy = None
        rows = list(enumerate(predictions))
        columns = ("row", "predicted")
    table = _write_table(out / f"predictions.{args.format}", columns, rows,
                         args.format)

    display = method.display()
    doc = _envelope("predict",
                    {"model": str(args.model), "format": args.format}, args.seed)
    doc["input"] = {"path": str(args.data),
                    "file_sha256": _file_sha256(args.data)}
    doc["model_kind"] = method.engine
    doc["display"] = display
    doc["n"] = int(x.shape[0])
    doc["accuracy"] = accuracy
    doc["output"] = table.name
    _write_text(out / "report.json", _dumps(doc))
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
    method.validate_against(dataset, cv)
    report = cv_evaluate(dataset, method, cv)

    out = _out_dir(args)
    config = _method_config(args)
    config.update(n_test=cv.n_test, reps=cv.B)
    doc = _envelope("cv", config, cv.seed)
    doc["dataset"] = _dataset_block(dataset, path)
    doc["report"] = report.to_dict()
    report_path = _write_text(out / "report.json", _dumps(doc))

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
    by_key = {}
    for r in result.reports:
        m = r.method
        by_key[(m.name, m.alpha, m.lam, m.gamma, m.k)] = r.mean_q
    names = {r.method.name for r in result.reports}
    alphas = sorted({r.method.alpha for r in result.reports
                     if r.method.alpha is not None})
    ks = sorted({r.method.k for r in result.reports
                 if r.method.k is not None})

    def best(name, alpha=None, k=None):
        hits = [q for (n, a, l, g, kk), q in by_key.items()
                if n == name
                and (alpha is None or a == alpha)
                and (k is None or kk == k)]
        return max(hits) if hits else None

    families = [n for n in ("RDA", "LDA", "QDA", "KNN_ALPHA")
                if n in names]
    if families and alphas:
        rows = [[a] + [best(n, alpha=a) for n in families] for a in alphas]
        written.append(_write_table(out / "accuracy_by_alpha.tsv",
                                    ["alpha"] + families, rows, "tsv"))
    if "KNN_ALPHA" in names and ks:
        rows = [[k] + [by_key.get(("KNN_ALPHA", a, None, None, k))
                       for a in alphas] for k in ks]
        written.append(_write_table(out / "knn_k_by_alpha.tsv",
                                    ["k"] + alphas, rows, "tsv"))
    if ks and names & {"KNN_ALPHA", "KNN_ESOV"}:
        rows = []
        for k in ks:
            cell = [k, None, None,
                    by_key.get(("KNN_ESOV", None, None, None, k))]
            if "KNN_ALPHA" in names:
                qs = [(by_key.get(("KNN_ALPHA", a, None, None, k)), a)
                      for a in alphas]
                qs = [(q, abs(a), a) for q, a in qs if q is not None]
                if qs:
                    q, _, a = max(qs, key=lambda t: (t[0], -t[1], -t[2]))
                    cell[1:3] = [a, q]
            rows.append(cell)
        written.append(_write_table(
            out / "knn_by_k.tsv",
            ("k", "best_alpha", "alpha_q", "esov_q"), rows, "tsv"))

    best_report = result.best
    rows = [(g["group"], g["size"], g["zero_fraction"], g["mean"], g["sd"])
            for g in best_report.per_group]
    written.append(_write_table(
        out / "group_zero_scatter.tsv",
        ("group", "size", "zero_fraction", "accuracy", "sd"), rows, "tsv"))
    return written


def cmd_grid(args):
    dataset, path = _load(args)
    alphas = _parse_values(args.alpha_grid, "--alpha-grid") \
        if args.alpha_grid else ()
    lambdas = _parse_values(args.lambda_grid, "--lambda-grid") \
        if args.lambda_grid else ()
    gammas = _parse_values(args.gamma_grid, "--gamma-grid") \
        if args.gamma_grid else ()
    ks = _parse_values(args.k_grid, "--k-grid", integer=True) \
        if args.k_grid else ()
    methods = tuple(m.strip().upper() for m in args.methods.split(",")
                    if m.strip()) if args.methods else None
    grid = GridSpec(alphas=alphas, lambdas=lambdas, gammas=gammas, ks=ks,
                    methods=methods, prior=args.prior)
    cv = _cv_config(args)
    result = grid_search(dataset, grid, cv)

    out = _out_dir(args)
    config = {
        "alpha_grid": list(grid.alphas),
        "lambda_grid": list(grid.lambdas),
        "gamma_grid": list(grid.gammas),
        "k_grid": list(grid.ks),
        "methods": list(grid.methods),
        "prior": grid.prior,
        "n_test": cv.n_test,
        "reps": cv.B,
    }
    doc = _envelope("grid", config, cv.seed)
    doc["dataset"] = _dataset_block(dataset, path)
    doc["search"] = result.to_dict()
    report_path = _write_text(out / "report.json", _dumps(doc))
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
        rows = [dataset.raw[i].tolist() + [dataset.labels[i]]
                for i in range(dataset.n)]
        _write_table(data_path, header, rows, "json")
    else:
        tmp = data_path.with_name(data_path.name + ".part")
        dataset.to_csv(tmp, delimiter=_DELIMITERS[args.format])
        os.replace(tmp, data_path)

    doc = _envelope("synth",
                    {"regime": spec.regime, "dim": spec.D,
                     "groups": spec.groups, "group_size": spec.group_size,
                     "separation": spec.separation,
                     "format": args.format},
                    spec.seed)
    doc["dataset"] = _dataset_block(dataset, data_path)
    doc["output"] = data_path.name
    _write_text(out / "manifest.json", _dumps(doc))
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
    p.add_argument("--seed", type=int, default=0,
                   help="tie-break seed for k-NN (default: 0)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="cross-validate one model")
    _add_data_flags(p)
    _add_method_flags(p)
    p.add_argument("--n-test", type=int, default=None,
                   help="test-set size per replicate")
    p.add_argument("--reps", type=int, default=200,
                   help="number of random splits (default: 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (default: 0)")
    _add_output_flags(p, formats=None)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("grid",
                       help="grid search over methods and parameters")
    _add_data_flags(p)
    p.add_argument("--alpha-grid", default=None, metavar="LO:HI:STEP",
                   help="alpha axis, lo:hi:step or comma list")
    p.add_argument("--lambda-grid", default=None, metavar="LO:HI:STEP")
    p.add_argument("--gamma-grid", default=None, metavar="LO:HI:STEP")
    p.add_argument("--k-grid", default=None, metavar="LO:HI:STEP",
                   help="neighbour counts, integers")
    p.add_argument("--methods", default=None,
                   help="comma list from RDA,LDA,QDA,KNN_ALPHA,KNN_ESOV "
                        "(default: every family whose axes were given)")
    p.add_argument("--prior", choices=("proportional", "uniform"),
                   default="proportional")
    p.add_argument("--n-test", type=int, default=None,
                   help="test-set size per replicate")
    p.add_argument("--reps", type=int, default=200,
                   help="number of random splits (default: 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (default: 0)")
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
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed (default: 0)")
    _add_output_flags(p, default="csv")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
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
