"""Loading, summarising and generating labelled compositional datasets.

Ingestion closes every row (normalises it to unit sum) while remembering
the raw values, because "zero part" is defined on the ingested value
before closure and exports must round-trip at full precision.  Two
synthetic generators produce datasets whose group structure favours
either the log-ratio end or the untransformed end of the transformation
family, which is useful for sanity-checking model selection.
"""

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    Composition, _check_seed, _distinct, closure, helmert_submatrix)
from .errors import (
    AllZeroError,
    InvalidSpecError,
    LengthMismatchError,
    MissingColumnError,
    NegativeComponentError,
    NonFiniteError,
    ParseError,
    TooShortError,
)

__all__ = [
    "DatasetSchema",
    "LabeledCompositionDataset",
    "SyntheticSpec",
    "read_table",
    "load_dataset",
    "load_glass",
    "find_glass",
    "zero_summary",
    "group_summary",
    "generate_synthetic",
    "GLASS_COMPONENTS",
    "GLASS_TYPE_NAMES",
]

# Forensic glass: oxide measurements with the refractive index dropped,
# and the numeric type codes spelt out (code 4 is unused in the source).
GLASS_COMPONENTS = ("Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe")
GLASS_TYPE_NAMES = {
    1: "window float",
    2: "window non-float",
    3: "vehicle window",
    5: "containers",
    6: "tableware",
    7: "headlamps",
}
_GLASS_RAW_COLUMNS = ("Id", "RI") + GLASS_COMPONENTS + ("Type",)


@dataclass(frozen=True)
class DatasetSchema:
    """How to read a delimited text file into a dataset.

    ``component_cols`` defaults to every column that is neither the label
    nor listed in ``drop_cols``.  The delimiter is a tab when the first
    line holds one and a comma otherwise.
    """

    label_col: str
    component_cols: tuple = None
    drop_cols: tuple = ()


class LabeledCompositionDataset:
    """Compositions with one group label per row.

    Rows are closed at construction; the pre-closure values are kept so
    that zero parts stay identifiable as exact ingested zeros and exports
    reproduce the source.  Every raw value must be finite.  One group is
    enough here; training needs two.
    """

    def __init__(self, raw, labels, component_names, label_name="label",
                 provenance=None):
        raw = np.array(raw, dtype=float)
        if raw.ndim != 2:
            raise TooShortError("raw must be a matrix, one row per case")
        n, D = raw.shape
        if D < 2:
            raise TooShortError(f"need at least two parts, got {D}")
        names = tuple(str(c) for c in component_names)
        if len(names) != D:
            raise LengthMismatchError(
                f"{len(names)} component names for {D} columns"
            )
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != n:
            raise LengthMismatchError(
                f"expected {n} labels, got shape {labels.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
        if bad.size:
            raise NonFiniteError(f"non-finite parts in {bad.size} row(s), "
                                 f"first row {bad[0]}")
        self.rows = closure(raw)
        raw.setflags(write=False)
        self.rows.setflags(write=False)
        self.raw = raw
        self.labels = labels.astype(str)
        self.component_names = names
        self.label_name = str(label_name)
        self.group_names = tuple(str(g) for g in _distinct(self.labels))
        self.provenance = dict(provenance or {})

    @property
    def n(self):
        return self.raw.shape[0]

    @property
    def D(self):
        return self.raw.shape[1]

    @property
    def g(self):
        return len(self.group_names)

    @property
    def zero_mask(self):
        return self.raw == 0

    @property
    def zero_counts(self):
        return self.zero_mask.sum(axis=1)

    @property
    def has_zeros(self):
        return bool(self.zero_mask.any())

    @property
    def group_sizes(self):
        return {
            name: int((self.labels == name).sum())
            for name in self.group_names
        }

    def group_indices(self, name):
        return np.flatnonzero(self.labels == name)

    def row(self, i):
        return Composition(self.rows[i])

    def content_digest(self):
        """SHA-256 over component names, labels and full-precision raw
        values; stable across load/save round trips."""
        h = hashlib.sha256()
        h.update("\x1f".join(self.component_names).encode())
        h.update(b"\x1e")
        h.update("\x1f".join(self.labels.tolist()).encode())
        h.update(b"\x1e")
        for row in self.raw.tolist():
            h.update(",".join(map(repr, row)).encode())
            h.update(b"\n")
        return h.hexdigest()

    def to_csv(self, path, delimiter=","):
        """Write the pre-closure values and labels; loading the result
        back yields an identical dataset."""
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow(list(self.component_names) + [self.label_name])
            for row, label in zip(self.raw.tolist(), self.labels):
                writer.writerow([*map(repr, row), label])


class Table(NamedTuple):
    """A parsed delimited file: the numeric column names, their values (one
    row per data line), the labels (``None`` without a label column) and
    the SHA-256 of the file's bytes."""

    columns: list
    values: np.ndarray
    labels: list
    digest: str


def read_table(path, schema, header=None, require_label=True, parts=True):
    """Parse a delimited text file, reading it once.

    The delimiter is a tab when the first line holds one and a comma
    otherwise.  ``header`` names the columns of a file without a header
    line; ``None`` reads them from line 1.  The label column is used when
    present and must be present if ``require_label``.  The numeric columns
    are ``schema.component_cols``, or every column that is neither the
    label nor listed in ``schema.drop_cols``.  Blank lines are skipped.
    Every numeric cell must be a finite number, and with ``parts`` the rows
    are compositions: at least two parts, none negative, not all zero.
    Failures name their line and column; an unreadable file is a
    :class:`ParseError` too.

    The data lines are parsed in one C call when :func:`_fast_rows`
    accepts them, and otherwise cell by cell, which also locates a
    failing cell; both give the same values, labels and errors.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        text = data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    fh = io.StringIO(text, newline="")
    delimiter = "\t" if "\t" in fh.readline() else ","
    fh.seek(0)
    reader = csv.reader(fh, delimiter=delimiter)
    first_line = 2 if header is None else 1
    if header is None:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty", line=1) from None
    header = [c.strip() for c in header]
    if len(set(header)) != len(header):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise ParseError(f"duplicate column names {dupes}", line=1)
    label = schema.label_col if schema.label_col in header else None
    if label is None and require_label:
        raise MissingColumnError(
            f"label column {schema.label_col!r} not in {header}")
    if schema.component_cols is not None:
        columns = [str(c) for c in schema.component_cols]
        missing = [c for c in columns if c not in header]
        if missing:
            raise MissingColumnError(
                f"component column(s) {missing} not in {header}")
    else:
        dropped = set(schema.drop_cols) | {label}
        columns = [c for c in header if c not in dropped]
    need = 2 if parts else 1
    if len(columns) < need:
        raise TooShortError(
            f"need at least {need} numeric columns, got {columns}")
    col_idx = [header.index(c) for c in columns]
    label_idx = None if label is None else header.index(label)
    values, labels, lines = (
        _fast_rows(text, first_line, delimiter, len(header), col_idx,
                   label_idx)
        or _cell_rows(reader, first_line, header, columns, col_idx,
                      label_idx))
    if not lines:
        raise ParseError(f"{path} has no data rows", line=first_line)
    nonfinite = np.argwhere(~np.isfinite(values))
    if nonfinite.size:
        i, j = nonfinite[0]
        raise ParseError(f"non-finite value {float(values[i, j])}",
                         line=lines[i], column=columns[j])
    if parts:
        negative = np.flatnonzero((values < 0).any(axis=1))
        if negative.size:
            i = negative[0]
            bad = [columns[j] for j in np.flatnonzero(values[i] < 0)]
            raise NegativeComponentError(
                f"negative part(s) in column(s) {bad} at line {lines[i]}")
        empty = np.flatnonzero(values.sum(axis=1) <= 0)
        if empty.size:
            raise AllZeroError(f"all parts are zero at line {lines[empty[0]]}")
    return Table(columns, values, labels, hashlib.sha256(data).hexdigest())


# A file holding any of these is read cell by cell: a quote may hide a
# delimiter or a newline inside a cell (the header's too, which would move
# the first data line), csv ends a line at a carriage return, and
# np.loadtxt strips \x1c-\x1f around a number where float() refuses them.
_CELL_LOOP_ONLY = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _fast_rows(text, first_line, delimiter, width, col_idx, label_idx):
    """``(values, labels, lines)`` of the data lines of the file ``text``
    (from line ``first_line``) through one ``np.loadtxt`` call, or ``None``
    where the cell loop must read them.

    np.loadtxt skips empty lines and ignores cells outside ``usecols``, so
    an empty line or a line of the wrong width declines here; so do an
    empty label and every line np.loadtxt refuses: a blank or
    delimiter-only line (its numeric cells are blank) and numbers that
    only float() reads, such as ``1_0``.
    """
    if any(c in text for c in _CELL_LOOP_ONLY):
        return None
    body = text if first_line == 1 else text.partition("\n")[2]
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline
    if not lines or "" in lines:
        return None
    if set(map(str.count, lines, repeat(delimiter))) != {width - 1}:
        return None
    labels = None
    if label_idx is not None:
        labels = [line.split(delimiter, label_idx + 1)[label_idx].strip()
                  for line in lines]
        if not all(labels):
            return None
    try:
        values = np.loadtxt(lines, delimiter=delimiter, usecols=col_idx,
                            comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return values, labels, range(first_line, first_line + len(lines))


def _cell_rows(reader, first_line, header, columns, col_idx, label_idx):
    """``(values, labels, lines)`` of the rows of the csv ``reader``, one
    ``float()`` per numeric cell; blank lines are skipped and the first
    bad line raises."""
    flat, labels, lines = [], [], []
    for line_no, cells in enumerate(reader, start=first_line):
        try:
            if len(cells) != len(header):
                raise ValueError
            flat += [float(cells[j]) for j in col_idx]
        except ValueError:
            if not any(c.strip() for c in cells):
                continue
            raise _row_error(cells, header, columns, line_no) from None
        if label_idx is not None:
            labels.append(cells[label_idx].strip())
            if not labels[-1]:
                raise ParseError("empty label", line=line_no,
                                 column=header[label_idx])
        lines.append(line_no)
    values = np.array(flat).reshape(len(lines), len(columns))
    return values, None if label_idx is None else labels, lines


def _row_error(cells, header, columns, line_no):
    """The error of a data line that is ragged or holds a bad number."""
    if len(cells) != len(header):
        return ParseError(f"expected {len(header)} cells, got {len(cells)}",
                          line=line_no)
    for name in columns:
        cell = cells[header.index(name)]
        try:
            float(cell)
        except ValueError:
            return ParseError(f"cannot parse {cell.strip()!r} as a number",
                              line=line_no, column=name)


def load_dataset(path, schema, header=None):
    """Read a delimited text file into a labelled dataset.

    The first line must name the columns, unless ``header`` names them.
    The label column is required; the rest is as :func:`read_table`
    reads compositions.

    Parameters
    ----------
    path : path-like
    schema : DatasetSchema
    header : sequence of str, optional

    Returns
    -------
    LabeledCompositionDataset
    """
    table = read_table(path, schema, header)
    return LabeledCompositionDataset(
        table.values, table.labels, table.columns,
        label_name=schema.label_col,
        provenance={"source": str(Path(path)), "digest": table.digest},
    )


def find_glass():
    """Locate the forensic glass file: the ``SIMPLEX_CLF_GLASS``
    environment variable first, then ``data/glass.csv`` and
    ``data/glass.data`` under the working directory."""
    env = os.environ.get("SIMPLEX_CLF_GLASS")
    candidates = [Path(env)] if env else []
    candidates += [Path("data") / "glass.csv", Path("data") / "glass.data"]
    for cand in candidates:
        if cand.is_file():
            return cand
    return None


def load_glass(path=None):
    """Load the forensic glass dataset (8 oxide percentages, 6 types).

    Accepts either the raw UCI ``glass.data`` layout (no header; id,
    refractive index, eight oxides, integer type code) or any headered
    delimited file containing the oxide and ``Type`` columns.  The
    refractive index is not compositional and is dropped; type codes are
    replaced by descriptive names.

    Parameters
    ----------
    path : path-like, optional
        Defaults to :func:`find_glass` resolution.

    Returns
    -------
    LabeledCompositionDataset

    Raises
    ------
    FileNotFoundError
        If no path is given and none of the standard locations exist.
    """
    if path is None:
        path = find_glass()
        if path is None:
            raise FileNotFoundError(
                "forensic glass data not found; run scripts/fetch_glass.py "
                "or set SIMPLEX_CLF_GLASS to the file path"
            )
    with open(path, newline="") as fh:
        headered = any(ch.isalpha() for ch in fh.readline())
    ds = load_dataset(path, DatasetSchema(
        label_col="Type", component_cols=GLASS_COMPONENTS,
    ), None if headered else _GLASS_RAW_COLUMNS)
    # Map integer type codes (possibly parsed as "1" or "1.0") to names.
    mapped = []
    for lab in ds.labels:
        try:
            code = int(float(lab))
        except ValueError:
            mapped.append(lab)
            continue
        if code not in GLASS_TYPE_NAMES:
            raise ParseError(f"unknown glass type code {code}")
        mapped.append(GLASS_TYPE_NAMES[code])
    return LabeledCompositionDataset(
        ds.raw, mapped, ds.component_names, label_name=ds.label_name,
        provenance=ds.provenance,
    )


def zero_summary(dataset):
    """Zero-part census: per component and per row.

    Returns a dict with ``per_component`` (count and fraction of rows in
    which each part is exactly zero before closure) and
    ``per_row_zero_count`` (for each observed number of zero parts, the
    count and fraction of rows having it).
    """
    n = dataset.n
    mask = dataset.zero_mask
    per_component = [
        {
            "component": name,
            "zeros": int(mask[:, j].sum()),
            "fraction": float(mask[:, j].sum() / n),
        }
        for j, name in enumerate(dataset.component_names)
    ]
    counts = dataset.zero_counts
    per_row = [
        {
            "zeros": int(c),
            "rows": int((counts == c).sum()),
            "fraction": float((counts == c).sum() / n),
        }
        for c in _distinct(counts)
    ]
    return {"n": n, "per_component": per_component,
            "per_row_zero_count": per_row}


def group_summary(dataset):
    """Per-group census: size and number of rows with any zero part."""
    any_zero = dataset.zero_mask.any(axis=1)
    out = []
    for name in dataset.group_names:
        idx = dataset.group_indices(name)
        out.append({
            "group": name,
            "size": int(idx.size),
            "rows_with_zeros": int(any_zero[idx].sum()),
        })
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic two-regime dataset.

    ``regime`` selects where the group structure is Gaussian:
    ``"lra"`` places exact Gaussians in log-ratio coordinates, which
    favours the ``alpha = 0`` end of the transformation family, while
    ``"eda"`` places truncated Gaussians directly in the simplex with
    the first group's signal part close to the zero boundary, which
    favours ``alpha = 1``.  ``separation`` is the distance between
    neighbouring group means in units of the isotropic noise scale.
    """

    regime: str
    D: int
    groups: int
    group_size: int
    separation: float
    seed: int

    def __post_init__(self):
        if self.regime not in ("lra", "eda"):
            raise InvalidSpecError(
                f"regime must be 'lra' or 'eda', got {self.regime!r}"
            )
        if self.D < 3:
            raise InvalidSpecError(
                f"regime {self.regime!r} needs D >= 3, got {self.D}"
            )
        if self.groups < 2:
            raise InvalidSpecError(
                f"need at least two groups, got {self.groups}"
            )
        if self.group_size < 2:
            raise InvalidSpecError(
                f"need at least two observations per group, "
                f"got {self.group_size}"
            )
        if not 0 < self.separation < math.inf:
            raise InvalidSpecError("separation must be positive and finite")
        _check_seed(self.seed)
        if self.regime == "lra":
            if self.groups > self.D - 1:
                raise InvalidSpecError(
                    f"regime 'lra' supports at most {self.D - 1} groups "
                    f"at D={self.D}, got {self.groups}"
                )
        elif _eda_signal_means(self)[-1] > 0.85:
            raise InvalidSpecError(
                f"{self.groups} groups at separation {self.separation} "
                f"do not fit inside the simplex"
            )


# "eda" sampling geometry.  Group clouds are Gaussian on the sum-one
# hyperplane: isotropic ambient noise plus extra variance along the axis
# separating the group means, so within-group spread stays partly aligned
# with the between-group direction, as in overlapping real mixtures.  The
# first group's signal part sits _EDA_WALL_SIGMA marginal standard
# deviations above zero; power transforms with alpha below one bend that
# near-boundary region, so fitted Gaussian boundaries drift and accuracy
# decays steadily as alpha moves away from one.
_EDA_AMBIENT_SD = 0.016
_EDA_AXIS_EXTRA = 1.82
_EDA_WALL_SIGMA = 1.2


def _eda_signal_axis(D):
    axis = np.full(D, -1.0 / D)
    axis[0] += 1.0
    return axis / np.linalg.norm(axis)


def _eda_signal_means(spec):
    """Signal-part means of the "eda" group ladder, smallest first."""
    axis0 = float(_eda_signal_axis(spec.D)[0])
    x1_sd = _EDA_AMBIENT_SD * math.sqrt(
        (1.0 - 1.0 / spec.D) * (1.0 + _EDA_AXIS_EXTRA ** 2)
    )
    first = _EDA_WALL_SIGMA * x1_sd
    gap = spec.separation * _EDA_AMBIENT_SD
    return first + gap * axis0 * np.arange(spec.groups)


def _synthetic_labels(spec):
    return np.repeat(
        [f"g{i + 1:02d}" for i in range(spec.groups)], spec.group_size
    )


def generate_synthetic(spec):
    """Draw a synthetic dataset; bit-identical for equal specs.

    Returns
    -------
    LabeledCompositionDataset
        ``groups * group_size`` strictly positive compositions with
        ``D`` parts, labelled ``g01``, ``g02``, ...
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(int(spec.seed), spawn_key=(3,))
    )
    d = spec.D - 1
    H = helmert_submatrix(spec.D)
    if spec.regime == "lra":
        # Group means on scaled coordinate axes of the transformed space:
        # pairwise distance exactly `separation`, unit noise.
        scale = spec.separation / np.sqrt(2.0)
        blocks = []
        for i in range(spec.groups):
            mean = np.zeros(d)
            mean[i] = scale
            z = mean + rng.standard_normal((spec.group_size, d))
            with np.errstate(over="ignore"):  # the dataset rejects inf
                blocks.append(np.exp(z @ H))
        raw = np.vstack(blocks)
    else:
        # Group means ladder along the signal axis, first group hugging
        # the zero boundary.  Noise lives on the sum-zero hyperplane:
        # isotropic plus an extra share along the axis, redrawn until
        # every part is positive.
        axis = _eda_signal_axis(spec.D)
        targets = _eda_signal_means(spec)
        means = 1.0 / spec.D + np.outer(
            (targets - 1.0 / spec.D) / axis[0], axis
        )
        blocks = []
        for i in range(spec.groups):
            rows = np.empty((0, spec.D))
            while rows.shape[0] < spec.group_size:
                need = spec.group_size - rows.shape[0]
                m = max(need * 2, 8)
                pull = rng.standard_normal((m, d)) @ H
                pull += _EDA_AXIS_EXTRA * rng.standard_normal((m, 1)) * axis
                draw = means[i] + _EDA_AMBIENT_SD * pull
                keep = draw[(draw > 0).all(axis=1)]
                rows = np.vstack([rows, keep[:need]])
            blocks.append(rows)
        raw = np.vstack(blocks)
    names = [f"c{j + 1:02d}" for j in range(spec.D)]
    return LabeledCompositionDataset(
        raw, _synthetic_labels(spec), names,
        provenance={
            "source": f"synthetic:{spec.regime}",
            "D": spec.D, "groups": spec.groups,
            "group_size": spec.group_size,
            "separation": spec.separation, "seed": spec.seed,
        },
    )
