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

from .core import _check_seed, _distinct, closure, helmert_submatrix
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
        empty = np.flatnonzero(~values.any(axis=1))
        if empty.size:
            raise AllZeroError(f"all parts are zero at line {lines[empty[0]]}")
    return Table(columns, values, labels, hashlib.sha256(data).hexdigest())


# A file holding any of these is read cell by cell: a quote may hide a
# delimiter or a newline inside a cell (the header's too, which would move
# the first data line), and np.loadtxt strips \x1c-\x1f around a number
# where float() refuses them.  So is one with a carriage return outside a
# \r\n line end, since csv ends a line there too.
_CELL_LOOP_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _fast_rows(text, first_line, delimiter, width, col_idx, label_idx):
    """``(values, labels, lines)`` of the data lines of the file ``text``
    (from line ``first_line``) through one ``np.loadtxt`` call, or ``None``
    where the cell loop must read them.

    A ``\\r\\n`` line end is read as ``\\n``.  np.loadtxt skips empty
    lines and ignores cells outside ``usecols``, so an empty line or a line
    of the wrong width declines here; so do a lone ``\\r``, an empty label
    and every line np.loadtxt refuses: a blank or delimiter-only line (its
    numeric cells are blank) and numbers that only float() reads, such as
    ``1_0``.
    """
    if any(c in text for c in _CELL_LOOP_ONLY):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
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


# ---------------------------------------------------------------------------
# float rows as text

# Cells per chunk of _float_lines.  The kernel's working arrays (about 200
# bytes a cell) are made once per table and refilled by every chunk;
# 65,536-cell chunks run no faster and raise the peak RSS of `distance` at
# n=1000 from 40 to 57 MB.
_TEXT_CELLS = 8_192

_U64 = np.uint64
_ONES = _U64(2 ** 64 - 1)
_POW5 = 5 ** np.arange(21, dtype=_U64)
_POW10 = 10 ** np.arange(18, dtype=_U64)


def _keep_from(count, words):
    """Masks of ``words`` text words (first byte lowest) that keep the
    bytes from byte ``count`` of their text on."""
    bits = ((1 << 64 * words) - 1) >> (8 * count) << (8 * count)
    return [(bits >> 64 * j) & (2 ** 64 - 1) for j in range(words)]


# row e + 4: the masks of the five text words of a cell with decimal
# exponent e (see _fixed_text)
_KEEP = np.array([_keep_from(16 - max(e + 1, 1), 2) + _keep_from(8 + e, 3)
                  for e in range(-4, 14)], dtype=_U64)
# the steps that split 8-digit numbers into 4-, 2- and 1-digit lanes (see
# _fixed_text): multiplier, shift and mask that give the quotient by the
# divisor in each lane, and the lane width in bits
_HALVINGS = ((109951163, 40, 2 ** 64 - 1, 10 ** 4, 32),
             (5243, 19, 0x0000007F0000007F, 100, 16),
             (103, 10, 0x000F000F000F000F, 10, 8))


class _TextScratch:
    """The working arrays of :func:`_fixed_text`, kept for every chunk of a
    table: made afresh for each chunk they cost more than the arithmetic,
    as each freed block of a few hundred KB goes back to the system and
    the next one faults in again page by page."""

    cells = 0

    def fit(self, cells):
        """This scratch, made anew if it holds fewer than ``cells`` cells."""
        if cells > self.cells:
            self.cells = cells
            self.words = np.empty((9, cells), _U64)
            self.flags = np.empty((3, cells), bool)
            # five text words a cell and one more for the last newline
            self.lanes = np.empty((3, 5 * cells + 1), "<u8")
        return self


def _float_lines(values, sep, scratch=None):
    """The text of the float rows ``values`` as bytes, in pieces of whole
    rows of about ``_TEXT_CELLS`` cells: each cell ``'%.17g' % x``, cells
    joined by ``sep`` and each row ending in a newline.

    A chunk whose cells are all 0 or 1e-4 <= |x| < 1e14 is written by
    :func:`_fixed_text` in ``scratch``; any other chunk by the %-template.
    """
    rows, width = values.shape
    step = max(1, _TEXT_CELLS // width)
    scratch = scratch or _TextScratch()
    for lo in range(0, rows, step):
        chunk = values[lo:lo + step]
        text = _fixed_text(chunk, sep, scratch)
        if text is None:
            lines = (sep.join(["%.17g"] * width) + "\n") * len(chunk)
            text = (lines % tuple(chunk.ravel().tolist())).encode()
        yield text


def _fixed_text(values, sep, scratch=None):
    """``'%.17g'`` of every cell of the rows ``values``, as a memoryview
    of ASCII bytes made by integer arithmetic in the arrays of ``scratch``
    (a new :class:`_TextScratch` if none), or ``None`` unless each cell is
    0 or 1e-4 <= |x| < 1e14.

    There %g writes fixed notation: the correctly rounded 17-digit
    integer ``d`` of |x| (see :func:`_scaled`) split into an integer part
    ``d // 10**(16 - e)`` and a fraction of ``16 - e`` digits, e being
    the decimal exponent of d, ``floor(log10 |x|)``, trailing fraction
    zeros and then a bare point dropped.
    Each cell is built as 40 text bytes in five uint64 words, with NUL in
    every unused byte, and one pass deletes the NULs:

    - bytes 0-15: the 16 digits of the integer part, all but its own
      digits (at least the units digit) NUL; it is below 10**14, so bytes
      0 and 1 are free and hold the separator before the cell and the
      sign;
    - bytes 16-39: the fraction as 24 digits, the first ``8 + e`` (at
      least 4) NUL and the trailing zeros NUL; byte 19 holds the point.
    """
    n = values.size
    scratch = (scratch or _TextScratch()).fit(n)
    a, m, k, e, d, *work = (w[:n] for w in scratch.words)
    zero, up, flag = scratch.flags[:, :n]
    digits, text, keep = (w[:5 * n].reshape(n, 5) for w in scratch.lanes)
    a, k, e = a.view(float), k.view(np.int32)[:n], e.view(np.int64)
    np.abs(values, out=a.reshape(values.shape))
    np.equal(a, 0.0, out=zero)
    np.copyto(a, 1.0, where=zero)  # scaled as 1, written as d = 0
    if not (a.min() >= 1e-4 and a.max() < 1e14):
        return None
    logs = d.view(float)
    np.log10(a, out=logs)
    np.floor(logs, out=logs)
    np.copyto(e, logs, casting="unsafe")
    np.clip(e, -4, 13, out=e)
    np.frexp(a, out=(a, k))  # |x| = a * 2**k, 1/2 <= a < 1
    np.multiply(a, 2.0 ** 53, out=m, casting="unsafe")
    _scaled(m, k, e, d, up, work)
    # log10 may be one off next to a power of ten: d then has 16 or 18
    # digits, and the chunk is scaled again with those exponents mended
    if not (d.min() >= _POW10[16] and d.max() < _POW10[17]):
        e += (d >= _POW10[17]).astype(np.int64) - (d < _POW10[16])
        _scaled(m, k, e, d, up, work)
    # never up to 10**17: no double in the window lies within half a unit
    # of the 17th digit below a power of ten
    d += up
    np.copyto(d, 0, where=zero)  # e is 0 already
    whole, scale, index = work[0], work[1], work[2].view(np.int64)
    np.maximum(e, -1, out=index)
    np.subtract(16, index, out=index)
    # mode="raise" would fill a new array first; each index is in range
    _POW10.take(index, out=scale, mode="clip")
    np.divmod(d, scale, out=(whole, d))  # d keeps the fraction
    np.divmod(whole, _U64(10 ** 8), out=(digits[:, 0], digits[:, 1]))
    np.divmod(d, _U64(10 ** 8), out=(whole, digits[:, 4]))
    np.divmod(whole, _U64(10 ** 8), out=(digits[:, 2], digits[:, 3]))
    # the 8 decimal digits of each group, one digit value per byte, first
    # digit in the lowest byte: dividing by multiply and shift, lane by lane
    for mul, shift, mask, div, bits in _HALVINGS:
        np.multiply(digits, _U64(mul), out=keep)
        keep >>= _U64(shift)
        keep &= _U64(mask)  # the quotients by div
        # digits = quotient | (digits - quotient * div) << bits
        keep *= _U64((div << bits) - 1)
        digits <<= _U64(bits)
        digits -= keep
    np.bitwise_or(digits, _U64(0x3030303030303030), out=text)
    np.add(e, 4, out=index)
    _KEEP.take(index, axis=0, out=keep, mode="clip")
    text &= keep
    text[:, 2] |= _U64(ord(".") << 24)
    # trailing fraction zeros: the last digit is the top byte of the last
    # word; with no fraction digit left the point goes too
    np.less(digits[:, 4], _U64(2 ** 56), out=flag)
    ends_in_zero = np.flatnonzero(flag)
    text[ends_in_zero, 2:] &= _through_last_nonzero(digits[ends_in_zero, 2:])
    np.signbit(values, out=flag.reshape(values.shape))
    np.multiply(flag, _U64(ord("-") << 8), out=whole)
    before = whole.reshape(values.shape)
    before[:, 1:] |= _U64(ord(sep))
    before[1:, 0] |= _U64(ord("\n"))
    text[:, 0] |= whole
    scratch.lanes[1, 5 * n] = ord("\n")
    chars = scratch.lanes[1, :5 * n + 1].view(np.uint8)
    kept = scratch.lanes[2, :5 * n + 1].view(bool)  # keep's words are free
    np.not_equal(chars, 0, out=kept)
    return chars[kept].data


def _scaled(m, k, e, d, up, work):
    """``floor(m * 2**(k - 53) * 10**p)`` with ``p = 16 - e`` into ``d``,
    and into ``up`` whether the exact value rounds it up to the nearest
    integer, ties to even; ``work`` holds four uint64 arrays like ``m``.

    ``m * 5**p`` (53 by at most 47 bits) is split into two uint64 words:
    ``lo`` is the product wrapped at 2**64, and ``hi`` the float product
    less ``lo``, over 2**64 and rounded, which is exact: ``hi`` is below
    2**36, and the float arithmetic is off by less than 2**-15 of its unit.
    They are shifted right by ``s = 53 - k - p``, which lies in 1..63 for
    every cell :func:`_fixed_text` takes; the remainder is the low ``s``
    bits of ``lo``.
    """
    s, hi, lo, t = work
    np.subtract(16, e, out=t.view(np.int64))
    _POW5.take(t.view(np.int64), out=hi, mode="clip")  # 5**p
    np.subtract(e, k, out=s.view(np.int64))
    s += _U64(37)
    np.multiply(m, hi, out=lo)
    high = t.view(float)
    np.multiply(m, hi, out=high, dtype=float)
    high -= lo
    high *= 2.0 ** -64
    np.rint(high, out=high)
    np.copyto(hi, high, casting="unsafe")
    np.subtract(_U64(64), s, out=t)
    hi <<= t
    np.right_shift(lo, s, out=d)
    d |= hi
    np.left_shift(_U64(1), s, out=t)
    t -= _U64(1)
    lo &= t  # the remainder
    np.bitwise_and(d, _U64(1), out=t)
    lo += t  # so that a tie rounds to even
    np.subtract(s, _U64(1), out=t)
    np.left_shift(_U64(1), t, out=t)  # half
    np.greater(lo, t, out=up)


def _through_last_nonzero(digits):
    """Masks of the bytes of each row of three digit words (first digit in
    the lowest byte of the first word) up to its last nonzero digit."""
    flag = (digits + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080)
    for shift in (8, 16, 32):
        flag |= flag >> _U64(shift)
    keep = (flag >> _U64(7)) * _U64(0xFF)
    keep[:, 1] |= (keep[:, 2] != 0) * _ONES
    keep[:, 0] |= (keep[:, 1] != 0) * _ONES
    return keep


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
