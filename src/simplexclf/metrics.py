"""Distances between compositions.

Two families are provided.  The power-family distance ``alpha_distance``
is the Euclidean distance between transformed vectors, with a closed form
that avoids the basis change; at ``alpha = 0`` it is the classical
log-ratio (Aitchison) distance and at ``alpha = 1`` it is ``D`` times the
Euclidean distance between the raw parts.  The entropy-based ``esov``
distance is a true metric on the closed simplex that tolerates zero parts
for free.

Every distance goes through one kernel on operands that are validated and
transformed once; a scalar call is the 1 x 1 case of
:func:`pairwise_distances`, so batched and scalar results agree bit for
bit.  The matrix is filled one row block at a time.  A block's terms are
laid out part by part, ``(D, rows, m)``, in work buffers that every block
reuses and that are small enough to stay in L2 cache: two for ESOV, one
for the Euclidean form of the alpha metric.  Each entry sums its parts by
adds of whole contiguous part slices, in the order of numpy's own sum, so
memory is the result plus a few hundred KB.  The kernel runs in the
calling thread; threads come one level up, in :func:`_map_row_blocks`,
through which ``predict`` reduces each block of query rows to its labels,
so memory is bounded by the labels, not by the ``(n, m)`` distances.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import _as_matrix, _check_composition, _check_finite, _power_coords
from .errors import (
    DimensionMismatchError, InvalidSpecError, ParameterOutOfRangeError)

__all__ = [
    "MetricSpec",
    "alpha_distance",
    "alpha_distance_via_transform",
    "esov_distance",
    "pairwise_distances",
]


@dataclass(frozen=True, repr=False)
class MetricSpec:
    """Identifies a metric: ``kind`` in ``{"alpha", "esov"}``.

    The ``alpha`` kind carries its transformation parameter; ``esov`` has
    none.  Instances are immutable and hashable.
    """

    kind: str
    alpha: float = None

    def __post_init__(self):
        if self.kind not in ("alpha", "esov"):
            raise InvalidSpecError(f"unknown metric kind {self.kind!r}")
        if self.kind == "alpha":
            if self.alpha is None:
                raise InvalidSpecError("the alpha metric needs a value")
            object.__setattr__(self, "alpha", _check_finite(self.alpha))
        elif self.alpha is not None:
            raise InvalidSpecError("the esov metric takes no parameter")

    @classmethod
    def alpha_metric(cls, alpha):
        return cls("alpha", alpha)

    @classmethod
    def esov(cls):
        return cls("esov")

    def __repr__(self):
        if self.kind == "alpha":
            return f"MetricSpec('alpha', {self.alpha!r})"
        return "MetricSpec('esov')"


# Byte budget of each reused scratch buffer of the distance kernels, sized
# so that a block's buffers stay in L2 cache: rows of the left operand go
# through in blocks that fit it, so memory stays bounded by the (n, m)
# result.
_BLOCK_BYTES = 1 << 18
# Cells per row block of a streamed table or a blocked prediction.  A
# block's temporaries and its text (about 20 bytes a cell) stay a few MB
# whatever n; larger blocks compute no faster and raise peak memory.
_BLOCK_CELLS = 65_536


def _row_slices(n, width):
    """Consecutive slices of ``range(n)``, each about ``_BLOCK_CELLS`` cells
    of a table ``width`` columns wide."""
    step = max(1, _BLOCK_CELLS // width)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_row_blocks(fn, n, width):
    """``fn(rows)`` for the ``_row_slices(n, width)`` of ``n`` rows (one
    empty slice if none), concatenated in row order.  Two blocks or more
    go to the calling thread (even blocks) and one more (odd blocks) when
    the process may use two CPUs; numpy releases the GIL inside ufuncs.
    Both run under the caller's numpy error state and ufunc buffer size;
    the first error raised in a block is re-raised here.  ``fn`` must call
    nothing the benchmark tracer wraps: it keeps one span stack for all."""
    blocks = list(_row_slices(n, width)) or [slice(0, 0)]
    if min(len(blocks), _cpus()) < 2:
        return np.concatenate([fn(rows) for rows in blocks])
    # a new thread starts from numpy's default error state and buffer size
    errstate = dict(np.geterr(), call=np.geterrcall())
    bufsize = np.getbufsize()
    out, errors = [None] * len(blocks), []

    def run(first):
        with np.errstate(**errstate):
            old = np.setbufsize(bufsize)
            try:
                for i in range(first, len(blocks), 2):
                    out[i] = fn(blocks[i])
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)
            finally:
                np.setbufsize(old)

    thread = threading.Thread(target=run, args=(1,))
    thread.start()
    run(0)
    thread.join()
    if errors:
        raise errors[0]
    return np.concatenate(out)


def _cross(a, b, n_work, fill):
    """``(n, m)`` matrix of square roots of per-part term sums, filled one
    row block of ``a`` at a time: ``fill(rows, *work)`` writes the
    ``(D, rows, m)`` terms of ``a[rows]`` against ``b``, each part's one
    contiguous slice, into one of its ``n_work`` work buffers and returns
    it, and :func:`_add_parts` sums each entry's parts in numpy's pairwise
    order, as a scalar call does."""
    n, (m, D) = a.shape[0], b.shape
    step = max(1, _BLOCK_BYTES // (8 * max(1, b.size)))
    out = np.empty((n, m))
    work = [np.empty((D, min(step, n), m)) for _ in range(n_work)]
    # numpy's ufunc buffer: a row of m cells (numpy wants a multiple of
    # 16), at least 128 and at most the caller's size.  At the default
    # 8192, numpy copies each broadcast operand into buffers to lengthen
    # the loop, which doubled the cost of those calls at m = 214; buffers
    # under 128 cells made calls at m = 3 and 12 take up to twice as long
    # as that default
    bufsize = np.setbufsize(min(np.getbufsize(), max(128, m - m % 16)))
    try:
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            dist = out[rows]
            _add_parts(fill(rows, *(buf[:, :len(dist)] for buf in work)),
                       dist)
            # x == y gives an exact analytic ESOV zero; rounding may leave
            # a tiny negative residue.  Sums of squares are never negative.
            np.maximum(dist, 0.0, out=dist)
            np.sqrt(dist, out=dist)
    finally:
        np.setbufsize(bufsize)
    return out


def _add_parts(terms, out):
    """``out = np.add.reduce`` of ``terms`` over its first axis, bit for
    bit as numpy reduces a contiguous last axis: ``0.0 +`` the pairwise
    sum of the parts.  Every add is between whole slices ``terms[j]``,
    which are overwritten."""
    np.add(_pairwise(terms), 0.0, out=out)


def _pairwise(t):
    """Numpy's pairwise sum of the slices of ``t``, left in ``t[0]``: in
    order below 8 parts; else 8 running sums ``t[j] += t[j + 8i]``,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and followed by
    the tail in order; above 128 parts, the two halves split at a
    multiple of 8."""
    n = len(t)
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise(t[:half])
        total += _pairwise(t[half:])
        return total
    head = n - n % 8 if n >= 8 else 1
    for i in range(8, head, 8):
        t[:8] += t[i:i + 8]
    if n >= 8:
        t[0:8:2] += t[1:8:2]
        t[0:8:4] += t[2:8:4]
        t[0] += t[4]
    for i in range(head, n):
        t[0] += t[i]
    return t[0]


def _euclidean_cross(a, b):
    at = a.T[:, :, np.newaxis]
    bt = np.ascontiguousarray(b.T)[:, np.newaxis, :]

    def fill(rows, diff):
        np.subtract(at[:, rows], bt, out=diff)
        return np.square(diff, out=diff)

    return _cross(a, b, 1, fill)


def _esov_cross(mx, my):
    # x log(2x / (x + y)) per part; where x is 0 the log's argument is set
    # to 1, so the term is 0 * log(1) = +0.0 (and so for y)
    x = mx.T[:, :, np.newaxis]
    y = np.ascontiguousarray(my.T)[:, np.newaxis, :]
    twice_y = 2.0 * y
    x_zero, y_zero = ~(x > 0), ~(y > 0)

    def fill(rows, terms, mid):
        xr = x[:, rows]
        np.add(xr, y, out=mid)
        np.divide(2.0 * xr, mid, out=terms)
        np.copyto(terms, 1.0, where=x_zero[:, rows])
        np.log(terms, out=terms)
        terms *= xr
        np.divide(twice_y, mid, out=mid)
        np.copyto(mid, 1.0, where=y_zero)
        np.log(mid, out=mid)
        mid *= y
        terms += mid
        return terms

    with np.errstate(invalid="ignore"):  # 0 / 0 where both parts are 0
        return _cross(mx, my, 2, fill)


def alpha_distance(x, y, alpha):
    """Distance induced by the ``alpha`` transformation, in closed form.

    For ``alpha != 0`` this equals
    ``(D / |alpha|) * ||u_alpha(x) - u_alpha(y)||`` with ``u_alpha`` the
    closed power transform; at ``alpha = 0`` it is the log-ratio distance
    ``||clr(x) - clr(y)||``.  Both coincide with the Euclidean distance
    between the transformed vectors (see
    :func:`alpha_distance_via_transform`).

    Parameters
    ----------
    x, y : array_like
        Closed compositions with the same number of parts.
    alpha : float
        Metric parameter; must be strictly positive if either composition
        has zero parts.

    Returns
    -------
    float
        Or the matrix of :func:`pairwise_distances` when either operand is
        a matrix.
    """
    return _pair(x, y, MetricSpec.alpha_metric(alpha))


def alpha_distance_via_transform(x, y, alpha, helmert=None):
    """Same distance computed through the explicit transformation.

    Exists as an independent route for consistency checks; production
    code should prefer :func:`alpha_distance`.
    """
    from .core import alpha_transform

    zx = alpha_transform(x, alpha, helmert=helmert)
    zy = alpha_transform(y, alpha, helmert=helmert)
    diff = np.asarray(zx) - np.asarray(zy)
    return float(np.sqrt((diff ** 2).sum()))


def esov_distance(x, y):
    """Entropy-based metric on the closed simplex.

    The square is the sum over parts of
    ``x_i log(2 x_i / (x_i + y_i)) + y_i log(2 y_i / (x_i + y_i))`` with
    the convention ``0 * log(...) = 0``, so zero parts need no special
    treatment.  Satisfies the triangle inequality.

    Parameters
    ----------
    x, y : array_like
        Closed compositions with the same number of parts.

    Returns
    -------
    float
        Or the matrix of :func:`pairwise_distances` when either operand is
        a matrix.
    """
    return _pair(x, y, MetricSpec.esov())


def _coords(mat, metric, name):
    """The validated kernel operand of ``metric`` for the rows of ``mat``:
    the compositions themselves for ESOV, their clr or closed power rows
    for the alpha metric.  Errors name ``name``'s rows; an alpha so near 0
    that the distance scale ``D / |alpha|`` overflows is refused."""
    if metric.kind == "esov":
        _check_composition(mat, name)
        return mat
    rows, alpha = _power_coords(mat, metric.alpha, name, "the alpha metric")
    if alpha != 0.0 and not math.isfinite(mat.shape[1] / abs(alpha)):
        raise ParameterOutOfRangeError(
            f"the alpha metric at alpha={alpha} scales distances by "
            f"D/|alpha|, which overflows at D={mat.shape[1]}; use alpha=0 "
            f"or a larger |alpha|")
    return rows


def _distances(ca, cb, metric):
    """``(n, m)`` distances between the rows of two ``_coords`` operands."""
    if metric.kind == "esov":
        return _esov_cross(ca, cb)
    dist = _euclidean_cross(ca, cb)
    if metric.alpha != 0.0:
        dist *= ca.shape[1] / abs(metric.alpha)
    return dist


def _pair(x, y, metric):
    out = pairwise_distances(x, y, metric)
    return float(out[0, 0]) if np.ndim(x) == np.ndim(y) == 1 else out


def pairwise_distances(a, b, metric):
    """All distances between rows of ``a`` and rows of ``b``.

    Parameters
    ----------
    a, b : array_like
        Matrices of closed compositions, shapes ``(n, D)`` and ``(m, D)``.
        Pass the same object twice for a square self-distance matrix
        (symmetric with an exactly zero diagonal); its rows are then
        validated once, and errors name them "the data".
    metric : MetricSpec
        Which distance to compute.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(n, m)``; entry ``(i, j)`` is bit-identical to
        the corresponding scalar call.
    """
    ma, a1 = _as_matrix(a, "a")
    mb, b1 = _as_matrix(b, "b")
    if ma.shape[1] != mb.shape[1]:
        raise DimensionMismatchError(
            f"operands have {ma.shape[1]} and {mb.shape[1]} parts"
        )
    ca = _coords(ma, metric, "the data" if a is b else "a")
    return _distances(ca, ca if a is b else _coords(mb, metric, "b"), metric)
