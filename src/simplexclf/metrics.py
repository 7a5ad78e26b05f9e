"""Distances between compositions.

Two families are provided.  The power-family distance ``alpha_distance``
is the Euclidean distance between transformed vectors, with a closed form
that avoids the basis change; at ``alpha = 0`` it is the classical
log-ratio (Aitchison) distance and at ``alpha = 1`` it is ``D`` times the
Euclidean distance between the raw parts.  The entropy-based ``esov``
distance is a true metric on the closed simplex that tolerates zero parts
for free.

Batch work goes through :func:`pairwise_distances`, whose entries are
computed with exactly the same floating-point operations as the scalar
functions, so batched and scalar results agree bit for bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    _as_matrix,
    _check_composition,
    _check_zero_alpha,
    _clr_rows,
    _power_rows,
)
from .errors import DimensionMismatchError, InvalidSpecError

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
            object.__setattr__(self, "alpha", float(self.alpha))
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

    def label(self):
        if self.kind == "alpha":
            return f"alpha({self.alpha:g})"
        return "esov"


def _pair_matrices(x, y, name_x="x", name_y="y"):
    mx, x1 = _as_matrix(x, name_x)
    my, y1 = _as_matrix(y, name_y)
    if mx.shape[1] != my.shape[1]:
        raise DimensionMismatchError(
            f"operands have {mx.shape[1]} and {my.shape[1]} parts"
        )
    _check_composition(mx, name_x)
    _check_composition(my, name_y)
    return mx, my, x1 and y1


# Byte budget of one (rows, m, D) float temporary in the distance
# kernels: rows of the left operand go through in blocks that fit it, so
# memory stays bounded by the (n, m) result.
_BLOCK_BYTES = 1 << 24


def _row_blocked(kernel):
    """Run an ``(n, D) x (m, D) -> (n, m)`` kernel over row blocks of its
    left operand.  Entries are computed independently, so the result does
    not depend on the block size."""
    @functools.wraps(kernel)
    def blocked(a, b):
        step = max(1, _BLOCK_BYTES // (8 * max(1, b.size)))
        out = np.empty((a.shape[0], b.shape[0]))
        for lo in range(0, a.shape[0], step):
            out[lo:lo + step] = kernel(a[lo:lo + step], b)
        return out
    return blocked


@_row_blocked
def _euclidean_cross(a, b):
    # (n, d) x (m, d) -> (n, m); the per-entry reduction over d uses the
    # same summation order as the scalar path, which keeps batch results
    # bit-identical to one-at-a-time calls.
    diff = a[:, np.newaxis, :] - b[np.newaxis, :, :]
    return np.sqrt(np.ascontiguousarray(diff ** 2).sum(axis=-1))


def _alpha_cross(mx, my, alpha):
    D = mx.shape[1]
    if alpha == 0.0:
        return _euclidean_cross(_clr_rows(mx), _clr_rows(my))
    ux = _power_rows(mx, alpha)
    uy = _power_rows(my, alpha)
    return (D / abs(alpha)) * _euclidean_cross(ux, uy)


@_row_blocked
def _esov_cross(mx, my):
    x = mx[:, np.newaxis, :]
    y = my[np.newaxis, :, :]
    mid = x + y
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(x > 0, x * np.log(2.0 * x / mid), 0.0)
        ty = np.where(y > 0, y * np.log(2.0 * y / mid), 0.0)
    total = np.ascontiguousarray(tx + ty).sum(axis=-1)
    # x == y gives an exact analytic zero; rounding may leave a tiny
    # negative residue.
    return np.sqrt(np.maximum(total, 0.0))


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
    """
    mx, my, scalar = _pair_matrices(x, y)
    alpha = float(alpha)
    _check_zero_alpha(mx, alpha, "x", "the alpha metric")
    _check_zero_alpha(my, alpha, "y", "the alpha metric")
    out = _alpha_cross(mx, my, alpha)
    return float(out[0, 0]) if scalar else out


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
    """
    mx, my, scalar = _pair_matrices(x, y)
    out = _esov_cross(mx, my)
    return float(out[0, 0]) if scalar else out


def pairwise_distances(a, b, metric):
    """All distances between rows of ``a`` and rows of ``b``.

    Parameters
    ----------
    a, b : array_like
        Matrices of closed compositions, shapes ``(n, D)`` and ``(m, D)``.
        Pass the same object twice for a square self-distance matrix
        (symmetric with an exactly zero diagonal).
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
    _check_composition(ma, "a")
    _check_composition(mb, "b")
    if metric.kind == "alpha":
        _check_zero_alpha(ma, metric.alpha, "a", "the alpha metric")
        _check_zero_alpha(mb, metric.alpha, "b", "the alpha metric")
        return _alpha_cross(ma, mb, metric.alpha)
    return _esov_cross(ma, mb)
