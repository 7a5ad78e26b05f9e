"""Simplex geometry and the power-parameterised transformation family.

Compositional observations are vectors of non-negative parts carrying only
relative information; they live on the unit simplex after closure
(normalisation to unit sum).  This module provides the closure operation,
the Helmert orthonormal basis of the sum-zero subspace, the power transform
on the simplex, a one-parameter family of maps ``alpha_transform`` sending
the simplex into ordinary Euclidean space, its inverse, and the classical
component-wise Box-Cox transform.

The family is indexed by a real ``alpha`` in ``[-1, 1]``.  At ``alpha = 0``
it reduces (continuously) to the centred log-ratio map composed with the
Helmert basis, i.e. the isometric log-ratio coordinates; at ``alpha = 1``
it is an affine map of the raw parts.  Intermediate values interpolate, and
strictly positive ``alpha`` remains defined for compositions with zero
parts.  All functions accept a single composition of ``D`` parts or a
matrix with one composition per row, and return matching shapes.
"""

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    NegativeComponentError,
    NonFiniteError,
    NotClosedError,
    OutsideImageError,
    ParameterOutOfRangeError,
    TooShortError,
    ZeroWithNonpositiveAlphaError,
    ZeroWithNonpositiveThetaError,
)

__all__ = [
    "CLOSURE_TOL",
    "Composition",
    "closure",
    "helmert_submatrix",
    "power_transform",
    "alpha_transform",
    "inverse_alpha_transform",
    "clr",
    "boxcox_componentwise",
]

# Compositions must sum to one within this tolerance; anything further off
# is rejected rather than silently renormalised.
CLOSURE_TOL = 1e-10

# Forward transforms of boundary compositions can leave components of the
# pre-image a few ulp below zero; treat anything this close as exactly zero
# when inverting with positive alpha.
_BOUNDARY_SLACK = 1e-12


def _distinct(values):
    """Sorted distinct values, the same array ``np.unique(values)`` gives.

    The ``return_counts`` form skips numpy's masked-array check, which
    would import ``numpy.ma`` (about 15 ms) on the first call.
    """
    return np.unique(values, return_counts=True)[0]


def _check_seed(seed):
    """Reject a negative seed, which ``np.random.SeedSequence`` cannot take."""
    if seed < 0:
        raise ParameterOutOfRangeError(
            f"seed must be a non-negative integer, got {seed}")


def _as_matrix(x, name="x"):
    """Return ``(arr2d, was_1d)`` for a vector or matrix argument."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[np.newaxis, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionMismatchError(
        f"{name} must be a vector or a matrix of row vectors, "
        f"got {arr.ndim} dimensions"
    )


def _check_composition(mat, name="x"):
    """Validate that every row of ``mat`` is a closed composition."""
    if mat.shape[1] < 2:
        raise TooShortError(
            f"{name} needs at least two parts, got {mat.shape[1]}"
        )
    if (mat < 0).any():
        rows = np.flatnonzero((mat < 0).any(axis=1)).tolist()
        raise NegativeComponentError(
            f"{name} has negative parts in rows {rows}"
        )
    sums = mat.sum(axis=1)
    # a row sum is finite exactly when every part of the row is
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise NonFiniteError(
            f"{name} rows {bad.tolist()} have non-finite parts"
        )
    bad = np.nonzero(np.abs(sums - 1.0) > CLOSURE_TOL)[0]
    if bad.size:
        raise NotClosedError(
            f"{name} rows {bad.tolist()} do not sum to 1 within "
            f"{CLOSURE_TOL:g} (apply closure first)"
        )


def _check_finite(value, name="alpha"):
    """``value`` as a finite float; an int beyond the range is infinite."""
    try:
        number = float(value)
    except OverflowError:
        number = np.inf if value > 0 else -np.inf
    if not np.isfinite(number):
        raise ParameterOutOfRangeError(
            f"{name} must be a finite number, got {number}"
        )
    return number


def _check_zero_alpha(mat, alpha, name="x", use="the alpha-transformation",
                      param="alpha", error=ZeroWithNonpositiveAlphaError):
    """``alpha`` as a finite float that the rows of ``mat`` admit: zeros are
    representable only for a strictly positive power.  The only zero-vs-power
    test; its error names every offending row so the user can act."""
    alpha = _check_finite(alpha, param)
    if alpha <= 0 and (mat == 0).any():
        rows = np.flatnonzero((mat == 0).any(axis=1)).tolist()
        raise error(
            f"{name} has zero parts in rows {rows}; {use} needs "
            f"{param} > 0 (got {param}={alpha})"
        )
    return alpha


def _power_rows(mat, alpha):
    """Raise each row to ``alpha`` and re-close it."""
    p = mat ** alpha
    return p / p.sum(axis=1, keepdims=True)


def _clr_rows(mat):
    """Log of each part over the row's geometric mean."""
    logs = np.log(mat)
    return logs - logs.mean(axis=1, keepdims=True)


def _power_coords(mat, alpha, name="x", use="the alpha-transformation"):
    """``(rows, alpha)`` for the closed compositions ``mat``: their clr rows
    at ``alpha == 0``, else their closed power rows, with ``alpha`` as a
    float.  Validates ``mat`` and its admissibility for ``alpha`` first,
    and refuses an ``alpha`` whose powers overflow or underflow to a
    non-finite row."""
    _check_composition(mat, name)
    alpha = _check_zero_alpha(mat, alpha, name, use)
    with np.errstate(all="ignore"):
        rows = _clr_rows(mat) if alpha == 0.0 else _power_rows(mat, alpha)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParameterOutOfRangeError(
            f"{use} at alpha={alpha} gives non-finite coordinates for "
            f"{name} rows {bad.tolist()}; use an alpha nearer 0")
    return rows, alpha


def closure(x):
    """Normalise non-negative vectors to unit-sum compositions.

    Zero parts are preserved exactly: a part equal to zero before closure
    is exactly zero after it.

    Parameters
    ----------
    x : array_like
        A vector of ``D`` non-negative parts, or a matrix with one such
        vector per row.  ``D`` must be at least 2.

    Returns
    -------
    numpy.ndarray
        Array of the same shape whose rows each sum to one.

    Raises
    ------
    NegativeComponentError
        If any part is negative.
    AllZeroError
        If any row sums to zero.
    NonFiniteError
        If finite parts of a row sum past the float range.
    TooShortError
        If rows have fewer than two parts.

    Examples
    --------
    >>> closure([2.0, 2.0])
    array([0.5, 0.5])
    >>> closure([1.0, 0.0, 3.0])
    array([0.25, 0.  , 0.75])
    """
    mat, was_1d = _as_matrix(x)
    if mat.shape[1] < 2:
        raise TooShortError(
            f"compositions need at least two parts, got {mat.shape[1]}"
        )
    if (mat < 0).any():
        rows = np.flatnonzero((mat < 0).any(axis=1)).tolist()
        raise NegativeComponentError(f"negative parts in rows {rows}")
    with np.errstate(over="ignore"):
        sums = mat.sum(axis=1, keepdims=True)
    if (sums <= 0).any():
        rows = np.nonzero(sums.ravel() <= 0)[0].tolist()
        raise AllZeroError(f"rows {rows} sum to zero and cannot be closed")
    # finite parts can still sum past the float range
    over = np.isinf(sums.ravel()) & np.isfinite(mat).all(axis=1)
    if over.any():
        raise NonFiniteError(
            f"rows {np.flatnonzero(over).tolist()} have parts that sum past "
            f"the float range (largest {np.finfo(float).max:.17g}); scale "
            f"them down before closing")
    out = mat / sums
    return out[0] if was_1d else out


def helmert_submatrix(D):
    """Orthonormal basis of the sum-zero subspace of ``R^D``, by rows.

    Row ``j`` (1-based, ``j = 1 .. D-1``) has the value
    ``h_j = -1/sqrt(j*(j+1))`` in its first ``j`` positions, ``-j*h_j`` in
    position ``j+1`` and zeros afterwards.  The resulting ``(D-1) x D``
    matrix ``H`` satisfies ``H @ H.T == I`` and ``H @ ones(D) == 0``, so it
    maps mean-centred vectors isometrically to ``R^(D-1)``.

    Parameters
    ----------
    D : int
        Number of parts; must be at least 2.

    Returns
    -------
    numpy.ndarray
        The ``(D-1) x D`` matrix described above.

    Examples
    --------
    >>> helmert_submatrix(2) * np.sqrt(2)
    array([[-1.,  1.]])
    """
    D = int(D)
    if D < 2:
        raise TooShortError(f"need D >= 2, got {D}")
    j = np.arange(1, D)
    h = -1.0 / np.sqrt(j * (j + 1.0))
    H = np.zeros((D - 1, D))
    for row in range(D - 1):
        H[row, : row + 1] = h[row]
        H[row, row + 1] = -(row + 1) * h[row]
    return H


def _check_helmert(H, D):
    H = np.asarray(H, dtype=float)
    if H.shape != (D - 1, D):
        raise DimensionMismatchError(
            f"basis must have shape {(D - 1, D)}, got {H.shape}"
        )
    return H


def power_transform(x, alpha):
    """Closed power transform: raise parts to ``alpha`` and re-close.

    The result is again a composition.  ``alpha = 1`` is the identity and
    ``alpha = 0`` gives the barycentre for strictly positive input.  For
    ``alpha > 0`` zero parts stay exactly zero.

    Parameters
    ----------
    x : array_like
        Composition(s); rows must already be closed.
    alpha : float
        Power; must be strictly positive if ``x`` has zero parts.

    Returns
    -------
    numpy.ndarray
        Composition(s) of the same shape.
    """
    mat, was_1d = _as_matrix(x)
    _check_composition(mat)
    alpha = _check_zero_alpha(mat, alpha, use="the power transform")
    out = _power_rows(mat, alpha)
    return out[0] if was_1d else out


def clr(x):
    """Centred log-ratio: log of each part over the geometric mean.

    Defined for strictly positive compositions only; rows of the result
    sum to zero.
    """
    mat, was_1d = _as_matrix(x)
    out, _ = _power_coords(mat, 0.0, use="the log-ratio transform")
    return out[0] if was_1d else out


def alpha_transform(x, alpha, helmert=None, name="x"):
    """Map composition(s) to ``R^(D-1)`` with curvature set by ``alpha``.

    For ``alpha != 0`` this is ``H @ (D * u - 1) / alpha`` where ``u`` is
    the closed power transform of ``x`` and ``H`` the Helmert submatrix;
    at ``alpha = 0`` it is ``H @ clr(x)``, the continuous limit.  Zero
    parts are admissible only for ``alpha > 0``.

    Parameters
    ----------
    x : array_like
        Composition(s) with ``D`` parts; rows must be closed.
    alpha : float
        Transformation parameter, conventionally in ``[-1, 1]``.
    helmert : array_like, optional
        Alternative orthonormal basis of the sum-zero subspace, shape
        ``(D-1, D)``.  Intended for verifying basis invariance; the
        default is :func:`helmert_submatrix`.
    name : str
        What error messages call the rows of ``x``.

    Returns
    -------
    numpy.ndarray
        Vector(s) of ``D - 1`` coordinates.
    """
    mat, was_1d = _as_matrix(x, name)
    v, alpha = _power_coords(mat, alpha, name)
    D = mat.shape[1]
    H = helmert_submatrix(D) if helmert is None else _check_helmert(helmert, D)
    if alpha != 0.0:
        v = (D * v - 1.0) / alpha
    z = v @ H.T
    return z[0] if was_1d else z


def inverse_alpha_transform(v, alpha, D, helmert=None):
    """Invert :func:`alpha_transform` back to composition(s).

    The pre-image candidate is ``s = alpha * H.T @ v + 1``; ``v`` lies in
    the image of the transformation exactly when every component of ``s``
    is non-negative (strictly positive for ``alpha < 0``).  The inverse of
    the ``alpha = 0`` map is the closure of the component-wise exponential
    of ``H.T @ v``.

    Parameters
    ----------
    v : array_like
        Coordinate vector(s) of length ``D - 1``.
    alpha : float
        Parameter used in the forward transformation.
    D : int
        Number of parts of the original composition.
    helmert : array_like, optional
        Basis used in the forward transformation, if not the default.

    Returns
    -------
    numpy.ndarray
        Composition(s) with ``D`` parts.

    Raises
    ------
    OutsideImageError
        If ``v`` is not in the image of the forward transformation.
    """
    mat, was_1d = _as_matrix(v, name="v")
    D = int(D)
    if D < 2:
        raise TooShortError(f"need D >= 2, got {D}")
    if mat.shape[1] != D - 1:
        raise DimensionMismatchError(
            f"coordinate vectors must have length {D - 1}, "
            f"got {mat.shape[1]}"
        )
    alpha = _check_finite(alpha)
    H = helmert_submatrix(D) if helmert is None else _check_helmert(helmert, D)
    back = mat @ H
    if alpha == 0.0:
        out = np.exp(back)
        out = out / out.sum(axis=1, keepdims=True)
        return out[0] if was_1d else out
    with np.errstate(over="ignore"):  # an infinite part is outside too
        s = alpha * back + 1.0
    if alpha > 0:
        # Round-trip noise can leave a boundary zero infinitesimally
        # negative; snap it back before the membership test.
        s[(s < 0) & (s > -_BOUNDARY_SLACK)] = 0.0
        if (s < 0).any():
            raise OutsideImageError(
                f"not in the image of the alpha={alpha:g} transform: "
                f"pre-image has negative parts"
            )
    else:
        if (s <= 0).any():
            raise OutsideImageError(
                f"not in the image of the alpha={alpha:g} transform: "
                f"pre-image has non-positive parts"
            )
    p = s ** (1.0 / alpha)
    out = p / p.sum(axis=1, keepdims=True)
    return out[0] if was_1d else out


def boxcox_componentwise(x, theta):
    """Component-wise Box-Cox transform ``(x_i**theta - 1) / theta``.

    At ``theta = 0`` this is the component-wise logarithm, its continuous
    limit.  Unlike :func:`alpha_transform` the output is not a composition
    and no basis change is applied.

    Parameters
    ----------
    x : array_like
        Composition(s); rows must be closed.
    theta : float
        Power; must be finite, and strictly positive if ``x`` has zero
        parts.

    Returns
    -------
    numpy.ndarray
        Array of the same shape as ``x``.
    """
    mat, was_1d = _as_matrix(x)
    _check_composition(mat)
    theta = _check_zero_alpha(mat, theta, use="the Box-Cox transform",
                              param="theta",
                              error=ZeroWithNonpositiveThetaError)
    if theta == 0.0:
        out = np.log(mat)
    else:
        out = (mat ** theta - 1.0) / theta
    return out[0] if was_1d else out


class Composition:
    """A validated point of the unit simplex.

    Parts must be non-negative, sum to one within ``CLOSURE_TOL`` and
    number at least two; anything else is rejected rather than repaired.
    Use :meth:`from_raw` to close arbitrary non-negative data first.  The
    underlying array is read-only.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts):
        arr = np.array(parts, dtype=float)
        if arr.ndim != 1:
            raise DimensionMismatchError(
                f"a composition is a single vector, got {arr.ndim} dims"
            )
        _check_composition(arr[np.newaxis, :], name="parts")
        arr.setflags(write=False)
        self._parts = arr

    @classmethod
    def from_raw(cls, raw):
        """Close a raw non-negative vector and wrap it."""
        return cls(closure(np.asarray(raw, dtype=float)))

    @property
    def parts(self):
        return self._parts

    @property
    def D(self):
        return self._parts.shape[0]

    @property
    def has_zeros(self):
        return bool((self._parts == 0).any())

    def __array__(self, dtype=None):
        return np.asarray(self._parts, dtype=dtype)

    def __len__(self):
        return self._parts.shape[0]

    def __getitem__(self, idx):
        return self._parts[idx]

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other):
        if not isinstance(other, Composition):
            return NotImplemented
        return self._parts.shape == other._parts.shape and bool(
            (self._parts == other._parts).all()
        )

    def __repr__(self):
        inside = ", ".join(repr(p) for p in self._parts)
        return f"Composition([{inside}])"
