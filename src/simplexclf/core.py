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

# A power 0 < |alpha| below this is refused.  The transform's D * u - 1,
# Box-Cox's x ** theta - 1 and the inverse's s ** (1 / alpha) cancel, so
# the result's relative error grows like c / |alpha|.  Against an expm1
# reference, c was 1.7e-17 to 7e-16 for the transform and its inverse
# and up to 3e-15 per part for Box-Cox: no digit is right at 1e-16.  At
# this floor the error is at most 5e-8 (3e-7 for Box-Cox), a few
# sqrt(eps), so half the digits of a double survive.  alpha = 0, the
# limit, is computed exactly.
_ALPHA_FLOOR = 1e-8

# The inverse refuses a row whose recovered parts rounding may move by more
# than this share of the row total.  s = alpha * H.T @ v + 1, exactly
# D u for the closed powers u, is known within delta = D eps (1 + max
# |alpha H.T @ v|) per part: against D u in extended precision, on
# Dirichlet rows of 2 to 80 parts (20 % zeros for alpha > 0) at alphas
# from 1e-8 to 1000 of either sign, its error stayed under 0.77 delta.
# s ** (1 / alpha) spreads that by its slope, and a part of s within
# delta of 0 is lost: anywhere in [0, (2 delta) ** (1 / alpha)] for alpha
# > 0, unbounded below 0.  At the alpha floor the bound is at most
# 2 delta / |alpha|, under this for rows of up to 22 parts (11 if one is
# zero, which makes max |alpha H.T @ v| 1).  As |alpha| grows past 1 the
# parts of smallest power go first: on 5 parts a zero part's bound is
# 1e-7 at alpha 2 and 2e-5 at alpha 3.
_INVERSE_TOL = 1e-6

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
    """``value`` as a finite float, with -0.0 as 0.0 so that equal values
    are written alike; an int beyond the range is infinite."""
    try:
        number = float(value)
    except OverflowError:
        number = np.inf if value > 0 else -np.inf
    if not np.isfinite(number):
        raise ParameterOutOfRangeError(
            f"{name} must be a finite number, got {number}"
        )
    return number + 0.0


def _check_zero_alpha(mat, alpha, name="x", use="the alpha-transformation",
                      param="alpha", error=ZeroWithNonpositiveAlphaError):
    """``alpha`` as a finite float, 0 or at least ``_ALPHA_FLOOR`` in size,
    that the rows of ``mat`` admit: zeros are representable only for a
    strictly positive power.  The only zero-vs-power test; its error names
    every offending row so the user can act."""
    alpha = _check_finite(alpha, param)
    if 0 < abs(alpha) < _ALPHA_FLOOR:
        raise ParameterOutOfRangeError(
            f"{use} at {param}={alpha} is too near 0: below |{param}| = "
            f"{_ALPHA_FLOOR:g} its result loses over half its digits; use "
            f"{param}=0, the exact limit")
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
    return _finite_rows(rows, alpha, name, use), alpha


def _finite_rows(rows, alpha, name, use, param="alpha"):
    """``rows``, which ``use`` computed from ``name``'s rows at ``param``
    ``alpha``; a row that its powers overflowed or underflowed to
    non-finite values is refused."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParameterOutOfRangeError(
            f"{use} at {param}={alpha} gives non-finite coordinates for "
            f"{name} rows {bad.tolist()}; move {param} nearer 0")
    return rows


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
        If any part is NaN or infinite, or finite parts of a row sum past
        the float range.
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
    bad = np.flatnonzero(~np.isfinite(sums.ravel()))
    if bad.size:
        raise NonFiniteError(f"rows {bad.tolist()} have non-finite parts")
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
    with np.errstate(all="ignore"):
        out = _power_rows(mat, alpha)
    out = _finite_rows(out, alpha, "x", "the power transform")
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
    ParameterOutOfRangeError
        If rounding may move a recovered part by more than ``1e-6`` of its
        row's total, as it does for the parts of smallest power once
        ``|alpha|`` is well past 1.
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
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"v rows {bad.tolist()} have non-finite parts")
    # no rows to test for zeros: only the finiteness and floor checks apply
    alpha = _check_zero_alpha(mat[:0], alpha, use="the inverse transform")
    H = helmert_submatrix(D) if helmert is None else _check_helmert(helmert, D)
    back = mat @ H
    if alpha == 0.0:
        with np.errstate(over="ignore"):
            out = np.exp(back)
        # a row whose exponentials overflow is shifted by its largest
        # coordinate first, which its closure cancels
        big = np.isinf(out).any(axis=1)
        out[big] = np.exp(back[big] - back[big].max(axis=1, keepdims=True))
        out = out / out.sum(axis=1, keepdims=True)
        return out[0] if was_1d else out
    with np.errstate(over="ignore"):
        ab = alpha * back
        s = ab + 1.0
        delta = D * np.finfo(float).eps * (
            1.0 + np.abs(ab).max(axis=1, keepdims=True))
    if alpha > 0:
        # Round-trip noise can leave a boundary zero infinitesimally
        # negative; snap it back before the membership test.
        s[(s < 0) & (s > -_BOUNDARY_SLACK)] = 0.0
        outside = s < 0
    else:
        # a part within rounding of 0 is refused below, not as outside
        outside = s < -delta
    if (outside | ~np.isfinite(s)).any():  # an infinite part is outside too
        raise OutsideImageError(
            f"not in the image of the alpha={alpha:g} transform: "
            f"pre-image has negative parts"
        )
    lost = np.flatnonzero(~(_inverse_bound(s, delta, alpha) <= _INVERSE_TOL))
    if lost.size:
        raise ParameterOutOfRangeError(
            f"the inverse transform at alpha={alpha:g} cannot recover v rows "
            f"{lost.tolist()} to within {_INVERSE_TOL:g} of the row total: "
            f"rounding loses their parts of smallest power; coordinates at "
            f"an alpha nearer 0 keep them")
    with np.errstate(over="ignore"):
        p = s ** (1.0 / alpha)
    # near alpha = 0 the largest power can overflow: such a row is scaled
    # by the part of largest power first, which its closure cancels
    big = np.isinf(p).any(axis=1)
    pivot = s[big].max(axis=1) if alpha > 0 else s[big].min(axis=1)
    p[big] = (s[big] / pivot[:, np.newaxis]) ** (1.0 / alpha)
    out = p / p.sum(axis=1, keepdims=True)
    return out[0] if was_1d else out


def _inverse_bound(s, delta, alpha):
    """Per row, how far rounding can move the closed ``s ** (1 / alpha)``
    when each part of ``s`` is known within the row's ``delta``, as a share
    of the row total: the parts' own errors plus the closure's."""
    # scaled by the part of largest power, which the closure cancels
    pivot = (s.max if alpha > 0 else s.min)(axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        p = (s / pivot) ** (1.0 / alpha)
        rel = delta / s
        err = p * np.maximum(np.abs(np.expm1(np.log1p(rel) / alpha)),
                             np.abs(np.expm1(np.log1p(-rel) / alpha)))
        # a part within delta of 0 may be anywhere in [0, 2 delta]: its
        # power is unbounded for alpha < 0
        lost = ~(rel < 1)
        err[lost] = (np.broadcast_to(2.0 * delta / pivot, s.shape)[lost]
                     ** (1.0 / alpha) if alpha > 0 else np.inf)
        return (err.max(axis=1) + err.sum(axis=1)) / p.sum(axis=1)


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
    with np.errstate(all="ignore"):
        out = np.log(mat) if theta == 0.0 else (mat ** theta - 1.0) / theta
    out = _finite_rows(out, theta, "x", "the Box-Cox transform", "theta")
    return out[0] if was_1d else out
