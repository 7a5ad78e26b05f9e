"""Simplex geometry: closure, Helmert basis, the power-parameterised
transformation family with its inverse and limits, and component-wise
Box-Cox."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplexclf.core import (
    alpha_transform,
    boxcox_componentwise,
    closure,
    clr,
    helmert_submatrix,
    inverse_alpha_transform,
    power_transform,
)
from simplexclf.errors import (
    AllZeroError,
    DimensionMismatchError,
    NegativeComponentError,
    NonFiniteError,
    NotClosedError,
    OutsideImageError,
    ParameterOutOfRangeError,
    SimplexClfError,
    TooShortError,
    ZeroWithNonpositiveAlphaError,
    ZeroWithNonpositiveThetaError,
)
from simplexclf.metrics import MetricSpec, alpha_distance, pairwise_distances

from conftest import random_compositions


# -- closure ----------------------------------------------------------------


def test_closure_equal_parts():
    assert np.allclose(closure([2.0, 2.0]), [0.5, 0.5])


def test_closure_already_closed():
    x = np.array([0.2, 0.3, 0.5])
    assert np.allclose(closure(x), x)


def test_closure_preserves_zeros():
    assert np.allclose(closure([1.0, 0.0, 3.0]), [0.25, 0.0, 0.75])


def test_closure_output_sums_to_one():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0.0, 50.0, size=(200, 7))
    closed = closure(raw)
    assert np.allclose(closed.sum(axis=1), 1.0, atol=1e-10)


def test_closure_rejects_negative():
    with pytest.raises(NegativeComponentError):
        closure([0.5, -0.1, 0.6])


def test_closure_rejects_all_zero():
    with pytest.raises(AllZeroError):
        closure([0.0, 0.0, 0.0])


def test_closure_rejects_finite_parts_that_sum_past_the_float_range():
    big = [[0.2, 0.8], [8.988465674311579e+307, 8.98846567431158e+307],
           [np.nan, 1.0], [1e308, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"rows \[1, 3\] have parts "
                           r"that sum past the float range"):
            closure(big)
        # a row summing to the largest float still closes
        half = np.finfo(float).max / 2
        assert closure([half, half]).tolist() == [0.5, 0.5]


@pytest.mark.parametrize("x, rows", [
    ([np.nan, 1.0], r"\[0\]"),
    ([[np.inf, 1.0], [1.0, 1.0]], r"\[0\]"),
    ([[1.0, 1.0], [np.nan, np.inf], [2.0, np.inf]], r"\[1, 2\]"),
])
def test_closure_rejects_non_finite_parts(x, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError,
                           match=rf"rows {rows} have non-finite parts"):
            closure(x)


def test_closure_rejects_single_part():
    with pytest.raises(TooShortError):
        closure([1.0])


# -- Helmert submatrix --------------------------------------------------------


def test_helmert_d2():
    H = helmert_submatrix(2)
    assert np.allclose(H, [[-1 / np.sqrt(2), 1 / np.sqrt(2)]])


def test_helmert_d3():
    H = helmert_submatrix(3)
    expected = np.array([
        [-1 / np.sqrt(2), 1 / np.sqrt(2), 0.0],
        [-1 / np.sqrt(6), -1 / np.sqrt(6), 2 / np.sqrt(6)],
    ])
    assert np.allclose(H, expected)


def test_helmert_gram_identity_d40():
    H = helmert_submatrix(40)
    assert H.shape == (39, 40)
    assert np.abs(H @ H.T - np.eye(39)).max() <= 1e-12


@pytest.mark.parametrize("D", range(2, 51))
def test_helmert_rows_orthonormal_and_sum_free(D):
    H = helmert_submatrix(D)
    assert np.abs(H @ H.T - np.eye(D - 1)).max() <= 1e-12
    assert np.abs(H @ np.ones(D)).max() <= 1e-12


def test_helmert_rejects_d1():
    with pytest.raises(TooShortError):
        helmert_submatrix(1)


# -- power transform ----------------------------------------------------------


def test_power_uniform_fixed_point():
    x = np.full(3, 1 / 3)
    for alpha in (-1.0, 0.5, 2.0):
        assert np.allclose(power_transform(x, alpha), x)


def test_power_identity_at_alpha_one():
    rng = np.random.default_rng(7)
    x = random_compositions(rng, 20, 5)
    assert np.allclose(power_transform(x, 1.0), x)


def test_power_hand_value():
    # (0.2^2, 0.8^2) / (0.04 + 0.64)
    out = power_transform(np.array([0.2, 0.8]), 2.0)
    assert np.allclose(out, [0.058823529411764705, 0.9411764705882353])


def test_power_keeps_zeros_for_positive_alpha():
    out = power_transform(np.array([0.0, 0.25, 0.75]), 0.5)
    assert out[0] == 0.0
    assert np.allclose(out.sum(), 1.0)


def test_power_rejects_zero_with_nonpositive_alpha():
    with pytest.raises(ZeroWithNonpositiveAlphaError):
        power_transform(np.array([0.0, 1.0]), -0.5)


# -- forward transformation ---------------------------------------------------


def test_transform_uniform_is_zero():
    for D in (2, 5, 9):
        x = np.full(D, 1.0 / D)
        for alpha in (-1.0, 0.0, 0.3, 1.0):
            assert np.abs(alpha_transform(x, alpha)).max() <= 1e-12


def test_transform_hand_value_alpha_one():
    z = alpha_transform(np.array([0.2, 0.8]), 1.0)
    assert np.allclose(z, [0.8485281374238569])


def test_transform_zero_branch_is_clr_rotation():
    rng = np.random.default_rng(3)
    x = random_compositions(rng, 50, 6)
    H = helmert_submatrix(6)
    assert np.allclose(alpha_transform(x, 0.0), clr(x) @ H.T, atol=1e-12)


def test_transform_near_zero_alpha_close_to_limit():
    x = np.array([0.2, 0.3, 0.5])
    gap = np.linalg.norm(alpha_transform(x, 1e-4) - alpha_transform(x, 0.0))
    assert gap <= 1e-3


def test_transform_error_linear_in_alpha():
    rng = np.random.default_rng(19)
    x = random_compositions(rng, 30, 6)
    z0 = alpha_transform(x, 0.0)
    errs = {
        a: np.linalg.norm(alpha_transform(x, a) - z0) for a in (1e-3, 1e-4)
    }
    assert 8.0 <= errs[1e-3] / errs[1e-4] <= 12.0


def test_transform_rejects_zero_parts_at_nonpositive_alpha():
    x = np.array([0.0, 0.4, 0.6])
    for alpha in (0.0, -0.5):
        with pytest.raises(ZeroWithNonpositiveAlphaError):
            alpha_transform(x, alpha)


def test_transform_scale_invariance_exact():
    rng = np.random.default_rng(23)
    raw = rng.uniform(0.1, 9.0, size=(40, 5))
    base = alpha_transform(closure(raw), 0.5)
    # powers of two rescale without rounding, so equality is exact
    for c in (0.25, 2.0, 64.0):
        assert np.array_equal(alpha_transform(closure(c * raw), 0.5), base)


def test_transform_scale_invariance_arbitrary_scalar():
    rng = np.random.default_rng(29)
    raw = rng.uniform(0.1, 9.0, size=(40, 5))
    base = alpha_transform(closure(raw), -0.7)
    assert np.allclose(alpha_transform(closure(3.7 * raw), -0.7), base,
                       atol=1e-12)


# -- inverse ------------------------------------------------------------------


def test_inverse_zero_vector_gives_uniform():
    for alpha in (-1.0, 0.5, 1.0):
        x = inverse_alpha_transform(np.zeros(3), alpha, 4)
        assert np.allclose(x, np.full(4, 0.25))


def test_round_trip_single_case():
    x = np.array([0.2, 0.3, 0.5])
    z = alpha_transform(x, 0.5)
    back = inverse_alpha_transform(z, 0.5, 3)
    assert np.abs(back - x).max() <= 1e-10


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 1.0])
def test_round_trip_random(alpha):
    rng = np.random.default_rng(int(10 * abs(alpha)) + 5)
    x = random_compositions(rng, 1000, 6)
    back = inverse_alpha_transform(alpha_transform(x, alpha), alpha, 6)
    assert np.abs(back - x).max() <= 1e-10


def test_round_trip_zero_alpha():
    rng = np.random.default_rng(31)
    x = random_compositions(rng, 200, 4)
    back = inverse_alpha_transform(alpha_transform(x, 0.0), 0.0, 4)
    assert np.abs(back - x).max() <= 1e-10


def test_inverse_rejects_vector_outside_image():
    # 1 - 10/sqrt(2) < 0, so the membership test fails
    with pytest.raises(OutsideImageError):
        inverse_alpha_transform(np.array([10.0]), 1.0, 2)


@pytest.mark.parametrize("alpha", [0.0, 1e-6, -1e-6])
def test_inverse_whose_powers_overflow_still_closes(alpha):
    # the second part's power, exp(2000 / sqrt(2)) in the limit, overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = inverse_alpha_transform(np.array([2000.0]), alpha, 2)
    assert back.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("alpha", [1e308, -1e308])
def test_inverse_at_a_huge_alpha_is_outside_without_a_warning(alpha):
    # alpha * H.T @ v overflows to an infinite part, which is outside the
    # image; numpy's overflow warning would become the error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideImageError):
            inverse_alpha_transform([[10.0, -3.0]], alpha, 3)


# -- alphas near 0: a right answer or a refusal ---------------------------------


@st.composite
def edge_compositions(draw):
    """Closed rows of 2 to 6 parts of zero, subnormal, tiny and ordinary
    magnitudes."""
    D = draw(st.integers(2, 6))
    part = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-8, 0.1, 0.5,
                            1.0, 3.0])
    rows = st.lists(st.lists(part, min_size=D, max_size=D).filter(any),
                    min_size=1, max_size=5)
    return closure(np.array(draw(rows)))


_SMALL = st.floats(1e-20, 1e-6)
_SUBNORMAL = st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True)
NEAR_ZERO_ALPHAS = st.one_of(
    _SMALL, _SMALL.map(lambda a: -a), _SUBNORMAL,
    _SUBNORMAL.map(lambda a: -a),
    st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 0.25, 0.5, 1.0, -0.5, -1.0]))
# past |alpha| = 1 the inverse loses the parts of smallest power
_LARGE = st.floats(1.0, 1000.0)
ALPHAS = st.one_of(NEAR_ZERO_ALPHAS, _LARGE, _LARGE.map(lambda a: -a),
                   st.sampled_from([2.0, 3.0, 5.0, 10.0, 20.0, -20.0]))


def expm1_coords(x, alpha):
    """``alpha_transform`` from ``x ** alpha - 1 = expm1(alpha log x)``,
    which does not cancel near alpha = 0 (the clr rows at 0)."""
    D = x.shape[1]
    with np.errstate(all="ignore"):
        logs = np.log(x)
        if alpha == 0:
            v = logs - logs.mean(axis=1, keepdims=True)
        else:
            e = np.expm1(alpha * logs)
            v = (D * e - e.sum(axis=1, keepdims=True)) / (
                D + e.sum(axis=1, keepdims=True)) / alpha
        return v @ helmert_submatrix(D).T


def expm1_inverse(v, alpha):
    """``inverse_alpha_transform`` in logs, by ``log1p`` (exp at 0)."""
    back = v @ helmert_submatrix(v.shape[1] + 1)
    with np.errstate(all="ignore"):
        # a boundary zero may round a little past -1
        logs = back if alpha == 0 else np.log1p(
            np.maximum(alpha * back, -1.0)) / alpha
        p = np.exp(logs - logs.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


@settings(max_examples=400, deadline=None)
@given(edge_compositions(), ALPHAS)
def test_every_alpha_entry_point_is_right_or_refuses(x, alpha):
    # below the alpha floor the power forms cancel to noise: 1e-17 gave
    # coordinates off by 70 % and an all-zero distance matrix; far from 0
    # the inverse's s = alpha * H.T @ v + 1 cancels: at alpha 10 it
    # returned 0.026 for a zero part
    D = x.shape[1]
    ref = expm1_coords(x, alpha)
    v = ref if np.isfinite(ref).all() else np.zeros_like(ref)
    calls = {
        "alpha_transform": lambda: alpha_transform(x, alpha),
        "inverse_alpha_transform": lambda: inverse_alpha_transform(
            v, alpha, D),
        "round_trip": lambda: inverse_alpha_transform(
            alpha_transform(x, alpha), alpha, D),
        "power_transform": lambda: power_transform(x, alpha),
        "boxcox_componentwise": lambda: boxcox_componentwise(x, alpha),
        "alpha_distance": lambda: alpha_distance(x[0], x[-1], alpha),
        "pairwise_distances": lambda: pairwise_distances(
            x, x, MetricSpec.alpha_metric(alpha)),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except SimplexClfError:
            continue
        assert np.isfinite(out[name]).all(), name
    # the expm1 and log1p forms are the reference only for |alpha| <= 1:
    # past it they cancel too
    if "alpha_transform" in out and abs(alpha) <= 1:
        got = out["alpha_transform"]
        assert np.abs(got - ref).max() <= 1e-6 * (1 + np.abs(ref).max())
    if "inverse_alpha_transform" in out and abs(alpha) <= 1:
        got = out["inverse_alpha_transform"]
        assert np.abs(got - expm1_inverse(v, alpha)).max() <= 1e-6
    if "round_trip" in out:
        # the inverse's documented bound, against the composition itself
        assert np.abs(out["round_trip"] - x).max() <= 1e-6


# -- Box-Cox ------------------------------------------------------------------


def test_boxcox_theta_one():
    assert np.allclose(
        boxcox_componentwise(np.array([0.5, 0.5]), 1.0), [-0.5, -0.5]
    )


def test_boxcox_theta_zero_is_log():
    x = np.array([0.5, 0.5])
    assert np.allclose(boxcox_componentwise(x, 0.0), np.log(x))


def test_boxcox_small_theta_near_log():
    x = np.array([0.2, 0.8])
    out = boxcox_componentwise(x, 1e-4)
    assert np.abs(out - np.log(x)).max() <= 1e-3


def test_boxcox_rejects_zero_with_nonpositive_theta():
    with pytest.raises(ZeroWithNonpositiveThetaError):
        boxcox_componentwise(np.array([0.0, 1.0]), 0.0)


@pytest.mark.parametrize("call, error", [
    (lambda x: power_transform(x, -0.5), ZeroWithNonpositiveAlphaError),
    (lambda x: alpha_transform(x, 0.0), ZeroWithNonpositiveAlphaError),
    (clr, ZeroWithNonpositiveAlphaError),
    (lambda x: boxcox_componentwise(x, 0.0), ZeroWithNonpositiveThetaError),
], ids=["power", "alpha", "clr", "boxcox"])
def test_zero_with_nonpositive_power_names_every_zero_row(call, error):
    x = np.full((4, 3), 1 / 3)
    x[[1, 3]] = [0.0, 0.5, 0.5]
    with pytest.raises(error, match=r"rows \[1, 3\]"):
        call(x)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_boxcox_rejects_non_finite_theta(theta):
    with pytest.raises(ParameterOutOfRangeError,
                       match="theta must be a finite number"):
        boxcox_componentwise(np.array([[0.5, 0.5]]), theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_are_rejected(bad):
    x = np.array([[0.2, 0.3, 0.5], [0.2, bad, 0.5]])
    with pytest.raises(NonFiniteError, match=r"rows \[1\]"):
        alpha_transform(x, 0.5)
