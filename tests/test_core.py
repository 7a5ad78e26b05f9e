"""Simplex geometry: closure, Helmert basis, the power-parameterised
transformation family with its inverse and limits, and component-wise
Box-Cox."""

import warnings

import numpy as np
import pytest

from simplexclf.core import (
    Composition,
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
    TooShortError,
    ZeroWithNonpositiveAlphaError,
    ZeroWithNonpositiveThetaError,
)

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


# -- Composition --------------------------------------------------------------


def test_composition_accepts_closed_vector():
    c = Composition([0.2, 0.3, 0.5])
    assert c.D == 3
    assert not c.has_zeros
    assert np.allclose(np.asarray(c), [0.2, 0.3, 0.5])


def test_composition_rejects_unclosed_vector():
    with pytest.raises(NotClosedError):
        Composition([0.2, 0.3, 0.6])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_are_rejected(bad):
    x = np.array([[0.2, 0.3, 0.5], [0.2, bad, 0.5]])
    with pytest.raises(NonFiniteError, match=r"rows \[1\]"):
        alpha_transform(x, 0.5)
    with pytest.raises(NonFiniteError):
        Composition(x[1])


def test_composition_rejects_matrix():
    with pytest.raises(DimensionMismatchError):
        Composition([[0.5, 0.5], [0.5, 0.5]])


def test_composition_from_raw_closes():
    c = Composition.from_raw([2.0, 6.0])
    assert np.allclose(c.parts, [0.25, 0.75])


def test_composition_is_read_only():
    c = Composition([0.5, 0.5])
    with pytest.raises(ValueError):
        c.parts[0] = 0.9
