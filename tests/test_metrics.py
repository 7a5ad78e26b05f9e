"""Distance measures on the simplex: the transformation-induced metric
family, its Aitchison and scaled-Euclidean endpoints, the ESOV metric,
and the pairwise kernel."""

import functools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplexclf import metrics
from simplexclf.core import _clr_rows, _power_rows, alpha_transform, closure
from simplexclf.errors import (
    DimensionMismatchError,
    ParameterOutOfRangeError,
    ZeroWithNonpositiveAlphaError,
)
from simplexclf.metrics import (
    MetricSpec,
    alpha_distance,
    alpha_distance_via_transform,
    esov_distance,
    pairwise_distances,
)

from conftest import random_compositions

X = np.array([0.2, 0.8])
Y = np.array([0.5, 0.5])


# -- scalar values -------------------------------------------------------------


def test_alpha_distance_self_is_zero():
    rng = np.random.default_rng(2)
    pts = random_compositions(rng, 10, 4)
    for alpha in (-1.0, 0.0, 0.5, 1.0):
        for p in pts:
            assert alpha_distance(p, p, alpha) == 0.0


def test_alpha_distance_hand_value_alpha_one():
    # 2 * sqrt(0.09 + 0.09)
    assert np.allclose(alpha_distance(X, Y, 1.0), 0.848528137423857)


def test_alpha_distance_hand_value_alpha_zero():
    # |log 0.25| / sqrt(2)
    assert np.allclose(alpha_distance(X, Y, 0.0), 0.9802581434685471)


def test_esov_self_is_zero():
    assert esov_distance(X, X) == 0.0


def test_esov_disjoint_support():
    d = esov_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(d, 1.1774100225154747)


def test_esov_hand_value():
    d = esov_distance(np.array([0.6, 0.4]), np.array([0.4, 0.6]))
    assert np.allclose(d, 0.2006764238802798)
    assert d > esov_distance(Y, Y)


def test_esov_shared_zero_component():
    # the i-term vanishes when both parts are zero
    x = np.array([0.0, 0.5, 0.5])
    y = np.array([0.0, 0.25, 0.75])
    d = esov_distance(x, y)
    assert np.isfinite(d) and d > 0.0
    # the tails are already closed, so the zero part contributes nothing
    assert np.allclose(d, esov_distance(x[1:], y[1:]), atol=1e-12)


def test_alpha_metric_rejects_zeros_at_nonpositive_alpha():
    x = np.array([0.0, 0.4, 0.6])
    with pytest.raises(ZeroWithNonpositiveAlphaError):
        alpha_distance(x, np.full(3, 1 / 3), 0.0)


@pytest.mark.parametrize("alpha", [-100.0, 1e308])
@pytest.mark.parametrize("call", [
    alpha_transform,
    lambda x, alpha: pairwise_distances(x, x, MetricSpec.alpha_metric(alpha)),
], ids=["alpha_transform", "pairwise_distances"])
def test_alpha_with_non_finite_powers_is_refused(call, alpha):
    # 1e-5 ** -100 overflows; every part ** 1e308 underflows to 0
    x = np.array([[1e-5, 0.5, 0.5 - 1e-5], [0.2, 0.3, 0.5]])
    with pytest.raises(ParameterOutOfRangeError,
                       match=r"alpha=.* rows \[0\]" if alpha < 0 else "alpha="):
        call(x, alpha)


def test_a_self_distance_names_its_rows_the_data():
    x = np.array([[1e-5, 0.5, 0.5 - 1e-5], [0.2, 0.3, 0.5]])
    metric = MetricSpec.alpha_metric(-100.0)
    with pytest.raises(ParameterOutOfRangeError,
                       match=r"for the data rows \[0\]"):
        pairwise_distances(x, x, metric)
    with pytest.raises(ParameterOutOfRangeError, match=r"for a rows \[0\]"):
        pairwise_distances(x, x.copy(), metric)


@pytest.mark.parametrize("alpha", [1e-320, -5e-324, 1e-308])
def test_alpha_with_overflowing_distance_scale_is_refused(alpha):
    # x ** alpha is 1 for every part, so the rows are finite, but the
    # D / |alpha| scale of the distances is inf at D = 3
    x = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    with pytest.raises(ParameterOutOfRangeError, match=r"D/\|alpha\|"):
        pairwise_distances(x, x, MetricSpec.alpha_metric(alpha))
    with pytest.raises(ParameterOutOfRangeError, match=f"alpha={alpha}"):
        alpha_distance(x[0], x[1], alpha)
    # an alpha whose scale is finite, 0.75 of the largest float, still
    # gives finite output
    tiny = 4 / np.finfo(float).max
    out = pairwise_distances(x, x, MetricSpec.alpha_metric(tiny))
    assert np.isfinite(out).all()


def test_esov_accepts_zeros():
    x = np.array([0.0, 0.4, 0.6])
    assert esov_distance(x, np.full(3, 1 / 3)) > 0.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        alpha_distance(np.array([0.5, 0.5]), np.full(3, 1 / 3), 1.0)
    with pytest.raises(DimensionMismatchError):
        esov_distance(np.array([0.5, 0.5]), np.full(3, 1 / 3))


# -- metric axioms on random pairs ----------------------------------------------


def _metric_value(metric, a, b):
    if metric.kind == "alpha":
        return alpha_distance(a, b, metric.alpha)
    return esov_distance(a, b)


METRICS = [
    MetricSpec.alpha_metric(-0.5),
    MetricSpec.alpha_metric(0.0),
    MetricSpec.alpha_metric(0.5),
    MetricSpec.alpha_metric(1.0),
    MetricSpec.esov(),
]


@pytest.mark.parametrize("metric", METRICS, ids=str)
def test_positivity_and_symmetry(metric):
    rng = np.random.default_rng(41)
    a = random_compositions(rng, 1000, 5)
    b = random_compositions(rng, 1000, 5)
    for i in range(1000):
        d_ab = _metric_value(metric, a[i], b[i])
        assert d_ab > 0.0
        assert abs(d_ab - _metric_value(metric, b[i], a[i])) <= 1e-12


@pytest.mark.parametrize("metric", METRICS, ids=str)
def test_permutation_invariance(metric):
    rng = np.random.default_rng(43)
    a = random_compositions(rng, 1000, 5)
    b = random_compositions(rng, 1000, 5)
    for i in range(1000):
        perm = rng.permutation(5)
        d = _metric_value(metric, a[i], b[i])
        d_p = _metric_value(metric, a[i][perm], b[i][perm])
        assert abs(d - d_p) <= 1e-12


def test_scale_invariance_exact():
    rng = np.random.default_rng(47)
    raw_a = rng.uniform(0.05, 20.0, size=(200, 5))
    raw_b = rng.uniform(0.05, 20.0, size=(200, 5))
    a, b = closure(raw_a), closure(raw_b)
    # power-of-two scalars rescale without rounding: equality is exact
    for c_a, c_b in ((0.5, 1024.0), (2.0 ** -20, 8.0)):
        a2, b2 = closure(c_a * raw_a), closure(c_b * raw_b)
        for i in range(200):
            assert alpha_distance(a2[i], b2[i], 0.5) == \
                alpha_distance(a[i], b[i], 0.5)
    # arbitrary scalars agree to rounding error
    a3, b3 = closure(7.3 * raw_a), closure(0.002 * raw_b)
    for i in range(0, 200, 11):
        assert abs(alpha_distance(a3[i], b3[i], 0.5)
                   - alpha_distance(a[i], b[i], 0.5)) <= 1e-12


def test_esov_triangle_inequality():
    rng = np.random.default_rng(53)
    pts = random_compositions(rng, 3000, 4, zeros=True)
    x, y, z = pts[:1000], pts[1000:2000], pts[2000:]
    for i in range(1000):
        d_xz = esov_distance(x[i], z[i])
        d_xy = esov_distance(x[i], y[i])
        d_yz = esov_distance(y[i], z[i])
        assert d_xz <= d_xy + d_yz + 1e-12


def test_closed_form_matches_transform_route():
    rng = np.random.default_rng(59)
    a = random_compositions(rng, 200, 6)
    b = random_compositions(rng, 200, 6)
    for alpha in (-1.0, -0.3, 0.4, 1.0):
        for i in range(0, 200, 7):
            direct = alpha_distance(a[i], b[i], alpha)
            via = alpha_distance_via_transform(a[i], b[i], alpha)
            assert abs(direct - via) <= 1e-10


def test_alpha_one_is_scaled_euclidean():
    rng = np.random.default_rng(61)
    a = random_compositions(rng, 400, 5)
    b = random_compositions(rng, 400, 5)
    d = np.array([alpha_distance(a[i], b[i], 1.0) for i in range(400)])
    euclid = np.linalg.norm(a - b, axis=1)
    assert np.abs(d - 5 * euclid).max() <= 1e-12


# -- pairwise kernel -------------------------------------------------------------


def test_pairwise_single_point():
    x = np.array([[0.2, 0.8]])
    dm = pairwise_distances(x, x, MetricSpec.alpha_metric(0.5))
    assert dm.shape == (1, 1)
    assert dm[0, 0] == 0.0


@pytest.mark.parametrize("metric", METRICS, ids=str)
def test_pairwise_self_symmetric_zero_diagonal(metric):
    rng = np.random.default_rng(67)
    a = random_compositions(rng, 30, 4)
    dm = pairwise_distances(a, a, metric)
    assert np.abs(dm - dm.T).max() <= 1e-12
    assert np.abs(np.diag(dm)).max() == 0.0
    assert (dm >= 0.0).all()


@pytest.mark.parametrize("metric", METRICS, ids=str)
def test_pairwise_matches_scalar_loop(metric):
    rng = np.random.default_rng(71)
    a = random_compositions(rng, 20, 5)
    b = random_compositions(rng, 15, 5)
    dm = pairwise_distances(a, b, metric)
    assert dm.shape == (20, 15)
    for i in range(20):
        for j in range(15):
            assert dm[i, j] == _metric_value(metric, a[i], b[j])


@pytest.mark.parametrize("metric", METRICS, ids=str)
def test_row_blocks_do_not_change_the_matrix(metric, monkeypatch):
    rng = np.random.default_rng(73)
    a = random_compositions(rng, 11, 5, zeros=metric.kind == "esov")
    b = random_compositions(rng, 7, 5, zeros=metric.kind == "esov")
    whole = pairwise_distances(a, b, metric)
    # three rows per block: 11 rows cross three block boundaries
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", 3 * 7 * 5 * 8)
    assert pairwise_distances(a, b, metric).tobytes() == whole.tobytes()
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1)
    assert pairwise_distances(a, b, metric).tobytes() == whole.tobytes()


# -- the row-blocked kernels the in-place ones replaced, kept as the
# reference

_REF_BLOCK_BYTES = 1 << 24


def _row_blocked(kernel):
    """Run an ``(n, D) x (m, D) -> (n, m)`` kernel over row blocks of its
    left operand.  Entries are computed independently, so the result does
    not depend on the block size."""
    @functools.wraps(kernel)
    def blocked(a, b):
        step = max(1, _REF_BLOCK_BYTES // (8 * max(1, b.size)))
        out = np.empty((a.shape[0], b.shape[0]))
        for lo in range(0, a.shape[0], step):
            out[lo:lo + step] = kernel(a[lo:lo + step], b)
        return out
    return blocked


@_row_blocked
def _euclidean_cross(a, b):
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
    return np.sqrt(np.maximum(total, 0.0))


def _reference(a, b, metric):
    if metric.kind == "esov":
        return _esov_cross(a, b)
    return _alpha_cross(a, b, metric.alpha)


@st.composite
def kernel_cases(draw):
    """Operands drawn from a small pool of rows, so rows repeat within and
    across operands; integer parts give zeros shared by both operands."""
    D = draw(st.integers(2, 12))
    metric = draw(st.sampled_from(
        [MetricSpec.esov()]
        + [MetricSpec.alpha_metric(v) for v in (0.0, -0.75, 0.5, 1.0)]))
    low = 1 if metric.kind == "alpha" and metric.alpha <= 0 else 0
    top = draw(st.sampled_from((3, 1000)))
    row = st.lists(st.integers(low, top), min_size=D, max_size=D).filter(any)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    a, b = (closure(np.array(
        [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                        min_size=1, max_size=7))],
        dtype=float)) for _ in range(2))
    block = draw(st.sampled_from(("one byte", "three rows", "default")))
    return a, b, metric, block


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_in_place_kernels_equal_the_row_blocked_reference(case):
    a, b, metric, block = case
    want = _reference(a, b, metric)
    budget = {"one byte": 1, "three rows": 3 * 8 * b.size,
              "default": metrics._BLOCK_BYTES}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BLOCK_BYTES", budget)
        got = pairwise_distances(a, b, metric)
    assert got.tobytes() == want.tobytes()


# signed zeros, the smallest and largest subnormals, the smallest normal
_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                         -2.225073858507201e-308, 2.2250738585072014e-308])


def _mixed_values(rng, shape, edge_share, top=280):
    """Mixed-sign values from 1e-320 to 10**top, with a share of edge
    values."""
    values = (rng.choice([-1.0, 1.0], shape) * rng.random(shape)
              * 10.0 ** rng.integers(-320, top, shape))
    edge = rng.random(shape) < edge_share
    values[edge] = rng.choice(_EDGE_VALUES, edge.sum())
    return values


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from((0.0, 0.3, 1.0)), st.integers(0, 2**32 - 1))
def test_part_sums_equal_numpys_reduction(D, rows, m, edge_share, seed):
    sums = np.ascontiguousarray(
        _mixed_values(np.random.default_rng(seed), (rows, m, D), edge_share))
    want = np.add.reduce(sums, axis=-1)
    got = np.empty((rows, m))
    metrics._add_parts(np.moveaxis(sums, -1, 0).copy(), got)
    assert got.tobytes() == want.tobytes()


@st.composite
def esov_edge_cases(draw):
    """Compositions with zero, subnormal, tiny and ordinary parts, rows
    shared between operands, and part counts on each branch of the
    pairwise sum."""
    D = draw(st.sampled_from((2, 3, 7, 8, 9, 16, 23, 129, 140)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # parts below 1, so most stay subnormal or tiny when closed
    pool = np.abs(_mixed_values(rng, (6, D), draw(st.sampled_from(
        (0.0, 0.3, 0.7))), top=1))
    pool[:, 0] = np.where(pool.sum(axis=1) > 0, pool[:, 0], 1.0)
    pool = closure(pool)
    a, b = (pool[rng.integers(0, 6, draw(st.integers(1, size)))]
            for size in (9, 5))
    return a, b, draw(st.sampled_from((1, 2)))


@settings(max_examples=300, deadline=None)
@given(esov_edge_cases())
def test_esov_kernel_equals_the_mask_after_log_formula(case):
    a, b, workers = case
    with pytest.MonkeyPatch.context() as mp:
        if workers > 1:  # row blocks of 3 on two threads
            _two_workers(mp, 3, len(b))
            got = _blocked_distances(a, b, MetricSpec.esov())
        else:
            got = pairwise_distances(a, b, MetricSpec.esov())
    assert got.tobytes() == _esov_cross(a, b).tobytes()


@pytest.mark.parametrize("metric", [MetricSpec.esov(),
                                    MetricSpec.alpha_metric(0.5)], ids=str)
def test_kernel_memory_is_the_result_plus_scratch(metric):
    rng = np.random.default_rng(79)
    a = random_compositions(rng, 4000, 8, zeros=True)
    b = random_compositions(rng, 214, 8, zeros=True)
    # the alpha metric also holds both operands transformed
    operands = a.nbytes + b.nbytes if metric.kind == "alpha" else 0
    tracemalloc.start()
    try:
        out = pairwise_distances(a, b, metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * metrics._BLOCK_BYTES + operands, peak


# -- row blocks on two threads (metrics._map_row_blocks): the thread that
# computes a block changes no entry


def _two_workers(mp, rows, width):
    """Blocks of ``rows`` rows of a table ``width`` wide, on two workers
    whatever the host has."""
    mp.setattr(metrics, "_cpus", lambda: 2)
    mp.setattr(metrics, "_BLOCK_CELLS", rows * width)


def _blocked_distances(a, b, metric):
    """The distances of the rows of ``a`` to those of ``b``, by row blocks
    of ``a`` through the helper."""
    ca, cb = (metrics._coords(m, metric, "the data") for m in (a, b))
    return metrics._map_row_blocks(
        lambda rows: metrics._distances(ca[rows], cb, metric), len(ca),
        len(cb))


@st.composite
def parallel_cases(draw):
    """Operands of 1 to 40 and 1 to 6 rows; zero parts in either operand
    wherever the metric admits them.  Helper blocks of 1 to 7 rows, and
    kernel block budgets down to two rows, give many blocks of each."""
    D = draw(st.integers(2, 9))
    metric = draw(st.sampled_from(
        [MetricSpec.esov()]
        + [MetricSpec.alpha_metric(v) for v in (0.0, -0.75, 0.5, 1.0)]))
    low = 1 if metric.kind == "alpha" and metric.alpha <= 0 else 0
    row = st.lists(st.integers(low, 9), min_size=D, max_size=D).filter(any)
    a, b = (closure(np.array(draw(st.lists(row, min_size=1, max_size=size)),
                             dtype=float)) for size in (40, 6))
    budget = draw(st.sampled_from((2 * 8 * b.size, 3 * 8 * b.size, 1 << 18)))
    return a, b, metric, budget, draw(st.sampled_from((1, 3, 7)))


@settings(max_examples=300, deadline=None)
@given(parallel_cases())
def test_threaded_kernel_equals_serial(case):
    a, b, metric, budget, rows = case
    # numpy reports floating-point errors as warnings: a worker that lost
    # the caller's errstate raises, and the call must re-raise it
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(metrics, "_BLOCK_BYTES", budget)
        serial = pairwise_distances(a, b, metric)
        _two_workers(mp, rows, len(b))
        threaded = _blocked_distances(a, b, metric)
    assert threaded.tobytes() == serial.tobytes()


def test_two_workers_under_fast_thread_switching(monkeypatch):
    rng = np.random.default_rng(89)
    a = random_compositions(rng, 200, 6, zeros=True)
    b = random_compositions(rng, 30, 6, zeros=True)
    esov = MetricSpec.esov()
    serial = pairwise_distances(a, b, esov)
    # one-row blocks, and a thread switch every microsecond
    _two_workers(monkeypatch, 1, len(b))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _blocked_distances(a, b, esov)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.tobytes() == serial.tobytes()


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_row_blocked_reference_holds_with_two_workers(case):
    a, b, metric, block = case
    with pytest.MonkeyPatch.context() as mp:
        _two_workers(mp, 1 if block == "one byte" else 3, len(b))
        got = _blocked_distances(a, b, metric)
    assert got.tobytes() == _reference(a, b, metric).tobytes()


@pytest.mark.parametrize("metric", [MetricSpec.esov(),
                                    MetricSpec.alpha_metric(0.5)], ids=str)
def test_kernel_memory_bound_holds_with_two_workers(metric, monkeypatch):
    # each of two workers holds one block's distances and the kernel's
    # scratch; only each row's nearest distance outlives a block
    rng = np.random.default_rng(79)
    a = random_compositions(rng, 4000, 8, zeros=True)
    b = random_compositions(rng, 214, 8, zeros=True)
    ca, cb = (metrics._coords(m, metric, "the data") for m in (a, b))
    monkeypatch.setattr(metrics, "_cpus", lambda: 2)
    tracemalloc.start()
    try:
        out = metrics._map_row_blocks(
            lambda rows: metrics._distances(ca[rows], cb, metric).min(
                axis=1), len(ca), len(cb))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the blocks' pieces of the result and their concatenation
    assert peak - 2 * out.nbytes <= 2 * (
        4 * metrics._BLOCK_BYTES + 8 * metrics._BLOCK_CELLS), peak


class _Injected(Exception):
    pass


def _count_threads(mp):
    """The list that records each thread the helper starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    mp.setattr(metrics.threading, "Thread", Counted)
    return started


def test_only_calls_with_enough_blocks_split(monkeypatch):
    started, ran, failing = _count_threads(monkeypatch), [], set()

    def fn(rows):
        ran.append((rows.start, threading.get_ident()))
        if rows.start in failing:
            raise _Injected(f"block at row {rows.start} failed")
        return np.arange(10)[rows]

    caller = threading.get_ident()
    _two_workers(monkeypatch, 5, 1)
    # one block runs in the calling thread and starts none
    assert metrics._map_row_blocks(fn, 5, 1).tolist() == list(range(5))
    assert started == [] and ran == [(0, caller)]
    # two blocks: the caller takes the first, one more thread the second,
    # and the results come back in row order
    ran.clear()
    assert metrics._map_row_blocks(fn, 10, 1).tolist() == list(range(10))
    assert len(started) == 1
    assert sorted(ran) == [(0, caller), (5, started[0].ident)]
    # an error in the other thread reaches the caller with its type
    failing.add(5)
    with pytest.raises(_Injected, match="block at row 5 failed"):
        metrics._map_row_blocks(fn, 10, 1)
    assert not started[1].is_alive()
    # a process on one CPU keeps every block in the calling thread
    failing.clear()
    ran.clear()
    monkeypatch.setattr(metrics, "_cpus", lambda: 1)
    assert metrics._map_row_blocks(fn, 10, 1).tolist() == list(range(10))
    assert len(started) == 2 and ran == [(0, caller), (5, caller)]
    # no rows make one empty block
    assert metrics._map_row_blocks(fn, 0, 1).tolist() == []


def test_many_cpus_still_give_two_workers(monkeypatch):
    started, ran = _count_threads(monkeypatch), []

    def fn(rows):
        ran.append(threading.get_ident())
        return np.arange(48)[rows]

    _two_workers(monkeypatch, 1, 1)
    monkeypatch.setattr(metrics, "_cpus", lambda: 24)
    out = metrics._map_row_blocks(fn, 48, 1)
    assert out.tolist() == list(range(48)) and len(started) == 1
    assert sorted(ran.count(t) for t in set(ran)) == [24, 24]


def test_workers_keep_the_callers_errstate_and_buffer_size(monkeypatch):
    seen = []

    def fn(rows):
        seen.append((np.geterr(), np.geterrcall(), np.getbufsize()))
        return np.float64(1e308) * np.arange(rows.start, rows.stop) * 10.0

    def handler(kind, flag):
        raise _Injected(kind)

    _two_workers(monkeypatch, 1, 1)
    old = np.setbufsize(4096)
    try:
        with np.errstate(all="ignore"):
            want = np.geterr()
            metrics._map_row_blocks(fn, 4, 1)
            with np.errstate(over="call", call=handler):
                with pytest.raises(_Injected, match="overflow"):
                    metrics._map_row_blocks(fn, 4, 1)
    finally:
        np.setbufsize(old)
    assert seen[:4] == [(want, None, 4096)] * 4
    assert all(s[1] is handler and s[2] == 4096 for s in seen[4:])


def test_euclidean_calls_stay_serial(monkeypatch):
    # the distance kernel itself never starts a thread
    threads = []
    add_parts = metrics._add_parts

    def spy(terms, out):
        threads.append(threading.get_ident())
        add_parts(terms, out)

    monkeypatch.setattr(metrics, "_add_parts", spy)
    monkeypatch.setattr(metrics, "_cpus", lambda: 2)
    rng = np.random.default_rng(101)
    a, b = (random_compositions(rng, n, 8) for n in (19 * 64, 214))
    for metric in (MetricSpec.alpha_metric(0.5), MetricSpec.esov()):
        pairwise_distances(a, b, metric)
    assert len(threads) == 2 * 64
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("caller", [None, 64, 1024])
@pytest.mark.parametrize("m", [1, 3, 130, 214, 8192 + 300, 20000])
def test_ufunc_buffer_is_a_row_capped_at_the_callers_size(m, caller):
    # a row rounded down to a multiple of 16, at least 128 cells and never
    # above the caller's size, in every worker; the caller's size is
    # restored
    seen = []

    def fill(rows, work, _):
        seen.append(np.getbufsize())
        work[...] = 1.0
        return work

    a, b = np.ones((4, 2)), np.ones((m, 2))
    old = np.getbufsize() if caller is None else np.setbufsize(caller)
    try:
        limit = np.getbufsize()
        with pytest.MonkeyPatch.context() as mp:
            # two workers, each given two rows that the kernel fills in
            # one-row blocks
            _two_workers(mp, 2, m)
            mp.setattr(metrics, "_BLOCK_BYTES", 8 * 2 * m)
            out = metrics._map_row_blocks(
                lambda rows: metrics._cross(a[rows], b, 2, fill), 4, m)
        assert np.getbufsize() == limit
    finally:
        np.setbufsize(old)
    assert seen == [min(limit, max(128, m - m % 16))] * 4
    assert (out == np.sqrt(2.0)).all()


def test_metric_spec_validation():
    with pytest.raises(Exception):
        MetricSpec("mahalanobis")
    assert MetricSpec.esov().alpha is None
    assert MetricSpec.alpha_metric(0.5) == MetricSpec("alpha", 0.5)
    assert MetricSpec.alpha_metric(1) == MetricSpec("alpha", 1.0)
    assert hash(MetricSpec.alpha_metric(1)) == hash(MetricSpec("alpha", 1.0))
    assert MetricSpec.esov() != MetricSpec.alpha_metric(1.0)
    with pytest.raises(AttributeError):
        MetricSpec.esov().alpha = 1.0
