"""Stratified resampling, accuracy aggregation and grid search."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from simplexclf.classifiers import (
    COND_THRESHOLD,
    _assemble_rda,
    _knn_vote,
    _scores_z,
    _tie_picks,
    fit_gaussian_groups,
    regularize_covariances,
)
from simplexclf.core import alpha_transform
from simplexclf.dataio import (
    LabeledCompositionDataset,
    SyntheticSpec,
    generate_synthetic,
)
from simplexclf import classifiers, errors, evaluation
from simplexclf.errors import (
    AllCombinationsFailedError,
    EmptyGridError,
    IllConditionedAtError,
    ParameterOutOfRangeError,
    ZeroWithNonpositiveAlphaError,
)
from simplexclf.evaluation import (
    METHOD_NAMES,
    METHOD_PARAMS,
    CvConfig,
    GridSpec,
    MethodSpec,
    cv_evaluate,
    grid_search,
    stratified_split,
)
from simplexclf.metrics import MetricSpec, pairwise_distances

from conftest import random_compositions


def seat_counts(labels, test):
    labels = np.asarray(labels)
    return tuple(int((labels[test] == name).sum())
                 for name in np.unique(labels))


# -- stratified splitting ---------------------------------------------------------


def test_seats_by_largest_remainder():
    # group sizes 70/76/17/13/9/29; quotas at n_test=30 are 9.81, 10.65,
    # 2.38, 1.82, 1.26, 4.07, so the three leftover seats go to the
    # largest remainders: D, then A, then B
    sizes = {"A": 70, "B": 76, "C": 17, "D": 13, "E": 9, "F": 29}
    labels = np.concatenate([[k] * v for k, v in sizes.items()])
    _, test = stratified_split(labels, 30, np.random.default_rng(0))
    assert seat_counts(labels, test) == (10, 11, 2, 2, 1, 4)


def test_equal_groups_split_evenly():
    labels = ["a"] * 10 + ["b"] * 10
    _, test = stratified_split(labels, 2, np.random.default_rng(1))
    assert seat_counts(labels, test) == (1, 1)


def test_every_group_gets_a_seat():
    # group c's quota rounds to zero; its seat comes from the largest
    # allocation
    labels = ["a"] * 50 + ["b"] * 50 + ["c"] * 2
    _, test = stratified_split(labels, 3, np.random.default_rng(2))
    assert seat_counts(labels, test) == (1, 1, 1)


def test_split_partitions_the_indices():
    labels = np.repeat(["a", "b", "c"], [12, 7, 5])
    train, test = stratified_split(labels, 6, np.random.default_rng(3))
    assert test.size == 6
    combined = np.sort(np.concatenate([train, test]))
    assert (combined == np.arange(labels.size)).all()
    assert (np.sort(test) == test).all()
    assert (np.sort(train) == train).all()


def test_split_proportionality_bound():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = int(rng.integers(2, 6))
        sizes = rng.integers(5, 41, size=g)
        labels = np.concatenate(
            [[f"g{i}"] * int(s) for i, s in enumerate(sizes)]
        )
        n = labels.size
        n_test = int(rng.integers(2 * g, n // 2 + 1))
        _, test = stratified_split(labels, n_test, rng)
        seats = np.array(seat_counts(labels, test))
        gap = np.abs(seats / n_test - sizes / n)
        assert (gap <= 1 / n_test + 1 / n).all()


def test_split_same_seed_is_identical():
    labels = np.repeat(["a", "b"], [30, 20])
    a = stratified_split(labels, 10, np.random.default_rng(7))
    b = stratified_split(labels, 10, np.random.default_rng(7))
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_split_rejects_fewer_seats_than_groups():
    labels = np.repeat(["a", "b", "c"], 5)
    with pytest.raises(errors.TestTooSmallError):
        stratified_split(labels, 2, np.random.default_rng(0))


def test_split_rejects_n_test_at_or_above_n():
    labels = np.repeat(["a", "b"], 5)
    with pytest.raises(ParameterOutOfRangeError):
        stratified_split(labels, 10, np.random.default_rng(0))


def test_split_rejects_emptied_group():
    labels = np.repeat(["a", "b"], [2, 8])
    with pytest.raises(ParameterOutOfRangeError, match="'a'"):
        stratified_split(labels, 9, np.random.default_rng(0))


def test_cv_config_rejects_negative_seed():
    # accepted before, it failed only when the first split was drawn
    with pytest.raises(ParameterOutOfRangeError,
                       match="seed must be a non-negative integer, got -1"):
        CvConfig(n_test=3, B=2, seed=-1)


# -- single-method cross-validation -------------------------------------------------


@pytest.fixture(scope="module")
def separated():
    return generate_synthetic(SyntheticSpec("lra", 4, 2, 50, 10.0, 3))


@pytest.fixture(scope="module")
def noisy():
    return generate_synthetic(SyntheticSpec("lra", 4, 2, 50, 0.5, 11))


def test_perfect_separation_scores_one(separated):
    report = cv_evaluate(separated, MethodSpec.lda(0.0), CvConfig(10, 5, 0))
    assert report.mean_q == 1.0
    assert report.sd_q == 0.0
    assert (report.q == 1.0).all()


def test_single_replicate_has_no_spread(noisy):
    report = cv_evaluate(noisy, MethodSpec.lda(0.0), CvConfig(10, 1, 0))
    assert report.B == 1 and report.q.shape == (1,)
    assert report.sd_q is None and report.se_q is None


def test_rates_are_multiples_of_seat_count(noisy):
    report = cv_evaluate(noisy, MethodSpec.lda(0.5), CvConfig(7, 8, 2))
    scaled = report.q * 7
    assert np.allclose(scaled, np.round(scaled), atol=1e-12)
    assert np.allclose(report.mean_q, report.q.mean())
    assert np.allclose(report.sd_q, report.q.std(ddof=1))
    assert np.allclose(report.se_q, report.sd_q / np.sqrt(8))


def test_cv_same_seed_bitwise_identical(noisy):
    a = cv_evaluate(noisy, MethodSpec.rda(0.5, 0.5, 0.5), CvConfig(10, 4, 9))
    b = cv_evaluate(noisy, MethodSpec.rda(0.5, 0.5, 0.5), CvConfig(10, 4, 9))
    assert (a.q == b.q).all()
    assert (a.test_indices == b.test_indices).all()
    assert a.to_dict() == b.to_dict()


def test_cv_seed_changes_splits(noisy):
    a = cv_evaluate(noisy, MethodSpec.lda(0.0), CvConfig(10, 4, 0))
    b = cv_evaluate(noisy, MethodSpec.lda(0.0), CvConfig(10, 4, 1))
    assert not (a.test_indices == b.test_indices).all()


def test_cv_reports_failing_replicate():
    # 8 + 8 points in 8 parts: training groups are smaller than the
    # transformed dimension, so the per-group covariances are singular
    rng = np.random.default_rng(13)
    x = random_compositions(rng, 16, 8)
    ds = LabeledCompositionDataset(x, ["a"] * 8 + ["b"] * 8,
                                   [f"c{j}" for j in range(8)])
    with pytest.raises(IllConditionedAtError) as info:
        cv_evaluate(ds, MethodSpec.qda(1.0), CvConfig(2, 3, 0))
    assert info.value.replicate == 0
    assert "QDA" in str(info.value)


def test_cv_rejects_zero_data_with_nonpositive_alpha():
    x = np.array([
        [0.0, 0.4, 0.6], [0.1, 0.4, 0.5], [0.2, 0.3, 0.5],
        [0.3, 0.3, 0.4], [0.25, 0.25, 0.5], [0.4, 0.2, 0.4],
    ])
    ds = LabeledCompositionDataset(x, ["a"] * 3 + ["b"] * 3, ["u", "v", "w"])
    with pytest.raises(ZeroWithNonpositiveAlphaError):
        cv_evaluate(ds, MethodSpec.lda(0.0), CvConfig(2, 2, 0))


def test_cv_rejects_k_above_training_size(separated):
    with pytest.raises(ParameterOutOfRangeError):
        cv_evaluate(separated, MethodSpec.knn_esov(95), CvConfig(10, 2, 0))


# -- grid search ------------------------------------------------------------------


def test_singleton_grid_matches_direct_evaluation(noisy):
    cv = CvConfig(10, 6, 4)
    grid = GridSpec(alphas=(0.3,), lambdas=(0.5,), gammas=(0.5,),
                    methods=("RDA",))
    result = grid_search(noisy, grid, cv)
    direct = cv_evaluate(noisy, MethodSpec.rda(0.3, 0.5, 0.5), cv)
    assert len(result.reports) == 1
    assert result.best.to_dict() == direct.to_dict()


def test_grid_ranking_is_by_mean_accuracy(noisy):
    grid = GridSpec(alphas=(-0.5, 0.0, 0.5, 1.0), lambdas=(0.0, 1.0),
                    gammas=(1.0,), ks=(1, 5), methods=("RDA", "KNN_ALPHA"))
    result = grid_search(noisy, grid, CvConfig(10, 4, 0))
    assert len(result.reports) == 8 + 8
    means = [r.mean_q for r in result.reports]
    assert means == sorted(means, reverse=True)


def test_grid_ties_prefer_simpler_then_smaller_alpha(separated):
    # everything scores 1.0 on well-separated groups, so the ranking
    # falls through to parameter count and |alpha|
    grid = GridSpec(alphas=(0.0, 0.5), lambdas=(0.0,), gammas=(1.0,),
                    methods=("RDA", "LDA"))
    result = grid_search(separated, grid, CvConfig(10, 3, 0))
    assert all(r.mean_q == 1.0 for r in result.reports)
    order = [r.method.display() for r in result.reports]
    assert order == ["LDA(0)", "LDA(0.5)", "RDA(0, 0, 1)",
                     "RDA(0.5, 0, 1)"]


def test_grid_best_per_method(noisy):
    grid = GridSpec(alphas=(0.0, 1.0), lambdas=(0.0, 1.0), gammas=(1.0,),
                    ks=(3,), methods=("RDA", "LDA", "KNN_ESOV"))
    result = grid_search(noisy, grid, CvConfig(10, 4, 0))
    per = result.best_per_method()
    assert set(per) == {"RDA", "LDA", "KNN_ESOV"}
    for name, report in per.items():
        candidates = [r.mean_q for r in result.reports
                      if r.method.name == name]
        assert report.mean_q == max(candidates)


def test_grid_shares_splits_across_methods(noisy):
    grid = GridSpec(alphas=(0.0, 1.0), methods=("LDA",))
    result = grid_search(noisy, grid, CvConfig(10, 4, 0))
    a, b = result.reports
    assert (a.test_indices == b.test_indices).all()
    assert a.splits_reused and b.splits_reused


def test_grid_records_skipped_combinations():
    rng = np.random.default_rng(17)
    x = random_compositions(rng, 16, 8)
    ds = LabeledCompositionDataset(x, ["a"] * 8 + ["b"] * 8,
                                   [f"c{j}" for j in range(8)])
    grid = GridSpec(alphas=(1.0,), methods=("QDA", "LDA"))
    result = grid_search(ds, grid, CvConfig(2, 2, 0))
    assert [r.method.name for r in result.reports] == ["LDA"]
    assert len(result.skipped) == 1
    assert result.skipped[0].method.name == "QDA"
    rendered = result.to_dict()
    assert rendered["n_combinations"] == 2
    assert len(rendered["skipped"]) == 1


def test_grid_raises_when_nothing_survives():
    rng = np.random.default_rng(19)
    x = random_compositions(rng, 16, 8)
    ds = LabeledCompositionDataset(x, ["a"] * 8 + ["b"] * 8,
                                   [f"c{j}" for j in range(8)])
    with pytest.raises(AllCombinationsFailedError):
        grid_search(ds, GridSpec(alphas=(1.0,), methods=("QDA",)),
                    CvConfig(2, 2, 0))


def test_grid_spec_normalizes_axes():
    grid = GridSpec(alphas=(1.0, 0.0, 1.0), ks=(5, 1, 5),
                    methods=("KNN_ALPHA",))
    assert grid.alphas == (0.0, 1.0)
    assert grid.ks == (1, 5)
    assert len(grid.expand()) == 4


def test_grid_spec_rejects_missing_axis():
    with pytest.raises(EmptyGridError, match="lambdas"):
        GridSpec(alphas=(0.5,), gammas=(1.0,), methods=("RDA",)).expand()
    with pytest.raises(EmptyGridError):
        GridSpec(methods=("KNN_ESOV",)).expand()


# Which knob each method takes, written out independently of
# METHOD_PARAMS: RDA over (alpha, lambda, gamma), LDA and QDA over alpha,
# k-NN under the alpha metric over (alpha, k), k-NN under ESOV over k.
TAKES = {
    "RDA": {"alpha", "lam", "gamma"},
    "LDA": {"alpha"},
    "QDA": {"alpha"},
    "KNN_ALPHA": {"alpha", "k"},
    "KNN_ESOV": {"k"},
}
KNOBS = {"alpha": 0.5, "lam": 0.5, "gamma": 0.5, "k": 3}
AXIS_OF = {"alpha": "alphas", "lam": "lambdas", "gamma": "gammas",
           "k": "ks"}


def test_method_params_table_matches_the_paper():
    assert {m: set(p) for m, p in METHOD_PARAMS.items()} == TAKES
    assert METHOD_NAMES == tuple(TAKES)
    for name, params in TAKES.items():
        spec = MethodSpec(name, **{p: KNOBS[p] for p in params})
        assert spec.n_params == len(params)


@pytest.mark.parametrize("name, knob", [
    (name, knob) for name in TAKES for knob in KNOBS
])
def test_method_spec_rejects_wrong_knobs(name, knob):
    given = {p: KNOBS[p] for p in TAKES[name]}
    if knob in TAKES[name]:
        del given[knob]
        message = "needs"
    else:
        given[knob] = KNOBS[knob]
        message = "takes no"
    with pytest.raises(errors.InvalidSpecError, match=f"{name} {message}"):
        MethodSpec(name, **given)


def reference_expand(grid):
    """The grid as nested loops, one per method."""
    out = []
    for m in grid.methods:
        if m == "RDA":
            out += [MethodSpec.rda(a, lam, g, prior=grid.prior)
                    for a in grid.alphas for lam in grid.lambdas
                    for g in grid.gammas]
        elif m == "LDA":
            out += [MethodSpec.lda(a, prior=grid.prior) for a in grid.alphas]
        elif m == "QDA":
            out += [MethodSpec.qda(a, prior=grid.prior) for a in grid.alphas]
        elif m == "KNN_ALPHA":
            out += [MethodSpec.knn_alpha(k, a)
                    for a in grid.alphas for k in grid.ks]
        else:
            out += [MethodSpec.knn_esov(k) for k in grid.ks]
    return out


def subsets(items):
    return [c for r in range(1, len(items) + 1)
            for c in itertools.combinations(items, r)]


@pytest.mark.parametrize("prior", ["proportional", "uniform"])
@pytest.mark.parametrize("methods", subsets(tuple(TAKES)) + [
    ("KNN_ESOV", "QDA", "RDA", "KNN_ALPHA", "LDA")], ids=",".join)
def test_grid_expand_equals_nested_loops(methods, prior):
    grid = GridSpec(alphas=(1, -0.5, 0.0), lambdas=(0.5, 0), gammas=(1, 0.25),
                    ks=(3, 1), methods=methods, prior=prior)
    combos = grid.expand()
    # repr tells 1 from 1.0, so the parameter types must match too
    assert [repr(m) for m in combos] == \
        [repr(m) for m in reference_expand(grid)]
    assert [m.to_dict() for m in combos] == \
        [m.to_dict() for m in reference_expand(grid)]


@pytest.mark.parametrize("axes", [()] + subsets(tuple(AXIS_OF.values())),
                         ids=lambda axes: ",".join(axes) or "none")
def test_grid_infers_methods_from_given_axes(axes):
    given = {axis: (1,) for axis in axes}
    expected = tuple(m for m, params in TAKES.items()
                     if all(AXIS_OF[p] in axes for p in params))
    if not expected:
        with pytest.raises(EmptyGridError):
            GridSpec(methods=None, **given)
        return
    grid = GridSpec(methods=None, **given)
    assert grid.methods == expected
    assert {m.name for m in grid.expand()} == set(expected)


@pytest.mark.parametrize("k", [3.7, 0.5, float("nan"), float("inf")])
def test_method_spec_rejects_non_integer_k(k):
    with pytest.raises(ParameterOutOfRangeError, match="k must be an integer"):
        MethodSpec("KNN_ESOV", k=k)
    with pytest.raises(ParameterOutOfRangeError, match="k must be an integer"):
        MethodSpec.knn_alpha(k, 0.5)


@pytest.mark.parametrize("alpha", [10 ** 400, -10 ** 400, float("nan"),
                                   float("inf")],
                         ids=["huge", "-huge", "nan", "inf"])
@pytest.mark.parametrize("build", [
    lambda alpha: alpha_transform([[0.5, 0.5]], alpha),
    lambda alpha: MethodSpec.lda(alpha),
    lambda alpha: MethodSpec.knn_alpha(3, alpha),
    lambda alpha: GridSpec(alphas=(alpha,), methods=("LDA",)),
    lambda alpha: MetricSpec.alpha_metric(alpha),
], ids=["alpha_transform", "lda", "knn_alpha", "grid", "alpha_metric"])
def test_alpha_outside_the_finite_floats_is_refused_at_once(build, alpha):
    # an int beyond the float range counts as infinite
    with pytest.raises(ParameterOutOfRangeError,
                       match="alpha must be a finite number"):
        build(alpha)


def test_grid_spec_rejects_non_integer_k():
    with pytest.raises(ParameterOutOfRangeError, match="k must be an integer"):
        GridSpec(ks=(1.5, 2.5), methods=("KNN_ESOV",))


def test_whole_number_k_is_stored_as_an_integer():
    spec = MethodSpec("KNN_ESOV", k=3.0)
    assert type(spec.k) is int and spec.display() == "3-NN(ESOV)"
    assert GridSpec(ks=(3.0, 1), methods=("KNN_ESOV",)).ks == (1, 3)


def test_knn_methods_take_no_prior():
    with pytest.raises(errors.InvalidSpecError, match="takes no prior"):
        MethodSpec("KNN_ESOV", k=3, prior="uniform")
    assert MethodSpec("KNN_ESOV", k=3, prior="proportional").to_dict() == \
        {"name": "KNN_ESOV", "k": 3}


def test_method_dict_equals_its_asdict_form():
    specs = [MethodSpec.knn_alpha(3, 0.5), MethodSpec.knn_esov(5)]
    for prior in ("proportional", "uniform"):
        specs += [MethodSpec.rda(0.5, 0.25, 0.75, prior),
                  MethodSpec.lda(-0.5, prior), MethodSpec.qda(0, prior)]
    for spec in specs:
        reference = {k: v for k, v in dataclasses.asdict(spec).items()
                     if v is not None}
        if spec.engine == "knn":
            del reference["prior"]
        assert list(spec.to_dict().items()) == list(reference.items())


# The per-method descriptors as they were written before they were derived
# from METHOD_PARAMS: one branch per method name.


def ladder_effective_lam_gamma(m):
    if m.name == "RDA":
        return m.lam, m.gamma
    if m.name == "LDA":
        return 0.0, 1.0
    if m.name == "QDA":
        return 1.0, 0.0
    raise errors.InvalidSpecError(f"{m.name} has no covariance weights")


def ladder_metric(m):
    if m.name == "KNN_ALPHA":
        return MetricSpec.alpha_metric(m.alpha)
    if m.name == "KNN_ESOV":
        return MetricSpec.esov()
    raise errors.InvalidSpecError(f"{m.name} has no metric")


def ladder_display(m):
    suffix = "; uniform prior" if (
        m.name in ("RDA", "LDA", "QDA") and m.prior == "uniform") else ""
    if m.name == "RDA":
        return f"RDA({m.alpha:g}, {m.lam:g}, {m.gamma:g}{suffix})"
    if m.name == "LDA":
        return f"LDA({m.alpha:g}{suffix})"
    if m.name == "QDA":
        return f"QDA({m.alpha:g}{suffix})"
    if m.name == "KNN_ALPHA":
        return f"{m.k}-NN({m.alpha:g})"
    return f"{m.k}-NN(ESOV)"


def ladder_sort_key(m):
    return (m.name,
            m.alpha if m.alpha is not None else 0.0,
            m.lam if m.lam is not None else -1.0,
            m.gamma if m.gamma is not None else -1.0,
            m.k if m.k is not None else -1)


def outcome(call):
    try:
        return call()
    except errors.InvalidSpecError as exc:
        return ("raises", str(exc))


def test_table_descriptors_equal_per_method_ladders():
    specs = [m for prior in ("proportional", "uniform")
             for m in GridSpec(alphas=(-1, -0.5, 0, 0.25, 1),
                               lambdas=(0, 0.5, 1), gammas=(0, 0.25, 1),
                               ks=(1, 3, 10), methods=METHOD_NAMES,
                               prior=prior).expand()]
    assert {m.name for m in specs} == set(METHOD_NAMES)
    for m in specs:
        assert m.display() == ladder_display(m)
        assert outcome(m.effective_lam_gamma) == \
            outcome(lambda: ladder_effective_lam_gamma(m))
        assert outcome(m.metric) == outcome(lambda: ladder_metric(m))
    # the keys differ in shape, so compare the orders they induce, ties
    # between the two priors included
    shuffled = [specs[i] for i in
                np.random.default_rng(0).permutation(len(specs))]
    assert sorted(shuffled, key=lambda m: m._sort_key()) == \
        sorted(shuffled, key=ladder_sort_key)


def test_knn_grid_memory_is_bounded_by_row_blocks():
    # the neighbour search holds a row block's distances, never the whole
    # n x n matrix (18 MB here) or its partitioned copy
    n = 1500
    rng = np.random.default_rng(113)
    ds = LabeledCompositionDataset(random_compositions(rng, n, 8, zeros=True),
                                   np.repeat(list("abc"), n // 3),
                                   [f"p{j}" for j in range(8)])
    grid = GridSpec(ks=(1, 2, 3), methods=("KNN_ESOV",))
    tracemalloc.start()
    try:
        grid_search(ds, grid, CvConfig(30, 5, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, peak


# -- accuracy breakdowns ------------------------------------------------------------


@pytest.fixture
def zero_laden():
    x = np.array([
        [0.25, 0.25, 0.25, 0.25],
        [0.4, 0.3, 0.2, 0.1],
        [0.0, 0.5, 0.3, 0.2],
        [0.5, 0.0, 0.3, 0.2],
        [0.0, 0.0, 0.6, 0.4],
        [0.1, 0.2, 0.3, 0.4],
    ])
    labels = ["a", "a", "a", "b", "b", "b"]
    return LabeledCompositionDataset(x, labels, ["w", "x", "y", "z"])


def zero_count_table(test_indices, correct, dataset):
    """The ``per_zero_count`` table of one combination from its replicate
    test rows and correctness, through the report's own helpers."""
    row_bins, entries = evaluation._zero_bins(dataset)
    stats = evaluation._per_bin_accuracy(row_bins[test_indices],
                                         len(entries), correct[np.newaxis])
    return evaluation._zero_count_rows(entries, stats, 0)


def test_zero_count_breakdown_hand_oracle(zero_laden):
    test_indices = np.array([[0, 2, 4], [1, 3, 5]])
    correct = np.array([[True, False, True], [True, True, False]])
    table = zero_count_table(test_indices, correct, zero_laden)
    assert [row["zeros"] for row in table] == ["0", "1", "2"]

    by = {row["zeros"]: row for row in table}
    assert np.allclose(by["0"]["mean"], 0.75)
    assert np.allclose(by["0"]["sd"], 0.35355339059327373)
    assert by["0"]["rows"] == 3 and np.allclose(by["0"]["share"], 0.5)
    assert by["0"]["replicates"] == 2

    assert np.allclose(by["1"]["mean"], 0.5)
    assert np.allclose(by["1"]["sd"], 0.7071067811865476)

    # the two-zero row appears in one replicate only
    assert by["2"]["mean"] == 1.0
    assert by["2"]["sd"] is None
    assert by["2"]["replicates"] == 1


def aggregate_reference(row):
    """The statistics of one replicate vector from 1-D numpy calls."""
    row = np.array(row, dtype=float)
    if row.size < 2:
        return (float(row.mean()) if row.size else None), None, None
    sd = float(np.std(row, ddof=1))
    return float(np.mean(row)), sd, sd / float(np.sqrt(row.size))


def float_bits(values):
    return [None if v is None else (type(v), v.hex()) for v in values]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5),
       st.one_of(st.integers(0, 3), st.integers(0, 3000)),
       st.sampled_from(["C", "F", "indexed"]), st.integers(0, 2 ** 32 - 1))
def test_batched_aggregate_equals_1d_reference(K, m, layout, seed):
    rng = np.random.default_rng(seed)
    # per-bin rates (small fractions, many equal) mixed with arbitrary reals
    values = np.where(rng.random((K, m)) < 0.5,
                      rng.integers(0, 8, (K, m)) / rng.integers(1, 8, (K, m)),
                      rng.random((K, m)))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "indexed":
        # the per-bin call's layout: an index array between two slices
        stack = np.zeros((K, 2 * m + 1, 3))
        used = np.arange(1, 2 * m + 1, 2)
        stack[:, used, 1] = values
        values = stack[:, used, 1]
    got = evaluation._aggregate(values)
    want = list(zip(*map(aggregate_reference, values)))
    for got_stat, want_stat in zip(got, want):
        assert type(got_stat) is list and len(got_stat) == K
        assert float_bits(got_stat) == float_bits(want_stat)


def test_report_serialization_round_trip(noisy):
    report = cv_evaluate(noisy, MethodSpec.rda(0.5, 0.0, 1.0),
                         CvConfig(10, 3, 0))
    rendered = report.to_dict()
    assert rendered["method"] == {"name": "RDA", "alpha": 0.5, "lam": 0.0,
                                  "gamma": 1.0, "prior": "proportional"}
    assert rendered["display"] == "RDA(0.5, 0, 1)"
    assert rendered["B"] == 3 and rendered["n_test"] == 10
    assert len(rendered["q"]) == 3
    assert "test_indices" not in rendered
    for row in rendered["per_group"]:
        assert set(row) == {"group", "mean", "sd", "size", "zero_fraction"}


# -- properties on tie-heavy data --------------------------------------------------


@st.composite
def tie_heavy_dataset(draw):
    """Three groups of lattice compositions (parts in {0, 1, 2}), so
    neighbour distances and k-NN votes tie often."""
    sizes = draw(st.lists(st.integers(3, 6), min_size=3, max_size=3))
    n = sum(sizes)
    raw = np.asarray(draw(st.lists(
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
        min_size=n, max_size=n)), dtype=float)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    labels = np.repeat(["a", "b", "c"], sizes)
    return LabeledCompositionDataset(raw, labels, ["u", "v", "w"])


@settings(max_examples=25, deadline=None)
@given(tie_heavy_dataset(), st.integers(0, 2 ** 32 - 1))
def test_solo_knn_equals_grid_member(dataset, seed):
    cv = CvConfig(n_test=3, B=4, seed=seed)
    grid = GridSpec(alphas=(0.5,), ks=(1, 2, 3, 5),
                    methods=("KNN_ALPHA", "KNN_ESOV"))
    result = grid_search(dataset, grid, cv)
    assert len(result.reports) == 8
    for report in result.reports:
        solo = cv_evaluate(dataset, report.method, cv)
        assert solo.q.tobytes() == report.q.tobytes()
        assert solo.per_group == report.per_group
        assert solo.per_zero_count == report.per_zero_count


@st.composite
def mixed_grid_case(draw):
    """Three groups of compositions in three to six parts, rows shuffled,
    whose last, smallest group lies on a hyperplane except for one row,
    so the lambda = 1 combinations fail at the replicates that test that
    row, often not the first.  Either every part is positive and the
    alphas include 0 and -0.5, or some rows of the first group have one
    or two zero parts and the alphas are positive.  Every method is
    searched."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    D = draw(st.integers(3, 6))
    smallest = max(D, 4) + 2
    sizes = draw(st.lists(st.integers(smallest, D + 8), min_size=2,
                          max_size=2)) + [smallest]
    raw = np.vstack([np.exp(rng.normal(0.0, 0.3, D)
                            + 0.4 * rng.standard_normal((size, D)))
                     for size in sizes])
    flat = np.arange(len(raw) - sizes[-1] + 1, len(raw))
    raw[flat, -1] = raw[flat, -2]
    zeros = draw(st.booleans())
    if zeros:
        raw[: sizes[0] // 2, 0] = 0.0
        raw[: sizes[0] // 4, 1] = 0.0
    # interleaved groups, so the test rows' labels differ by replicate
    order = rng.permutation(len(raw))
    dataset = LabeledCompositionDataset(
        raw[order], np.repeat(["a", "b", "c"], sizes)[order],
        [f"p{j}" for j in range(D)])
    alphas = draw(st.sets(st.sampled_from(
        [0.5, 1.0] if zeros else [-0.5, 0.0, 0.5, 1.0]), min_size=1,
        max_size=2))
    grid = GridSpec(alphas=tuple(alphas), lambdas=(0.5, 1.0),
                    gammas=(0.0, 1.0), ks=(1, 3), methods=METHOD_NAMES,
                    prior=draw(st.sampled_from(["proportional", "uniform"])))
    cv = CvConfig(n_test=draw(st.integers(4, 9)), B=draw(st.integers(2, 6)),
                  seed=draw(st.integers(0, 2 ** 32 - 1)))
    return dataset, grid, cv


@settings(max_examples=25, deadline=None)
@given(mixed_grid_case())
def test_solo_equals_grid_member_for_every_engine(case):
    dataset, grid, cv = case
    result = grid_search(dataset, grid, cv)
    combos = grid.expand()
    assert sorted(m._sort_key() for m in combos) == sorted(
        [r.method._sort_key() for r in result.reports]
        + [s.method._sort_key() for s in result.skipped])
    for report in result.reports:
        solo = cv_evaluate(dataset, report.method, cv)
        assert solo.q.tobytes() == report.q.tobytes()
        assert solo.per_group == report.per_group
        assert solo.per_zero_count == report.per_zero_count
    for skip in result.skipped:
        with pytest.raises(IllConditionedAtError) as caught:
            cv_evaluate(dataset, skip.method, cv)
        assert (caught.value.replicate, caught.value.cause) == \
            (skip.replicate, skip.reason)
    # one replicate per chunk in every family
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_BLOCK_BYTES", 1)
        assert grid_search(dataset, grid, cv).to_dict() == result.to_dict()


@settings(max_examples=40, deadline=None)
@given(tie_heavy_dataset(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["KNN_ESOV", "KNN_ALPHA"]), st.booleans(), st.data())
def test_one_sort_per_row_equals_per_replicate_sort(dataset, seed, name,
                                                     one_byte, data):
    n_test = data.draw(st.integers(3, 6))
    ks = data.draw(st.sets(st.integers(1, dataset.n - n_test), min_size=1,
                           max_size=4))
    grid = GridSpec(alphas=(0.5,) if name == "KNN_ALPHA" else (),
                    ks=tuple(sorted(ks)), methods=(name,))
    cv = CvConfig(n_test=n_test, B=3, seed=seed)
    codes_seen = []
    vote = evaluation._knn_vote

    def recording_vote(codes, *args):
        codes_seen.append(codes.copy())
        return vote(codes, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_knn_vote", recording_vote)
        if one_byte:
            mp.setattr(evaluation, "_BLOCK_BYTES", 1)
        report = grid_search(dataset, grid, cv).reports[0]
    dist = pairwise_distances(dataset.rows, dataset.rows,
                              report.method.metric())
    _, codes = np.unique(dataset.labels, return_inverse=True)
    # one vote call per chunk of replicates: each one alone under a 1-byte
    # budget, all three together under the default one
    assert len(codes_seen) == (cv.B if one_byte else 1)
    stacked = np.concatenate(codes_seen).reshape(cv.B, n_test, max(ks))
    for test, seen in zip(report.test_indices, stacked):
        train = np.setdiff1d(np.arange(dataset.n), test)
        sub = dist[np.ix_(test, train)]
        order = np.argsort(sub, axis=1, kind="stable")[:, : max(ks)]
        assert np.array_equal(seen, codes[train][order])


def per_replicate_knn_family(dataset, metric, combos, cv, splits, words):
    """The k-NN family runner as it was before replicates were stacked:
    one whole-row stable sort per distance row and one vote per
    replicate, picking ties from ``words[b, i]`` through
    ``evaluation._tie_picks``.  Returns the ``(K, B, n_test)``
    correctness."""
    ranked = np.argsort(pairwise_distances(dataset.rows, dataset.rows, metric),
                        axis=1, kind="stable")
    names, codes = np.unique(dataset.labels, return_inverse=True)
    ks = [m.k for m in combos]
    correct = np.empty((len(combos), cv.B, cv.n_test), dtype=bool)
    for b, (train, test) in enumerate(splits):
        rows = ranked[test]
        in_train = np.bincount(train, minlength=dataset.n) > 0
        order = rows[in_train[rows]].reshape(test.size, train.size)
        won = _knn_vote(
            codes[order[:, : max(ks)]], ks, names.size,
            lambda i, sizes, b=b: evaluation._tie_picks(
                words[b, i], sizes, cv.seed, (evaluation._TIE_STREAM, b, i)))
        correct[:, b] = (won == codes[test][:, np.newaxis]).T
    return correct


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([MetricSpec.esov(), MetricSpec.alpha_metric(0.25),
                        MetricSpec.alpha_metric(1.0)]), st.data())
def test_stacked_knn_family_equals_per_replicate_loop(dataset, seed, metric,
                                                      data):
    n_test = data.draw(st.integers(dataset.g, dataset.n - 1), "n_test")
    cv = CvConfig(n_test=n_test, B=data.draw(st.integers(1, 5), "B"),
                  seed=seed)
    try:
        plan = evaluation._split_plan(dataset, cv)
    except ParameterOutOfRangeError:
        assume(False)
    splits = list(zip(plan.trains, plan.tests))
    room = dataset.n - n_test
    ks = data.draw(st.sets(st.integers(1, room), min_size=1, max_size=4))
    if data.draw(st.booleans(), "widest"):
        ks.add(room)  # kmax + n_test = n: every row keeps all n neighbours
    width = max(ks) + n_test
    # one replicate per chunk, two (a short last chunk when B is odd), or
    # all of them in one
    budget = data.draw(st.sampled_from(
        [1, 2 * 8 * n_test * width, evaluation._BLOCK_BYTES]), "budget")
    combos = [MethodSpec("KNN_ESOV", k=k) for k in sorted(ks)]

    words = evaluation._tie_words(
        cv.seed, (evaluation._TIE_STREAM, np.arange(cv.B)[:, np.newaxis],
                  np.arange(n_test)))

    def recorder():
        keys = set()

        def tie_picks(words, sizes, seed, key):
            _, b, i = np.broadcast_arrays(*key)
            keys.update(zip(b.tolist(), i.tolist(), sizes.tolist()))
            return _tie_picks(words, sizes, seed, key)
        return tie_picks, keys

    tie_picks, keys = recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_BLOCK_BYTES", budget)
        mp.setattr(evaluation, "_tie_picks", tie_picks)
        methods, correct, skips = evaluation._run_knn_family(
            plan, metric, combos, cv, words)
    want_picks, want_keys = recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_tie_picks", want_picks)
        want = per_replicate_knn_family(dataset, metric, combos, cv, splits,
                                        words)
    assert keys == want_keys
    assert methods == combos and skips == []
    assert correct.dtype == want.dtype and correct.shape == want.shape
    assert correct.tobytes() == want.tobytes()


def test_grid_tie_picks_equal_each_stream_first_draw(monkeypatch):
    # lattice compositions in three groups: many exact distance ties and
    # label ties, the same tie streams met by every family and k
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 3, size=(36, 3)).astype(float)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    dataset = LabeledCompositionDataset(raw, np.repeat(["a", "b", "c"], 12),
                                        ["u", "v", "w"])
    cv = CvConfig(n_test=9, B=5, seed=11)
    grid = GridSpec(alphas=(0.25, 0.5, 1.0), ks=(1, 2, 3, 4, 6),
                    methods=("KNN_ALPHA", "KNN_ESOV"))
    built, picked = [], []
    rng_for, tie_picks = classifiers._rng_for, evaluation._tie_picks

    def recording_rng_for(seed, *path):
        if path[0] == evaluation._TIE_STREAM:
            built.append(path)
        return rng_for(seed, *path)

    def recording_tie_picks(words, sizes, seed, key):
        picks = tie_picks(words, sizes, seed, key)
        _, b, i = np.broadcast_arrays(*key)
        picked.extend(zip(b.tolist(), i.tolist(), sizes.tolist(),
                          words.tolist(), picks.tolist()))
        return picks

    monkeypatch.setattr(classifiers, "_rng_for", recording_rng_for)
    monkeypatch.setattr(evaluation, "_rng_for", recording_rng_for)
    monkeypatch.setattr(evaluation, "_tie_picks", recording_tie_picks)
    grid_search(dataset, grid, cv)
    assert len(picked) > 0
    # each pick is the first integers(n) of its (1, b, i) stream
    for b, i, n, _, value in picked:
        fresh = np.random.default_rng(
            np.random.SeedSequence(cv.seed, spawn_key=(1, b, i)))
        assert value == fresh.integers(n)
    # a tie-stream generator is built only for a word numpy rejects
    rejected = [(1, b, i) for b, i, n, word, _ in picked
                if (word * n) % 2 ** 32 < (2 ** 32 - n) % n]
    assert built == rejected


@settings(max_examples=40, deadline=None)
@given(tie_heavy_dataset(), st.integers(3, 6), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
def test_zero_count_breakdown_matches_replicate_loop(dataset, n_test, B,
                                                     seed):
    report = cv_evaluate(dataset, MethodSpec.knn_esov(1),
                         CvConfig(n_test=n_test, B=B, seed=seed))
    test_indices, correct = report.test_indices, report.correct
    counts = dataset.zero_counts
    table = report.per_zero_count
    assert [row["zeros"] for row in table] == \
        [str(v) for v in np.unique(counts)]
    for row in table:
        accs = []
        for b in range(B):
            hits = counts[test_indices[b]] == int(row["zeros"])
            if hits.any():
                accs.append(correct[b][hits].mean())
        accs = np.asarray(accs)
        assert row["replicates"] == accs.size
        assert row["mean"] == (float(accs.mean()) if accs.size else None)
        assert row["sd"] == (float(accs.std(ddof=1))
                             if accs.size >= 2 else None)


# -- the stacked Gaussian engine ---------------------------------------------------


def per_replicate_family(dataset, alpha, combos, cv, splits):
    """The per-replicate loop the stacked engine replaced, for one alpha:
    per replicate, one unstacked moments, assemble and score call for
    every live pair.  Returns the correctness per surviving combination
    and the skips as ``(method, replicate, reason)``."""
    z = alpha_transform(dataset.rows, alpha)
    labels = dataset.labels
    live = {m: np.empty((cv.B, cv.n_test), dtype=bool) for m in combos}
    skips = []
    for b, (train, test) in enumerate(splits):
        if not live:
            break
        models, pooled = fit_gaussian_groups(z[train], labels[train])
        batch, errs = _assemble_rda(
            models, pooled, [m.effective_lam_gamma() for m in live],
            alpha=alpha, prior=combos[0].prior,
        )
        winners = _scores_z(batch, z[test]).argmax(axis=-1)
        predicted = np.asarray([m.label for m in models])[winners]
        for c, (method, guess) in enumerate(zip(list(live), predicted)):
            if (c, 0) in errs:
                skips.append((method, b, str(errs[c, 0])))
                del live[method]
            else:
                live[method][b] = guess == labels[test]
    return live, skips


@st.composite
def gauss_family_case(draw):
    """Groups in up to ten parts (d up to 9) whose last, smallest group
    may lie on a hyperplane except for its first row, so lambda = 1 pairs
    fail at the replicates that test that row, often not the first; plus
    a prior, one to three alphas, RDA (lambda, gamma) pairs at each, maybe
    QDA, and CV settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    D = draw(st.integers(2, 10))
    smallest = max(D, 4) + 2
    sizes = draw(st.lists(st.integers(smallest, D + 8), min_size=1,
                          max_size=2)) + [smallest]
    raw = np.vstack([np.exp(rng.normal(0.0, 0.3, D)
                            + 0.4 * rng.standard_normal((size, D)))
                     for size in sizes])
    if draw(st.booleans()):
        flat = np.arange(len(raw) - sizes[-1] + 1, len(raw))
        raw[flat, -1] = raw[flat, -2]
    labels = np.repeat([f"g{i}" for i in range(len(sizes))], sizes)
    dataset = LabeledCompositionDataset(raw, labels,
                                        [f"p{j}" for j in range(D)])
    weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    pairs = draw(st.lists(st.tuples(weight, weight), min_size=1,
                          max_size=5, unique=True))
    alphas = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
                           min_size=1, max_size=3, unique=True))
    prior = draw(st.sampled_from(["proportional", "uniform"]))
    qda = draw(st.booleans())
    combos = [m for alpha in alphas for m in (
        [MethodSpec.rda(alpha, lam, gamma, prior) for lam, gamma in pairs]
        + [MethodSpec.qda(alpha, prior)] * qda)]
    cv = CvConfig(n_test=draw(st.integers(len(sizes), len(sizes) + 6)),
                  B=draw(st.integers(1, 8)),
                  seed=draw(st.integers(0, 2 ** 32 - 1)))
    return dataset, alphas, combos, cv


def unit_bytes(dataset, pairs, cv):
    """The Gaussian engine's budget share of one (alpha, replicate) unit
    of ``pairs`` distinct (lambda, gamma) pairs."""
    d = dataset.D - 1
    return 8 * d * (dataset.n + pairs * dataset.g * max(d, cv.n_test))


@settings(max_examples=100, deadline=None)
@given(gauss_family_case(), st.data())
def test_stacked_gauss_family_equals_per_replicate_loop(case, data):
    dataset, alphas, combos, cv = case
    plan = evaluation._split_plan(dataset, cv)
    splits = list(zip(plan.trains, plan.tests))
    pairs = {m.effective_lam_gamma() for m in combos}
    # one unit per chunk, chunks that end inside an alpha's replicates,
    # or every unit in one chunk
    block_bytes = data.draw(st.sampled_from([1, 1 << 24]) | st.integers(
        1, len(alphas) * cv.B).map(
            lambda k: k * unit_bytes(dataset, len(pairs), cv)), "budget")
    cholesky = np.linalg.cholesky
    doomed = None
    if cv.B > 1 and data.draw(st.booleans()):
        # a matrix of a later replicate that passes the eigenvalue check
        # but whose factorisation is made to fail
        b = data.draw(st.integers(1, cv.B - 1))
        c = data.draw(st.integers(0, len(combos) - 1))
        train = splits[b][0]
        z = alpha_transform(dataset.rows, combos[c].alpha)[train]
        models, pooled = fit_gaussian_groups(z, dataset.labels[train])
        stack = regularize_covariances(models, pooled,
                                       *combos[c].effective_lam_gamma())
        eig = np.linalg.eigvalsh(stack)
        passing = np.flatnonzero(
            (eig[:, 0] > 0) & (eig[:, -1] <= COND_THRESHOLD * eig[:, 0]))
        if passing.size:
            doomed = stack[data.draw(st.sampled_from(passing.tolist()))]

    def flaky(a):
        if doomed is not None and (a == doomed).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", flaky)
        mp.setattr(evaluation, "_BLOCK_BYTES", block_bytes)
        methods, correct, skips = evaluation._run_gauss(plan, combos, cv)
        live, want_skips = {}, []
        for alpha in alphas:
            family = [m for m in combos if m.alpha == alpha]
            right, skipped = per_replicate_family(dataset, alpha, family, cv,
                                                  splits)
            live.update(right)
            want_skips += skipped
    # the engine lists skips in combination order, not by replicate;
    # grids sort them
    assert sorted((s.method._sort_key(), s.replicate, s.reason)
                  for s in skips) == sorted(
        (m._sort_key(), b, reason) for m, b, reason in want_skips)
    assert methods == [m for m in combos if m in live]
    want = np.array([live[m] for m in methods], dtype=bool).reshape(
        len(methods), cv.B, cv.n_test)
    assert correct.dtype == want.dtype and correct.shape == want.shape
    assert correct.tobytes() == want.tobytes()


def hyperplane_grid():
    """A grid whose lambda = 1 pairs leave at replicate 2 at every alpha
    (the last group lies on a hyperplane except for its first row), so
    later units run without them: 6 distinct (lambda, gamma) pairs, LDA
    and QDA sharing two of them, 3 alphas and 8 replicates."""
    raw = np.exp(np.random.default_rng(17).normal(0.0, 0.4, (66, 5)))
    raw[55:, 4] = raw[55:, 3]
    dataset = LabeledCompositionDataset(
        raw, np.repeat(["g0", "g1", "g2"], [30, 24, 12]),
        [f"p{j}" for j in range(5)])
    grid = GridSpec(alphas=(-0.5, 0.0, 1.0), lambdas=(0.0, 0.5, 1.0),
                    gammas=(0.0, 1.0), methods=("RDA", "LDA", "QDA"))
    return dataset, grid, CvConfig(n_test=12, B=8, seed=4)


def counted_assemble(monkeypatch):
    """Record ``(pairs, units)`` of every assemble call."""
    calls = []
    assemble = evaluation._assemble_rda

    def counted(models, pooled, pairs, **kwargs):
        calls.append((len(pairs), len(models[0].mean)))
        return assemble(models, pooled, pairs, **kwargs)

    monkeypatch.setattr(evaluation, "_assemble_rda", counted)
    return calls


def test_one_replicate_chunks_equal_one_chunk(monkeypatch):
    dataset, grid, cv = hyperplane_grid()
    calls = counted_assemble(monkeypatch)
    whole = grid_search(dataset, grid, cv).to_dict()
    assert {s["replicate"] for s in whole["skipped"]} == {2}
    # every (alpha, replicate) unit in one call of the 6 distinct pairs
    assert calls == [(6, len(grid.alphas) * cv.B)]
    calls.clear()
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 1)
    assert grid_search(dataset, grid, cv).to_dict() == whole
    # one call per unit, fewer pairs once the two lambda = 1 pairs left
    assert len(calls) == len(grid.alphas) * cv.B
    assert [pairs for pairs, _ in calls] == [6, 6, 6, 4, 4, 4, 4, 4] * 3


def test_chunk_ending_inside_an_alpha_equals_one_chunk(monkeypatch):
    dataset, grid, cv = hyperplane_grid()
    whole = grid_search(dataset, grid, cv).to_dict()
    calls = counted_assemble(monkeypatch)
    # ten units a chunk split alpha 0's replicates 0-1 | 2-7: its lambda =
    # 1 pairs fail at the first unit of the second chunk, which also holds
    # alpha 1's replicates 0-3 and its failure at replicate 2; the last
    # chunk runs without them
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES",
                        10 * unit_bytes(dataset, 6, cv))
    split = grid_search(dataset, grid, cv).to_dict()
    assert calls == [(6, 10), (6, 10), (4, 4)]
    assert split == whole
    assert sorted((s["method"]["alpha"], s["replicate"])
                  for s in split["skipped"]) == sorted(
        (alpha, 2) for alpha in grid.alphas for _ in range(3))
