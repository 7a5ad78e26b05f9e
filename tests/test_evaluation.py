"""Stratified resampling, accuracy aggregation and grid search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplexclf.dataio import (
    LabeledCompositionDataset,
    SyntheticSpec,
    generate_synthetic,
)
from simplexclf import errors
from simplexclf.errors import (
    AllCombinationsFailedError,
    EmptyGridError,
    IllConditionedAtError,
    LengthMismatchError,
    ParameterOutOfRangeError,
    ZeroWithNonpositiveAlphaError,
)
from simplexclf.evaluation import (
    METHOD_NAMES,
    METHOD_PARAMS,
    CvConfig,
    GridSpec,
    MethodSpec,
    breakdown_by_zero_count,
    correct_rate,
    cv_evaluate,
    grid_search,
    stratified_split,
)

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


# -- correct rate -----------------------------------------------------------------


def test_correct_rate_examples():
    assert correct_rate(["a", "b", "a", "a"], ["a", "b", "b", "a"]) == 0.75
    assert correct_rate(["x"], ["x"]) == 1.0
    assert correct_rate(["x", "y"], ["y", "x"]) == 0.0


def test_correct_rate_rejects_mismatch():
    with pytest.raises(LengthMismatchError):
        correct_rate(["a", "b"], ["a"])
    with pytest.raises(LengthMismatchError):
        correct_rate([], [])


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


def test_zero_count_breakdown_hand_oracle(zero_laden):
    test_indices = np.array([[0, 2, 4], [1, 3, 5]])
    correct = np.array([[True, False, True], [True, True, False]])
    table = breakdown_by_zero_count(test_indices, correct, zero_laden)
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


def test_zero_count_breakdown_tail_bin(zero_laden):
    test_indices = np.array([[0, 2, 4], [1, 3, 5]])
    correct = np.array([[True, False, True], [True, True, False]])
    table = breakdown_by_zero_count(test_indices, correct, zero_laden,
                                    tail_start=1)
    assert [row["zeros"] for row in table] == ["0", "1+"]
    tail = table[1]
    assert tail["rows"] == 3 and np.allclose(tail["share"], 0.5)
    assert np.allclose(tail["mean"], 0.75)


def test_breakdown_rejects_shape_mismatch(zero_laden):
    with pytest.raises(LengthMismatchError):
        breakdown_by_zero_count(np.array([[0, 1]]),
                                np.array([[True]]), zero_laden)


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
    assert "test_indices" in report.to_dict(include_replicates=True)
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_count_breakdown_matches_replicate_loop(data):
    dataset = data.draw(tie_heavy_dataset())
    B = data.draw(st.integers(1, 5))
    n_test = data.draw(st.integers(1, dataset.n))
    test_indices = np.stack([
        np.sort(data.draw(st.permutations(range(dataset.n)))[:n_test])
        for _ in range(B)
    ])
    correct = np.asarray(data.draw(st.lists(
        st.booleans(), min_size=B * n_test, max_size=B * n_test)),
    ).reshape(B, n_test)
    counts = dataset.zero_counts
    table = breakdown_by_zero_count(test_indices, correct, dataset)
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
