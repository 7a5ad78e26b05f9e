"""Gaussian discriminant models over transformed coordinates and k-NN
over simplicial metrics."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.optimize import brentq

from simplexclf import classifiers, metrics
from simplexclf.classifiers import (
    COND_THRESHOLD,
    KnnFit,
    _assemble_rda,
    _forward_substitute,
    _knn_vote,
    _rda_from_groups,
    _rng_for,
    _scores_z,
    _tie_picks,
    _tie_words,
    RdaModel,
    fit_gaussian_groups,
    fit_knn,
    fit_rda,
    knn_predict,
    knn_predict_batch,
    rda_predict,
    rda_scores,
    regularize_covariances,
)
from simplexclf.core import (
    closure,
    helmert_submatrix,
    inverse_alpha_transform,
)
from simplexclf.dataio import (
    LabeledCompositionDataset,
    SyntheticSpec,
    generate_synthetic,
)
from simplexclf.errors import (
    DimensionMismatchError,
    GroupTooSmallError,
    IllConditionedError,
    LengthMismatchError,
    ParameterOutOfRangeError,
    ZeroWithNonpositiveAlphaError,
)
from simplexclf.metrics import MetricSpec, esov_distance, pairwise_distances

from conftest import nan_factors_at, random_compositions


def dataset_from_z(z, labels, alpha=1.0, D=None):
    """Map transformed-space points back to compositions and wrap them.

    Keeps ``z`` small enough that every point stays inside the image of
    the forward transformation.
    """
    D = D or z.shape[1] + 1
    x = inverse_alpha_transform(np.atleast_2d(z), alpha, D)
    names = [f"c{j}" for j in range(D)]
    return LabeledCompositionDataset(x, labels, names)


def cross_pattern(center, delta):
    """Four points whose sample covariance is exactly spherical."""
    c = np.asarray(center, dtype=float)
    return np.array([
        c + [delta, 0.0], c - [delta, 0.0],
        c + [0.0, delta], c - [0.0, delta],
    ])


# -- moment estimation ---------------------------------------------------------


def test_fit_groups_no_dispersion():
    z = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    models, pooled = fit_gaussian_groups(z, ["a", "a", "b", "b"])
    for m in models:
        assert np.allclose(m.covariance, 0.0)
    assert np.allclose(pooled, 0.0)


def test_fit_groups_hand_value_d1():
    z = np.array([[0.0], [2.0], [1.0], [3.0]])
    models, pooled = fit_gaussian_groups(z, ["a", "a", "b", "b"])
    assert [m.label for m in models] == ["a", "b"]
    assert np.allclose([m.covariance[0, 0] for m in models], [2.0, 2.0])
    assert np.allclose(models[0].mean, [1.0])
    assert np.allclose(models[1].mean, [2.0])
    # (1 * 2 + 1 * 2) / (4 - 2)
    assert np.allclose(pooled, [[2.0]])


def test_pooled_equals_common_covariance():
    rng = np.random.default_rng(83)
    base = rng.standard_normal((6, 3))
    base -= base.mean(axis=0)
    z = np.vstack([base + rng.standard_normal(3) for _ in range(3)])
    labels = np.repeat(["a", "b", "c"], 6)
    models, pooled = fit_gaussian_groups(z, labels)
    for m in models:
        assert np.allclose(pooled, m.covariance)


def test_fit_groups_rejects_singleton_group():
    z = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(GroupTooSmallError):
        fit_gaussian_groups(z, ["a", "a", "b"])


# -- covariance regularization ---------------------------------------------------


@pytest.fixture
def random_moments():
    rng = np.random.default_rng(89)
    z = rng.standard_normal((40, 3))
    labels = np.repeat(["a", "b"], 20)
    return fit_gaussian_groups(z, labels)


def test_lambda_one_keeps_group_covariances(random_moments):
    models, pooled = random_moments
    out = regularize_covariances(models, pooled, 1.0, 0.3)
    for m, sigma in zip(models, out):
        assert np.allclose(sigma, m.covariance)


def test_lambda_zero_gamma_one_gives_pooled(random_moments):
    models, pooled = random_moments
    out = regularize_covariances(models, pooled, 0.0, 1.0)
    for sigma in out:
        assert np.allclose(sigma, pooled)


def test_both_zero_gives_spherical(random_moments):
    models, pooled = random_moments
    out = regularize_covariances(models, pooled, 0.0, 0.0)
    target = np.trace(pooled) / 3 * np.eye(3)
    for sigma in out:
        assert np.allclose(sigma, target)


def test_regularize_rejects_out_of_range(random_moments):
    models, pooled = random_moments
    with pytest.raises(ParameterOutOfRangeError):
        regularize_covariances(models, pooled, 1.5, 0.0)
    with pytest.raises(ParameterOutOfRangeError):
        regularize_covariances(models, pooled, 0.0, -0.1)


# -- RDA fitting ----------------------------------------------------------------


def test_qda_ill_conditioned_when_groups_too_small():
    # 5 + 3 points in 7 transformed dimensions: per-group covariances are
    # rank deficient, so the quadratic corner cannot be fitted
    rng = np.random.default_rng(97)
    x = random_compositions(rng, 8, 8)
    ds = LabeledCompositionDataset(x, ["a"] * 5 + ["b"] * 3,
                                   [f"c{j}" for j in range(8)])
    with pytest.raises(IllConditionedError):
        fit_rda(ds, 1.0, 1.0, 0.0)


def test_rda_rejects_zeros_with_nonpositive_alpha():
    x = np.array([
        [0.0, 0.4, 0.6], [0.1, 0.4, 0.5], [0.2, 0.3, 0.5],
        [0.3, 0.3, 0.4], [0.25, 0.25, 0.5], [0.4, 0.2, 0.4],
    ])
    ds = LabeledCompositionDataset(x, ["a"] * 3 + ["b"] * 3,
                                   ["u", "v", "w"])
    with pytest.raises(ZeroWithNonpositiveAlphaError):
        fit_rda(ds, 0.0, 0.0, 1.0)


def test_lda_boundary_is_perpendicular_bisector():
    # spherical within-group covariance, means differing only in the
    # first coordinate: the pooled-covariance rule reduces to nearest
    # mean, and the boundary is the x = 0.2 plane
    z = np.vstack([cross_pattern([0.0, 0.0], 0.1),
                   cross_pattern([0.4, 0.0], 0.1)])
    ds = dataset_from_z(z, ["a"] * 4 + ["b"] * 4)
    model = fit_rda(ds, 1.0, 0.0, 1.0, prior="uniform")
    for y in (-0.1, 0.0, 0.1):
        near_a = inverse_alpha_transform(np.array([0.19, y]), 1.0, 3)
        near_b = inverse_alpha_transform(np.array([0.21, y]), 1.0, 3)
        assert rda_predict(model, near_a) == "a"
        assert rda_predict(model, near_b) == "b"
    on_boundary = inverse_alpha_transform(np.array([0.2, 0.05]), 1.0, 3)
    scores = rda_scores(model, on_boundary)
    assert abs(scores[0] - scores[1]) <= 1e-10


def test_training_accuracy_favours_matching_transform():
    ds = generate_synthetic(SyntheticSpec("lra", 4, 2, 50, 2.5, 0))
    acc = {}
    for alpha in (0.0, 1.0):
        model = fit_rda(ds, alpha, 0.0, 1.0)
        acc[alpha] = float((rda_predict(model, ds.rows) == ds.labels).mean())
    assert acc[0.0] >= acc[1.0]
    assert acc[0.0] >= 0.9


def test_model_records_parameters():
    rng = np.random.default_rng(101)
    x = random_compositions(rng, 30, 4)
    ds = LabeledCompositionDataset(x, ["a"] * 15 + ["b"] * 15,
                                   list("wxyz"))
    model = fit_rda(ds, 0.4, 0.3, 0.8, prior="uniform")
    assert (model.alpha, model.lam, model.gamma) == (0.4, 0.3, 0.8)
    assert model.prior == "uniform"
    assert np.allclose(np.exp(model.log_priors).sum(), 1.0, atol=1e-12)
    assert np.allclose(np.exp(model.log_priors), 0.5)


def test_proportional_priors_are_exact_frequencies():
    rng = np.random.default_rng(103)
    x = random_compositions(rng, 30, 4)
    ds = LabeledCompositionDataset(x, ["a"] * 10 + ["b"] * 20,
                                   list("wxyz"))
    model = fit_rda(ds, 1.0, 0.0, 1.0)
    assert np.allclose(np.exp(model.log_priors), [1 / 3, 2 / 3], atol=1e-15)


# -- scoring --------------------------------------------------------------------


def toy_model(log_priors, means=((0.0,), (0.0,))):
    """A hand-assembled d=1 model with unit variances."""
    g = len(log_priors)
    return RdaModel(
        alpha=1.0, lam=1.0, gamma=0.0, prior="uniform", source_dim=2,
        helmert=helmert_submatrix(2),
        group_labels=tuple(f"g{i}" for i in range(g)),
        counts=np.full(g, 2),
        means=np.asarray(means, dtype=float),
        covariances=np.ones((g, 1, 1)),
        chol_factors=np.ones((g, 1, 1)),
        log_dets=np.zeros(g),
        log_priors=np.asarray(log_priors, dtype=float),
    )


def test_score_is_scalar_gaussian_log_density():
    model = toy_model([0.0, 0.0], means=[[0.0], [5.0]])
    # uniform composition maps to z = 0
    scores = rda_scores(model, np.array([0.5, 0.5]))
    assert np.allclose(scores[0], -0.9189385332046727)


def test_exact_score_tie_resolves_to_lowest_index():
    model = toy_model([0.0, 0.0], means=[[0.0], [0.0]])
    assert rda_predict(model, np.array([0.4, 0.6])) == "g0"


def test_score_difference_is_log_prior_ratio():
    model = toy_model(np.log([0.9, 0.1]))
    rng = np.random.default_rng(107)
    for x1 in rng.uniform(0.2, 0.8, size=10):
        scores = rda_scores(model, np.array([x1, 1 - x1]))
        assert np.allclose(scores[0] - scores[1], np.log(9.0), atol=1e-12)


def test_score_maximal_at_own_mean():
    z = np.vstack([cross_pattern([0.0, 0.0], 0.08),
                   cross_pattern([0.3, 0.2], 0.08)])
    ds = dataset_from_z(z, ["a"] * 4 + ["b"] * 4)
    model = fit_rda(ds, 1.0, 0.0, 1.0, prior="uniform")
    for i, mean in enumerate(model.means):
        x = inverse_alpha_transform(mean, 1.0, 3)
        assert int(np.argmax(rda_scores(model, x))) == i


def test_score_dimension_mismatch():
    model = toy_model([0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        rda_scores(model, np.full(3, 1 / 3))


def test_prior_monotonicity():
    rng = np.random.default_rng(109)
    z = rng.standard_normal((40, 2)) * 0.05
    z[20:, 0] += 0.25
    ds = dataset_from_z(z, ["a"] * 20 + ["b"] * 20)
    model = fit_rda(ds, 1.0, 0.0, 1.0)
    queries = random_compositions(rng, 50, 3)
    before = rda_predict(model, queries)
    bumped = dataclasses.replace(
        model, log_priors=model.log_priors + np.array([1.0, 0.0])
    )
    after = rda_predict(bumped, queries)
    # raising group a's prior never moves a prediction away from a
    assert set(np.flatnonzero(before == "a")) <= \
        set(np.flatnonzero(after == "a"))


def test_scores_invariant_under_rotated_basis():
    rng = np.random.default_rng(113)
    x = random_compositions(rng, 40, 5)
    ds = LabeledCompositionDataset(x, ["a"] * 20 + ["b"] * 20,
                                   [f"c{j}" for j in range(5)])
    H = helmert_submatrix(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    H2 = q @ H
    queries = random_compositions(rng, 25, 5)
    for alpha, lam, gamma in ((1.0, 0.0, 1.0), (0.5, 0.5, 0.5),
                              (0.0, 1.0, 0.0)):
        m1 = fit_rda(ds, alpha, lam, gamma)
        m2 = fit_rda(ds, alpha, lam, gamma, helmert=H2)
        s1 = rda_scores(m1, queries)
        s2 = rda_scores(m2, queries)
        assert np.abs(s1 - s2).max() <= 1e-8
        assert (rda_predict(m1, queries) == rda_predict(m2, queries)).all()


def test_qda_boundary_located_by_root_finding():
    # one dimension, unequal spreads: the score difference has a root
    # between the means, and predictions flip exactly there
    rng = np.random.default_rng(127)
    za = rng.standard_normal(12) * 0.02
    zb = 0.3 + rng.standard_normal(12) * 0.08
    z = np.concatenate([za, zb])[:, np.newaxis]
    ds = dataset_from_z(z, ["a"] * 12 + ["b"] * 12)
    model = fit_rda(ds, 1.0, 1.0, 0.0, prior="uniform")

    def score_gap(z1):
        x = inverse_alpha_transform(np.array([z1]), 1.0, 2)
        s = rda_scores(model, x)
        return s[0] - s[1]

    boundary = brentq(score_gap, 0.0, 0.3, xtol=1e-12)
    for eps in (1e-4, 1e-2):
        lo = inverse_alpha_transform(np.array([boundary - eps]), 1.0, 2)
        hi = inverse_alpha_transform(np.array([boundary + eps]), 1.0, 2)
        assert rda_predict(model, lo) == "a"
        assert rda_predict(model, hi) == "b"


# -- k-NN -----------------------------------------------------------------------


def knn_cloud(seed=131, n=50, D=5, groups=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    x = random_compositions(rng, n, D)
    labels = np.asarray([groups[i % len(groups)] for i in range(n)])
    return x, labels, rng


def brute_force_knn(points, labels, k, metric, query, rng):
    """Full-sort reference: no partial selection, same tie law."""
    dists = pairwise_distances(query[np.newaxis, :], points, metric)[0]
    order = np.argsort(dists, kind="stable")[:k]
    names, counts = np.unique(labels[order], return_counts=True)
    tied = names[counts == counts.max()]
    if tied.size == 1:
        return str(tied[0])
    return str(tied[int(rng.integers(tied.size))])


def test_k1_returns_nearest_label():
    x, labels, rng = knn_cloud()
    fit = fit_knn(
        LabeledCompositionDataset(x, labels, [f"c{j}" for j in range(5)]),
        1, MetricSpec.alpha_metric(0.5),
    )
    queries = random_compositions(rng, 20, 5)
    for q in queries:
        d = pairwise_distances(q[np.newaxis, :], x,
                               MetricSpec.alpha_metric(0.5))[0]
        assert knn_predict(fit, q, np.random.default_rng(0)) == \
            labels[int(np.argmin(d))]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_matches_brute_force_oracle(k):
    x, labels, rng = knn_cloud()
    metric = MetricSpec.alpha_metric(0.5)
    fit = fit_knn(
        LabeledCompositionDataset(x, labels, [f"c{j}" for j in range(5)]),
        k, metric,
    )
    queries = random_compositions(rng, 100, 5)
    for i, q in enumerate(queries):
        got = knn_predict(fit, q, np.random.default_rng(i))
        want = brute_force_knn(x, labels, k, metric, q,
                               np.random.default_rng(i))
        assert got == want


def test_two_way_tie_splits_evenly():
    # one training point per group at equal distances from the query
    x = np.array([[0.3, 0.7], [0.7, 0.3]])
    ds = LabeledCompositionDataset(x, ["a", "b"], ["u", "v"])
    fit = fit_knn(ds, 2, MetricSpec.alpha_metric(1.0))
    query = np.array([0.5, 0.5])
    wins = sum(
        knn_predict(fit, query, np.random.default_rng(t)) == "a"
        for t in range(10_000)
    )
    assert abs(wins / 10_000 - 0.5) <= 0.02


def test_knn_batch_rejects_negative_seed():
    x, labels, rng = knn_cloud()
    fit = KnnFit(x, labels, 2, MetricSpec.esov())
    with pytest.raises(ParameterOutOfRangeError,
                       match="seed must be a non-negative integer, got -1"):
        knn_predict_batch(fit, random_compositions(rng, 30, 5), -1)


def test_knn_deterministic_given_seed():
    x, labels, rng = knn_cloud()
    ds = LabeledCompositionDataset(x, labels, [f"c{j}" for j in range(5)])
    fit = fit_knn(ds, 3, MetricSpec.esov())
    queries = random_compositions(rng, 30, 5)
    a = knn_predict_batch(fit, queries, 7)
    b = knn_predict_batch(fit, queries, 7)
    assert (a == b).all()


def test_prediction_invariant_to_metric_scaling():
    # the alpha = 1 metric is D times Euclidean distance; monotone
    # rescaling cannot change any neighbour ranking
    x, labels, rng = knn_cloud(groups=("a", "b"))
    ds = LabeledCompositionDataset(x, labels, [f"c{j}" for j in range(5)])
    fit = fit_knn(ds, 3, MetricSpec.alpha_metric(1.0))
    queries = random_compositions(rng, 40, 5)
    got = knn_predict_batch(fit, queries, 0)
    for q, label in zip(queries, got):
        order = np.argsort(np.linalg.norm(x - q, axis=1), kind="stable")[:3]
        names, counts = np.unique(labels[order], return_counts=True)
        assert label == names[np.argmax(counts)]


def test_fit_knn_rejects_zero_incompatible_metric():
    x = np.array([
        [0.0, 0.4, 0.6], [0.1, 0.4, 0.5], [0.2, 0.3, 0.5],
        [0.3, 0.3, 0.4],
    ])
    ds = LabeledCompositionDataset(x, ["a", "a", "b", "b"], ["u", "v", "w"])
    with pytest.raises(ZeroWithNonpositiveAlphaError):
        fit_knn(ds, 1, MetricSpec.alpha_metric(-0.5))
    # esov tolerates the same zeros
    fit = fit_knn(ds, 1, MetricSpec.esov())
    assert esov_distance(fit.points[0], fit.points[1]) > 0.0


def test_knn_fit_rejects_k_above_n():
    x, labels, _ = knn_cloud(n=10)
    with pytest.raises(ParameterOutOfRangeError):
        KnnFit(x, labels, 11, MetricSpec.esov())


# -- batched vote kernel: properties on tie-heavy data ---------------------------


def lattice_rows(size):
    """Closed compositions with parts drawn from {0, 1, 2}: few distinct
    points, so distance ties and label ties are frequent."""
    row = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(
        lambda r: [v + (i == 0 and not any(r)) for i, v in enumerate(r)]
    )
    return st.lists(row, min_size=size[0], max_size=size[1]).map(
        lambda rows: closure(np.asarray(rows, dtype=float))
    )


@st.composite
def tie_heavy_knn(draw):
    points = draw(lattice_rows((2, 12)))
    labels = np.asarray(draw(st.lists(
        st.sampled_from("abc"), min_size=len(points),
        max_size=len(points)).filter(lambda ls: len(set(ls)) > 1)))
    queries = draw(lattice_rows((1, 6)))
    metric = draw(st.sampled_from(
        [MetricSpec.esov(), MetricSpec.alpha_metric(0.5)]))
    ks = draw(st.lists(st.integers(1, len(points)), min_size=1,
                       max_size=4))
    return points, labels, queries, metric, ks


@settings(max_examples=60, deadline=None)
@given(tie_heavy_knn(), st.integers(0, 2 ** 32 - 1))
def test_batch_rows_equal_scalar_calls(case, seed):
    points, labels, queries, metric, ks = case
    fit = KnnFit(points, labels, ks[0], metric)
    batch = knn_predict_batch(fit, queries, seed)
    for i, q in enumerate(queries):
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(i,)))
        assert batch[i] == knn_predict(fit, q, rng)


@settings(max_examples=60, deadline=None)
@given(tie_heavy_knn(), st.integers(0, 2 ** 32 - 1))
def test_vote_draws_once_per_tied_pair(case, seed):
    points, labels, queries, metric, ks = case
    names, codes = np.unique(labels, return_inverse=True)
    dists = pairwise_distances(queries, points, metric)
    order = np.argsort(dists, axis=1, kind="stable")[:, : max(ks)]
    calls = []

    def pick(rows, sizes):
        calls.extend(zip(rows.tolist(), sizes.tolist()))
        return [np.random.default_rng([seed, row]).integers(n)
                for row, n in zip(rows, sizes)]

    won = _knn_vote(codes[order], ks, names.size, pick)
    tied = []
    for i, q in enumerate(queries):
        for j, k in enumerate(ks):
            _, counts = np.unique(labels[order[i, :k]], return_counts=True)
            n_tied = int((counts == counts.max()).sum())
            if n_tied > 1:
                tied.append((i, n_tied))
            want = brute_force_knn(points, labels, k, metric, q,
                                   np.random.default_rng([seed, i]))
            assert names[won[i, j]] == want
    # the arrays handed to pick hold each distinct tied (row, tie size)
    # once, and no pair without a tie
    assert sorted(calls) == sorted(set(tied))


def per_pair_vote(codes, ks, n_labels, draw):
    """The vote as it was before draws were shared: one ``draw(row, t)``
    call per tied ``(row, k)`` pair."""
    won = np.empty((len(codes), len(ks)), dtype=int)
    for i, row in enumerate(codes):
        for j, k in enumerate(ks):
            counts = np.bincount(row[:k], minlength=n_labels)
            tied = np.flatnonzero(counts == counts.max())
            won[i, j] = tied[draw(i, tied.size)] if tied.size > 1 else \
                tied[0]
    return won


@settings(max_examples=60, deadline=None)
@given(tie_heavy_knn(), st.integers(0, 2 ** 32 - 1))
def test_vote_shares_one_draw_per_row_and_tie_size(case, seed):
    points, labels, queries, metric, ks = case
    names, codes = np.unique(labels, return_inverse=True)
    dists = pairwise_distances(queries, points, metric)
    near = codes[np.argsort(dists, axis=1, kind="stable")[:, : max(ks)]]
    ks = sorted(set(ks)) * 2  # every k twice: each tied pair repeats

    def pick(row, n):
        return np.random.default_rng([seed, row, n]).integers(n)

    calls, per_pair_calls = [], []

    def picks(rows, sizes):
        calls.extend(zip(rows.tolist(), sizes.tolist()))
        return [pick(row, n) for row, n in zip(rows, sizes)]

    won = _knn_vote(near, ks, names.size, picks)
    want = per_pair_vote(
        near, ks, names.size,
        lambda row, n: per_pair_calls.append((row, n)) or pick(row, n))
    assert np.array_equal(won, want)
    assert sorted(calls) == sorted(set(per_pair_calls))
    assert len(per_pair_calls) >= 2 * len(calls)


# seeds of one to seven 32-bit words: numpy pads a seed of fewer than
# four (its pool size) with zeros and mixes the words past four after it
tie_seeds = st.one_of(
    st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 64 - 1,
                     2 ** 96 + 7, 2 ** 128 - 1, 2 ** 128, 2 ** 140 + 11]),
    st.integers(0, 2 ** 224 - 1))


@settings(max_examples=150, deadline=None)
@given(tie_seeds, st.sampled_from(["predict", "grid"]),
       st.integers(2, 12), st.data())
def test_bulk_tie_picks_equal_each_stream_first_draw(seed, shape, n_labels,
                                                     data):
    index = st.integers(0, 2 ** 32 - 1) | st.integers(0, 400)
    if shape == "predict":  # key (i,), one stream per query row
        rows = np.array(data.draw(st.lists(index, min_size=1, max_size=30)))
        key, paths = [rows], [(i,) for i in rows.tolist()]
    else:  # key (1, b, i): replicate b, test row i
        b = np.array(data.draw(st.lists(index, min_size=1, max_size=5)))
        i = np.array(data.draw(st.lists(index, min_size=1, max_size=6)))
        key = (1, b[:, np.newaxis], i)
        paths = [(1, bb, ii) for bb in b.tolist() for ii in i.tolist()]
    words = _tie_words(seed, key)
    assert words.shape == np.broadcast_shapes(*(np.shape(p) for p in key))
    for n in range(2, n_labels + 1):
        picks = _tie_picks(words, np.full(words.shape, n), seed, key)
        want = [_rng_for(seed, *path).integers(n) for path in paths]
        assert picks.ravel().tolist() == want


def test_rejected_tie_word_goes_to_the_stream_generator(monkeypatch):
    # a word whose low product falls below (2**32 - n) % n is one numpy
    # rejects and redraws from: word 0 is such a word unless n is a
    # power of two, where the threshold is 0
    built = []

    def recording_rng_for(seed, *path):
        built.append((seed, path))
        return _rng_for(seed, *path)

    monkeypatch.setattr(classifiers, "_rng_for", recording_rng_for)
    sizes = np.arange(2, 12)
    words = np.zeros(sizes.shape, dtype=np.uint64)
    for seed in (3, 2 ** 70 + 3):
        built.clear()
        rows = np.arange(sizes.size) + 17
        picks = _tie_picks(words, sizes, seed, [rows])
        rejected = (2 ** 32 - sizes) % sizes > 0
        assert built == [(seed, (row,)) for row in rows[rejected].tolist()]
        assert (picks[~rejected] == 0).all()
        for row, n, got in zip(rows[rejected], sizes[rejected],
                               picks[rejected]):
            assert got == _rng_for(seed, row).integers(n)
        # the grid's key: a tie-stream tag and two arrays
        built.clear()
        b, i = rows // 4, rows % 4
        picks = _tie_picks(words, sizes, seed, (1, b, i))
        assert built == [(seed, (1, bb, ii)) for bb, ii in
                         zip(b[rejected].tolist(), i[rejected].tolist())]
        for bb, ii, n, got in zip(b[rejected], i[rejected], sizes[rejected],
                                  picks[rejected]):
            assert got == _rng_for(seed, 1, bb, ii).integers(n)
    # a word whose low product equals the threshold is kept:
    # 0xAAAAAAAB * 3 = 2 * 2**32 + 1 and (2**32 - 3) % 3 = 1
    built.clear()
    assert _tie_picks(np.array([0xAAAAAAAB], dtype=np.uint64), [3], 0,
                      [np.array([0])]).tolist() == [2]
    assert built == []


@st.composite
def tied_distances(draw):
    """Distance rows rounded to a few levels, so ties straddle the k-th
    place, with repeated rows."""
    m = draw(st.integers(1, 12))
    level = st.integers(0, draw(st.sampled_from((1, 3, 1000))))
    pool = draw(st.lists(st.lists(level, min_size=m, max_size=m),
                         min_size=1, max_size=4))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                         max_size=10))
    return np.array([pool[r] for r in rows]) / 4.0, draw(st.integers(1, m))


@settings(max_examples=300, deadline=None)
@given(tied_distances())
def test_nearest_equals_the_stable_sort_prefix(case):
    dists, k = case
    want = np.argsort(dists, axis=1, kind="stable")[:, :k]
    assert np.array_equal(classifiers._nearest(dists, k), want)


@st.composite
def wide_tied_distances(draw):
    """Rows 13 to 300 wide on one to three distance levels, with repeated
    rows, and ``k`` from 1 to the width; a row holding ``k`` zeros and a
    row of one level make one call mix rows whose k-th value repeats past
    their room with rows that keep every repeat."""
    m = draw(st.integers(13, 300))
    k = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, draw(st.integers(1, 3)), (rng.integers(1, 5), m))
    exact = np.ones(m)
    exact[rng.choice(m, k, replace=False)] = 0
    rows = np.vstack([pool[rng.integers(0, len(pool), rng.integers(1, 9))],
                      exact, np.full(m, 2.0)])
    return rows[rng.permutation(len(rows))] / 4.0, k


@settings(max_examples=200, deadline=None)
@given(wide_tied_distances())
def test_nearest_on_wide_tied_rows_equals_the_stable_sort_prefix(case):
    dists, k = case
    want = np.argsort(dists, axis=1, kind="stable")[:, :k]
    assert np.array_equal(classifiers._nearest(dists, k), want)


# -- batched Gaussian kernel: batch members equal one-pair calls -----------------


@st.composite
def gauss_moments(draw):
    """Moments of groups with few points in up to nine dimensions, badly
    scaled, so singular and ill-conditioned covariances are frequent; plus
    query points and a list of (lambda, gamma) pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(2, d + 3), min_size=2, max_size=4))
    scale = 10.0 ** rng.uniform(-4, 4, size=d)
    z = rng.standard_normal((sum(sizes), d)) * scale
    labels = np.repeat([f"g{i}" for i in range(len(sizes))], sizes)
    weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    pairs = draw(st.lists(st.tuples(weight, weight), min_size=1,
                          max_size=6))
    return z, labels, rng.standard_normal((5, d)) * scale, pairs


GAUSS_KW = dict(alpha=0.5, prior="proportional")


def one_matrix_substitution(factor, b):
    """Forward substitution for one lower-triangular factor, column by
    column in the kernel's operation order.  Fortran order makes the d
    axis of the result contiguous, so its squared sum over d is taken
    pairwise, as in the kernel."""
    x = np.array(b, dtype=float, order="F")
    for k in range(len(factor)):
        x[k] /= factor[k, k]
        x[k + 1:] -= np.outer(factor[k + 1:, k], x[k])
    return x


def one_matrix_reason(sigma):
    """Why one covariance fails the checks, in the order the kernel
    applies them, or None."""
    eig = np.linalg.eigvalsh(sigma)
    if eig[0] <= 0 or not np.isfinite(eig).all():
        return "is not positive definite"
    if eig[-1] / eig[0] > COND_THRESHOLD:
        return (f"has condition number {eig[-1] / eig[0]:.3e} > "
                f"{COND_THRESHOLD:.0e}")
    return None


@settings(max_examples=80, deadline=None)
@given(gauss_moments())
def test_batched_assembly_equals_one_pair_calls(case):
    z, labels, queries, pairs = case
    d = z.shape[1]
    models, pooled = fit_gaussian_groups(z, labels)
    batch, errors = _assemble_rda(models, pooled, pairs, **GAUSS_KW)
    scores = _scores_z(batch, queries)
    for c, (lam, gamma) in enumerate(pairs):
        # the one-matrix-at-a-time route the kernel replaced
        regularized = regularize_covariances(models, pooled, lam, gamma)
        reasons = [(m.label, one_matrix_reason(sigma))
                   for m, sigma in zip(models, regularized)]
        failing = [(label, why) for label, why in reasons if why]
        try:
            one = _rda_from_groups(models, pooled, lam, gamma,
                                   source_dim=d + 1, **GAUSS_KW)
        except IllConditionedError as exc:
            label, why = failing[0]
            assert str(exc) == str(errors[c, 0]) == (
                f"covariance for group {label!r} {why} "
                f"(alpha=0.5, lambda={lam}, gamma={gamma})")
            continue
        assert (c, 0) not in errors and not failing
        assert batch.chol_factors[c].tobytes() == one.chol_factors.tobytes()
        assert batch.log_dets[c].tobytes() == one.log_dets.tobytes()
        assert scores[c].tobytes() == _scores_z(one, queries).tobytes()
        for i, m in enumerate(models):
            factor = np.linalg.cholesky(regularized[i])
            assert factor.tobytes() == one.chol_factors[i].tobytes()
            log_det = 2.0 * float(np.log(np.diag(factor)).sum())
            assert log_det == one.log_dets[i]
            white = one_matrix_substitution(factor, (queries - m.mean).T)
            want = (-0.5 * (d * np.log(2.0 * np.pi) + log_det)
                    - 0.5 * (white ** 2).sum(axis=0) + one.log_priors[i])
            assert want.tobytes() == scores[c][:, i].tobytes()


@st.composite
def triangular_systems(draw):
    """Lower-triangular factors of well-conditioned covariances, one
    ``(g, d, d)`` stack or a ``(C, g, d, d)`` batch whose failed pairs
    hold identity factors, with ``(..., d, n)`` right-hand sides; a batch
    may share one ``(g, d, n)`` set of right-hand sides, as the pairs of
    one model do."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 9))
    shape = draw(st.sampled_from([(3,), (1,), (4, 3), (2, 1)]))
    a = rng.standard_normal(shape + (d, d + 2))
    factors = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2))
    if len(shape) == 2:
        factors[rng.random(shape[0]) < 0.5] = np.eye(d)
        if draw(st.booleans()):
            shape = shape[1:]
    b = rng.standard_normal(shape + (d, draw(st.integers(1, 6))))
    return factors, b * 10.0 ** rng.uniform(-3, 3)


@settings(max_examples=120, deadline=None)
@given(triangular_systems())
def test_forward_substitution_matches_scipy(case):
    factors, b = case
    before = factors.copy(), b.copy()
    x = _forward_substitute(factors, b)
    assert factors.tobytes() == before[0].tobytes()
    assert b.tobytes() == before[1].tobytes()
    assert x.shape == factors.shape[:-1] + b.shape[-1:]
    for idx in np.ndindex(factors.shape[:-2]):
        want = solve_triangular(factors[idx], b[idx[-b.ndim + 2:]],
                                lower=True)
        # entries near zero come from cancellation, so they are held to
        # the same tolerance relative to the largest entry
        np.testing.assert_allclose(x[idx], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_stacked_assembly_reports_the_first_failing_replicate():
    # group a lies on a line in replicate 1 only, group b in replicate 0
    # only: the lambda = 1 pair leaves at replicate 0, named by group b
    z = np.random.default_rng(5).standard_normal((2, 8, 2))
    z[1, :4, 1] = z[1, :4, 0]
    z[0, 4:, 1] = z[0, 4:, 0]
    labels = np.tile(np.repeat(["a", "b"], 4), (2, 1))
    pairs = [(1.0, 0.0), (0.5, 0.5)]
    models, pooled = fit_gaussian_groups(z, labels)
    batch, errors = _assemble_rda(models, pooled, pairs, **GAUSS_KW)
    assert list(errors) == [(0, 0)]
    assert (errors[0, 0].replicate, errors[0, 0].group) == (0, "b")
    for b in range(2):
        one, one_errors = _assemble_rda(*fit_gaussian_groups(z[b], labels[b]),
                                        pairs, **GAUSS_KW)
        assert one.chol_factors[1].tobytes() == \
            batch.chol_factors[1, b].tobytes()
        assert list(one_errors) == [(0, 0)]
        assert one_errors[0, 0].group == "ab"[1 - b]
    assert str(errors[0, 0]) == str(
        _assemble_rda(*fit_gaussian_groups(z[0], labels[0]), pairs,
                      **GAUSS_KW)[1][0, 0])
    # with an alpha per unit, each alpha keeps its own first failure
    _, errors = _assemble_rda(models, pooled, pairs, alpha=[0.5, 1.0],
                              prior="proportional")
    assert sorted(errors) == [(0, 0), (0, 1)]
    assert (errors[0, 1].replicate, errors[0, 1].group) == (1, "a")
    assert "(alpha=1.0, lambda=1.0, gamma=0.0)" in str(errors[0, 1])


def test_stacked_fit_needs_equal_group_counts():
    labels = np.array([list("aabbb"), list("aaabb")])
    with pytest.raises(LengthMismatchError, match="'a'"):
        fit_gaussian_groups(np.zeros((2, 5, 1)), labels)


def test_cholesky_failure_names_its_pair_and_group(random_moments,
                                                   monkeypatch):
    # a matrix that passes the eigenvalue check but whose factor is NaN
    # fails alone; the other pair is unaffected
    models, pooled = random_moments
    pairs = [(0.5, 0.5), (1.0, 0.5)]
    doomed = regularize_covariances(models, pooled, *pairs[0])[1]
    monkeypatch.setattr(classifiers, "cholesky_lo",
                        nan_factors_at(doomed))
    batch, errors = _assemble_rda(models, pooled, pairs, **GAUSS_KW)
    assert list(errors) == [(0, 0)]
    assert str(errors[0, 0]) == (
        "covariance for group 'b' could not be factorised: Matrix is not "
        "positive definite (alpha=0.5, lambda=0.5, gamma=0.5)")
    monkeypatch.undo()
    one = _rda_from_groups(models, pooled, *pairs[1], source_dim=4,
                           **GAUSS_KW)
    assert batch.chol_factors[1].tobytes() == one.chol_factors.tobytes()


@st.composite
def spd_stacks(draw):
    """A ``(..., d, d)`` stack of symmetric matrices with d from 1 to 6:
    positive definite ones of condition up to 1e14 and, in half the
    stacks, singular and indefinite ones among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from([(1,), (5,), (3, 4), (2, 2, 3)]))
    d = draw(st.integers(1, 6))
    eig = 10.0 ** -(np.linspace(0, 1, d) * rng.uniform(0, 14, shape + (1,)))
    eig = eig * 10.0 ** rng.uniform(-3, 3, shape + (1,))
    if draw(st.booleans()):
        kind = rng.choice(3, size=shape)
        eig[..., -1] = np.where(kind == 1, 0.0, eig[..., -1])
        eig[..., -1] = np.where(kind == 2, -eig[..., -1], eig[..., -1])
    basis = np.linalg.qr(rng.standard_normal(shape + (d, d)))[0]
    a = basis * eig[..., np.newaxis, :] @ np.swapaxes(basis, -1, -2)
    return (a + np.swapaxes(a, -1, -2)) / 2


@settings(max_examples=100, deadline=None)
@given(spd_stacks())
def test_cholesky_gufunc_is_numpys_cholesky_without_the_raise(stack):
    # the assembly calls numpy's private gufunc; if numpy moves or
    # changes it, this says so
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        factors = classifiers.cholesky_lo(stack, signature="d->d")
    assert factors.shape == stack.shape and factors.dtype == np.float64
    for idx in np.ndindex(stack.shape[:-2]):
        try:
            want = np.linalg.cholesky(stack[idx])
        except np.linalg.LinAlgError:
            assert np.isnan(factors[idx]).all()
        else:
            assert factors[idx].tobytes() == want.tobytes()
    if not np.isnan(factors).any():
        assert factors.tobytes() == np.linalg.cholesky(stack).tobytes()


@st.composite
def conditioned_moments(draw):
    """Group moments whose covariances, the members of the lambda = 1
    stack, have d from 1 to 6 and condition numbers from 1 to 1e14 (some
    near ``COND_THRESHOLD``), with singular and indefinite members; ``U``
    units with an alpha each, alpha-major, and (lambda, gamma) pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d, g, U = (draw(st.integers(1, 6)), draw(st.integers(2, 3)),
               draw(st.integers(1, 6)))
    log_cond = np.where(rng.random((g, U)) < 0.5, rng.uniform(0, 14, (g, U)),
                        rng.uniform(11, 13, (g, U)))
    eig = 10.0 ** -(np.linspace(0, 1, d) * log_cond[..., np.newaxis])
    bad = draw(st.sampled_from([0.0, 0.05, 0.3]))
    kind = rng.choice(3, size=(g, U), p=[1 - bad, bad / 2, bad / 2])
    eig[..., -1] = np.where(kind == 1, 0.0, eig[..., -1])
    eig[..., -1] = np.where(kind == 2, -eig[..., -1], eig[..., -1])
    basis = np.linalg.qr(rng.standard_normal((g, U, d, d)))[0]
    cov = basis * (eig * 10.0 ** rng.uniform(-3, 3, (g, U, 1)))[
        ..., np.newaxis, :] @ np.swapaxes(basis, -1, -2)
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2
    models = [classifiers.GaussianGroupModel(f"g{i}", np.zeros((U, d)),
                                             cov[i], 5) for i in range(g)]
    alphas = sorted(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
                                  min_size=U, max_size=U)))
    weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    pairs = [(1.0, 0.0)] + draw(st.lists(st.tuples(weight, weight),
                                         max_size=3))
    return models, classifiers._pooled_covariance(models), pairs, alphas


def eigvalsh_screen(models, pooled, pairs, alphas):
    """The per-matrix eigenvalue screen the certificate must reproduce:
    factors (identity where a member fails), log-determinants, and per
    (pair, alpha) the first failing unit's message, cond and group."""
    stack = regularize_covariances(models, pooled, *zip(*pairs))
    factors = np.broadcast_to(np.eye(stack.shape[-1]), stack.shape).copy()
    whys, conds = {}, {}
    for idx in np.ndindex(stack.shape[:-2]):
        eig = np.linalg.eigvalsh(stack[idx])
        definite = eig[0] > 0 and np.isfinite(eig).all()
        with np.errstate(divide="ignore", invalid="ignore"):
            conds[idx] = float(eig[-1] / eig[0]) if definite else np.inf
        whys[idx] = one_matrix_reason(stack[idx])
        if whys[idx] is None:
            factors[idx] = np.linalg.cholesky(stack[idx])
    log_dets = np.zeros(stack.shape[:-2])
    for idx in np.ndindex(stack.shape[:-2]):
        log_dets[idx] = 2.0 * np.log(np.diag(factors[idx])).sum()
    errors = {}
    for c, (lam, gamma) in enumerate(pairs):
        for u, alpha in enumerate(alphas):
            fails = [i for i in range(len(models)) if whys[c, u, i]]
            if fails and not any(k[0] == c and alphas[k[1]] == alpha
                                 for k in errors):
                i = fails[0]
                errors[c, u] = (
                    f"covariance for group {models[i].label!r} "
                    f"{whys[c, u, i]} (alpha={alpha}, lambda={lam}, "
                    f"gamma={gamma})", conds[c, u, i], models[i].label)
    return factors, log_dets, errors


@settings(max_examples=150, deadline=None)
@given(conditioned_moments())
def test_certified_assembly_equals_the_eigenvalue_screen(case):
    models, pooled, pairs, alphas = case
    cholesky_lo = classifiers.cholesky_lo
    calls = []

    def counted(a, **kwargs):
        calls.append(a.shape)
        return cholesky_lo(a, **kwargs)

    factors, log_dets, want = eigvalsh_screen(models, pooled, pairs, alphas)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifiers, "cholesky_lo", counted)
        batch, errors = _assemble_rda(models, pooled, pairs, alpha=alphas,
                                      prior="uniform")
    assert len(calls) == 1 and len(calls[0]) == 5  # the whole stack, once
    assert batch.chol_factors.tobytes() == factors.tobytes()
    assert batch.log_dets.tobytes() == log_dets.tobytes()
    assert sorted(errors) == sorted(want)
    for key, (message, cond, group) in want.items():
        assert str(errors[key]) == message
        assert (errors[key].cond, errors[key].group) == (cond, group)
        assert (errors[key].replicate, errors[key].alpha) == \
            (key[1], alphas[key[1]])


# -- row-blocked prediction: blocks and threads change no label


def _blocks(mp, rows, width, workers):
    """Prediction blocks of ``rows`` rows of a table ``width`` wide, on
    ``workers`` threads whatever the host has."""
    mp.setattr(metrics, "_BLOCK_CELLS", rows * width)
    mp.setattr(metrics, "_cpus", lambda: workers)


@st.composite
def blocked_knn(draw):
    """A tie-heavy fit and up to 40 queries from the same lattice."""
    points = draw(lattice_rows((2, 12)))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=len(points),
                           max_size=len(points)).filter(
                               lambda ls: len(set(ls)) > 1))
    metric = draw(st.sampled_from(
        [MetricSpec.esov(), MetricSpec.alpha_metric(0.5)]))
    fit = KnnFit(points, labels, draw(st.integers(1, len(points))), metric)
    return fit, draw(lattice_rows((1, 40)))


@settings(max_examples=100, deadline=None)
@given(blocked_knn(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((1, 7, 1024)), st.sampled_from((1, 2)))
def test_blocked_knn_prediction_equals_the_whole(case, seed, rows, workers):
    fit, queries = case
    whole = knn_predict_batch(fit, queries, seed)  # one block
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, rows, len(fit.points), workers)
        assert np.array_equal(knn_predict_batch(fit, queries, seed), whole)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from((1, 7, 1024)), st.sampled_from((1, 2)))
def test_blocked_rda_prediction_equals_the_whole(seed, n, rows, workers):
    rng = np.random.default_rng(seed)
    ds = LabeledCompositionDataset(random_compositions(rng, 24, 4),
                                   np.repeat(list("abc"), 8),
                                   ["p0", "p1", "p2", "p3"])
    model = fit_rda(ds, 0.5, 0.3, 0.7)
    queries = random_compositions(rng, n, 4)
    whole = rda_predict(model, queries)  # one block
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, rows, model.means.size, workers)
        assert np.array_equal(rda_predict(model, queries), whole)


@st.composite
def nearest_rows_cases(draw):
    """Lattice compositions of 2 to 6 parts in {0, 1, 2} (zeros wherever
    the metric admits them), so distances tie and rows repeat; every k up
    to n."""
    metric = draw(st.sampled_from([MetricSpec.esov()] + [
        MetricSpec.alpha_metric(a) for a in (0.0, 0.5, -0.5)]))
    low = 1 if metric.kind == "alpha" and metric.alpha <= 0 else 0
    D = draw(st.integers(2, 6))
    row = st.lists(st.integers(low, 2), min_size=D, max_size=D).filter(any)
    x = closure(np.array(draw(st.lists(row, min_size=1, max_size=40)),
                         dtype=float))
    return x, metric, draw(st.integers(1, len(x)))


@settings(max_examples=300, deadline=None)
@given(nearest_rows_cases(), st.sampled_from((1, 3, 7, 1024)),
       st.sampled_from((1, 2)))
def test_row_blocked_nearest_equals_the_whole_matrix(case, rows, workers):
    x, metric, k = case
    # the whole self-distance matrix, as the grid once searched it
    want = classifiers._nearest(pairwise_distances(x, x, metric), k)
    coords = metrics._coords(x, metric, "the data")
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, rows, len(x), workers)
        got = classifiers._nearest_rows(coords, coords, metric, k)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_bad_row_in_a_late_block_is_named_by_its_index(monkeypatch):
    rng = np.random.default_rng(107)
    queries = random_compositions(rng, 30, 4)
    queries[25] = [0.0, 0.5, 0.25, 0.25]
    labels = np.repeat(["a", "b"], 10)
    fit = KnnFit(random_compositions(rng, 20, 4), labels, 3,
                 MetricSpec.alpha_metric(-0.5))
    ds = LabeledCompositionDataset(fit.points, labels,
                                   ["p0", "p1", "p2", "p3"])
    model = fit_rda(ds, 0.0, 0.5, 0.5)
    _blocks(monkeypatch, 7, 20, 2)
    for predict in (lambda: knn_predict_batch(fit, queries, 0),
                    lambda: rda_predict(model, queries)):
        with pytest.raises(ZeroWithNonpositiveAlphaError,
                           match=r"^the data has zero parts in rows \[25\]"):
            predict()


def test_an_error_in_a_prediction_block_reaches_the_caller(monkeypatch):
    x, labels, rng = knn_cloud()
    fit = KnnFit(x, labels, 3, MetricSpec.esov())
    nearest = classifiers._nearest

    def failing(dists, k):
        if len(dists) < 7:  # the last, short block
            raise MemoryError("no room for the last block")
        return nearest(dists, k)

    monkeypatch.setattr(classifiers, "_nearest", failing)
    _blocks(monkeypatch, 7, len(x), 2)
    with pytest.raises(MemoryError, match="no room for the last block"):
        knn_predict_batch(fit, random_compositions(rng, 30, 5), 0)


@pytest.mark.parametrize("model", ["esov", "alpha", "rda"])
def test_prediction_memory_grows_by_words_per_row(model):
    # a 214-point fit: beyond the labels, each added query row costs its
    # codes, vote counts and coordinates, a few dozen words, never a row
    # of its 214 distances or its group scores at once
    rng = np.random.default_rng(109)
    points = random_compositions(rng, 214, 8, zeros=model == "esov")
    labels = np.array(list("abcdef"))[np.arange(214) % 6]
    if model == "rda":
        ds = LabeledCompositionDataset(points, labels,
                                       [f"p{j}" for j in range(8)])
        fitted = fit_rda(ds, 0.5, 0.1, 1.0)
        predict = functools.partial(rda_predict, fitted)
    else:
        metric = (MetricSpec.esov() if model == "esov"
                  else MetricSpec.alpha_metric(0.5))
        fit = KnnFit(points, labels, 3, metric)
        predict = functools.partial(knn_predict_batch, fit, seed=1)
    beyond = []
    for n in (4000, 16000):
        x = random_compositions(rng, n, 8, zeros=model == "esov")
        tracemalloc.start()
        try:
            out = predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond.append(peak - out.nbytes)
    assert beyond[1] - beyond[0] <= (16000 - 4000) * 32 * 8, beyond
