"""Gaussian discriminant and nearest-neighbour classification of
compositions in transformed coordinates.

The Gaussian route fits one mean and covariance per group on the
``alpha``-transformed data and scores new points by the log posterior
density.  Covariances are shrunk doubly: ``gamma`` mixes the pooled
covariance toward a scaled identity, then ``lambda`` mixes each group
covariance toward that regularised pool.  ``lambda = 1`` recovers
quadratic discriminant analysis, ``lambda = 0, gamma = 1`` the linear
variant.  The nearest-neighbour route classifies by modal label among the
``k`` closest training compositions under a chosen simplex metric.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    _as_matrix, _check_seed, _distinct, alpha_transform, helmert_submatrix)
from .errors import (
    DimensionMismatchError,
    GroupTooSmallError,
    IllConditionedError,
    InvalidSpecError,
    LengthMismatchError,
    ParameterOutOfRangeError,
)
from .metrics import MetricSpec, _coords, _distances, _map_row_blocks

__all__ = [
    "COND_THRESHOLD",
    "GaussianGroupModel",
    "RdaModel",
    "KnnFit",
    "fit_gaussian_groups",
    "regularize_covariances",
    "fit_rda",
    "rda_scores",
    "rda_predict",
    "fit_knn",
    "knn_predict",
    "knn_predict_batch",
]

# Regularised covariances whose eigenvalue ratio exceeds this are treated
# as numerically singular.
COND_THRESHOLD = 1e12

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianGroupModel:
    """Per-group sample moments in transformed coordinates, with the
    replicate axis of a stacked fit leading."""

    label: str
    mean: np.ndarray
    covariance: np.ndarray
    count: int


def _as_labels(labels, shape):
    arr = np.asarray(labels)
    if arr.shape != shape:
        raise LengthMismatchError(
            f"expected labels of shape {shape}, got shape {arr.shape}"
        )
    return arr.astype(str)


def fit_gaussian_groups(z, labels):
    """Sample mean and covariance per group, plus the pooled covariance.

    Covariances use the ``count - 1`` divisor; the pooled covariance is
    the weighted mixture ``sum_i (n_i - 1) S_i / (n - g)``.  Groups are
    ordered by sorted label.  A ``(B, n, d)`` stack of replicates with
    equal group counts is fitted at once, replicate ``b`` bit for bit as
    ``z[b]`` alone.

    Parameters
    ----------
    z : array_like
        Transformed observations, one per row, shape ``(n, d)`` or
        ``(B, n, d)``.
    labels : array_like
        Group label per row, shape ``(n,)`` or ``(B, n)``.

    Returns
    -------
    (list of GaussianGroupModel, numpy.ndarray)
        Per-group moments and the pooled ``([B,] d, d)`` covariance.

    Raises
    ------
    GroupTooSmallError
        If any group has fewer than two observations.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (2, 3):
        raise DimensionMismatchError("z must be a matrix or stack of rows")
    labels = _as_labels(labels, z.shape[:-1])
    names = _distinct(labels)
    if names.size < 2:
        raise InvalidSpecError("need at least two groups")
    models = []
    for name in names.tolist():
        mask = labels == name
        counts = mask.sum(axis=-1)
        cnt = int(counts.max())
        if (counts != cnt).any():
            raise LengthMismatchError(
                f"group {name!r} varies in size across replicates")
        if cnt < 2:
            raise GroupTooSmallError(
                f"group {name!r} has {cnt} observation(s); "
                f"covariance estimation needs at least 2"
            )
        rows = z[mask].reshape(z.shape[:-2] + (cnt, z.shape[-1]))
        mean = rows.mean(axis=-2)
        centred = rows - mean[..., np.newaxis, :]
        models.append(GaussianGroupModel(
            name, mean, np.swapaxes(centred, -1, -2) @ centred / (cnt - 1),
            cnt))
    return models, _pooled_covariance(models)


def _pooled_covariance(models):
    """The weighted mixture ``sum_i (n_i - 1) S_i / (n - g)`` of the group
    covariances, accumulated in group order."""
    pooled = np.zeros_like(models[0].covariance)
    for m in models:
        pooled += (m.count - 1) * m.covariance
    return pooled / (sum(m.count for m in models) - len(models))


def regularize_covariances(models, pooled, lam, gamma):
    """Doubly shrunk covariances, one per group.

    The pooled covariance is first mixed toward a scaled identity,
    ``gamma * pooled + (1 - gamma) * trace(pooled)/d * I``, and each group
    covariance is then mixed toward the result with weight ``lam``.

    Parameters
    ----------
    models : list of GaussianGroupModel
    pooled : numpy.ndarray
        Pooled covariance, shape ``([B,] d, d)``.
    lam, gamma : float or sequence of float
        Mixing weights, each in ``[0, 1]``; equal-length sequences give
        one stack per ``(lam[c], gamma[c])`` pair.

    Returns
    -------
    numpy.ndarray
        Array of shape ``([B,] g, d, d)`` in model order, or
        ``(C, [B,] g, d, d)`` for ``C`` pairs.
    """
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    for name, values in (("lambda", lam), ("gamma", gamma)):
        bad = values[~((values >= 0.0) & (values <= 1.0))]
        if bad.size:
            raise ParameterOutOfRangeError(
                f"{name} must lie in [0, 1], got {bad[0]}"
            )
    pooled = np.asarray(pooled, dtype=float)
    d = pooled.shape[-1]
    trace = np.trace(pooled, axis1=-2, axis2=-1)[..., np.newaxis, np.newaxis]
    gamma = gamma.reshape(gamma.shape + (1,) * pooled.ndim)
    target = gamma * pooled + (1.0 - gamma) * (trace / d) * np.eye(d)
    lam = lam.reshape(lam.shape + (1,) * (pooled.ndim + 1))
    covariances = np.stack([m.covariance for m in models], axis=-3)
    return lam * covariances + (1.0 - lam) * target[..., np.newaxis, :, :]


@dataclass
class RdaModel:
    """A fitted Gaussian discriminant model on transformed coordinates.

    Instances are produced by :func:`fit_rda`; fields are treated as
    immutable.  Internally a batch of models over several ``(lam, gamma)``
    pairs shares one instance: ``lam`` and ``gamma`` are then arrays and
    ``regularized``, ``chol_factors`` and ``log_dets`` carry a leading
    pair axis, followed by the replicate axis of stacked moments.
    """

    alpha: float
    lam: float
    gamma: float
    prior: str
    source_dim: int
    helmert: np.ndarray = field(repr=False)
    group_labels: tuple
    counts: np.ndarray
    means: np.ndarray = field(repr=False)
    covariances: np.ndarray = field(repr=False)
    pooled: np.ndarray = field(repr=False)
    regularized: np.ndarray = field(repr=False)
    chol_factors: np.ndarray = field(repr=False)
    log_dets: np.ndarray
    log_priors: np.ndarray


def _log_priors(counts, prior):
    counts = np.asarray(counts, dtype=float)
    if prior == "proportional":
        return np.log(counts / counts.sum())
    if prior == "uniform":
        return np.full(counts.shape, -np.log(counts.size))
    raise InvalidSpecError(
        f"prior must be 'proportional' or 'uniform', got {prior!r}"
    )


def _assemble_rda(models, pooled, pairs, *, alpha, prior, helmert,
                  source_dim):
    """Regularise, check and factorise the group covariances for every
    ``(lam, gamma)`` in ``pairs`` and every replicate at once.

    One ``eigvalsh`` call checks the whole ``(C, [B,] g, d, d)`` stack: a
    matrix fails when it is not positive definite or its eigenvalue ratio
    exceeds ``COND_THRESHOLD``.  One ``cholesky`` call factorises the
    members that pass.

    Returns
    -------
    (RdaModel, list)
        The batch of models (see :class:`RdaModel`) and, per pair, ``None``
        or the :class:`IllConditionedError` of its first failing group in
        its first failing replicate, whose index it carries as
        ``replicate``.  A failing member keeps an identity factor, so its
        scores are meaningless.
    """
    counts = np.array([m.count for m in models])
    lams, gammas = (np.array(v, dtype=float) for v in zip(*pairs))
    regularized = regularize_covariances(models, pooled, lams, gammas)
    g, d = regularized.shape[-3:-1]
    stack = regularized.reshape(len(pairs), -1, g, d, d)
    eig = np.linalg.eigvalsh(stack)
    definite = (eig[..., 0] > 0) & np.isfinite(eig).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(definite, eig[..., -1] / eig[..., 0], np.inf)
    ok = definite & (cond <= COND_THRESHOLD)
    factors = np.broadcast_to(np.eye(d), stack.shape).copy()
    failed = {}
    try:
        factors[ok] = np.linalg.cholesky(stack[ok])
    except np.linalg.LinAlgError:
        # only a member-by-member pass can tell which matrices failed
        for idx in zip(*np.nonzero(ok)):
            try:
                factors[idx] = np.linalg.cholesky(stack[idx])
            except np.linalg.LinAlgError as exc:
                failed[idx] = f"could not be factorised: {exc}"
                ok[idx] = False
    log_dets = 2.0 * np.log(
        np.diagonal(factors, axis1=-2, axis2=-1)).sum(axis=-1)
    errors = [None] * len(pairs)
    first = np.argmin(ok.reshape(len(pairs), -1), axis=1)
    for c in np.flatnonzero(~ok.all(axis=(1, 2))):
        b, i = divmod(int(first[c]), g)
        group, (lam, gamma) = models[i].label, pairs[c]
        what = failed.get((c, b, i)) or (
            f"has condition number {cond[c, b, i]:.3e} > {COND_THRESHOLD:.0e}"
            if definite[c, b, i] else "is not positive definite")
        errors[c] = IllConditionedError(
            f"covariance for group {group!r} {what} "
            f"(alpha={alpha}, lambda={lam}, gamma={gamma})",
            alpha=alpha, lam=lam, gamma=gamma, group=group,
            cond=float(cond[c, b, i]), replicate=b,
        )
    batch = RdaModel(
        alpha=float(alpha), lam=lams, gamma=gammas, prior=prior,
        source_dim=source_dim, helmert=helmert,
        group_labels=tuple(m.label for m in models), counts=counts,
        means=np.stack([m.mean for m in models], axis=-2),
        covariances=np.stack([m.covariance for m in models], axis=-3),
        pooled=pooled, regularized=regularized,
        chol_factors=factors.reshape(regularized.shape),
        log_dets=log_dets.reshape(regularized.shape[:-2]),
        log_priors=_log_priors(counts, prior),
    )
    return batch, errors


def _rda_from_groups(models, pooled, lam, gamma, *, alpha,
                    prior="proportional", helmert=None, source_dim):
    """The one-pair case of the batched assembly: an :class:`RdaModel`
    from group moments, or the :class:`IllConditionedError` raised.

    ``helmert`` defaults to the standard basis for ``source_dim`` parts.
    """
    if helmert is None:
        helmert = helmert_submatrix(source_dim)
    batch, (error,) = _assemble_rda(
        models, pooled, [(lam, gamma)], alpha=alpha, prior=prior,
        helmert=helmert, source_dim=source_dim,
    )
    if error is not None:
        raise error
    return replace(
        batch, lam=float(lam), gamma=float(gamma),
        regularized=batch.regularized[0],
        chol_factors=batch.chol_factors[0],
        log_dets=batch.log_dets[0],
    )


def fit_rda(dataset, alpha, lam, gamma, prior="proportional", helmert=None):
    """Fit the regularised Gaussian discriminant model to a dataset.

    Parameters
    ----------
    dataset : LabeledCompositionDataset
        Labelled compositions; must have at least two groups and at least
        two observations per group.
    alpha : float
        Transformation parameter; must be strictly positive if the data
        contain zeros.
    lam, gamma : float
        Shrinkage weights in ``[0, 1]``.  ``lam = 1`` gives the quadratic
        model, ``lam = 0, gamma = 1`` the linear one.
    prior : str
        ``"proportional"`` (training frequencies) or ``"uniform"``.
    helmert : array_like, optional
        Alternative orthonormal basis for the transformation.

    Returns
    -------
    RdaModel
    """
    D = dataset.D
    H = helmert_submatrix(D) if helmert is None else np.asarray(helmert, float)
    z = alpha_transform(dataset.rows, alpha, helmert=H)
    models, pooled = fit_gaussian_groups(z, dataset.labels)
    return _rda_from_groups(models, pooled, lam, gamma, alpha=alpha,
                           prior=prior, helmert=H, source_dim=D)


def _forward_substitute(factors, b):
    """``x`` with ``factors @ x == b`` for lower-triangular ``(..., d, d)``
    factors and ``(..., d, n)`` right-hand sides, batched over leading axes,
    column by column as LAPACK ``dtrsm``; the inputs are left unchanged."""
    x = np.array(np.broadcast_to(b, np.broadcast_shapes(
        factors.shape[:-2], b.shape[:-2]) + b.shape[-2:]))
    for k in range(x.shape[-2]):
        x[..., k, :] /= factors[..., k, k, None]
        x[..., k + 1:, :] -= factors[..., k + 1:, k, None] * x[..., k, None, :]
    return x


def _scores_z(model, z):
    """Log posterior scores for already transformed points.

    Shape ``(n, g)`` for one model, ``(C, n, g)`` for a batch of C pairs
    and ``(C, B, n, g)`` for ``(B, n, d)`` points of a replicate stack; one
    batched forward substitution whitens them all.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    d = model.means.shape[-1]
    diff = np.swapaxes(z[..., np.newaxis, :, :]
                       - model.means[..., :, np.newaxis, :], -1, -2)
    white = _forward_substitute(model.chol_factors, diff)
    # sum over a contiguous d axis, as the per-group reference does: numpy
    # sums a contiguous axis pairwise and a strided one in sequence, which
    # round differently for d >= 8
    maha = np.ascontiguousarray(np.swapaxes(white, -1, -2) ** 2).sum(axis=-1)
    scores = (
        -0.5 * (d * _LOG_2PI + model.log_dets[..., np.newaxis])
        - 0.5 * maha
        + model.log_priors[:, np.newaxis]
    )
    return np.swapaxes(scores, -1, -2)


def rda_scores(model, x):
    """Per-group log posterior scores for composition(s) ``x``.

    A single composition yields a vector of length ``g``; a matrix of
    compositions yields an ``(n, g)`` matrix.  Higher is better.
    """
    arr = np.asarray(x, dtype=float)
    z = alpha_transform(arr, model.alpha, helmert=model.helmert)
    scores = _scores_z(model, z)
    return scores[0] if arr.ndim == 1 else scores


def rda_predict(model, x):
    """Predicted group label(s): the highest score, ties to the lowest
    group index.  Rows are scored in blocks of bounded memory."""
    arr = np.asarray(x, dtype=float)
    z = np.atleast_2d(alpha_transform(arr, model.alpha, helmert=model.helmert,
                                      name="the data"))
    winners = _map_row_blocks(
        lambda rows: _scores_z(model, z[rows]).argmax(axis=-1), len(z),
        model.means.size)
    labels = np.asarray(model.group_labels)[winners]
    return str(labels[0]) if arr.ndim == 1 else labels


@dataclass
class KnnFit:
    """Training compositions, labels and the metric for k-NN prediction.

    The points must be closed compositions the metric admits; a fit
    loaded from a model file passes the same checks as :func:`fit_knn`.
    ``coords`` holds them as the metric's kernel operand, made once.
    """

    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    k: int
    metric: MetricSpec
    coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise DimensionMismatchError("points must be a matrix")
        if not isinstance(self.metric, MetricSpec):
            raise InvalidSpecError("metric must be a MetricSpec")
        self.coords = _coords(self.points, self.metric, "the training data")
        self.labels = _as_labels(self.labels, self.points.shape[:1])
        self.k = int(self.k)
        if not 1 <= self.k <= self.points.shape[0]:
            raise ParameterOutOfRangeError(
                f"k must lie in [1, {self.points.shape[0]}], got {self.k}"
            )


def fit_knn(dataset, k, metric):
    """Bind a dataset to a neighbour count and metric.

    :class:`KnnFit` validates that the metric admits the data (zeros
    require either the esov metric or a strictly positive alpha).
    """
    if dataset.g < 2:
        raise InvalidSpecError(f"need at least two groups, got {dataset.g}")
    return KnnFit(dataset.rows, dataset.labels, k, metric)


def _rng_for(seed, *path):
    """Generator of the stream derived from ``seed`` at ``path``."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    )


def _knn_vote(codes, ks, n_labels, draw):
    """Modal label code among the first ``k`` neighbours, for every k.

    ``codes`` holds the label codes (indices into the sorted label set)
    of each query's ordered neighbours, shape ``(n, kmax)``.  Returns the
    winning code per ``(row, k)``, shape ``(n, len(ks))``.  When ``t`` > 1
    labels share the top count, ``draw(row, t)`` gives the winner's index
    among them in label order; the winning code is the number of codes
    whose running tie count <= it.  ``draw`` is called once per distinct
    tied ``(row, t)``, never for a row and size without a tie, and its
    pick serves every k of that row with that tie size, so it must
    depend on ``(row, t)`` alone.
    """
    ks = np.asarray(ks, dtype=int)
    onehot = codes[:, :, np.newaxis] == np.arange(n_labels)
    counts = np.cumsum(onehot, axis=1,
                       dtype=np.min_scalar_type(codes.shape[1]))[:, ks - 1]
    top = counts == counts.max(axis=2, keepdims=True)
    won = top.argmax(axis=2)
    tied = top.sum(axis=2) > 1
    rank = np.cumsum(top[tied], axis=1)
    # one draw per distinct tied (row, t), marked in a (row, t) table
    key = np.nonzero(tied)[0] * (n_labels + 1) + rank[:, -1]
    seen = np.zeros(len(codes) * (n_labels + 1), dtype=bool)
    seen[key] = True
    rows, sizes = np.divmod(np.flatnonzero(seen), n_labels + 1)
    picks = np.fromiter(map(draw, rows.tolist(), sizes.tolist()), int,
                        len(rows))
    won[tied] = (rank.T <= picks[np.cumsum(seen)[key] - 1]).sum(axis=0)
    return won


def _nearest(dists, k):
    """``np.argsort(dists, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows: each row keeps its entries below its k-th smallest value
    and the lowest-index ones equal to it, ``k`` in index order, and
    stable-sorts those."""
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k].copy()
    below = dists < kth
    at = dists == kth
    room = k - below.sum(axis=1, keepdims=True)
    seen = np.cumsum(at, axis=1, dtype=np.min_scalar_type(dists.shape[1]))
    keep = below | (at & (seen <= room))
    cols = np.nonzero(keep)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(dists, cols, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _knn_neighbour_codes(fit, x):
    """Sorted label set and the label codes of each row's ``k`` nearest
    training points, nearest first, distance ties to the smaller index;
    only the codes outlive a row block's distances."""
    mat, D = _as_matrix(x, "the data")[0], fit.coords.shape[1]
    if mat.shape[1] != D:
        raise DimensionMismatchError(
            f"the data has {mat.shape[1]} parts, the training data {D}")
    queries = _coords(mat, fit.metric, "the data")
    names, codes = np.unique(fit.labels, return_inverse=True)
    near = _map_row_blocks(lambda rows: codes[_nearest(
        _distances(queries[rows], fit.coords, fit.metric), fit.k)],
        len(queries), len(fit.coords))
    return names, near


def knn_predict(fit, x, rng):
    """Classify one composition by modal label of its ``k`` nearest
    training compositions.

    Neighbours are taken in order of increasing distance, with exact
    distance ties resolved toward the smaller training index.  When two
    or more labels share the top count, one is drawn uniformly from the
    tied set (in sorted label order) using ``rng``; the generator is not
    consulted otherwise.

    Parameters
    ----------
    fit : KnnFit
    x : array_like
        A single composition.
    rng : numpy.random.Generator
        Source of randomness for tie breaking.

    Returns
    -------
    str
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError("knn_predict classifies one point")
    names, near = _knn_neighbour_codes(fit, arr[np.newaxis, :])
    won = _knn_vote(near, [fit.k], names.size, lambda _, n: rng.integers(n))
    return str(names[won[0, 0]])


def knn_predict_batch(fit, x, seed):
    """Classify each row of ``x`` with an independent tie-break stream.

    Row ``i`` breaks ties with the stream derived from ``seed`` at
    position ``i``, so results do not depend on evaluation order.
    """
    _check_seed(seed)
    names, near = _knn_neighbour_codes(fit, x)
    won = _knn_vote(near, [fit.k], names.size,
                    lambda row, n: _rng_for(seed, row).integers(n))
    return names[won[:, 0]]
