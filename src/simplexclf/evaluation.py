"""Cross-validated accuracy estimation and model selection.

The protocol: repeatedly split the data into a stratified training and
test part, fit a classifier on the training part, and record the fraction
of correct test predictions.  Replicates use seeds derived from a master
seed by counter, so results are reproducible and independent of execution
order, and a grid search reuses the same splits for every parameter
combination, which makes accuracy differences across the grid directly
comparable.

Grid combinations whose covariances cannot be factorised are recorded and
skipped rather than failing the whole search; a direct ``cv_evaluate``
call on such a combination raises instead.
"""

import functools
import itertools
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .classifiers import (
    _assemble_rda,
    _knn_vote,
    _nearest,
    _rng_for,
    _scores_z,
    fit_gaussian_groups,
)
from .core import (
    _check_finite, _check_seed, _check_zero_alpha, _distinct, alpha_transform)
from .dataio import group_summary
from .errors import (
    AllCombinationsFailedError,
    EmptyGridError,
    IllConditionedAtError,
    InvalidSpecError,
    LengthMismatchError,
    ParameterOutOfRangeError,
    TestTooSmallError,
)
from .metrics import MetricSpec, pairwise_distances

__all__ = [
    "CvConfig",
    "MethodSpec",
    "GridSpec",
    "EvalReport",
    "GridResult",
    "stratified_split",
    "correct_rate",
    "cv_evaluate",
    "grid_search",
    "breakdown_by_zero_count",
    "METHOD_NAMES",
    "METHOD_PARAMS",
]

# Stream tags keep the derived seed spaces of distinct purposes disjoint.
_SPLIT_STREAM = 0
_TIE_STREAM = 1

# Byte budget of one chunk of replicates: the Gaussian engine's training
# rows and whitening temporaries, or the k-NN engine's neighbour indices.
_BLOCK_BYTES = 1 << 24

# The tuning parameters of each method, in grid-expansion order (the first
# varies slowest).  Validation, parameter counts, grid expansion, method
# inference, display, sort order and the figure families all read this one
# table; a k-NN method without alpha runs under ESOV.
METHOD_PARAMS = {
    "RDA": ("alpha", "lam", "gamma"),
    "LDA": ("alpha",),
    "QDA": ("alpha",),
    "KNN_ALPHA": ("alpha", "k"),
    "KNN_ESOV": ("k",),
}
METHOD_NAMES = tuple(METHOD_PARAMS)
# The (lambda, gamma) covariance weights a Gaussian method fixes instead of
# taking them as parameters.
_CORNERS = {"LDA": (0.0, 1.0), "QDA": (1.0, 0.0)}
# Per parameter: its GridSpec axis, its name in messages and CLI flags, and
# its type.
_Param = namedtuple("_Param", "axis label cast")
_PARAMS = {
    "alpha": _Param("alphas", "alpha", float),
    "lam": _Param("lambdas", "lambda", float),
    "gamma": _Param("gammas", "gamma", float),
    "k": _Param("ks", "k", int),
}


@dataclass(frozen=True)
class CvConfig:
    """Split-resampling settings: test size, replicates, master seed."""

    n_test: int
    B: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("n_test", "B"):
            if getattr(self, name) < 1:
                raise ParameterOutOfRangeError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        _check_seed(self.seed)


def _checked(param, value):
    """``value`` as its parameter's type and within its range: a finite
    real number, in [0, 1] for ``lam`` and ``gamma``, and a whole number of
    at least 1 for ``k``."""
    _, label, cast = _PARAMS[param]
    if not isinstance(value, numbers.Real) or (cast is int and value % 1):
        kind = "an integer" if cast is int else "a number"
        raise ParameterOutOfRangeError(
            f"{label} must be {kind}, got {value!r}"
        )
    if cast is int:
        if value < 1:
            raise ParameterOutOfRangeError(
                f"{label} must be at least 1, got {int(value)}"
            )
        return int(value)
    value = _check_finite(value, label)
    if param in ("lam", "gamma") and not 0.0 <= value <= 1.0:
        raise ParameterOutOfRangeError(
            f"{label} must lie in [0, 1], got {value}"
        )
    return value


@dataclass(frozen=True)
class MethodSpec:
    """One classifier configuration.

    ``name`` is one of ``RDA`` (alpha, lambda, gamma), ``LDA`` (alpha;
    the lambda = 0, gamma = 1 corner), ``QDA`` (alpha; the lambda = 1
    corner), ``KNN_ALPHA`` (alpha, k) or ``KNN_ESOV`` (k).
    """

    name: str
    alpha: float = None
    lam: float = None
    gamma: float = None
    k: int = None
    prior: str = "proportional"

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise InvalidSpecError(
                f"method must be one of {METHOD_NAMES}, got {self.name!r}"
            )
        params = METHOD_PARAMS[self.name]
        for param, (_, label, _) in _PARAMS.items():
            value = getattr(self, param)
            if value is None:
                if param in params:
                    raise InvalidSpecError(f"{self.name} needs {label}")
            elif param not in params:
                raise InvalidSpecError(f"{self.name} takes no {label}")
            else:
                object.__setattr__(self, param, _checked(param, value))
        if self.prior not in ("proportional", "uniform"):
            raise InvalidSpecError(
                f"prior must be 'proportional' or 'uniform', "
                f"got {self.prior!r}"
            )
        if self.engine == "knn" and self.prior != "proportional":
            raise InvalidSpecError(f"{self.name} takes no prior")

    # -- constructors -------------------------------------------------
    @classmethod
    def rda(cls, alpha, lam, gamma, prior="proportional"):
        return cls("RDA", alpha=alpha, lam=lam, gamma=gamma, prior=prior)

    @classmethod
    def lda(cls, alpha, prior="proportional"):
        return cls("LDA", alpha=alpha, prior=prior)

    @classmethod
    def qda(cls, alpha, prior="proportional"):
        return cls("QDA", alpha=alpha, prior=prior)

    @classmethod
    def knn_alpha(cls, k, alpha):
        return cls("KNN_ALPHA", alpha=alpha, k=k)

    @classmethod
    def knn_esov(cls, k):
        return cls("KNN_ESOV", k=k)

    # -- descriptors ---------------------------------------------------
    @property
    def engine(self):
        """``knn`` for the methods that take k, else ``gauss``."""
        return "knn" if "k" in METHOD_PARAMS[self.name] else "gauss"

    @property
    def n_params(self):
        """Free tuning parameters, used for ranking ties."""
        return len(METHOD_PARAMS[self.name])

    def effective_lam_gamma(self):
        """The method's covariance corner, or its own (lambda, gamma)."""
        if self.engine != "gauss":
            raise InvalidSpecError(f"{self.name} has no covariance weights")
        return _CORNERS.get(self.name, (self.lam, self.gamma))

    def metric(self):
        if self.engine != "knn":
            raise InvalidSpecError(f"{self.name} has no metric")
        if self.alpha is None:
            return MetricSpec.esov()
        return MetricSpec.alpha_metric(self.alpha)

    def display(self):
        if self.engine == "knn":
            metric = "ESOV" if self.alpha is None else f"{self.alpha:g}"
            return f"{self.k}-NN({metric})"
        params = ", ".join(f"{getattr(self, p):g}"
                           for p in METHOD_PARAMS[self.name])
        suffix = "; uniform prior" if self.prior == "uniform" else ""
        return f"{self.name}({params}{suffix})"

    def to_dict(self):
        out = {k: v for k, v in asdict(self).items() if v is not None}
        if self.engine == "knn":
            del out["prior"]
        return out

    def _sort_key(self):
        return (self.name,
                *(getattr(self, p) for p in METHOD_PARAMS[self.name]))

    def validate_against(self, dataset, cv):
        if dataset.g < 2:
            raise InvalidSpecError(
                f"need at least two groups, got {dataset.g}")
        if self.alpha is not None:
            _check_zero_alpha(dataset.raw, self.alpha, "the data",
                              self.display())
        if self.k is not None and self.k > dataset.n - cv.n_test:
            raise ParameterOutOfRangeError(
                f"k={self.k} exceeds the training size "
                f"{dataset.n - cv.n_test}"
            )


@dataclass(frozen=True)
class GridSpec:
    """Axes of a model-selection grid.

    Each listed method is expanded over the axes of its parameters in
    ``METHOD_PARAMS``: ``RDA`` over alphas x lambdas x gammas, ``LDA`` and
    ``QDA`` over alphas, ``KNN_ALPHA`` over alphas x ks and ``KNN_ESOV``
    over ks.  ``methods=None`` selects every method whose axes are all
    non-empty.  ``prior`` applies to the Gaussian methods.  Every axis is
    checked against its parameter's range, whether a method uses it or not.
    """

    alphas: tuple = ()
    lambdas: tuple = ()
    gammas: tuple = ()
    ks: tuple = ()
    methods: tuple = METHOD_NAMES
    prior: str = "proportional"

    def __post_init__(self):
        for param, (axis, _, _) in _PARAMS.items():
            values = {_checked(param, v) for v in getattr(self, axis)}
            object.__setattr__(self, axis, tuple(sorted(values)))
        if self.methods is None:
            object.__setattr__(self, "methods", tuple(
                m for m, params in METHOD_PARAMS.items()
                if all(getattr(self, _PARAMS[p].axis) for p in params)))
            if not self.methods:
                raise EmptyGridError(
                    "no method has all of its grid axes given"
                )
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise InvalidSpecError(
                f"unknown method(s) {unknown}; choose from {METHOD_NAMES}"
            )
        if not self.methods:
            raise EmptyGridError("no methods requested")
        object.__setattr__(self, "methods", tuple(dict.fromkeys(self.methods)))

    def expand(self):
        """All combinations, in deterministic order."""
        combos = []
        for m in self.methods:
            params = METHOD_PARAMS[m]
            axes = [_PARAMS[p].axis for p in params]
            missing = [ax for ax in axes if not getattr(self, ax)]
            if missing:
                raise EmptyGridError(
                    f"method {m} needs non-empty {missing}"
                )
            prior = {} if "k" in params else {"prior": self.prior}
            combos += [
                MethodSpec(m, **dict(zip(params, values)), **prior)
                for values in itertools.product(
                    *(getattr(self, ax) for ax in axes))
            ]
        if not combos:
            raise EmptyGridError("the grid is empty")
        return combos


def stratified_split(labels, n_test, rng):
    """Split indices into train and test, stratified by label.

    Test seats are allocated to groups proportionally to group size by
    largest remainder (remainder ties to the earlier group in sorted
    label order), then adjusted so every group keeps at least one seat,
    taking seats from the largest allocations.  Members are then drawn
    without replacement within each group.

    Parameters
    ----------
    labels : array_like
        Group label per observation.
    n_test : int
        Total test size; at least the number of groups and less than the
        number of observations.
    rng : numpy.random.Generator

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Sorted train and test index arrays.
    """
    labels = np.asarray(labels).astype(str)
    n = labels.shape[0]
    names = _distinct(labels)
    g = names.size
    n_test = int(n_test)
    if n_test < g:
        raise TestTooSmallError(
            f"n_test={n_test} cannot cover {g} groups"
        )
    if n_test >= n:
        raise ParameterOutOfRangeError(
            f"n_test={n_test} must be smaller than n={n}"
        )
    sizes = np.array([(labels == name).sum() for name in names])
    quota = sizes * (n_test / n)
    seats = np.floor(quota).astype(int)
    remainder = quota - seats
    shortfall = n_test - seats.sum()
    for idx in np.argsort(-remainder, kind="stable")[:shortfall]:
        seats[idx] += 1
    while (seats == 0).any():
        taker = int(np.flatnonzero(seats == 0)[0])
        donor = int(np.argmax(seats))
        seats[donor] -= 1
        seats[taker] += 1
    emptied = np.flatnonzero(seats >= sizes)
    if emptied.size:
        raise ParameterOutOfRangeError(
            f"n_test={n_test} leaves no training members for group(s) "
            f"{names[emptied].tolist()}"
        )
    test = []
    for i, name in enumerate(names):
        members = np.flatnonzero(labels == name)
        test.append(rng.choice(members, size=seats[i], replace=False))
    test = np.sort(np.concatenate(test))
    keep = np.ones(n, dtype=bool)
    keep[test] = False
    train = np.flatnonzero(keep)
    return train, test


def correct_rate(predicted, actual):
    """Fraction of positions where the two label sequences agree."""
    predicted = np.asarray(predicted).astype(str)
    actual = np.asarray(actual).astype(str)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise LengthMismatchError(
            f"shapes {predicted.shape} and {actual.shape} differ"
        )
    if predicted.size == 0:
        raise LengthMismatchError("empty label sequences")
    return float((predicted == actual).mean())


@dataclass
class EvalReport:
    """Cross-validated accuracy of one method.

    ``q`` holds the per-replicate correct rates; ``sd_q`` uses the
    ``B - 1`` divisor and is ``None`` for a single replicate, as is
    ``se_q`` (``sd_q / sqrt(B)``).  ``per_group`` and ``per_zero_count``
    aggregate per-observation outcomes across replicates.
    """

    method: MethodSpec
    q: np.ndarray = field(repr=False)
    mean_q: float
    sd_q: float
    se_q: float
    n_test: int
    B: int
    seed: int
    splits_reused: bool
    per_group: list = field(repr=False)
    per_zero_count: list = field(repr=False)
    test_indices: np.ndarray = field(repr=False)
    correct: np.ndarray = field(repr=False)

    def to_dict(self, include_replicates=False):
        out = {
            "method": self.method.to_dict(),
            "display": self.method.display(),
            "mean_q": self.mean_q,
            "sd_q": self.sd_q,
            "se_q": self.se_q,
            "n_test": self.n_test,
            "B": self.B,
            "seed": self.seed,
            "splits_reused": self.splits_reused,
            "q": self.q.tolist(),
            "per_group": self.per_group,
            "per_zero_count": self.per_zero_count,
        }
        if include_replicates:
            out["test_indices"] = self.test_indices.tolist()
            out["correct"] = self.correct.astype(int).tolist()
        return out


def _aggregate(values):
    """Mean, sd (``m - 1`` divisor) and se of each row of the ``(K, m)``
    replicate array ``values``, as three lists; the means are None for
    m = 0, the spreads for m < 2.  Rows are reduced C-contiguous, so each
    is summed in the (pairwise) order of the same values in a 1-D array."""
    values = np.ascontiguousarray(values, dtype=float)
    none = [None] * values.shape[0]
    if values.shape[1] < 2:
        mean = values.mean(axis=1).tolist() if values.shape[1] else none
        return mean, none, none
    sd = values.std(axis=1, ddof=1)
    return (values.mean(axis=1).tolist(), sd.tolist(),
            (sd / np.sqrt(values.shape[1])).tolist())


def _per_bin_accuracy(test_indices, correct, row_bins, values):
    """Accuracy within each bin, averaged across replicates, for each of
    the K combinations in the ``(K, B, n_test)`` array ``correct``.

    ``row_bins`` gives the bin of every dataset row and ``values`` the
    sorted bins to report.  Per replicate the correct rate is taken within
    each bin present in its test set; the mean and sd (``B - 1`` divisor)
    run over those contributing replicates.  Bin membership is found once.

    Returns
    -------
    list of tuple of (float or None, float or None, int)
        Per combination, ``(mean, sd, replicates)`` per entry of ``values``.
    """
    # (B, n_test, bins) membership; exact 0/1 sums give hits and rights
    onehot = (np.searchsorted(values, row_bins)[test_indices][..., np.newaxis]
              == np.arange(len(values)))
    hits = onehot.sum(axis=1)
    right = (correct[..., np.newaxis, :] @ onehot.astype(float))[..., 0, :]
    stats = []
    for j in range(len(values)):
        used = np.flatnonzero(hits[:, j])
        mean, sd, _ = _aggregate(right[:, used, j] / hits[used, j])
        stats.append([(m, s, used.size) for m, s in zip(mean, sd)])
    return list(zip(*stats))


def breakdown_by_zero_count(test_indices, correct, dataset, tail_start=None):
    """Accuracy by number of zero parts of the test observation.

    For each replicate the correct rate is computed within each bin
    (replicates whose test set misses the bin do not contribute), then
    averaged across replicates; ``sd`` uses the ``B - 1`` divisor over
    contributing replicates.  ``share`` is the bin's share of the whole
    dataset.  With ``tail_start`` given, counts at or above it collapse
    into one tail bin.

    Parameters
    ----------
    test_indices : numpy.ndarray
        Replicate test membership, shape ``(B, n_test)``.
    correct : numpy.ndarray
        Matching correctness indicators, same shape.
    dataset : LabeledCompositionDataset
    tail_start : int, optional

    Returns
    -------
    list of dict
        One entry per occupied bin, ascending.
    """
    test_indices = np.asarray(test_indices)
    correct = np.asarray(correct, dtype=bool)
    if test_indices.shape != correct.shape:
        raise LengthMismatchError(
            f"shapes {test_indices.shape} and {correct.shape} differ"
        )
    return _zero_count_tables(test_indices, correct[np.newaxis], dataset,
                              tail_start)[0]


def _zero_count_tables(test_indices, correct, dataset, tail_start=None):
    """:func:`breakdown_by_zero_count` for each of the ``(K, B, n_test)``
    indicators of K combinations."""
    counts = dataset.zero_counts
    if tail_start is not None:
        counts = np.minimum(counts, int(tail_start))
    bins, rows = np.unique(counts, return_counts=True)
    return [[
        {"zeros": (f"{value}+" if tail_start is not None
                   and value == tail_start else str(int(value))),
         "mean": mean, "sd": sd, "rows": int(size),
         "share": float(size / dataset.n), "replicates": used}
        for value, size, (mean, sd, used) in zip(bins, rows, stats)
    ] for stats in _per_bin_accuracy(test_indices, correct, counts, bins)]


def _per_group_tables(test_indices, correct, dataset):
    groups = group_summary(dataset)
    return [[
        {"group": g["group"], "mean": mean, "sd": sd, "size": g["size"],
         "zero_fraction": g["rows_with_zeros"] / g["size"]}
        for g, (mean, sd, _) in zip(groups, stats)
    ] for stats in _per_bin_accuracy(test_indices, correct, dataset.labels,
                                     np.asarray(dataset.group_names))]


def _make_splits(dataset, cv):
    return [
        stratified_split(dataset.labels, cv.n_test,
                         _rng_for(cv.seed, _SPLIT_STREAM, b))
        for b in range(cv.B)
    ]


@dataclass
class _Skip:
    method: MethodSpec
    replicate: int
    reason: str

    def to_dict(self):
        return {
            "method": self.method.to_dict(),
            "display": self.method.display(),
            "replicate": self.replicate,
            "reason": self.reason,
        }


def _build_report(dataset, methods, cv, test_indices, correct):
    """Reports of combinations evaluated on the same splits, with
    ``correct`` of shape ``(len(methods), B, n_test)``."""
    q = correct.mean(axis=2)
    return [EvalReport(
        method=method, q=q_k, mean_q=mean_q, sd_q=sd_q, se_q=se_q,
        n_test=cv.n_test, B=cv.B, seed=cv.seed, splits_reused=True,
        per_group=per_group, per_zero_count=per_zero_count,
        test_indices=test_indices, correct=right,
    ) for method, right, q_k, mean_q, sd_q, se_q, per_group, per_zero_count
        in zip(methods, correct, q, *_aggregate(q),
               _per_group_tables(test_indices, correct, dataset),
               _zero_count_tables(test_indices, correct, dataset))]


def _run_gauss_family(dataset, alpha, combos, cv, splits):
    """Evaluate every Gaussian-engine combination sharing one alpha and
    prior.

    Replicates go through in chunks whose training rows and
    ``(C, chunk, g, d, n_test)`` whitening temporaries fit
    ``_BLOCK_BYTES``; per chunk, one moments, one assemble and one score
    call cover every live (lambda, gamma) pair.  Each combination's
    numbers are identical to what a solo evaluation would produce.  A
    combination leaves at its first failing replicate.
    """
    z = alpha_transform(dataset.rows, alpha, name="the data")
    labels = dataset.labels
    trains, tests = (np.stack(part) for part in zip(*splits))
    pairs = [m.effective_lam_gamma() for m in combos]
    d = z.shape[1]
    step = max(1, _BLOCK_BYTES // (8 * d * (dataset.n + len(combos) * len(
        dataset.group_names) * max(d, cv.n_test))))
    correct = np.empty((len(combos), cv.B, cv.n_test), dtype=bool)
    live, skips = list(range(len(combos))), []
    for lo in range(0, cv.B, step):
        if not live:
            break
        train, test = trains[lo:lo + step], tests[lo:lo + step]
        models, pooled = fit_gaussian_groups(z[train], labels[train])
        batch, errors = _assemble_rda(
            models, pooled, [pairs[c] for c in live], alpha=alpha,
            prior=combos[0].prior, helmert=None, source_dim=dataset.D,
        )
        winners = _scores_z(batch, z[test]).argmax(axis=-1)
        correct[live, lo:lo + step] = (
            np.asarray(batch.group_labels)[winners] == labels[test])
        for c, error in zip(list(live), errors):
            if error is not None:
                skips.append(_Skip(combos[c], lo + error.replicate,
                                   str(error)))
                live.remove(c)
    return _build_report(dataset, [combos[c] for c in live], cv, tests,
                         correct[live]), skips


def _run_knn_family(dataset, metric, combos, cv, splits, tie):
    """Evaluate every k for one metric; ``tie(b, i, n)`` is the shared tie
    draw of test row ``i`` in replicate ``b``.

    Each distance row keeps its ``kmax + n_test`` nearest in stable-sort
    order, which hold the ``kmax`` nearest training members of any split.
    Replicates go through in chunks whose ``(chunk, n_test, kmax + n_test)``
    neighbour indices fit ``_BLOCK_BYTES``, with one vote call per chunk.
    """
    kmax = max(m.k for m in combos)
    width = kmax + cv.n_test
    near = _nearest(pairwise_distances(dataset.rows, dataset.rows, metric),
                    width)
    names, codes = np.unique(dataset.labels, return_inverse=True)
    trains, tests = (np.stack(part) for part in zip(*splits))
    step = max(1, _BLOCK_BYTES // (8 * cv.n_test * width))
    correct = np.empty((len(combos), cv.B, cv.n_test), dtype=bool)
    for lo in range(0, cv.B, step):
        test = tests[lo:lo + step]
        member = np.zeros((len(test), dataset.n), dtype=bool)
        np.put_along_axis(member, trains[lo:lo + step], True, axis=1)
        rows = near[test]
        kept = np.take_along_axis(member[:, np.newaxis], rows, axis=2)
        order = rows[kept & (kept.cumsum(axis=2) <= kmax)].reshape(-1, kmax)
        won = _knn_vote(codes[order], [m.k for m in combos], names.size,
                        lambda row, n: tie(lo + row // cv.n_test,
                                           row % cv.n_test, n))
        correct[:, lo:lo + step] = (
            won.T.reshape(len(combos), *test.shape) == codes[test])
    return _build_report(dataset, combos, cv, tests, correct)


def _run_combos(dataset, combos, cv, splits):
    """Evaluate combinations bundled by shared heavy work: one Gaussian
    family per (alpha, prior), one k-NN family per metric.

    Every combination's report is bit-identical whether it is evaluated
    alone or alongside others.  Returns ``(reports, skips)``.
    """
    gauss = {}
    knn = {}
    for method in combos:
        method.validate_against(dataset, cv)
        if method.engine == "gauss":
            gauss.setdefault((method.alpha, method.prior), []).append(method)
        else:
            knn.setdefault(method.metric(), []).append(method)
    reports, skips = [], []
    for (alpha, _prior), members in sorted(gauss.items(),
                                           key=lambda kv: kv[0]):
        r, s = _run_gauss_family(dataset, alpha, members, cv, splits)
        reports += r
        skips += s
    # Tie stream (b, i) is shared by every alpha, metric and k: draw once.
    tie = functools.cache(
        lambda b, i, n: _rng_for(cv.seed, _TIE_STREAM, b, i).integers(n))
    for metric, members in sorted(
            knn.items(), key=lambda kv: (kv[0].kind, kv[0].alpha or 0.0)):
        reports += _run_knn_family(dataset, metric, members, cv, splits, tie)
    return reports, skips


def cv_evaluate(dataset, method, cv):
    """Cross-validated accuracy of one method configuration.

    Parameters
    ----------
    dataset : LabeledCompositionDataset
    method : MethodSpec
    cv : CvConfig

    Returns
    -------
    EvalReport

    Raises
    ------
    IllConditionedAtError
        If fitting fails at any replicate; the error names the method
        parameters and the replicate.
    """
    reports, skips = _run_combos(dataset, [method], cv,
                                 _make_splits(dataset, cv))
    if skips:
        skip = skips[0]
        raise IllConditionedAtError(
            f"{method.display()} failed at replicate {skip.replicate}: "
            f"{skip.reason}",
            method=method, replicate=skip.replicate, cause=skip.reason,
        )
    return reports[0]


@dataclass
class GridResult:
    """Ranked reports of a grid search plus the skipped combinations."""

    reports: list
    skipped: list
    n_test: int
    B: int
    seed: int

    @property
    def best(self):
        return self.reports[0]

    def best_per_method(self):
        out = {}
        for report in self.reports:
            out.setdefault(report.method.name, report)
        return out

    def to_dict(self):
        return {
            "n_test": self.n_test,
            "B": self.B,
            "seed": self.seed,
            "splits_reused": True,
            "n_combinations": len(self.reports) + len(self.skipped),
            "results": [r.to_dict() for r in self.reports],
            "best_per_method": {
                name: r.to_dict()
                for name, r in sorted(self.best_per_method().items())
            },
            "skipped": [s.to_dict() for s in self.skipped],
        }


def _rank_key(report):
    m = report.method
    alpha_rank = (0, abs(m.alpha)) if m.alpha is not None else (1, 0.0)
    return (-report.mean_q, m.n_params, alpha_rank, m._sort_key())


def grid_search(dataset, grid, cv):
    """Evaluate every grid combination on shared splits and rank them.

    Ranking is by mean accuracy, ties by fewer tuning parameters, then by
    smaller ``|alpha|``.  Combinations that cannot be fitted are recorded
    under ``skipped`` and excluded from the ranking.

    Parameters
    ----------
    dataset : LabeledCompositionDataset
    grid : GridSpec
    cv : CvConfig

    Returns
    -------
    GridResult

    Raises
    ------
    AllCombinationsFailedError
        If nothing survived.
    """
    combos = grid.expand()
    splits = _make_splits(dataset, cv)
    reports, skips = _run_combos(dataset, combos, cv, splits)
    if not reports:
        raise AllCombinationsFailedError(
            f"all {len(skips)} grid combinations failed; first: "
            f"{skips[0].reason}"
        )
    reports.sort(key=_rank_key)
    skips.sort(key=lambda s: s.method._sort_key())
    return GridResult(
        reports=reports, skipped=skips,
        n_test=cv.n_test, B=cv.B, seed=cv.seed,
    )
