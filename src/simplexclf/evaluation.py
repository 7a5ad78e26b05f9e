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

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .classifiers import (
    _assemble_rda,
    _knn_vote,
    _rng_for,
    _scores_z,
    fit_gaussian_groups,
)
from .core import _check_zero_alpha, alpha_transform
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

# The tuning parameters of each method, in grid-expansion order (the first
# varies slowest).  Validation, parameter counts, grid expansion and method
# inference all read this one table.
METHOD_PARAMS = {
    "RDA": ("alpha", "lam", "gamma"),
    "LDA": ("alpha",),
    "QDA": ("alpha",),
    "KNN_ALPHA": ("alpha", "k"),
    "KNN_ESOV": ("k",),
}
METHOD_NAMES = tuple(METHOD_PARAMS)
# GridSpec axis of each parameter, and the name messages use for it
_AXES = {"alpha": "alphas", "lam": "lambdas", "gamma": "gammas", "k": "ks"}
_LABELS = {"alpha": "alpha", "lam": "lambda", "gamma": "gamma", "k": "k"}


@dataclass(frozen=True)
class CvConfig:
    """Split-resampling settings: test size, replicates, master seed."""

    n_test: int
    B: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_test < 1:
            raise ParameterOutOfRangeError(
                f"n_test must be at least 1, got {self.n_test}"
            )
        if self.B < 1:
            raise ParameterOutOfRangeError(
                f"B must be at least 1, got {self.B}"
            )


def _engine(name):
    return "knn" if name.startswith("KNN") else "gauss"


def _fmt(value):
    return f"{value:g}"


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
        for param, label in _LABELS.items():
            given = getattr(self, param) is not None
            if param in params and not given:
                raise InvalidSpecError(f"{self.name} needs {label}")
            if given and param not in params:
                raise InvalidSpecError(f"{self.name} takes no {label}")
        for param in ("lam", "gamma"):
            value = getattr(self, param)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ParameterOutOfRangeError(
                    f"{_LABELS[param]} must lie in [0, 1], got {value}"
                )
        if self.k is not None and int(self.k) < 1:
            raise ParameterOutOfRangeError(
                f"k must be at least 1, got {self.k}"
            )
        if self.prior not in ("proportional", "uniform"):
            raise InvalidSpecError(
                f"prior must be 'proportional' or 'uniform', "
                f"got {self.prior!r}"
            )

    # -- constructors -------------------------------------------------
    @classmethod
    def rda(cls, alpha, lam, gamma, prior="proportional"):
        return cls("RDA", alpha=float(alpha), lam=float(lam),
                   gamma=float(gamma), prior=prior)

    @classmethod
    def lda(cls, alpha, prior="proportional"):
        return cls("LDA", alpha=float(alpha), prior=prior)

    @classmethod
    def qda(cls, alpha, prior="proportional"):
        return cls("QDA", alpha=float(alpha), prior=prior)

    @classmethod
    def knn_alpha(cls, k, alpha):
        return cls("KNN_ALPHA", alpha=float(alpha), k=int(k))

    @classmethod
    def knn_esov(cls, k):
        return cls("KNN_ESOV", k=int(k))

    # -- descriptors ---------------------------------------------------
    @property
    def engine(self):
        return _engine(self.name)

    @property
    def n_params(self):
        """Free tuning parameters, used for ranking ties."""
        return len(METHOD_PARAMS[self.name])

    def effective_lam_gamma(self):
        if self.name == "RDA":
            return self.lam, self.gamma
        if self.name == "LDA":
            return 0.0, 1.0
        if self.name == "QDA":
            return 1.0, 0.0
        raise InvalidSpecError(f"{self.name} has no covariance weights")

    def metric(self):
        if self.name == "KNN_ALPHA":
            return MetricSpec.alpha_metric(self.alpha)
        if self.name == "KNN_ESOV":
            return MetricSpec.esov()
        raise InvalidSpecError(f"{self.name} has no metric")

    def display(self):
        suffix = "; uniform prior" if (
            self.engine == "gauss" and self.prior == "uniform") else ""
        if self.name == "RDA":
            return (f"RDA({_fmt(self.alpha)}, {_fmt(self.lam)}, "
                    f"{_fmt(self.gamma)}{suffix})")
        if self.name == "LDA":
            return f"LDA({_fmt(self.alpha)}{suffix})"
        if self.name == "QDA":
            return f"QDA({_fmt(self.alpha)}{suffix})"
        if self.name == "KNN_ALPHA":
            return f"{self.k}-NN({_fmt(self.alpha)})"
        return f"{self.k}-NN(ESOV)"

    def to_dict(self):
        out = {k: v for k, v in asdict(self).items() if v is not None}
        if self.engine == "knn":
            del out["prior"]
        return out

    def _sort_key(self):
        return (
            self.name,
            self.alpha if self.alpha is not None else 0.0,
            self.lam if self.lam is not None else -1.0,
            self.gamma if self.gamma is not None else -1.0,
            self.k if self.k is not None else -1,
        )

    def validate_against(self, dataset, cv):
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
    non-empty.  ``prior`` applies to the Gaussian methods.
    """

    alphas: tuple = ()
    lambdas: tuple = ()
    gammas: tuple = ()
    ks: tuple = ()
    methods: tuple = METHOD_NAMES
    prior: str = "proportional"

    def __post_init__(self):
        for axis, cast in (("alphas", float), ("lambdas", float),
                           ("gammas", float), ("ks", int)):
            values = tuple(sorted({cast(v) for v in getattr(self, axis)}))
            object.__setattr__(self, axis, values)
        if self.methods is None:
            object.__setattr__(self, "methods", tuple(
                m for m, params in METHOD_PARAMS.items()
                if all(getattr(self, _AXES[p]) for p in params)))
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
            axes = [_AXES[p] for p in params]
            missing = [ax for ax in axes if not getattr(self, ax)]
            if missing:
                raise EmptyGridError(
                    f"method {m} needs non-empty {missing}"
                )
            prior = {"prior": self.prior} if _engine(m) == "gauss" else {}
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
    names = np.unique(labels)
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
    train = np.setdiff1d(np.arange(n), test)
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
            "q": [float(v) for v in self.q],
            "per_group": self.per_group,
            "per_zero_count": self.per_zero_count,
        }
        if include_replicates:
            out["test_indices"] = self.test_indices.tolist()
            out["correct"] = self.correct.astype(int).tolist()
        return out


def _aggregate(values):
    """Mean, sd (B - 1 divisor) and se of a replicate vector; the spread
    entries are None when fewer than two replicates contribute."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, None, None
    sd = float(values.std(ddof=1))
    return mean, sd, sd / float(np.sqrt(values.size))


def _per_bin_accuracy(test_indices, correct, row_bins, values):
    """Accuracy within each bin, averaged across replicates.

    ``row_bins`` gives the bin of every dataset row and ``values`` the
    sorted bins to report.  Per replicate the correct rate is taken within
    each bin present in its test set; the mean and sd (``B - 1`` divisor)
    run over those contributing replicates.

    Returns
    -------
    list of (float or None, float or None, int)
        ``(mean, sd, replicates)`` per entry of ``values``.
    """
    B = test_indices.shape[0]
    slot = np.searchsorted(values, row_bins)[test_indices]
    slot += len(values) * np.arange(B)[:, np.newaxis]
    size = B * len(values)
    hits = np.bincount(slot.ravel(), minlength=size).reshape(B, -1)
    right = np.bincount(slot.ravel(), weights=correct.ravel(),
                        minlength=size).reshape(B, -1)
    out = []
    for j in range(len(values)):
        seen = hits[:, j] > 0
        accs = right[seen, j] / hits[seen, j]
        mean = float(accs.mean()) if accs.size else None
        sd = float(accs.std(ddof=1)) if accs.size >= 2 else None
        out.append((mean, sd, int(accs.size)))
    return out


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
    counts = dataset.zero_counts
    if tail_start is not None:
        counts = np.minimum(counts, int(tail_start))
    bins, rows = np.unique(counts, return_counts=True)
    stats = _per_bin_accuracy(test_indices, correct, counts, bins)
    return [
        {
            "zeros": (f"{value}+" if tail_start is not None
                      and value == tail_start else str(int(value))),
            "mean": mean,
            "sd": sd,
            "rows": int(size),
            "share": float(size / dataset.n),
            "replicates": used,
        }
        for value, size, (mean, sd, used) in zip(bins, rows, stats)
    ]


def _per_group_table(test_indices, correct, dataset):
    stats = _per_bin_accuracy(test_indices, correct, dataset.labels,
                              np.asarray(dataset.group_names))
    return [
        {"group": g["group"], "mean": mean, "sd": sd, "size": g["size"],
         "zero_fraction": g["rows_with_zeros"] / g["size"]}
        for g, (mean, sd, _) in zip(group_summary(dataset), stats)
    ]


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


def _build_report(dataset, method, cv, test_indices, correct):
    q = correct.mean(axis=1)
    mean_q, sd_q, se_q = _aggregate(q)
    return EvalReport(
        method=method,
        q=q,
        mean_q=mean_q,
        sd_q=sd_q,
        se_q=se_q,
        n_test=cv.n_test,
        B=cv.B,
        seed=cv.seed,
        splits_reused=True,
        per_group=_per_group_table(test_indices, correct, dataset),
        per_zero_count=breakdown_by_zero_count(
            test_indices, correct, dataset
        ),
        test_indices=test_indices,
        correct=correct,
    )


def _run_gauss_family(dataset, alpha, combos, cv, splits):
    """Evaluate every Gaussian-engine combination sharing one alpha and
    prior.

    Per replicate, group moments are computed once, and one assemble call
    and one score call cover every live (lambda, gamma) pair; each
    combination's numbers are identical to what a solo evaluation would
    produce.  A combination leaves at its first failing replicate.
    """
    z = alpha_transform(dataset.rows, alpha)
    labels = dataset.labels
    test_indices = np.stack([test for _, test in splits])
    live = {m: np.empty((cv.B, cv.n_test), dtype=bool) for m in combos}
    skips = []
    for b, (train, test) in enumerate(splits):
        if not live:
            break
        models, pooled = fit_gaussian_groups(z[train], labels[train])
        batch, errors = _assemble_rda(
            models, pooled, [m.effective_lam_gamma() for m in live],
            alpha=alpha, prior=combos[0].prior, helmert=None,
            source_dim=dataset.D,
        )
        winners = _scores_z(batch, z[test]).argmax(axis=-1)
        predicted = np.asarray(batch.group_labels)[winners]
        for method, error, guess in zip(list(live), errors, predicted):
            if error is not None:
                skips.append(_Skip(method, b, str(error)))
                del live[method]
            else:
                live[method][b] = guess == labels[test]
    reports = [
        _build_report(dataset, m, cv, test_indices, correct)
        for m, correct in live.items()
    ]
    return reports, skips


def _run_knn_family(dataset, metric, combos, cv, splits):
    """Evaluate every k for one metric; the distance matrix and neighbour
    ordering are shared, tie-break streams depend only on the replicate
    and query position."""
    dist = pairwise_distances(dataset.rows, dataset.rows, metric)
    names, codes = np.unique(dataset.labels, return_inverse=True)
    ks = [m.k for m in combos]
    test_indices = np.stack([test for _, test in splits])
    correct = np.empty((len(combos), cv.B, cv.n_test), dtype=bool)
    for b, (train, test) in enumerate(splits):
        sub = dist[np.ix_(test, train)]
        order = np.argsort(sub, axis=1, kind="stable")[:, : max(ks)]
        won = _knn_vote(
            codes[train][order], ks, names.size,
            lambda i, b=b: _rng_for(cv.seed, _TIE_STREAM, b, i),
        )
        correct[:, b] = (won == codes[test][:, np.newaxis]).T
    return [
        _build_report(dataset, m, cv, test_indices, correct[j])
        for j, m in enumerate(combos)
    ]


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
    for metric, members in sorted(
            knn.items(), key=lambda kv: (kv[0].kind, kv[0].alpha or 0.0)):
        reports += _run_knn_family(dataset, metric, members, cv, splits)
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

    def to_dict(self, top=None):
        ranked = self.reports if top is None else self.reports[:top]
        return {
            "n_test": self.n_test,
            "B": self.B,
            "seed": self.seed,
            "splits_reused": True,
            "n_combinations": len(self.reports) + len(self.skipped),
            "results": [r.to_dict() for r in ranked],
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
