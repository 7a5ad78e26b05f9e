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
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .classifiers import (
    _assemble_rda,
    _knn_vote,
    _nearest_rows,
    _rng_for,
    _scores_z,
    _tie_picks,
    _tie_words,
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
    ParameterOutOfRangeError,
    TestTooSmallError,
)
from .metrics import MetricSpec, _coords

__all__ = [
    "CvConfig",
    "MethodSpec",
    "GridSpec",
    "EvalReport",
    "GridResult",
    "stratified_split",
    "cv_evaluate",
    "grid_search",
    "METHOD_NAMES",
    "METHOD_PARAMS",
]

# Stream tags keep the derived seed spaces of distinct purposes disjoint.
_SPLIT_STREAM = 0
_TIE_STREAM = 1

# Byte budget of one chunk: the training rows and whitening temporaries of
# the Gaussian engine's (alpha, replicate) units, or the neighbour indices
# of the k-NN engine's replicates.  Cache-sized (half of a 2 MB L2): one
# chunk of a whole alpha grid measured slower than chunks of a few alphas.
_BLOCK_BYTES = 1 << 20

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
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        if self.engine == "knn":
            del out["prior"]
        return out

    def _sort_key(self):
        return (self.name,
                *(getattr(self, p) for p in METHOD_PARAMS[self.name]))


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

    def to_dict(self):
        return {
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


def _per_bin_accuracy(bins, n_bins, correct):
    """Accuracy within each bin, averaged across replicates, for each of
    the K combinations in the ``(K, B, n_test)`` array ``correct``.

    ``bins`` gives the bin, below ``n_bins``, of every test row, shape
    ``(B, n_test)``.  Per replicate the correct rate is taken within each
    bin present in its test set; the mean and sd (``B - 1`` divisor) run
    over those contributing replicates.  Returns, per bin, the lists of
    means and sds of the K combinations and the number of replicates.
    """
    # (B, n_test, bins) membership; hits and rights are counts, so no
    # float copy of ``correct`` is made
    member = bins[..., np.newaxis] == np.arange(n_bins)
    hits = member.sum(axis=1)
    stats = []
    for j in range(n_bins):
        used = np.flatnonzero(hits[:, j])
        right = np.count_nonzero(correct & member[..., j], axis=-1)
        mean, sd, _ = _aggregate(right[:, used] / hits[used, j])
        stats.append((mean, sd, used.size))
    return stats


def _zero_bins(dataset):
    """Every row's zero-count bin, and the name and size of each bin."""
    values, row_bins, rows = np.unique(dataset.zero_counts,
                                       return_inverse=True, return_counts=True)
    return row_bins, [
        {"zeros": str(int(value)), "rows": int(size),
         "share": float(size / dataset.n)}
        for value, size in zip(values, rows)]


def _zero_count_rows(entries, stats, k):
    """The ``per_zero_count`` table of combination ``k``, from the
    :func:`_zero_bins` entries and :func:`_per_bin_accuracy` stats."""
    return [{"zeros": e["zeros"], "mean": mean[k], "sd": sd[k],
             "rows": e["rows"], "share": e["share"], "replicates": used}
            for e, (mean, sd, used) in zip(entries, stats)]


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


# What the families and the report read of the splits, found once: the
# stacked train and test rows, the sorted label set, every row's code (the
# test rows' codes are their group bins), the training membership, and
# the entry of each group and zero-count bin with every test row's bin.
_Plan = namedtuple(
    "_Plan", "dataset trains tests names codes test_codes member groups "
             "zero_bins zeros")


def _split_plan(dataset, cv):
    trains, tests = (np.stack(part) for part in zip(*(
        stratified_split(dataset.labels, cv.n_test,
                         _rng_for(cv.seed, _SPLIT_STREAM, b))
        for b in range(cv.B))))
    names, codes = np.unique(dataset.labels, return_inverse=True)
    member = np.zeros((cv.B, dataset.n), dtype=bool)
    np.put_along_axis(member, trains, True, axis=1)
    groups = [{"group": g["group"], "size": g["size"],
               "zero_fraction": g["rows_with_zeros"] / g["size"]}
              for g in group_summary(dataset)]
    zero_bins, zeros = _zero_bins(dataset)
    return _Plan(dataset, trains, tests, names, codes, codes[tests], member,
                 groups, zero_bins[tests], zeros)


def _build_report(plan, methods, cv, correct):
    """Reports of combinations evaluated on the plan's splits, with
    ``correct`` of shape ``(len(methods), B, n_test)``."""
    q = correct.mean(axis=2)
    by_group = _per_bin_accuracy(plan.test_codes, len(plan.groups), correct)
    by_zeros = _per_bin_accuracy(plan.zero_bins, len(plan.zeros), correct)
    return [EvalReport(
        method=method, q=q[k], mean_q=mean_q, sd_q=sd_q, se_q=se_q,
        n_test=cv.n_test, B=cv.B, seed=cv.seed, splits_reused=True,
        per_group=[{"group": g["group"], "mean": mean[k], "sd": sd[k],
                    "size": g["size"], "zero_fraction": g["zero_fraction"]}
                   for g, (mean, sd, _) in zip(plan.groups, by_group)],
        per_zero_count=_zero_count_rows(plan.zeros, by_zeros, k),
        test_indices=plan.tests, correct=correct[k],
    ) for k, (method, mean_q, sd_q, se_q) in enumerate(
        zip(methods, *_aggregate(q)))]


def _run_gauss(plan, combos, cv):
    """Evaluate Gaussian-engine combinations of one prior over every
    (alpha, replicate) unit, alpha-major.

    Units go through in chunks whose training rows and ``(C, chunk, g, d,
    n_test)`` whitening temporaries fit ``_BLOCK_BYTES``; per chunk, one
    moments, one assemble and one score call cover every (lambda, gamma)
    pair live at one of its alphas.  An (alpha, pair) leaves at its first
    failing replicate, with the combinations that share it.  Returns the
    combinations that never failed, their ``(K, B, n_test)`` correctness
    and the skips.
    """
    alphas = sorted({m.alpha for m in combos})
    pairs = list(dict.fromkeys(m.effective_lam_gamma() for m in combos))
    keys = [(alphas.index(m.alpha), pairs.index(m.effective_lam_gamma()))
            for m in combos]
    z = np.stack([alpha_transform(plan.dataset.rows, alpha, name="the data")
                  for alpha in alphas])
    d = z.shape[-1]
    step = max(1, _BLOCK_BYTES // (8 * d * (plan.dataset.n + len(pairs) * len(
        plan.names) * max(d, cv.n_test))))
    correct = np.empty((len(alphas), len(pairs), cv.B, cv.n_test), dtype=bool)
    live, failed = np.zeros(correct.shape[:2], dtype=bool), {}
    live[tuple(zip(*keys))] = True
    units = len(alphas) * cv.B
    for lo in range(0, units, step):
        a, b = np.divmod(np.arange(lo, min(lo + step, units)), cv.B)
        cols = np.flatnonzero(live[a].any(axis=0))
        if not cols.size:
            continue
        train = plan.trains[b]
        models, pooled = fit_gaussian_groups(z[a[:, np.newaxis], train],
                                             plan.dataset.labels[train])
        batch, errors = _assemble_rda(
            models, pooled, [pairs[c] for c in cols],
            alpha=[alphas[i] for i in a.tolist()], prior=combos[0].prior)
        winners = _scores_z(batch, z[a[:, np.newaxis], plan.tests[b]])
        correct[a, cols[:, np.newaxis], b] = (winners.argmax(axis=-1)
                                              == plan.test_codes[b])
        for (j, u), error in errors.items():
            key = (int(a[u]), int(cols[j]))
            if live[key]:
                live[key] = False
                failed[key] = (int(b[u]), str(error))
    kept = np.array([k for k in keys if k not in failed], dtype=int)
    return ([m for m, k in zip(combos, keys) if k not in failed],
            correct[tuple(kept.reshape(-1, 2).T)],
            [_Skip(m, *failed[k]) for m, k in zip(combos, keys) if k in failed])


def _run_knn_family(plan, metric, combos, cv, words):
    """Evaluate every k for one metric; ``words[b, i]`` is the first word
    of test row ``i``'s tie stream in replicate ``b`` (:func:`_tie_words`).
    Returns as :func:`_run_gauss` does, with no skips.

    Each row keeps its ``kmax + n_test`` nearest in stable-sort order
    (:func:`_nearest_rows`), which hold the ``kmax`` nearest training
    members of any split.
    Replicates go through in chunks whose ``(chunk, n_test, kmax + n_test)``
    neighbour indices fit ``_BLOCK_BYTES``, with one vote call per chunk.
    """
    kmax = max(m.k for m in combos)
    width = kmax + cv.n_test
    coords = _coords(plan.dataset.rows, metric, "the data")
    near = _nearest_rows(coords, coords, metric, width)
    step = max(1, _BLOCK_BYTES // (8 * cv.n_test * width))
    correct = np.empty((len(combos), cv.B, cv.n_test), dtype=bool)
    for lo in range(0, cv.B, step):
        chunk = slice(lo, lo + step)
        ranked = near[plan.tests[chunk]]
        kept = np.take_along_axis(plan.member[chunk, np.newaxis], ranked,
                                  axis=2)
        order = ranked[kept & (kept.cumsum(axis=2) <= kmax)].reshape(-1, kmax)

        def pick(rows, sizes):
            b, i = np.divmod(rows + lo * cv.n_test, cv.n_test)
            return _tie_picks(words[b, i], sizes, cv.seed,
                              (_TIE_STREAM, b, i))

        won = _knn_vote(plan.codes[order], [m.k for m in combos],
                        plan.names.size, pick)
        correct[:, chunk] = (won.T.reshape(len(combos), *ranked.shape[:2])
                             == plan.test_codes[chunk])
    return combos, correct, []


def _run_combos(dataset, combos, cv):
    """Evaluate combinations bundled by shared heavy work: one Gaussian
    engine pass per prior, one k-NN family per metric, then report
    on every surviving combination in one pass.

    Every combination's report is bit-identical whether it is evaluated
    alone or alongside others.  Returns ``(reports, skips)``.
    """
    plan = _split_plan(dataset, cv)
    if dataset.g < 2:
        raise InvalidSpecError(f"need at least two groups, got {dataset.g}")
    gauss, knn, admitted = {}, {}, set()
    for method in combos:
        # each alpha is checked once, named by its first combination
        if method.alpha is not None and method.alpha not in admitted:
            _check_zero_alpha(dataset.raw, method.alpha, "the data",
                              method.display())
            admitted.add(method.alpha)
        if method.k is not None and method.k > dataset.n - cv.n_test:
            raise ParameterOutOfRangeError(
                f"k={method.k} exceeds the training size "
                f"{dataset.n - cv.n_test}")
        if method.engine == "gauss":
            gauss.setdefault(method.prior, []).append(method)
        else:
            knn.setdefault(method.metric(), []).append(method)
    runs = [_run_gauss(plan, members, cv)
            for _, members in sorted(gauss.items())]
    # Tie stream (b, i) is shared by every alpha, metric, k and tie size:
    # one first word per stream, drawn only for a search with k-NN, in
    # chunks of replicates whose kernel temporaries (under 256 bytes a
    # stream) fit _BLOCK_BYTES.
    words, step = None, max(1, _BLOCK_BYTES // (256 * cv.n_test))
    if knn:
        words = np.concatenate([_tie_words(cv.seed, (
            _TIE_STREAM, np.arange(cv.B)[lo:lo + step, np.newaxis],
            np.arange(cv.n_test))) for lo in range(0, cv.B, step)])
    runs += [_run_knn_family(plan, metric, members, cv, words)
             for metric, members in sorted(
                 knn.items(), key=lambda kv: (kv[0].kind, kv[0].alpha or 0.0))]
    reports = _build_report(plan, [m for live, _, _ in runs for m in live],
                            cv, np.concatenate([right for _, right, _ in runs]))
    return reports, [skip for _, _, family in runs for skip in family]


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
    reports, skips = _run_combos(dataset, [method], cv)
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
    reports, skips = _run_combos(dataset, combos, cv)
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
