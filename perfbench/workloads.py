"""Seeded inputs and the CLI invocations of each benchmark workload.

Every input is generated here from the workload seed and written as a
plain delimited file; the program under test only ever sees those files.
The generators do not call into ``simplexclf``, so a change to the
program cannot change the inputs it is measured on.

A *pass* is the fixed list of CLI invocations that makes up one unit of
a workload; the runner repeats passes and reports medians over them.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GLASS_PARTS = ("Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe")

# Forensic-glass-shaped groups: (label, size in the 214-row set, mean
# oxide percentages, probability that each of Mg, K, Ba, Fe is an exact
# structural zero).  The shape (six unbalanced groups, one of nine rows,
# zeros concentrated in the trailing minor oxides) is what the k-NN and
# zero-count code paths depend on; the values are close to the UCI file,
# which cannot be bundled.
_GLASS_GROUPS = (
    ("1", 70, (13.24, 3.55, 1.16, 72.62, 0.45, 8.80, 0.01, 0.06),
     (0.00, 0.02, 0.90, 0.60)),
    ("2", 76, (13.11, 3.00, 1.41, 72.60, 0.52, 9.07, 0.05, 0.08),
     (0.05, 0.02, 0.85, 0.50)),
    ("3", 17, (13.44, 3.54, 1.20, 72.40, 0.41, 8.78, 0.01, 0.06),
     (0.00, 0.00, 0.95, 0.70)),
    ("5", 13, (12.83, 0.77, 2.03, 72.37, 1.47, 10.12, 0.19, 0.06),
     (0.30, 0.05, 0.70, 0.80)),
    ("6", 9, (14.65, 1.31, 1.37, 73.21, 0.20, 9.36, 0.05, 0.05),
     (0.30, 0.60, 1.00, 1.00)),
    ("7", 29, (14.44, 0.54, 2.12, 72.97, 0.33, 8.49, 1.04, 0.01),
     (0.60, 0.40, 0.10, 0.80)),
)
_ZERO_PARTS = (1, 4, 6, 7)  # Mg, K, Ba, Fe
_MAJOR_PARTS = (0, 3, 5)  # Na, Si, Ca
GLASS_SIZES = tuple(g[1] for g in _GLASS_GROUPS)

# Stream tags keep the inputs of different purposes independent.
_STREAM_GLASS_TRAIN = 1
_STREAM_GLASS_BATCH = 2
_STREAM_GLASS_LARGE = 3
_STREAM_LRA = 4


def _rng(seed, stream):
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(stream),)))


def scaled_sizes(n):
    """Group sizes proportional to the 214-row glass set, summing to n
    (largest remainder, every group at least one row)."""
    base = np.asarray(GLASS_SIZES, dtype=float)
    quota = base * n / base.sum()
    sizes = np.floor(quota).astype(int)
    for i in np.argsort(-(quota - sizes), kind="stable")[: n - sizes.sum()]:
        sizes[i] += 1
    return tuple(int(max(s, 1)) for s in sizes)


def glass_like(seed, stream, sizes=GLASS_SIZES):
    """Glass-shaped compositions: ``(raw, labels)`` with two-decimal
    oxide percentages, as in the UCI file.

    Major oxides get 4 % multiplicative noise, minor ones 35 %; each of
    Mg, K, Ba and Fe is then zeroed with its group's probability.  Exact
    duplicate rows, distance ties and k-NN vote ties all occur.
    """
    rng = _rng(seed, stream)
    raws, labels = [], []
    for (label, _, means, zero_p), size in zip(_GLASS_GROUPS, sizes):
        means = np.asarray(means)
        sd = np.full(len(GLASS_PARTS), 0.35)
        sd[list(_MAJOR_PARTS)] = 0.04
        raw = means * np.exp(sd * rng.standard_normal((size, len(means))))
        zero = rng.random((size, len(_ZERO_PARTS))) < np.asarray(zero_p)
        raw[:, list(_ZERO_PARTS)] *= ~zero
        raws.append(np.round(raw, 2))
        labels += [label] * size
    return np.vstack(raws), labels


def _helmert(D):
    j = np.arange(1, D)
    h = -1.0 / np.sqrt(j * (j + 1.0))
    H = np.zeros((D - 1, D))
    for row in range(D - 1):
        H[row, : row + 1] = h[row]
        H[row, row + 1] = -(row + 1) * h[row]
    return H


def lra_dataset(seed, D=4, groups=2, group_size=50, separation=10.0):
    """The acceptance-criterion-8 "lra" regime: Gaussian groups in
    log-ratio coordinates, means ``separation`` apart, unit noise."""
    rng = _rng(seed, _STREAM_LRA)
    d = D - 1
    H = _helmert(D)
    scale = separation / np.sqrt(2.0)
    raws, labels = [], []
    for i in range(groups):
        mean = np.zeros(d)
        mean[i] = scale
        z = mean + rng.standard_normal((group_size, d))
        raws.append(np.exp(z @ H))
        labels += [f"g{i + 1:02d}"] * group_size
    return np.vstack(raws), labels


def write_dataset(path, raw, labels, parts):
    """Headered CSV with full-precision values and a ``label`` column."""
    lines = [",".join(list(parts) + ["label"])]
    for row, label in zip(raw, labels):
        lines.append(",".join(repr(float(v)) for v in row) + "," + label)
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def properties(raw, labels):
    """The input properties later performance claims may cite."""
    raw = np.asarray(raw)
    zeros = (raw == 0).sum(axis=1)
    names, counts = np.unique(np.asarray(labels), return_counts=True)
    return {
        "n": int(raw.shape[0]),
        "D": int(raw.shape[1]),
        "group_sizes": {str(k): int(v) for k, v in zip(names, counts)},
        "zero_row_share": float((zeros > 0).mean()),
        "zero_count_histogram": {
            str(int(k)): int(v) for k, v in zip(*np.unique(zeros,
                                                         return_counts=True))
        },
    }


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` for ``simplexclf.cli.main`` and the output
    directory it writes."""

    label: str
    argv: tuple
    out: Path


@dataclass(frozen=True)
class Workload:
    """``largest_array_bytes`` is computed from the input sizes, to be
    read next to the L3 cache size: the ``(n, m, D)`` temporaries of the
    distance kernels, or the transformed data for the Gaussian grid."""

    name: str
    work_unit: str
    work_units: int
    largest_array_bytes: int

    def make_inputs(self, seed, where):
        """Write the inputs for ``seed`` into ``where``; return the file
        map and the recorded input properties."""
        return _MAKERS[self.name](seed, Path(where))

    def invocations(self, files, seed, out):
        return _INVOCATIONS[self.name](files, seed, Path(out))


RDA_ALPHAS = "-1:1:0.05"
RDA_LAMBDAS = "0,0.5,1"
RDA_GAMMAS = "0,0.5,1"
RDA_COMBOS = 41 * 3 * 3
KNN_ALPHAS = "0.05:1:0.05"
KNN_KS = "1:10:1"
KNN_COMBOS = 20 * 10 + 10
REPS = 20
LARGE_N = 1000
BATCH_N = 15_000


def _grid_rda_inputs(seed, where):
    raw, labels = lra_dataset(seed)
    files = {"data": write_dataset(where / "lra.csv", raw, labels,
                                   [f"c{j + 1:02d}" for j in range(4)])}
    props = properties(raw, labels)
    props.update(combinations=RDA_COMBOS, B=REPS, n_test=20)
    return files, props


def _grid_knn_inputs(seed, where):
    raw, labels = glass_like(seed, _STREAM_GLASS_TRAIN)
    files = {"data": write_dataset(where / "glass.csv", raw, labels,
                                   GLASS_PARTS)}
    props = properties(raw, labels)
    props.update(combinations=KNN_COMBOS, B=REPS, n_test=30)
    return files, props


def _distance_inputs(seed, where):
    raw, labels = glass_like(seed, _STREAM_GLASS_LARGE, scaled_sizes(LARGE_N))
    files = {"data": write_dataset(where / "glass_large.csv", raw, labels,
                                   GLASS_PARTS)}
    props = properties(raw, labels)
    props.update(matrices=["esov", "alpha(0.5)"])
    return files, props


def _predict_inputs(seed, where):
    raw, labels = glass_like(seed, _STREAM_GLASS_TRAIN)
    batch_raw, batch_labels = glass_like(seed, _STREAM_GLASS_BATCH,
                                         scaled_sizes(BATCH_N))
    files = {
        "train": write_dataset(where / "glass.csv", raw, labels, GLASS_PARTS),
        "batch": write_dataset(where / "batch.csv", batch_raw, batch_labels,
                               GLASS_PARTS),
    }
    props = {"train": properties(raw, labels),
             "batch": properties(batch_raw, batch_labels),
             "models": ["RDA(1, 0.1, 1)", "3-NN(ESOV)"]}
    return files, props


def _grid_rda_calls(files, seed, out):
    return [Invocation("grid", (
        "grid", "--data", str(files["data"]), "--methods", "RDA",
        f"--alpha-grid={RDA_ALPHAS}", "--lambda-grid", RDA_LAMBDAS,
        "--gamma-grid", RDA_GAMMAS, "--n-test", "20", "--reps", str(REPS),
        "--seed", str(seed), "--out-dir", str(out / "grid")), out / "grid")]


def _grid_knn_calls(files, seed, out):
    return [Invocation("grid", (
        "grid", "--data", str(files["data"]),
        "--methods", "KNN_ALPHA,KNN_ESOV", "--alpha-grid", KNN_ALPHAS,
        "--k-grid", KNN_KS, "--n-test", "30", "--reps", str(REPS),
        "--seed", str(seed), "--out-dir", str(out / "grid")), out / "grid")]


def _distance_calls(files, seed, out):
    data = str(files["data"])
    return [
        Invocation("esov", ("distance", "--data", data, "--metric", "esov",
                            "--out-dir", str(out / "esov")), out / "esov"),
        Invocation("alpha", ("distance", "--data", data, "--metric", "alpha",
                             "--alpha", "0.5", "--out-dir",
                             str(out / "alpha")), out / "alpha"),
    ]


def _predict_calls(files, seed, out):
    train, batch = str(files["train"]), str(files["batch"])
    rda, knn = out / "rda", out / "knn"
    return [
        Invocation("fit-rda", ("fit", "--data", train, "--alpha", "1",
                               "--lambda", "0.1", "--gamma", "1",
                               "--out-dir", str(rda)), rda),
        Invocation("fit-knn", ("fit", "--data", train, "--k", "3",
                               "--metric", "esov", "--out-dir", str(knn)),
                   knn),
        Invocation("predict-rda", ("predict", "--model",
                                   str(rda / "model.json"), "--data", batch,
                                   "--seed", str(seed), "--out-dir",
                                   str(rda)), rda),
        Invocation("predict-knn", ("predict", "--model",
                                   str(knn / "model.json"), "--data", batch,
                                   "--seed", str(seed), "--out-dir",
                                   str(knn)), knn),
    ]


_MAKERS = {
    "grid-rda": _grid_rda_inputs,
    "grid-knn": _grid_knn_inputs,
    "distance-large": _distance_inputs,
    "predict-batch": _predict_inputs,
}
_INVOCATIONS = {
    "grid-rda": _grid_rda_calls,
    "grid-knn": _grid_knn_calls,
    "distance-large": _distance_calls,
    "predict-batch": _predict_calls,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("grid-rda",
                 "evaluations", RDA_COMBOS * REPS, 100 * 3 * 8),
        Workload("grid-knn",
                 "evaluations", KNN_COMBOS * REPS,
                 sum(GLASS_SIZES) ** 2 * len(GLASS_PARTS) * 8),
        Workload("distance-large",
                 "cells", 2 * LARGE_N * LARGE_N,
                 LARGE_N ** 2 * len(GLASS_PARTS) * 8),
        Workload("predict-batch",
                 "rows", 2 * BATCH_N,
                 BATCH_N * sum(GLASS_SIZES) * len(GLASS_PARTS) * 8),
    )
}
