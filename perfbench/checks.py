"""Output checks for every benchmark invocation.

Two kinds of check run after each invocation, outside the timed region:

* At the default seed, a fixed projection of the outputs is hashed and
  compared with the digest recorded in ``golden.json``.  The projection
  leaves out the report envelope (paths, version, schema version), so a
  deliberate schema bump alone is not a failure.
* At every seed, self-checks recompute a seeded sample of the results
  through the program's solo or scalar routes, which must agree exactly:
  grid combinations through ``cv_evaluate``, distance cells through
  ``esov_distance``/``alpha_distance``, predicted rows through
  ``rda_predict``/``knn_predict`` on one row.

Each check returns a list of problems; an empty list means correct.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

GRID_SAMPLES = 3
DISTANCE_SAMPLES = 100
PREDICT_SAMPLES = 40


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\x1e")
    return h.hexdigest()


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def projection_digest(kind, out):
    """Digest of the envelope-free projection of one invocation's
    outputs, or ``None`` for invocations with nothing to project."""
    out = Path(out)
    if kind == "grid":
        search = json.loads((out / "report.json").read_text())["search"]
        panels = sorted(out.glob("*.tsv"))
        return _sha(_canonical(search),
                    *[p.name.encode() + b"\0" + p.read_bytes()
                      for p in panels])
    if kind == "distance":
        return _sha((out / "distances.tsv").read_bytes())
    if kind == "predict":
        accuracy = json.loads((out / "report.json").read_text())["accuracy"]
        return _sha((out / "predictions.tsv").read_bytes(), repr(accuracy))
    return None


class Checker:
    """Checks the outputs of one workload's invocations at one seed."""

    def __init__(self, files, seed, golden=None):
        from simplexclf.dataio import DatasetSchema, load_dataset

        self.seed = int(seed)
        self.golden = golden or {}
        self.digests = {}
        self.rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(99,)))
        schema = DatasetSchema(label_col="label")
        self.datasets = {key: load_dataset(path, schema)
                         for key, path in files.items()}

    def check(self, inv):
        """Problems with the outputs of invocation ``inv``."""
        kind = inv.argv[0]
        try:
            problems = getattr(self, "_check_" + kind)(inv)
            got = self.digests[inv.label] = projection_digest(kind, inv.out)
            if inv.label in self.golden:
                if got != self.golden[inv.label]:
                    problems.append(f"{inv.label}: projection digest {got} "
                                    f"!= recorded {self.golden[inv.label]}")
        except Exception as exc:  # a crash in a check is a failed output
            problems = [f"{inv.label}: check raised {exc!r}"]
        return problems

    @staticmethod
    def _flag(argv, flag):
        return argv[argv.index(flag) + 1]

    def _dataset_for(self, argv):
        path = self._flag(argv, "--data")
        for ds in self.datasets.values():
            if ds.provenance["source"] == path:
                return ds
        raise KeyError(path)

    # -- grid ----------------------------------------------------------
    def _check_grid(self, inv):
        from simplexclf.evaluation import CvConfig, MethodSpec, cv_evaluate

        doc = json.loads((inv.out / "report.json").read_text())
        search = doc["search"]
        problems = []
        results = search["results"]
        if not results:
            return [f"{inv.label}: no results"]
        if len(results) + len(search["skipped"]) != search["n_combinations"]:
            problems.append(f"{inv.label}: results and skips do not add up "
                            f"to n_combinations")
        if not list(inv.out.glob("*.tsv")):
            problems.append(f"{inv.label}: no TSV panels")
        dataset = self._dataset_for(inv.argv)
        cv = CvConfig(n_test=search["n_test"], B=search["B"],
                      seed=search["seed"])
        for i in sorted(self.rng.choice(len(results), size=min(
                GRID_SAMPLES, len(results)), replace=False)):
            entry = results[int(i)]
            method = MethodSpec(**entry["method"])
            solo = cv_evaluate(dataset, method, cv)
            if [float(v) for v in solo.q] != entry["q"]:
                problems.append(f"{inv.label}: {entry['display']} q differs "
                                f"from a solo cv_evaluate")
        return problems

    # -- distance ------------------------------------------------------
    def _check_distance(self, inv):
        from simplexclf.metrics import alpha_distance, esov_distance

        rows = self._dataset_for(inv.argv).rows
        n = rows.shape[0]
        lines = (inv.out / "distances.tsv").read_text().splitlines()
        if len(lines) != n:
            return [f"{inv.label}: {len(lines)} rows, expected {n}"]
        if self._flag(inv.argv, "--metric") == "esov":
            def scalar(i, j):
                return esov_distance(rows[i], rows[j])
        else:
            alpha = float(self._flag(inv.argv, "--alpha"))

            def scalar(i, j):
                return alpha_distance(rows[i], rows[j], alpha)
        problems = []
        cells = self.rng.integers(n, size=(DISTANCE_SAMPLES, 2))
        cells[0] = cells[0, 0]  # one diagonal cell
        for i, j in cells:
            row = lines[i].split("\t")
            if len(row) != n:
                return [f"{inv.label}: row {i} has {len(row)} cells"]
            got = float(row[j])
            if got != scalar(i, j) or got != float(lines[j].split("\t")[i]):
                problems.append(f"{inv.label}: cell ({i}, {j}) = {got!r} "
                                f"differs from the scalar distance")
        return problems

    # -- fit and predict -----------------------------------------------
    def _check_fit(self, inv):
        model = json.loads((inv.out / "model.json").read_text())["model"]
        return [] if model.get("kind") in ("gauss", "knn") else [
            f"{inv.label}: model.json has no model"]

    def _check_predict(self, inv):
        from simplexclf.classifiers import fit_knn, fit_rda, knn_predict
        from simplexclf.classifiers import rda_predict
        from simplexclf.metrics import MetricSpec

        batch = self._dataset_for(inv.argv)
        report = json.loads((inv.out / "report.json").read_text())
        lines = (inv.out / "predictions.tsv").read_text().splitlines()
        table = [line.split("\t") for line in lines[1:]]
        if len(table) != batch.n:
            return [f"{inv.label}: {len(table)} predictions for "
                    f"{batch.n} rows"]
        predicted = np.array([r[1] for r in table])
        actual = np.array([r[2] for r in table])
        correct = np.array([r[3] == "1" for r in table])
        problems = []
        if not (actual == batch.labels).all():
            problems.append(f"{inv.label}: actual labels differ from input")
        if not ((predicted == actual) == correct).all():
            problems.append(f"{inv.label}: correct column inconsistent")
        if report["accuracy"] != float(correct.mean()):
            problems.append(f"{inv.label}: accuracy {report['accuracy']} "
                            f"!= {float(correct.mean())}")
        model = json.loads(Path(self._flag(inv.argv, "--model"))
                           .read_text())["model"]
        train = self.datasets["train"]
        seed = int(self._flag(inv.argv, "--seed"))
        if model["kind"] == "gauss":
            fitted = fit_rda(train, model["alpha"], model["lam"],
                             model["gamma"], prior=model["prior"])

            def one(i):
                return rda_predict(fitted, batch.rows[i])
        else:
            metric = model["metric"]
            fitted = fit_knn(train, model["k"],
                             MetricSpec(metric["kind"], metric["alpha"]))

            def one(i):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(int(i),)))
                return knn_predict(fitted, batch.rows[i], rng)
        for i in self.rng.choice(batch.n, size=PREDICT_SAMPLES,
                                 replace=False):
            if one(i) != predicted[i]:
                problems.append(f"{inv.label}: row {i} predicted "
                                f"{predicted[i]!r}, one-row route {one(i)!r}")
        return problems
