"""Digest every file the benchmark workloads write, so two source trees
can be compared for byte-identical output.

Usage::

    python3 scripts/artifact_digests.py --src DIR --seed N [--workload NAME]
        [--against OTHER]

``DIR`` is a checkout whose ``src/simplexclf`` is run.  The inputs and
command lines of each workload come from this checkout's
``perfbench/workloads.py`` (imported, never written); ``readme-grid`` adds
the README's ``synth`` + ``grid`` example, and ``readme-cli`` the README's
other commands (``summarize``, ``transform`` and its inverse, ``distance``,
``fit``, ``predict`` and ``cv``), with ``--format json`` variants, a
k-NN model beside the README's RDA one, ``predict`` in every format for
both models and on unlabelled rows, ``transform`` at alpha 0 (and its
inverse, read through an explicit ``--manifest``) and at alpha -0.5 as
csv, and ``distance`` at alpha 0 and -0.5 beside the README's alpha 0.5
and with the ESOV metric as csv.  ``knn-grid-large`` runs a
``KNN_ALPHA,KNN_ESOV`` grid on the 1,000-row ``distance-large`` input:
each neighbour search of 1,000 rows goes in 16 row blocks of 65 rows,
here always on two threads, a path no benchmark workload reaches.
``gauss-grid-skips`` runs RDA, LDA and QDA at five alphas, 30
replicates, on 66 rows whose smallest group lies on a hyperplane but for
one row: the lambda = 1 combinations leave at a later replicate, and a
chunk of (alpha, replicate) units ends inside one alpha.  Every
invocation runs in this process through ``simplexclf.cli.main``.  One
``sha256  path`` line is printed per output file, with paths relative to
the scratch directory and that directory's name masked inside the files
too (reports echo their input path), so ``diff`` of two runs shows
exactly which files changed.
With ``--against OTHER`` both checkouts are digested, each in a child
process, and only the lines that differ are printed (``-`` for ``OTHER``,
``+`` for ``DIR``); the exit status is 1 if any do.
"""

import argparse
import contextlib
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
README_GRID = "readme-grid"
README_CLI = "readme-cli"
README = (README_GRID, README_CLI)
KNN_GRID_LARGE = "knn-grid-large"
GAUSS_GRID_SKIPS = "gauss-grid-skips"
EXTRA = (*README, KNN_GRID_LARGE, GAUSS_GRID_SKIPS)
RDA_FLAGS = ("--alpha", "0", "--lambda", "0", "--gamma", "1")


def _readme_calls(name, seed, out):
    """Command lines of a README example: the fixed ``grid`` one, or every
    other command on a dataset drawn with ``seed``."""
    synth = ("synth", "--regime", "lra", "--dim", "4", "--groups", "2",
             "--group-size", "50")
    data = str(out / "synthetic.csv")
    if name == README_GRID:
        return [
            (*synth, "--seed", "7", "--out-dir", str(out)),
            ("grid", "--data", data,
             "--alpha-grid=-1:1:0.05", "--lambda-grid", "0,0.5,1",
             "--gamma-grid", "0,0.5,1", "--k-grid", "1:11:2",
             "--n-test", "20", "--reps", "100",
             "--out-dir", str(out / "grid")),
        ]
    seed = str(seed)
    formats = ("tsv", "json")
    calls = [
        (*synth, "--seed", seed, "--out-dir", str(out)),
        (*synth, "--seed", seed, "--format", "json",
         "--out-dir", str(out / "synth-json")),
        ("summarize", "--data", data, "--out-dir", str(out / "summarize")),
    ]
    for fmt in formats:
        calls += [
            ("transform", "--data", data, "--alpha", "0.5", "--format", fmt,
             "--out-dir", str(out / f"transform-{fmt}")),
            ("distance", "--data", data, "--metric", "alpha", "--alpha",
             "0.5", "--format", fmt,
             "--out-dir", str(out / f"distance-{fmt}")),
        ]
    # the clr (alpha = 0) and negative-power coordinates; csv tables with
    # negative cells, and the ESOV metric
    calls += [
        ("transform", "--data", data, "--alpha", "0",
         "--out-dir", str(out / "transform-alpha0")),
        ("transform", "--data", data, "--alpha=-0.5", "--format", "csv",
         "--out-dir", str(out / "transform-alpha-0.5-csv")),
        ("distance", "--data", data, "--metric", "esov", "--format", "csv",
         "--out-dir", str(out / "distance-esov-csv")),
    ] + [
        ("distance", "--data", data, "--metric", "alpha", f"--alpha={alpha}",
         "--out-dir", str(out / f"distance-alpha{alpha}"))
        for alpha in ("0", "-0.5")
    ]
    calls += [
        ("transform", "--inverse",
         "--data", str(out / "transform-tsv" / "transformed.tsv"),
         "--out-dir", str(out / "inverse")),
        ("transform", "--inverse",
         "--data", str(out / "transform-alpha0" / "transformed.tsv"),
         "--manifest", str(out / "transform-alpha0" / "manifest.json"),
         "--out-dir", str(out / "inverse-alpha0")),
        ("fit", "--data", data, *RDA_FLAGS, "--out-dir", str(out / "fit-rda")),
        ("fit", "--data", data, "--k", "3", "--alpha", "0.5",
         "--out-dir", str(out / "fit-knn")),
        ("cv", "--data", data, *RDA_FLAGS, "--n-test", "20", "--reps", "100",
         "--seed", seed, "--out-dir", str(out / "cv")),
    ]
    calls += [
        ("predict", "--model", str(out / f"fit-{kind}" / "model.json"),
         "--data", data, "--seed", seed, "--format", fmt,
         "--out-dir", str(out / f"predict-{kind}-{fmt}"))
        for kind in ("rda", "knn") for fmt in ("tsv", "csv", "json")
    ]
    # recovered.tsv has no label column: bare compositions
    calls += [
        ("predict", "--model", str(out / "fit-knn" / "model.json"),
         "--data", str(out / "inverse" / "recovered.tsv"), "--seed", seed,
         "--format", fmt, "--out-dir", str(out / f"predict-knn-bare-{fmt}"))
        for fmt in formats
    ]
    return calls


def _hyperplane_group(path):
    """Three groups of five parts; the last two parts of the third group
    are equal but in its first row, so its covariance is singular in
    every split that tests that row."""
    import numpy as np

    rng = np.random.default_rng(17)
    lines = [",".join([f"p{j}" for j in range(5)] + ["label"])]
    for g, size in enumerate((30, 24, 12)):
        raw = np.exp(rng.normal(0.0, 0.3, 5)
                     + 0.4 * rng.standard_normal((size, 5)))
        if g == 2:
            raw[1:, 4] = raw[1:, 3]
        lines += [",".join(repr(float(v)) for v in row) + f",g{g}"
                  for row in raw]
    path.write_text("\n".join(lines) + "\n")
    return path


def _calls(name, workloads, seed, where):
    """Command lines of the benchmark workload ``name`` of ``workloads``,
    or of one of the ``EXTRA`` cases; inputs go under ``where``, outputs
    under ``where/out``."""
    out = where / "out"
    if name in README:
        return _readme_calls(name, seed, out)
    if name == KNN_GRID_LARGE:
        files, _ = workloads["distance-large"].make_inputs(seed, where)
        return [("grid", "--data", str(files["data"]),
                 "--methods", "KNN_ALPHA,KNN_ESOV", "--alpha-grid",
                 "0.25,0.5,1", "--k-grid", "1:10:1", "--n-test", "30",
                 "--reps", "10", "--seed", str(seed),
                 "--out-dir", str(out / "grid"))]
    if name == GAUSS_GRID_SKIPS:
        data = _hyperplane_group(where / "hyperplane.csv")
        return [("grid", "--data", str(data), "--methods", "RDA,LDA,QDA",
                 "--alpha-grid=-1,-0.5,0,0.5,1", "--lambda-grid", "0:1:0.5",
                 "--gamma-grid", "0,0.5,1", "--n-test", "12", "--reps", "30",
                 "--seed", str(seed), "--out-dir", str(out / "grid"))]
    workload = workloads[name]
    files, _ = workload.make_inputs(seed, where)
    return [inv.argv for inv in workload.invocations(files, seed, out)]


def _digest_lines(where):
    """``sha256  path`` of every file under ``where/out``, with ``where``
    masked in the contents."""
    mask = str(where).encode()
    for path in sorted(p for p in (where / "out").rglob("*") if p.is_file()):
        data = path.read_bytes().replace(mask, b"<dir>")
        name = path.relative_to(where.parent)
        yield f"{hashlib.sha256(data).hexdigest()}  {name}"


def _compare(args):
    """Digest ``args.against`` and ``args.src`` in two child processes (one
    process imports one simplexclf) and print the lines that differ."""
    common = ["--seed", str(args.seed)]
    for name in args.workload or ():
        common += ["--workload", name]
    runs = []
    for tree in (args.against, args.src):
        done = subprocess.run(
            [sys.executable, __file__, "--src", str(tree), *common],
            stdout=subprocess.PIPE, text=True)
        if done.returncode:
            return done.returncode
        runs.append(done.stdout.splitlines(keepends=True))
    diff = list(difflib.unified_diff(*runs, str(args.against), str(args.src),
                                     n=0))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


def main(argv=None):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout whose src/simplexclf is run")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workload", action="append",
                        choices=[*WORKLOADS, *EXTRA],
                        help="repeatable; default: all of them")
    parser.add_argument("--against", type=Path,
                        help="second checkout: print only the digest lines "
                             "that differ from it, exit 1 if any do")
    args = parser.parse_args(argv)
    if args.against is not None:
        return _compare(args)
    src = os.path.realpath(args.src / "src")
    sys.path.insert(0, src)
    import simplexclf.cli as cli
    import simplexclf.metrics as metrics

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        parser.error(f"simplexclf imported from {cli.__file__}, not {src}")
    for name in args.workload or [*WORKLOADS, *EXTRA]:
        # two threads for the row blocks whatever the host has
        cpus = 2 if name == KNN_GRID_LARGE else metrics._cpus()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                metrics, "_cpus", lambda: cpus):
            where = Path(tmp) / name
            where.mkdir()
            for call in _calls(name, WORKLOADS, args.seed, where):
                # the commands' own messages go to stderr, digests to stdout
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(list(call))
                if code != 0:
                    print(f"{name}: {call[0]} exited {code}", file=sys.stderr)
                    return 1
            for line in _digest_lines(where):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
