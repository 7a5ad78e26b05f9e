"""Benchmark of the ``simplex-clf`` command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-rda --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Each workload is a fixed *pass* of CLI invocations on inputs generated
from ``--seed`` (see ``workloads.py``).  Every invocation runs in a fresh
child interpreter, one after another from this single driver: a closed
loop with one client.  Thread settings are inherited unchanged.  Passes
repeat until ``--seconds`` is spent and timings are reported as medians
over passes, scaled to a nominal host speed: while each child runs, a
probe thread in this process times a fixed small computation every 0.1 s
(``reference.py``), and the child's times are multiplied by
``REFERENCE_S`` over the probe's mean time, so that a run made while the
shared host is slow is not read as a slower program.  The unscaled
medians are printed beside them.  Every output is checked
(``checks.py``); a non-zero exit or a failed check counts as a failed
invocation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, adds one pass with
``OPENBLAS_NUM_THREADS=1`` as a single-threaded reference, and reports
the per-layer metrics measured by ``tracer.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from reference import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "units/s"),
)

# Spans reported as call count and busy time, spans reported as busy time
# only, and counters recorded by the wrappers in tracer.py.
LAYER_TIMES = (
    "classifiers.assemble", "classifiers.score",
    "classifiers.fit_gaussian_groups", "classifiers.vote",
    "evaluation.aggregate", "evaluation.split",
    "metrics.pairwise_distances", "core.alpha_transform",
    "dataio.load_dataset",
)
LAYER_BUSY = (
    "evaluation.grid_search", "classifiers.fit_rda",
    "classifiers.rda_predict", "classifiers.fit_knn",
    "classifiers.knn_predict_batch", "cli.write_table", "cli.write_report",
    "cli.load_model",
)
LAYER_COUNTS = (
    ("classifiers.assemble.ill_conditioned", "count"),
    ("classifiers.score.points", "count"),
    ("classifiers.vote.tie_draws", "count"),
    ("metrics.pairwise_distances.cells", "count"),
    ("metrics.pairwise_distances.rss_growth_mb", "MB"),
    ("core.alpha_transform.rows", "count"),
    ("classifiers.fit_rda.rows", "count"),
    ("classifiers.rda_predict.rows", "count"),
    ("classifiers.fit_knn.rows", "count"),
    ("classifiers.knn_predict_batch.rows", "count"),
    ("dataio.load_dataset.rows", "count"),
    ("dataio.load_dataset.bytes", "B"),
    ("cli.write_table.bytes", "B"),
    ("cli.write_report.bytes", "B"),
)
# Self time (duration minus child spans) of the spans that have children;
# every other span is a leaf whose self time is its busy time.
SELF_TIMES = (
    ("cli.self_s", "cli.main"),
    ("evaluation.self_s", "evaluation.grid_search"),
    ("classifiers.fit_rda.self_s", "classifiers.fit_rda"),
    ("classifiers.rda_predict.self_s", "classifiers.rda_predict"),
    ("classifiers.knn_predict_batch.self_s",
     "classifiers.knn_predict_batch"),
)


def per_layer_names():
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out = []
    for name in LAYER_TIMES:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out += [(f"{name}.s", "s") for name in LAYER_BUSY]
    out += list(LAYER_COUNTS)
    out += [("classifiers.vote.tie_share", "ratio")]
    out += [(name, "s") for name, _ in SELF_TIMES]
    out += [
        ("trace.wall_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.absent_bindings", "count"),
        ("diag.single_thread.wall_s", "s"),
        ("diag.single_thread.cpu_s", "s"),
    ]
    return out


# ---------------------------------------------------------------------------
# running invocations


def run_invocation(inv, trace, env, record_path):
    """One child process; returns its measurement record, or a string
    describing why it failed."""
    inv.out.mkdir(parents=True, exist_ok=True)
    spec = {"src": str(SRC), "argv": list(inv.argv), "trace": trace,
            "result": str(record_path)}
    try:
        with SpeedProbe() as probe:
            spawned = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"{inv.label}: timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"{inv.label}: exit {proc.returncode} {tail[0]}"
    record = json.loads(record_path.read_text())
    record["setup_s"] = record["import_done"] - spawned
    record["probe_s"] = [statistics.fmean(x) for x in zip(*probe.samples)]
    record["host_scale"] = REFERENCE_S / sum(record["probe_s"])
    record["label"] = inv.label
    return record


class Pass:
    """The totals of one pass over a workload's invocations."""

    def __init__(self):
        self.records = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    @property
    def ok(self):
        return not self.problems

    def total(self, key, scaled=False):
        return sum(r[key] * (r["host_scale"] if scaled else 1.0)
                   for r in self.records)

    def end_to_end(self, work_units, scaled=True):
        wall = self.total("wall_s", scaled)
        return {
            "setup_s": self.total("setup_s", scaled),
            "wall_s": wall,
            "cpu_s": self.total("cpu_s", scaled),
            "peak_rss_mb": max(r["maxrss_mb"] for r in self.records),
            "work_per_s": work_units / wall,
        }


def run_pass(workload, files, seed, checker, kind, where):
    env = dict(os.environ)
    if kind == "single_thread":
        env["OPENBLAS_NUM_THREADS"] = "1"
    p = Pass()
    if where.exists():
        shutil.rmtree(where)
    for n, inv in enumerate(workload.invocations(files, seed, where)):
        p.attempted += 1
        got = run_invocation(inv, kind == "traced", env,
                             where / f"record{n}.json")
        problems = [got] if isinstance(got, str) else checker.check(inv)
        if problems:
            p.problems += problems
            p.failed += 1
            continue
        p.records.append(got)
    shutil.rmtree(where)
    return p


# ---------------------------------------------------------------------------
# statistics and reports


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(passes, work_units):
    """Per end-to-end metric: the median, quartiles and sample count over
    the passes that succeeded, scaled to the nominal host speed, and the
    unscaled median."""
    passes = [p for p in passes if p.ok]
    values = [p.end_to_end(work_units) for p in passes]
    unscaled = [p.end_to_end(work_units, scaled=False) for p in passes]
    out = {}
    for name, unit in END_TO_END:
        xs = [v[name] for v in values]
        raw = [v[name] for v in unscaled]
        q1, q3 = quartiles(xs)
        out[name] = {"value": median(xs), "unit": unit, "q1": q1, "q3": q3,
                     "n": len(xs), "unscaled": median(raw), "samples": xs}
    return out


def layer_metrics(traced, plain, single):
    """Per-layer metrics from the traced passes of one run.  Times and
    memory are medians over traced passes; counts come from the first
    traced pass (they repeat exactly)."""
    good = [p for p in traced if p.ok]
    if not good:
        return {name: 0 for name, _ in per_layer_names()}

    def per_pass(p):
        names, counters, absent = {}, {}, set()
        self_sum = 0.0
        for rec in p.records:
            tr = rec["trace"]
            absent.update(tr["absent"])
            for name, s in tr["names"].items():
                slot = names.setdefault(name, {"calls": 0, "s": 0.0,
                                               "self_s": 0.0})
                for k in slot:
                    slot[k] += s[k]
                self_sum += s["self_s"]
            for key, value in tr["counters"].items():
                if key.endswith("rss_growth_mb"):
                    counters[key] = max(counters.get(key, 0.0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        m = {}
        for name in LAYER_TIMES:
            slot = names.get(name, {"calls": 0, "s": 0.0})
            m[f"{name}.calls"] = slot["calls"]
            m[f"{name}.s"] = slot["s"]
        for name in LAYER_BUSY:
            m[f"{name}.s"] = names.get(name, {"s": 0.0})["s"]
        for name, _ in LAYER_COUNTS:
            m[name] = counters.get(name, 0)
        votes = m["classifiers.vote.calls"]
        m["classifiers.vote.tie_share"] = (
            m["classifiers.vote.tie_draws"] / votes if votes else 0.0)
        for key, name in SELF_TIMES:
            m[key] = names.get(name, {"self_s": 0.0})["self_s"]
        m["trace.wall_s"] = p.total("wall_s")
        m["trace.self_sum_s"] = self_sum
        m["trace.absent_bindings"] = len(absent)
        return m

    units = dict(per_layer_names())
    measured = {key for key, unit in units.items() if unit in ("s", "MB")}
    rows = [per_pass(p) for p in good]
    out = dict(rows[0])
    for key in measured & set(out):
        out[key] = median([r[key] for r in rows])
    # both sides scaled to the nominal host speed, so that drift between
    # the traced and the untraced passes does not read as overhead
    out["trace.overhead_s"] = (
        median([p.total("wall_s", scaled=True) for p in good])
        - median([p.total("wall_s", scaled=True) for p in plain if p.ok]))
    st = [p for p in single if p.ok]
    out["diag.single_thread.wall_s"] = median([p.total("wall_s") for p in st])
    out["diag.single_thread.cpu_s"] = median([p.total("cpu_s") for p in st])
    for key, first in rows[0].items():
        if key not in measured and any(r[key] != first for r in rows[1:]):
            print(f"warning: count {key} differs between traced passes",
                  file=sys.stderr)
    return {name: out[name] for name, _ in per_layer_names()}


def environment():
    """Where the numbers were taken."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}"
    except (KeyError, TypeError, ValueError):
        pass
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.strip(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "SIMPLEX_CLF_THREADS")},
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
        "commit": git_commit(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    where = WORK / name
    if where.exists():
        shutil.rmtree(where)
    inputs = where / "inputs"
    inputs.mkdir(parents=True)
    files, props = workload.make_inputs(seed, inputs)

    golden = {}
    if seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text()).get(name, {})
    checker = Checker(files, seed, golden)

    plain, traced, single = [], [], []
    cycle = ("plain", "traced") if trace else ("plain",)
    start = time.monotonic()
    durations = []
    while True:
        began = time.monotonic()
        for kind in cycle:
            p = run_pass(workload, files, seed, checker, kind,
                         where / "out")
            (plain if kind == "plain" else traced).append(p)
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + median(durations) > seconds:
            break
    if trace:
        single.append(run_pass(workload, files, seed, checker,
                               "single_thread", where / "out"))
    shutil.rmtree(inputs)

    passes = plain + traced + single
    attempted = sum(p.attempted for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    failed = sum(p.failed for p in passes)
    e2e = summarize(plain, workload.work_units)
    scales = [r["host_scale"] for p in plain if p.ok for r in p.records]
    summary = {
        "workload": name, "seed": seed, "trace": trace,
        "work": f"{workload.work_units} {workload.work_unit}",
        "passes": len(plain), "traced_passes": len(traced),
        "seconds": round(time.monotonic() - start, 3),
        "inputs": props,
        "largest_array_mb": workload.largest_array_bytes / 2**20,
        "host_scale": median(scales),
        "invocations": [[{k: r[k] for k in (
            "setup_s", "wall_s", "cpu_s", "probe_s", "host_scale")}
            for r in p.records] for p in plain if p.ok],
        "end_to_end": e2e,
        "fail_share": failed / attempted,
        "problems": problems[:20],
    }
    if trace:
        summary["per_layer"] = layer_metrics(traced, plain, single)
        props["tie_draw_share"] = summary["per_layer"][
            "classifiers.vote.tie_share"]
        spans = [{"invocation": r["label"], "spans": r["trace"]["spans"]}
                 for p in traced[:1] if p.ok for r in p.records]
        (WORK / f"{name}.spans.json").write_text(json.dumps(spans))
    (WORK / f"{name}.last.json").write_text(json.dumps(summary, indent=1))
    return summary, attempted, failed


def print_summary(summary):
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"trace {summary['trace']}  {summary['passes']} passes  "
          f"({summary['work']} per pass)")
    print(f"   host scale   {summary['host_scale']:.4f}")
    for name, m in summary["end_to_end"].items():
        print(f"   {name:<12} {m['value']:>14.6g} {m['unit']:<8} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}  "
              f"unscaled {m['unscaled']:.6g}")
    print(f"   {'fail_share':<12} {summary['fail_share']:>14.6g} ratio")
    units = dict(per_layer_names())
    for name, value in summary.get("per_layer", {}).items():
        print(f"   {name:<44} {value:>14.6g} {units[name]}")
    for msg in summary["problems"]:
        print(f"   FAILED {msg}")
    print("inputs " + json.dumps(summary["inputs"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simplexclf" / "cli.py").is_file():
        print(f"error: no simplexclf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment(), sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        summary, a, f = run_workload(name, args.seed, args.seconds,
                                     args.trace)
        attempted += a
        failed += f
        print_summary(summary)
        prefix = f"{name}." if len(names) > 1 else ""
        if args.trace:
            units = dict(per_layer_names())
            for key, value in summary["per_layer"].items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
        else:
            for key, m in summary["end_to_end"].items():
                metrics[prefix + key] = {"value": m["value"],
                                         "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
