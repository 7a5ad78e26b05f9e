"""Tests of the benchmark itself (about a minute), from the repository
root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import Binding, Tracer  # noqa: E402
from workloads import REPS, WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEED = run.DEFAULT_SEED
GOLDEN = json.loads((HERE / "golden.json").read_text())
COUNT_KEYS = [name for name, unit in run.per_layer_names()
              if name.endswith((".calls", ".cells", ".rows", ".tie_draws",
                                ".points", ".bytes", ".ill_conditioned"))]


def _inputs(name, seed, where):
    where.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].make_inputs(seed, where)[0]


def _one_invocation(name, seed, tmp, trace, out="out"):
    files = _inputs(name, seed, tmp / "inputs")
    inv = WORKLOADS[name].invocations(files, seed, tmp / out)[0]
    got = run.run_invocation(inv, trace, dict(os.environ),
                             tmp / f"{out}.record.json")
    assert not isinstance(got, str), got
    return files, inv, got


@pytest.fixture(scope="module")
def grid_rda(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid_rda")
    return _one_invocation("grid-rda", SEED, tmp, trace=False)


def test_untampered_output_passes(grid_rda):
    files, inv, _ = grid_rda
    assert Checker(files, SEED, GOLDEN["grid-rda"]).check(inv) == []


def test_tampered_panel_fails_the_recorded_digest(grid_rda):
    files, inv, _ = grid_rda
    panel = inv.out / "accuracy_by_alpha.tsv"
    original = panel.read_bytes()
    try:
        panel.write_bytes(original + b"\n")
        problems = Checker(files, SEED, GOLDEN["grid-rda"]).check(inv)
    finally:
        panel.write_bytes(original)
    assert any("digest" in p for p in problems)


def test_tampered_accuracy_fails_the_self_check_at_any_seed(grid_rda):
    files, inv, _ = grid_rda
    report = inv.out / "report.json"
    original = report.read_text()
    doc = json.loads(original)
    for entry in doc["search"]["results"]:
        entry["q"][0] = 1.0 - entry["q"][0]
    try:
        report.write_text(json.dumps(doc))
        problems = Checker(files, SEED + 1).check(inv)
    finally:
        report.write_text(original)
    assert any("solo cv_evaluate" in p for p in problems)


def test_nonzero_exit_is_a_failure(tmp_path):
    inv = WORKLOADS["grid-rda"].invocations(
        {"data": tmp_path / "missing.csv"}, SEED, tmp_path / "out")[0]
    got = run.run_invocation(inv, False, dict(os.environ),
                             tmp_path / "record.json")
    assert isinstance(got, str) and got.startswith("grid: exit ")


def test_peak_rss_is_the_child_s_own(tmp_path):
    # ru_maxrss would carry this process's peak into the child
    ballast = np.ones(50 << 20)  # 400 MB, every page touched
    _, _, got = _one_invocation("grid-rda", SEED, tmp_path, trace=False)
    assert got["maxrss_mb"] < 300
    del ballast


def test_host_scale_applies_to_times_only():
    p = run.Pass()
    p.records = [{"setup_s": 1.0, "wall_s": 4.0, "cpu_s": 6.0,
                  "maxrss_mb": 70.0, "host_scale": 0.5}]
    assert p.end_to_end(100) == {"setup_s": 0.5, "wall_s": 2.0,
                                 "cpu_s": 3.0, "peak_rss_mb": 70.0,
                                 "work_per_s": 50.0}
    assert p.end_to_end(100, scaled=False)["wall_s"] == 4.0


def test_traced_outputs_equal_untraced(grid_rda, tmp_path):
    files, plain, _ = grid_rda
    traced = WORKLOADS["grid-rda"].invocations(files, SEED,
                                               tmp_path / "traced")[0]
    got = run.run_invocation(traced, True, dict(os.environ),
                             tmp_path / "record.json")
    assert not isinstance(got, str), got
    assert got["trace"]["absent"] == []
    names = sorted(p.name for p in plain.out.iterdir())
    assert names == sorted(p.name for p in traced.out.iterdir())
    for name in names:
        assert (plain.out / name).read_bytes() == \
            (traced.out / name).read_bytes(), name
    assert Checker(files, SEED, GOLDEN["grid-rda"]).check(traced) == []


def test_span_self_times_add_up_to_the_root(grid_rda, tmp_path):
    files, _, _ = grid_rda
    inv = WORKLOADS["grid-rda"].invocations(files, SEED, tmp_path)[0]
    got = run.run_invocation(inv, True, dict(os.environ),
                             tmp_path / "record.json")
    names = got["trace"]["names"]
    self_sum = sum(s["self_s"] for s in names.values())
    assert self_sum == pytest.approx(names["cli.main"]["s"], rel=1e-9)
    assert got["wall_s"] >= names["cli.main"]["s"]


def test_counts_repeat_across_traced_runs(tmp_path):
    name = "grid-knn"
    files = _inputs(name, SEED, tmp_path / "inputs")
    checker = Checker(files, SEED, GOLDEN[name])
    passes = [run.run_pass(WORKLOADS[name], files, SEED, checker, "traced",
                           tmp_path / "out") for _ in range(2)]
    assert all(p.ok for p in passes), [p.problems for p in passes]
    first, second = (run.layer_metrics([p], [], []) for p in passes)
    counts = {k: first[k] for k in COUNT_KEYS}
    assert counts == {k: second[k] for k in COUNT_KEYS}
    assert counts["classifiers.vote.calls"] == 210 * REPS * 30
    assert counts["classifiers.vote.tie_draws"] > 0


def test_missing_binding_is_reported_absent():
    module = types.SimpleNamespace(present=lambda: 1)
    tracer = Tracer()
    tracer.install({"m": module}, bindings=(
        Binding("m", "present", "m.present"),
        Binding("m", "gone", "m.gone"),
        Binding("other", "x", "other.x"),
    ))
    assert tracer.absent == ["m.gone", "other.x"]
    tracer.open("cli.main")
    assert module.present() == 1


def test_benchmark_json_lists_what_the_runner_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
