"""Data tables written in row blocks: bytes, atomicity and bounded memory."""

import importlib.util
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from simplexclf import cli, dataio, metrics
from simplexclf.cli import _atomic, _cell, _write_table, main
from simplexclf.core import alpha_transform, inverse_alpha_transform
from simplexclf.dataio import (
    DatasetSchema, _fixed_text, _float_lines, load_dataset, read_table)
from simplexclf.metrics import MetricSpec, pairwise_distances

from conftest import child_env, random_compositions

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072009e-308, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, 1e-4, 9.99e-5, -1e14)
# the values the float-table kernel writes (dataio._fixed_text)
WINDOW = st.floats(1e-4, 1e14, exclude_max=True).flatmap(
    lambda v: st.sampled_from((v, -v)))


def whole_table(header, rows, sep):
    """The whole-table join the writer used before it streamed blocks."""
    lines = []
    if header:
        lines.append(sep.join(str(h) for h in header))
    for row in rows:
        lines.append(sep.join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def split_rows(matrix, cuts):
    bounds = [0, *sorted(cuts), len(matrix)]
    return [matrix[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def blocked_tables(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    cells = draw(st.sampled_from((
        st.one_of(WINDOW, st.sampled_from((0.0, -0.0))),
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), WINDOW))))
    matrix = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)),
                      dtype=float).reshape(n, m)
    split = draw(st.sampled_from(("whole", "rows", "random")))
    if split == "whole":
        cuts = []
    elif split == "rows":
        cuts = list(range(1, n))
    else:
        cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else []
    return matrix, split_rows(matrix, cuts)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=blocked_tables(), fmt=st.sampled_from(("tsv", "csv")),
       headed=st.booleans(), text_cells=st.sampled_from((1, 4, 8192)))
def test_float_blocks_write_the_whole_table_join(tmp_path, table, fmt,
                                                 headed, text_cells):
    matrix, blocks = table
    header = [f"z{j}" for j in range(matrix.shape[1])] if headed else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_TEXT_CELLS", text_cells)
        path = _write_table(tmp_path / f"t.{fmt}", header, iter(blocks),
                            fmt)
    sep = cli._DELIMITERS[fmt]
    assert path.read_bytes() == whole_table(header, matrix, sep).encode()


def test_mixed_rows_keep_the_cell_format(tmp_path):
    rows = [(0, "coast", None, 1), (1, np.str_("off"), np.float64(-0.0), 0),
            (2, "coast", 0.1, np.int64(1))]
    path = _write_table(tmp_path / "p.tsv", ("row", "label", "q", "ok"),
                        [rows[:1], rows[1:]], "tsv")
    assert path.read_text() == whole_table(("row", "label", "q", "ok"),
                                           rows, "\t")
    assert path.read_text().splitlines()[1:3] == ["0\tcoast\tnan\t1",
                                                  "1\toff\t-0\t0"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                               min_size=1), min_size=1, max_size=8),
       fmt=st.sampled_from(("tsv", "csv", "json")), data=st.data())
def test_column_blocks_write_the_rows_they_hold(tmp_path, labels, fmt, data):
    # the predictions table: row numbers, labels and 0/1 flags
    n = len(labels)
    columns = (range(n), labels,
               data.draw(st.permutations(labels)),
               data.draw(st.lists(st.integers(0, 1), min_size=n,
                                  max_size=n)))
    header = ("row", "predicted", "actual", "correct")
    rows = [list(row) for row in zip(*columns)]
    got = _write_table(tmp_path / f"c.{fmt}", header, [columns], fmt)
    want = _write_table(tmp_path / f"r.{fmt}", header, [rows], fmt)
    assert got.read_bytes() == want.read_bytes()
    if fmt != "json":
        sep = cli._DELIMITERS[fmt]
        assert got.read_bytes() == whole_table(header, rows, sep).encode()


def failing_blocks():
    yield np.ones((2, 3))
    raise RuntimeError("block two failed")


@pytest.mark.parametrize("fmt", ["tsv", "csv", "json"])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_stream_leaves_no_part_and_the_old_file(tmp_path, fmt,
                                                       existing):
    path = tmp_path / f"distances.{fmt}"
    if existing:
        path.write_text("previous run\n")
    with pytest.raises(RuntimeError, match="block two failed"):
        _write_table(path, None, failing_blocks(), fmt)
    assert [p.name for p in tmp_path.iterdir()] == (
        [path.name] if existing else [])
    if existing:
        assert path.read_text() == "previous run\n"


def test_atomic_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with _atomic(path) as tmp:
        tmp.write_text("first\n")
        assert not path.exists()
    assert path.read_text() == "first\n"
    with pytest.raises(KeyError):
        with _atomic(path) as tmp:
            tmp.write_text("second\n")
            raise KeyError("late failure")
    assert path.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def write_data(path, n, seed=0):
    rng = np.random.default_rng(seed)
    raw = random_compositions(rng, n, 9, zeros=True)
    lines = [",".join([f"p{j}" for j in range(9)] + ["label"])]
    lines += [",".join([repr(v) for v in row] + [f"g{i % 3}"])
              for i, row in enumerate(raw.tolist())]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("block_cells", [None, 1])
def test_distance_computes_consecutive_row_blocks(tmp_path, monkeypatch,
                                                  block_cells):
    n = 300
    data = write_data(tmp_path / "d.csv", n)
    if block_cells is not None:
        monkeypatch.setattr(metrics, "_BLOCK_CELLS", block_cells)
    step = max(1, metrics._BLOCK_CELLS // n)
    rows = load_dataset(data, DatasetSchema("label")).rows
    lefts = []
    distances = cli._distances

    def spy(a, b, metric):
        lefts.append(np.array(a))
        assert np.array_equal(b, rows)
        return distances(a, b, metric)

    monkeypatch.setattr(cli, "_distances", spy)
    out = tmp_path / "out"
    assert main(["distance", "--data", str(data), "--metric", "esov",
                 "--out-dir", str(out)]) == 0
    sizes = [len(a) for a in lefts]
    assert sizes == [step] * (n // step) + ([n % step] if n % step else [])
    assert len(lefts) > 1
    assert np.array_equal(np.concatenate(lefts), rows)
    full = pairwise_distances(rows, rows, MetricSpec.esov())
    assert (out / "distances.tsv").read_text() == whole_table(None, full,
                                                              "\t")


def test_distance_names_zero_rows_of_the_whole_file(tmp_path, capsys):
    # rows 5, 250 and 299 fall in the first and second row blocks
    n = 300
    raw = random_compositions(np.random.default_rng(1), n, 4)
    raw[[5, 250, 299], 1] = 0.0
    lines = ["p0,p1,p2,p3,label"] + [
        ",".join([repr(v) for v in row] + [f"g{i % 3}"])
        for i, row in enumerate(raw.tolist())]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n")
    assert 5 < max(1, metrics._BLOCK_CELLS // n) <= 250
    out = tmp_path / "out"
    assert main(["distance", "--data", str(data), "--metric", "alpha",
                 "--alpha", "0", "--out-dir", str(out)]) == 2
    assert "the data has zero parts in rows [5, 250, 299]" in \
        capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


REPORT_VMHWM = """\
import sys
from simplexclf.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")))
"""


def distance_vmhwm_kb(data, out):
    # the child's own high-water mark: VmHWM starts afresh at exec, unlike
    # ru_maxrss, which a child inherits from the process that forked it
    child = subprocess.run(
        [sys.executable, "-c", REPORT_VMHWM, "distance", "--data", str(data),
         "--metric", "esov", "--out-dir", str(out)],
        env=child_env(), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return int(child.stdout.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_distance_peak_memory_does_not_grow_with_n(tmp_path):
    small = distance_vmhwm_kb(write_data(tmp_path / "a.csv", 300),
                              tmp_path / "a")
    large = distance_vmhwm_kb(write_data(tmp_path / "b.csv", 1000),
                              tmp_path / "b")
    # writing the table whole grows by about 50 MB from n=300 to n=1000
    assert large - small < 15 * 1024, (small, large)


BARE = DatasetSchema(None)


def read_back(path, header=None):
    """The values of a written table through the one table reader."""
    return read_table(path, BARE, header, require_label=False,
                      parts=False).values


@st.composite
def labelled_files(draw):
    n = draw(st.integers(2, 8))
    D = draw(st.integers(2, 5))
    parts = st.floats(1e-3, 1e3, allow_subnormal=False)
    raw = draw(st.lists(parts, min_size=n * D, max_size=n * D))
    lines = [",".join([f"p{j}" for j in range(D)] + ["label"])]
    lines += [",".join([repr(v) for v in raw[i * D:(i + 1) * D]]
                       + ["ab"[i % 2]]) for i in range(n)]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=labelled_files(), fmt=st.sampled_from(("tsv", "csv")),
       alpha=st.sampled_from((-1.0, 0.0, 0.25, 0.5, 1.0)))
def test_written_tables_read_back_bit_for_bit(tmp_path, text, fmt, alpha):
    data = tmp_path / "d.csv"
    data.write_text(text)
    rows = load_dataset(data, DatasetSchema("label")).rows
    n, D = rows.shape
    fwd, back, dist = (tmp_path / name for name in ("fwd", "back", "dist"))
    assert main(["transform", "--data", str(data), "--alpha", repr(alpha),
                 "--format", fmt, "--out-dir", str(fwd)]) == 0
    z = read_back(fwd / f"transformed.{fmt}")
    assert z.tobytes() == alpha_transform(rows, alpha).tobytes()
    assert main(["transform", "--inverse", "--data",
                 str(fwd / f"transformed.{fmt}"), "--format", fmt,
                 "--out-dir", str(back)]) == 0
    assert read_back(back / f"recovered.{fmt}").tobytes() == \
        inverse_alpha_transform(z, alpha, D).tobytes()
    assert main(["distance", "--data", str(data), "--metric", "esov",
                 "--format", fmt, "--out-dir", str(dist)]) == 0
    distances = read_back(dist / f"distances.{fmt}",
                          [f"r{i}" for i in range(n)])
    assert distances.tobytes() == \
        pairwise_distances(rows, rows, MetricSpec.esov()).tobytes()


# -- the float-table kernel against the %-template ---------------------------


def percent_text(values, sep):
    """The %-template: ``'%.17g' % x`` for each cell, the oracle of
    ``_float_lines``."""
    rows, width = values.shape
    line = sep.join(["%.17g"] * width) + "\n"
    return (line * rows) % tuple(values.ravel().tolist())


def kernel_writes(values, sep):
    """The kernel takes ``values`` whole and writes the oracle's bytes."""
    text = _fixed_text(values, sep)
    assert text is not None
    assert text == percent_text(values, sep)


def in_window(values):
    a = np.abs(values)
    return values[(a == 0) | ((a >= 1e-4) & (a < 1e14))]


def as_rows(values, width=7):
    values = np.asarray(values, dtype=float)
    return values[: values.size // width * width].reshape(-1, width)


def test_kernel_covers_every_binade_of_the_window():
    rng = np.random.default_rng(19)
    lo, hi = np.frexp(1e-4)[1] - 1, np.frexp(1e14)[1]
    mantissas = rng.integers(2 ** 52, 2 ** 53, (hi - lo + 1, 400))
    values = np.ldexp(mantissas.astype(float),
                      np.arange(lo, hi + 1)[:, np.newaxis] - 53)
    values[:, ::2] *= -1
    values = in_window(values.ravel())
    assert values.size > 0.9 * mantissas.size
    for sep in ("\t", ","):
        kernel_writes(as_rows(values), sep)


def test_kernel_next_to_powers_of_ten():
    # floor(log10 |x|) is one off for some of these: d is scaled again
    steps = np.arange(-64, 65) * 2.0 ** -52
    values = in_window(np.concatenate([
        10.0 ** k * (1 + steps) for k in range(-5, 15)]))
    kernel_writes(as_rows(np.concatenate([values, -values])), "\t")


def test_kernel_rounds_exact_ties_to_even():
    # N / 2**j with N odd has exactly j fraction digits, the last a 5; with
    # 18 significant digits it lies halfway between two 17-digit values
    rng = np.random.default_rng(5)
    ties = []
    for j in range(1, 64):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if lo < hi:
            ties += [(n | 1) / 2 ** j
                     for n in rng.integers(lo, hi, 200).tolist()
                     if (n | 1) < hi]
    values = in_window(np.array(ties))
    assert values.size > 1000
    for x in values[:50].tolist():
        digits = f"{x:.30f}".replace(".", "").lstrip("0").rstrip("0")
        assert len(digits) == 18 and digits[-1] == "5"
    kernel_writes(as_rows(values), ",")


def test_kernel_keeps_zeros_of_the_integer_part():
    values = np.array([[14787987031900.0, 1e13, 10.0, 100.5, 2.0 ** 46],
                       [0.0, -0.0, 1e-4, 0.1, 99999999999999.98],
                       [1.5, -250.0, 3000.0625, 1.0001, 0.00012]])
    kernel_writes(values, "\t")
    assert _fixed_text(values[:, :1], ",") == (
        "14787987031900\n0\n1.5\n")


def test_one_value_outside_the_window_sends_only_its_chunk_back(monkeypatch):
    values = np.random.default_rng(3).random((40, 5)) + 0.5
    values[17, 2] = 3e-5
    monkeypatch.setattr(dataio, "_TEXT_CELLS", 50)  # chunks of 10 rows
    taken = []
    monkeypatch.setattr(dataio, "_fixed_text",
                        lambda *args: taken.append(_fixed_text(*args))
                        or taken[-1])
    assert "".join(_float_lines(values, "\t")) == percent_text(values, "\t")
    assert [text is None for text in taken] == [False, True, False, False]


def test_formatting_a_block_holds_a_small_multiple_of_its_text():
    block = np.random.default_rng(4).random((64, 1024)) * 3 + 1e-4
    block[:, 0] = 0.0
    text = "".join(cli._format_block(block, "\t"))
    assert text == percent_text(block, "\t")
    tracemalloc.start()
    try:
        for _ in cli._format_block(block, "\t"):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 2x in 8,192-cell chunks; one 65,536-cell chunk takes 16x
    assert peak < 3 * len(text), (peak, len(text))


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_tables_take_the_kernel_and_the_template(tmp_path,
                                                        monkeypatch):
    # the readme-cli digests cover both routes: recovered compositions
    # hold parts below 1e-4
    digests = load_script("artifact_digests")
    taken = {}
    monkeypatch.setattr(dataio, "_fixed_text",
                        lambda *args: taken.setdefault(
                            current, []).append(_fixed_text(*args))
                        or taken[current][-1])
    for call in digests._readme_calls(digests.README_CLI, 1, tmp_path):
        current = Path(call[call.index("--out-dir") + 1]).name
        if call[0] in ("synth", "transform", "distance"):
            assert main(list(call)) == 0
    kernel = {name for name, texts in taken.items()
              if all(t is not None for t in texts)}
    template = {name for name, texts in taken.items()
                if all(t is None for t in texts)}
    assert {"distance-esov-csv", "transform-alpha-0.5-csv"} <= kernel
    assert "inverse" in template
