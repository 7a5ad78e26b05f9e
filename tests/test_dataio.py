"""Ingestion of delimited files, census summaries and the synthetic
generator."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from simplexclf import dataio
from simplexclf.classifiers import fit_knn, fit_rda
from simplexclf.dataio import (
    DatasetSchema,
    LabeledCompositionDataset,
    SyntheticSpec,
    generate_synthetic,
    group_summary,
    load_dataset,
    load_glass,
    read_table,
    zero_summary,
)
from simplexclf.errors import (
    AllZeroError,
    InvalidSpecError,
    LengthMismatchError,
    MissingColumnError,
    NegativeComponentError,
    NonFiniteError,
    ParameterOutOfRangeError,
    ParseError,
    TooShortError,
    UserInputError,
)
from simplexclf.evaluation import (
    CvConfig,
    GridSpec,
    MethodSpec,
    cv_evaluate,
    grid_search,
)
from simplexclf.metrics import MetricSpec

from conftest import fresh_dir

SCHEMA = DatasetSchema(label_col="label")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


PERCENT_CSV = """\
sand,silt,clay,label
77.5,19.5,3.0,coast
71.9,24.9,3.2,coast
50.7,36.1,13.2,offshore
52.2,40.9,6.9,offshore
"""


# -- reading ---------------------------------------------------------------------


def test_percentages_are_closed(tmp_path):
    ds = load_dataset(write(tmp_path, PERCENT_CSV), SCHEMA)
    assert ds.n == 4 and ds.D == 3
    assert np.allclose(ds.rows.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(ds.rows[0], [0.775, 0.195, 0.030])
    # the pre-closure values survive for export
    assert np.allclose(ds.raw[0], [77.5, 19.5, 3.0])
    assert ds.component_names == ("sand", "silt", "clay")
    assert (ds.labels == ["coast", "coast", "offshore", "offshore"]).all()


def test_tab_delimited(tmp_path):
    text = PERCENT_CSV.replace(",", "\t")
    path = write(tmp_path, text, "data.tsv")
    ds = load_dataset(path, DatasetSchema(label_col="label"))
    assert ds.n == 4 and ds.D == 3


def test_drop_cols_are_excluded(tmp_path):
    text = PERCENT_CSV.replace("sand,", "id,sand,").replace(
        "77.5,", "1,77.5,").replace("71.9,", "2,71.9,").replace(
        "50.7,", "3,50.7,").replace("52.2,", "4,52.2,")
    ds = load_dataset(write(tmp_path, text),
                      DatasetSchema(label_col="label", drop_cols=("id",)))
    assert ds.component_names == ("sand", "silt", "clay")


def test_component_cols_select_and_order(tmp_path):
    ds = load_dataset(
        write(tmp_path, PERCENT_CSV),
        DatasetSchema(label_col="label", component_cols=("clay", "sand")),
    )
    assert ds.component_names == ("clay", "sand")
    assert np.allclose(ds.raw[0], [3.0, 77.5])


def test_blank_lines_are_skipped(tmp_path):
    text = PERCENT_CSV.replace("coast\n71.9", "coast\n\n71.9")
    ds = load_dataset(write(tmp_path, text), SCHEMA)
    assert ds.n == 4


def test_provenance_digest_tracks_content(tmp_path):
    a = load_dataset(write(tmp_path, PERCENT_CSV, "a.csv"), SCHEMA)
    b = load_dataset(write(tmp_path, PERCENT_CSV, "b.csv"), SCHEMA)
    assert a.provenance["digest"] == b.provenance["digest"]
    changed = PERCENT_CSV.replace("77.5", "77.6")
    c = load_dataset(write(tmp_path, changed, "c.csv"), SCHEMA)
    assert c.provenance["digest"] != a.provenance["digest"]


@pytest.mark.parametrize("old, new, error, fragment", [
    ("77.5", "-77.5", NegativeComponentError, "sand"),
    ("77.5,19.5,3.0", "0,0,0", AllZeroError, "line 2"),
    ("19.5", "n/a", ParseError, "n/a"),
    ("19.5", "nan", ParseError, "line 2, column 'silt'"),
    ("3.2", "inf", ParseError, "line 3, column 'clay'"),
    ("77.5", "-inf", ParseError, "line 2, column 'sand'"),
    ("71.9,24.9,3.2,coast", "71.9,24.9,coast", ParseError, "line 3"),
    (",coast\n", ",\n", ParseError, "label"),
], ids=["negative", "all-zero", "non-numeric", "nan", "inf", "minus-inf",
        "ragged", "empty-label"])
def test_bad_cell_reports_location(tmp_path, old, new, error, fragment):
    text = PERCENT_CSV.replace(old, new, 1)
    with pytest.raises(error, match=fragment):
        load_dataset(write(tmp_path, text), SCHEMA)


# -- the one-call parse and the files it leaves to the cell loop ----------------


def parsed(path, header=None, parts=True):
    """What ``read_table`` makes of ``path``: the table's fields, or the
    type and message of its input error."""
    try:
        table = read_table(path, SCHEMA, header, require_label=False,
                           parts=parts)
    except UserInputError as exc:
        return type(exc), str(exc)
    return (table.columns, table.values.shape, table.values.tobytes(),
            table.labels, table.digest)


def cell_loop(monkeypatch, path, header=None, parts=True):
    """``parsed`` with every line read cell by cell through float(), as
    every file was before the one-call parse."""
    with monkeypatch.context() as m:
        m.setattr(dataio, "_fast_rows", lambda *args: None)
        return parsed(path, header, parts)


def one_call_takes(monkeypatch, path):
    """Whether the one-call parse accepts the data lines of ``path``."""
    taken = []
    real = dataio._fast_rows
    with monkeypatch.context() as m:
        m.setattr(dataio, "_fast_rows",
                  lambda *args: taken.append(real(*args)) or taken[-1])
        parsed(path)
    return taken[0] is not None


def write_bytes(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize("text, one_call, fragment", [
    (PERCENT_CSV, True, None),
    # the label column is the one np.loadtxt does not read
    (PERCENT_CSV.replace("offshore\n52", "offshore,extra\n52", 1), False,
     "expected 4 cells, got 5 (line 4)"),
    (PERCENT_CSV.replace("6.9,offshore", "6.9", 1), False,
     "expected 4 cells, got 3 (line 5)"),
    (PERCENT_CSV.replace("coast\n71.9", "coast\n\n71.9"), False, None),
    (PERCENT_CSV.replace("coast\n71.9", "coast\n \t \n71.9"), False, None),
    (PERCENT_CSV.replace("coast\n71.9", "coast\n,,,\n71.9"), False, None),
    (PERCENT_CSV + "\n\n", False, None),
    (PERCENT_CSV.replace("\n", "\r\n"), True, None),
    # csv reads an empty line after the lone carriage return, so the nan
    # is on line 6
    (PERCENT_CSV.replace("\n", "\r\n").replace("coast\r\n71",
                                                "coast\r\r\n71")
     .replace("40.9", "nan"), False,
     "non-finite value nan (line 6, column 'silt')"),
    (PERCENT_CSV.replace(",coast\n7", ',"coast, north"\n7', 1), False, None),
    (PERCENT_CSV.replace("19.5", "1_9.5", 1), False, None),
    (PERCENT_CSV.replace("19.5", "１９.5", 1), False, None),
    (PERCENT_CSV.replace("19.5", "19.5\x1c", 1), False,
     "(line 2, column 'silt')"),
    (PERCENT_CSV.replace("19.5", "nan", 1), True,
     "non-finite value nan (line 2, column 'silt')"),
    (PERCENT_CSV.replace("3.2", "-inf", 1), True,
     "non-finite value -inf (line 3, column 'clay')"),
    # finite parts whose row sum overflows
    (PERCENT_CSV.replace("77.5,19.5", "1e308,1e308", 1), True, None),
], ids=["plain", "extra-cell", "missing-cell", "empty-line", "blank-line",
        "delimiter-line", "trailing-empty-lines", "crlf", "lone-cr",
        "quoted-label",
        "underscore", "full-width", "separator-control", "nan", "inf",
        "huge-parts"])
def test_one_call_parse_declines_or_matches_the_cell_loop(
        tmp_path, monkeypatch, text, one_call, fragment):
    path = write_bytes(tmp_path, text)
    assert one_call_takes(monkeypatch, path) == one_call
    got = parsed(path)
    assert got == cell_loop(monkeypatch, path)
    if fragment is None:
        assert got[0] == ["sand", "silt", "clay"]
    else:
        assert got[0] is ParseError and fragment in got[1]
    # a bad row after the lines above is named by its own line number
    eol = "\r\n" if "\r" in text else "\n"
    tail = write_bytes(tmp_path, text + f"1,-1,2,coast{eol}", "tail.csv")
    if fragment is None:
        assert parsed(tail) == (
            NegativeComponentError, "negative part(s) in column(s) "
            f"['silt'] at line {text.count(eol) + 1}")
    assert parsed(tail) == cell_loop(monkeypatch, tail)


def test_quote_in_the_header_keeps_the_cell_loop(tmp_path, monkeypatch):
    # csv reads the whole file as one unterminated header cell, so lines
    # 2 and 3 hold no data rows
    path = write_bytes(tmp_path, '"c0\n1\n2\n')
    got = parsed(path, parts=False)
    assert got == cell_loop(monkeypatch, path, parts=False)
    assert got[0] is ParseError and "no data rows" in got[1]


def test_one_call_parse_keeps_values_labels_and_columns(tmp_path):
    text = "label\tb\ta\n" + "".join(
        f" g{i} \t{i / 7!r}\t{i}e-3\n" for i in range(1, 9))
    table = read_table(write_bytes(tmp_path, text),
                       DatasetSchema(label_col="label", component_cols=(
                           "a", "b", "a")))
    assert table.labels == [f"g{i}" for i in range(1, 9)]
    want = [[float(f"{i}e-3"), i / 7, float(f"{i}e-3")] for i in range(1, 9)]
    assert table.values.tobytes() == np.array(want).tobytes()


# Cells float() and np.loadtxt may read differently: underscores, non-ASCII
# digits and spaces, the separator controls \x1c-\x1f, nan and inf
# spellings, overflow, quotes, and blanks.
TRICKY_CELLS = ("0", "-0", "1", "2.5", " 3 ", "1e-3", "1E+2", "+.5", "5.",
                "7_5", "１２", "٣", "nan", "-NaN", "inf",
                "-Infinity", "1e400", "1e-400", "0x1A", "1e", "abc", "",
                "  ", "\x1c4", "4\x1f", "\xa04", "4　", "\x0b4",
                '"6"', '"7,5"', "8\x00")
TRICKY_LABELS = ("a", "b", " c ", "", " ", '"d,e"', 'f"g', "h\x1ei",
                 "j k", "2")
BLANK_LINES = ("", " ", "\t", ",,", ",", " , ")


@st.composite
def tricky_files(draw):
    sep = draw(st.sampled_from((",", "\t")))
    width = draw(st.integers(1, 3))
    labelled = draw(st.booleans())
    at = draw(st.integers(0, width))  # the label column
    numbers = st.one_of(st.sampled_from(TRICKY_CELLS),
                        st.floats(allow_nan=False).map(repr))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = draw(st.lists(numbers, min_size=width, max_size=width))
        if labelled:
            cells.insert(at, draw(st.sampled_from(TRICKY_LABELS)))
        if draw(st.integers(0, 7)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(sep.join(cells))
    header = [f"c{j}" for j in range(width)]
    if labelled:
        header.insert(at, "label")
    headed = draw(st.booleans())
    if headed:
        lines.insert(0, sep.join(header))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, None if headed else header


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=tricky_files(), parts=st.booleans())
def test_read_table_equals_the_per_cell_float_reference(
        tmp_path, monkeypatch, file, parts):
    text, header = file
    path = write_bytes(fresh_dir(tmp_path), text)
    assert parsed(path, header, parts) == \
        cell_loop(monkeypatch, path, header, parts)


def test_unreadable_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_dataset(tmp_path / "absent.csv", SCHEMA)
    with pytest.raises(ParseError, match="cannot read"):
        load_dataset(tmp_path, SCHEMA)


def test_missing_label_column(tmp_path):
    with pytest.raises(MissingColumnError, match="'group'"):
        load_dataset(write(tmp_path, PERCENT_CSV),
                     DatasetSchema(label_col="group"))


def test_missing_component_column(tmp_path):
    with pytest.raises(MissingColumnError, match="gravel"):
        load_dataset(
            write(tmp_path, PERCENT_CSV),
            DatasetSchema(label_col="label",
                          component_cols=("sand", "gravel")),
        )


def test_duplicate_header(tmp_path):
    text = PERCENT_CSV.replace("silt", "sand", 1)
    with pytest.raises(ParseError, match="duplicate"):
        load_dataset(write(tmp_path, text), SCHEMA)


def test_empty_file(tmp_path):
    with pytest.raises(ParseError, match="empty"):
        load_dataset(write(tmp_path, ""), SCHEMA)


def test_header_only_file(tmp_path):
    with pytest.raises(ParseError, match="no data rows"):
        load_dataset(write(tmp_path, "sand,silt,clay,label\n"), SCHEMA)


def test_too_few_components(tmp_path):
    text = "sand,label\n77.5,coast\n22.5,offshore\n"
    with pytest.raises(TooShortError):
        load_dataset(write(tmp_path, text), SCHEMA)


def test_round_trip_preserves_digest(tmp_path):
    first = load_dataset(write(tmp_path, PERCENT_CSV), SCHEMA)
    out = tmp_path / "echo.csv"
    first.to_csv(out)
    second = load_dataset(out, SCHEMA)
    assert second.content_digest() == first.content_digest()
    assert (second.raw == first.raw).all()
    assert (second.labels == first.labels).all()
    # and the export is stable under a second pass
    out2 = tmp_path / "echo2.csv"
    second.to_csv(out2)
    assert out2.read_text() == out.read_text()


# -- dataset container -------------------------------------------------------------


def toy(raw=None, labels=("a", "a", "b"), names=("u", "v", "w")):
    if raw is None:
        raw = [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2]]
    return LabeledCompositionDataset(raw, labels, names)


def test_rows_are_read_only():
    ds = toy()
    with pytest.raises(ValueError):
        ds.rows[0, 0] = 0.5
    with pytest.raises(ValueError):
        ds.raw[0, 0] = 0.5


def test_group_accessors():
    ds = toy()
    assert ds.group_names == ("a", "b")
    assert ds.g == 2
    assert ds.group_sizes == {"a": 2, "b": 1}
    assert (ds.group_indices("a") == [0, 1]).all()


def test_group_names_are_sorted():
    ds = toy(labels=("z", "m", "a"))
    assert ds.group_names == ("a", "m", "z")


def test_rejects_label_count_mismatch():
    with pytest.raises(LengthMismatchError):
        toy(labels=("a", "b"))


def test_rejects_name_count_mismatch():
    with pytest.raises(LengthMismatchError):
        toy(names=("u", "v"))


def test_rejects_single_group():
    # one group is a valid dataset; every training entry point refuses it
    ds = LabeledCompositionDataset(
        [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2], [0.3, 0.3, 0.4]],
        ("a",) * 4, ("u", "v", "w"))
    assert ds.group_names == ("a",)
    cv = CvConfig(n_test=1, B=2)
    for train in (
        lambda: fit_knn(ds, 1, MetricSpec.esov()),
        lambda: fit_rda(ds, 0.5, 0.5, 0.5),
        lambda: cv_evaluate(ds, MethodSpec.knn_esov(1), cv),
        lambda: cv_evaluate(ds, MethodSpec.lda(0.5), cv),
        lambda: grid_search(
            ds, GridSpec(alphas=(0.5,), ks=(1,), methods=None), cv),
    ):
        with pytest.raises(InvalidSpecError, match="at least two groups"):
            train()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rejects_non_finite_raw(bad):
    with pytest.raises(NonFiniteError, match=r"first row 1\b"):
        toy(raw=[[0.2, 0.3, 0.5], [0.1, bad, 0.8], [0.6, 0.2, 0.2]])


def test_rejects_single_part():
    with pytest.raises(TooShortError):
        LabeledCompositionDataset([[1.0], [1.0]], ["a", "b"], ["u"])


def test_zero_bookkeeping():
    ds = toy(raw=[[0.0, 0.4, 0.6], [0.1, 0.9, 0.0], [0.5, 0.5, 0.0],
                  [0.2, 0.3, 0.5]],
             labels=("a", "a", "b", "b"))
    assert ds.has_zeros
    assert (ds.zero_counts == [1, 1, 1, 0]).all()
    assert (ds.zero_mask[:, 2] == [False, True, True, False]).all()


# -- census summaries ---------------------------------------------------------------


def test_zero_summary_hand_oracle():
    ds = toy(raw=[[0.0, 0.4, 0.6], [0.1, 0.9, 0.0], [0.5, 0.5, 0.0],
                  [0.2, 0.3, 0.5]],
             labels=("a", "a", "b", "b"))
    summary = zero_summary(ds)
    assert summary["n"] == 4
    per_comp = {row["component"]: row for row in summary["per_component"]}
    assert per_comp["u"]["zeros"] == 1 and per_comp["u"]["fraction"] == 0.25
    assert per_comp["v"]["zeros"] == 0
    assert per_comp["w"]["zeros"] == 2 and per_comp["w"]["fraction"] == 0.5
    per_row = {row["zeros"]: row for row in summary["per_row_zero_count"]}
    assert per_row[0]["rows"] == 1 and per_row[1]["rows"] == 3
    # fractions are exact row counts over n
    for row in summary["per_row_zero_count"]:
        assert row["fraction"] * summary["n"] == row["rows"]


def test_group_summary_hand_oracle():
    ds = toy(raw=[[0.0, 0.4, 0.6], [0.1, 0.9, 0.0], [0.5, 0.5, 0.0],
                  [0.2, 0.3, 0.5]],
             labels=("a", "a", "b", "b"))
    assert group_summary(ds) == [
        {"group": "a", "size": 2, "rows_with_zeros": 2},
        {"group": "b", "size": 2, "rows_with_zeros": 1},
    ]


# -- synthetic generator -------------------------------------------------------------


def test_synthetic_is_deterministic():
    spec = SyntheticSpec("lra", 4, 3, 20, 1.5, 42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert (a.raw == b.raw).all()
    assert a.content_digest() == b.content_digest()
    c = generate_synthetic(SyntheticSpec("lra", 4, 3, 20, 1.5, 43))
    assert not (a.raw == c.raw).all()


def test_synthetic_layout():
    ds = generate_synthetic(SyntheticSpec("eda", 5, 3, 12, 2.0, 0))
    assert ds.n == 36 and ds.D == 5
    assert ds.group_names == ("g01", "g02", "g03")
    assert ds.group_sizes == {"g01": 12, "g02": 12, "g03": 12}
    assert ds.component_names == ("c01", "c02", "c03", "c04", "c05")
    assert (ds.rows > 0).all()
    assert ds.provenance["source"] == "synthetic:eda"


def test_synthetic_regimes_differ():
    lra = generate_synthetic(SyntheticSpec("lra", 4, 2, 30, 2.0, 7))
    eda = generate_synthetic(SyntheticSpec("eda", 4, 2, 30, 2.0, 7))
    assert not np.allclose(lra.rows, eda.rows)


def test_eda_first_group_hugs_the_boundary():
    ds = generate_synthetic(SyntheticSpec("eda", 4, 3, 60, 10.0, 5))
    first = ds.rows[ds.group_indices("g01"), 0]
    second = ds.rows[ds.group_indices("g02"), 0]
    third = ds.rows[ds.group_indices("g03"), 0]
    assert 0.01 < first.mean() < 0.07
    assert first.mean() < second.mean() < third.mean()


@pytest.mark.parametrize("spec_args", [
    ("mix", 4, 2, 10, 1.0, 0),
    ("lra", 2, 2, 10, 1.0, 0),
    ("lra", 4, 1, 10, 1.0, 0),
    ("lra", 4, 2, 1, 1.0, 0),
    ("lra", 4, 2, 10, 0.0, 0),
    ("lra", 4, 2, 10, float("inf"), 0),
    ("lra", 4, 4, 10, 1.0, 0),
    ("eda", 3, 3, 10, 60.0, 0),
], ids=["regime", "dims", "groups", "size", "separation", "separation-inf",
        "lra-groups-exceed-axes", "eda-ladder-overflow"])
def test_synthetic_spec_validation(spec_args):
    with pytest.raises(InvalidSpecError):
        SyntheticSpec(*spec_args)


def test_synthetic_spec_rejects_negative_seed():
    # SeedSequence would fail only at generation, with a bare ValueError
    with pytest.raises(ParameterOutOfRangeError,
                       match="seed must be a non-negative integer, got -1"):
        SyntheticSpec("lra", 4, 2, 10, 1.0, -1)


# -- forensic glass -----------------------------------------------------------------


RAW_GLASS_SAMPLE = """\
1,1.52101,13.64,4.49,1.10,71.78,0.06,8.75,0.00,0.00,1
2,1.51761,13.89,3.60,1.36,72.73,0.48,7.83,0.00,0.00,1
3,1.51618,13.53,3.55,1.54,72.99,0.39,7.78,0.00,0.00,2
4,1.51766,13.21,3.69,1.29,72.61,0.57,8.22,0.00,0.00,2
"""


def test_raw_layout_drops_id_and_index_and_maps_codes(tmp_path):
    path = tmp_path / "glass.data"
    path.write_text(RAW_GLASS_SAMPLE)
    ds = load_glass(path)
    assert ds.n == 4 and ds.D == 8
    assert ds.component_names == ("Na", "Mg", "Al", "Si", "K", "Ca",
                                  "Ba", "Fe")
    assert ds.group_names == ("window float", "window non-float")
    # neither the id nor the refractive index leaks into the parts
    assert np.allclose(ds.raw[0], [13.64, 4.49, 1.10, 71.78, 0.06,
                                   8.75, 0.00, 0.00])


def test_raw_layout_rejects_unknown_code(tmp_path):
    path = tmp_path / "glass.data"
    path.write_text(RAW_GLASS_SAMPLE.replace(",0.00,1\n", ",0.00,4\n", 1))
    with pytest.raises(ParseError, match="type code 4"):
        load_glass(path)


@pytest.mark.needs_glass
def test_glass_dimensions(glass):
    assert glass.n == 214 and glass.D == 8 and glass.g == 6


@pytest.mark.needs_glass
def test_glass_group_sizes(glass):
    assert glass.group_sizes == {
        "window float": 70,
        "window non-float": 76,
        "vehicle window": 17,
        "containers": 13,
        "tableware": 9,
        "headlamps": 29,
    }
