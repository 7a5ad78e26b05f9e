"""End-to-end command line checks: files written, exit codes, envelopes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from simplexclf import cli
from simplexclf.classifiers import fit_rda, rda_predict
from simplexclf.cli import main
from simplexclf.dataio import DatasetSchema, load_dataset
from simplexclf.errors import ParameterOutOfRangeError

from conftest import child_env

BASIC_CSV = """\
sand,silt,clay,label
77.5,19.5,3.0,coast
71.9,24.9,3.2,coast
50.7,36.1,13.2,offshore
52.2,40.9,6.9,offshore
10.6,69.8,19.6,offshore
32.1,55.0,12.9,coast
"""

ZERO_CSV = """\
u,v,w,label
0.0,0.4,0.6,a
0.1,0.4,0.5,a
0.0,0.3,0.7,b
0.3,0.3,0.4,b
"""


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "soil.csv"
    path.write_text(BASIC_CSV)
    return path


def read_json(path):
    return json.loads(path.read_text())


def read_cells(path, skip_header=True):
    lines = path.read_text().splitlines()
    if skip_header:
        lines = lines[1:]
    sep = "\t" if "\t" in lines[0] else ","
    return np.array([[float(v) for v in ln.split(sep)] for ln in lines])


# -- transform ------------------------------------------------------------------


def test_transform_writes_matrix_and_manifest(data, tmp_path):
    out = tmp_path / "out"
    assert main(["transform", "--data", str(data), "--alpha", "0.5",
                 "--format", "csv", "--out-dir", str(out)]) == 0
    z = read_cells(out / "transformed.csv")
    assert z.shape == (6, 2)
    manifest = read_json(out / "manifest.json")
    assert manifest["schema_version"] == "2"
    assert manifest["command"] == "transform"
    assert manifest["alpha"] == 0.5
    assert manifest["D"] == 3 and manifest["n"] == 6
    assert manifest["dataset"]["path"].endswith("soil.csv")


def test_transform_of_uniform_rows_is_zero(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("a,b,c,label\n" + "1,1,1,x\n" * 3 + "1,1,1,y\n" * 3)
    out = tmp_path / "out"
    assert main(["transform", "--data", str(path), "--alpha", "0.7",
                 "--format", "csv", "--out-dir", str(out)]) == 0
    z = read_cells(out / "transformed.csv")
    assert np.abs(z).max() <= 1e-12


def test_transform_inverse_round_trip(data, tmp_path):
    fwd = tmp_path / "fwd"
    back = tmp_path / "back"
    main(["transform", "--data", str(data), "--alpha", "0.5",
          "--format", "csv", "--out-dir", str(fwd)])
    # the manifest sitting next to the matrix supplies alpha and D
    assert main(["transform", "--inverse",
                 "--data", str(fwd / "transformed.csv"),
                 "--format", "csv", "--out-dir", str(back)]) == 0
    recovered = read_cells(back / "recovered.csv")
    original = load_dataset(data, DatasetSchema(label_col="label")).rows
    assert np.abs(recovered - original).max() <= 1e-10


def test_transform_zero_rows_with_nonpositive_alpha(tmp_path, capsys):
    path = tmp_path / "z.csv"
    path.write_text(ZERO_CSV)
    code = main(["transform", "--data", str(path), "--alpha", "0",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "rows [0, 2]" in err


def test_inverse_rejects_non_finite_coordinates(data, tmp_path, capsys):
    fwd = tmp_path / "fwd"
    main(["transform", "--data", str(data), "--alpha", "0.5",
          "--format", "csv", "--out-dir", str(fwd)])
    matrix = fwd / "transformed.csv"
    lines = matrix.read_text().splitlines()
    lines[2] = "inf," + lines[2].split(",", 1)[1]
    matrix.write_text("\n".join(lines) + "\n")
    assert main(["transform", "--inverse", "--data", str(matrix),
                 "--out-dir", str(tmp_path / "back")]) == 2
    assert "line 3, column 'z1'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--drop-cols", "id"),
                                   ("--label-col", "id")])
def test_inverse_skips_label_and_dropped_columns(data, tmp_path, flags):
    fwd = tmp_path / "fwd"
    main(["transform", "--data", str(data), "--alpha", "0.5",
          "--out-dir", str(fwd)])
    lines = (fwd / "transformed.tsv").read_text().splitlines()
    with_id = fwd / "with_id.tsv"
    with_id.write_text("\n".join([f"id\t{lines[0]}"] + [
        f"r{i}\t{line}" for i, line in enumerate(lines[1:])]) + "\n")
    assert main(["transform", "--inverse",
                 "--data", str(fwd / "transformed.tsv"),
                 "--out-dir", str(tmp_path / "plain")]) == 0
    assert main(["transform", "--inverse", "--data", str(with_id), *flags,
                 "--out-dir", str(tmp_path / "id")]) == 0
    recovered = "recovered.tsv"
    assert ((tmp_path / "id" / recovered).read_bytes()
            == (tmp_path / "plain" / recovered).read_bytes())


_DELETED = object()


@pytest.mark.parametrize("key, value", [
    ("alpha", None), ("D", "five"), ("components", 7), ("alpha", _DELETED),
])
def test_inverse_rejects_malformed_manifest(data, tmp_path, capsys, key,
                                            value):
    fwd = tmp_path / "fwd"
    main(["transform", "--data", str(data), "--alpha", "0.5",
          "--format", "csv", "--out-dir", str(fwd)])
    manifest = read_json(fwd / "manifest.json")
    if value is _DELETED:
        del manifest[key]
    else:
        manifest[key] = value
    (fwd / "manifest.json").write_text(json.dumps(manifest))
    assert main(["transform", "--inverse",
                 "--data", str(fwd / "transformed.csv"),
                 "--out-dir", str(tmp_path / "back")]) == 2
    assert f"field {key!r} must be" in capsys.readouterr().err


def test_transform_requires_alpha(data, tmp_path, capsys):
    assert main(["transform", "--data", str(data),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_empty_input_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["transform", "--data", str(path), "--alpha", "1",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "empty" in capsys.readouterr().err


NAN_CSV = BASIC_CSV.replace("19.5", "nan", 1)


@pytest.mark.parametrize("command", [
    ["transform", "--alpha", "0.5"],
    ["cv", "--alpha", "1", "--lambda", "0", "--gamma", "1", "--n-test", "2"],
], ids=["transform", "cv"])
def test_non_finite_cell_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "nan.csv"
    path.write_text(NAN_CSV)
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    assert "line 2, column 'silt'" in capsys.readouterr().err
    assert not (out / "transformed.tsv").exists()


@pytest.mark.parametrize("command", [
    ["transform", "--alpha", "0.5"],
    ["grid", "--alpha-grid", "1", "--k-grid", "1", "--n-test", "2"],
], ids=["transform", "grid"])
def test_missing_data_file_is_an_input_error(tmp_path, capsys, command):
    missing = tmp_path / "nonexistent.csv"
    assert main([*command, "--data", str(missing),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


# -- distance -------------------------------------------------------------------


def test_distance_matrix_shape_and_symmetry(data, tmp_path):
    out = tmp_path / "out"
    assert main(["distance", "--data", str(data), "--metric", "alpha",
                 "--alpha", "1", "--format", "csv", "--out-dir", str(out)]) == 0
    d = read_cells(out / "distances.csv", skip_header=False)
    assert d.shape == (6, 6)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_distance_esov_tolerates_zeros(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text(ZERO_CSV)
    out = tmp_path / "out"
    assert main(["distance", "--data", str(path), "--metric", "esov",
                 "--format", "csv", "--out-dir", str(out)]) == 0
    d = read_cells(out / "distances.csv", skip_header=False)
    assert (d[~np.eye(4, dtype=bool)] > 0).all()


def test_distance_esov_rejects_alpha(data, tmp_path, capsys):
    assert main(["distance", "--data", str(data), "--metric", "esov",
                 "--alpha", "0.5", "--out-dir", str(tmp_path / "o")]) == 2
    assert "esov" in capsys.readouterr().err


# -- summarize ------------------------------------------------------------------


def test_summarize_census(tmp_path, capsys):
    rows = ["u,v,w,label"]
    for i in range(16):
        u = "0.0" if i < 3 else "0.2"
        rows.append(f"{u},0.3,0.5,{'a' if i < 8 else 'b'}")
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["summarize", "--data", str(path),
                 "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "16 compositions" in text
    # 3 of 16 rows carry a zero: printed as a two-decimal percentage
    assert "18.75" in text
    summary = read_json(out / "summary.json")
    assert summary["zero_summary"]["n"] == 16
    assert summary["group_summary"][0] == {
        "group": "a", "size": 8, "rows_with_zeros": 3,
    }


# -- fit and predict ------------------------------------------------------------


def test_fit_predict_rda(data, tmp_path):
    out = tmp_path / "out"
    assert main(["fit", "--data", str(data), "--alpha", "0.5",
                 "--lambda", "0", "--gamma", "1",
                 "--out-dir", str(out)]) == 0
    model = read_json(out / "model.json")
    assert model["model"]["kind"] == "gauss"
    assert model["method"] == {"name": "RDA", "alpha": 0.5, "lam": 0.0,
                               "gamma": 1.0, "prior": "proportional"}
    pred_dir = tmp_path / "pred"
    assert main(["predict", "--model", str(out / "model.json"),
                 "--data", str(data), "--format", "csv",
                 "--out-dir", str(pred_dir)]) == 0
    report = read_json(pred_dir / "report.json")
    assert report["n"] == 6
    assert 0.0 <= report["accuracy"] <= 1.0
    lines = (pred_dir / "predictions.csv").read_text().splitlines()
    assert lines[0] == "row,predicted,actual,correct"
    assert len(lines) == 7


def test_fit_predict_knn_unlabeled_matrix(data, tmp_path):
    out = tmp_path / "out"
    assert main(["fit", "--data", str(data), "--k", "3",
                 "--metric", "alpha", "--alpha", "0.5",
                 "--out-dir", str(out)]) == 0
    model = read_json(out / "model.json")
    assert model["model"]["kind"] == "knn" and model["model"]["k"] == 3

    queries = tmp_path / "queries.csv"
    queries.write_text("sand,silt,clay\n60,30,10\n20,60,20\n")
    pred_dir = tmp_path / "pred"
    assert main(["predict", "--model", str(out / "model.json"),
                 "--data", str(queries), "--format", "csv",
                 "--out-dir", str(pred_dir)]) == 0
    report = read_json(pred_dir / "report.json")
    assert report["accuracy"] is None and report["n"] == 2
    lines = (pred_dir / "predictions.csv").read_text().splitlines()
    assert lines[0] == "row,predicted"
    assert {ln.split(",")[1] for ln in lines[1:]} <= {"coast", "offshore"}


def test_predict_rejects_wrong_dimension(data, tmp_path, capsys):
    out = tmp_path / "out"
    main(["fit", "--data", str(data), "--alpha", "1", "--lambda", "1",
          "--gamma", "1", "--out-dir", str(out)])
    queries = tmp_path / "queries.csv"
    queries.write_text("a,b\n0.5,0.5\n")
    assert main(["predict", "--model", str(out / "model.json"),
                 "--data", str(queries),
                 "--out-dir", str(tmp_path / "p")]) == 2
    assert "3" in capsys.readouterr().err


def test_fit_requires_full_rda_triple(data, tmp_path, capsys):
    assert main(["fit", "--data", str(data), "--alpha", "0.5",
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "--gamma" in err


def test_fit_knn_esov_rejects_alpha(data, tmp_path, capsys):
    assert main(["fit", "--data", str(data), "--k", "3",
                 "--metric", "esov", "--alpha", "0.5",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "esov" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "cv"])
@pytest.mark.parametrize("flags, message", [
    (("--k", "3", "--metric", "esov", "--lambda", "0.5"),
     "KNN_ESOV takes no lambda"),
    (("--k", "3", "--alpha", "0.5", "--gamma", "0.5"),
     "KNN_ALPHA takes no gamma"),
    (("--k", "3", "--metric", "esov", "--prior", "uniform"),
     "KNN_ESOV takes no prior"),
    (("--k", "3", "--alpha", "0.5", "--prior", "uniform"),
     "KNN_ALPHA takes no prior"),
    (("--alpha", "0.5", "--lambda", "0.5", "--gamma", "0.5",
      "--metric", "esov"), "pass --k"),
], ids=["esov-lambda", "alpha-gamma", "esov-prior", "alpha-prior",
        "rda-esov"])
def test_method_flags_not_taken_are_rejected(data, tmp_path, capsys,
                                            command, flags, message):
    cv = ("--n-test", "2", "--reps", "2") if command == "cv" else ()
    out = tmp_path / "o"
    assert main([command, "--data", str(data), *flags, *cv,
                 "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# -- model files ----------------------------------------------------------------


RDA_FLAGS = ("--alpha", "0.5", "--lambda", "0.5", "--gamma", "0.5")


def fitted(tmp_path, data, *flags):
    """The model file ``fit`` writes for ``data`` and ``flags``."""
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(data), *flags,
                 "--out-dir", str(out)]) == 0
    return read_json(out / "model.json")


def predict_with(tmp_path, doc, data, name="model"):
    """Exit code of ``predict`` with ``doc`` saved as ``<name>.json``; the
    outputs go to ``tmp_path / name``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return main(["predict", "--model", str(path), "--data", str(data),
                 "--out-dir", str(tmp_path / name)])


def test_gauss_model_file_holds_sufficient_statistics(data, tmp_path):
    doc = fitted(tmp_path, data, *RDA_FLAGS)
    assert doc["schema_version"] == "2"
    assert set(doc["model"]) == {
        "kind", "alpha", "lam", "gamma", "prior", "source_dim",
        "group_labels", "counts", "means", "covariances"}


def truncate_means(model):
    model["means"].pop()


def drop_covariances(model):
    del model["covariances"]


def nan_covariance_cell(model):
    model["covariances"][0][1][0] = float("nan")


def singleton_count(model):
    model["counts"][1] = 1


def zero_covariances(model):
    model["covariances"] = np.zeros((2, 2, 2)).tolist()


def asymmetric_covariance(model):
    model["covariances"][0][0][1] += 0.25


def fractional_source_dim(model):
    model["source_dim"] += 0.7


def huge_count(model):
    # a whole float that no int64 holds
    model["counts"][0] = 1e300


def string_counts(model):
    model["counts"] = ["50", "50"]


def boolean_alpha(model):
    model["alpha"] = True


def boolean_mean(model):
    # numpy reads [1.0, true] as two floats
    model["means"][0][0] = True


def boolean_covariance_cell(model):
    model["covariances"][1][0][0] = True


@pytest.mark.parametrize("damage, named", [
    (truncate_means, "'means'"),
    (drop_covariances, "'covariances'"),
    (nan_covariance_cell, "'covariances'"),
    (singleton_count, "'counts'"),
    (zero_covariances, "does not rebuild"),
    (asymmetric_covariance, "non-symmetric"),
    (fractional_source_dim, "integer source_dim"),
    (huge_count, "'counts'"),
    (string_counts, "'counts'"),
    # a bare 'alpha' would also match the method block in a disagreement
    (boolean_alpha, "field 'alpha'"),
    (boolean_mean, "field 'means'"),
    (boolean_covariance_cell, "field 'covariances'"),
])
def test_predict_rejects_damaged_gauss_model(data, tmp_path, capsys, damage,
                                             named):
    doc = fitted(tmp_path, data, *RDA_FLAGS)
    damage(doc["model"])
    assert predict_with(tmp_path, doc, data) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags, row", [
    (("--k", "3", "--metric", "esov"), [float("nan"), 0.5, 0.5]),
    (("--k", "3", "--metric", "esov"), [0.5, 0.5, 0.5]),
    (("--k", "3", "--alpha", "-0.5"), [0.0, 0.5, 0.5]),
])
def test_predict_checks_knn_points_like_fit(data, tmp_path, capsys, flags,
                                            row):
    doc = fitted(tmp_path, data, *flags)
    doc["model"]["points"][0] = row
    assert predict_with(tmp_path, doc, data) == 2
    assert "the training data" in capsys.readouterr().err


def test_schema_one_model_ignores_derived_arrays(tmp_path):
    path = synth(tmp_path)
    doc = fitted(tmp_path, path, *RDA_FLAGS)
    model = fit_rda(load_dataset(path, DatasetSchema(label_col="label")),
                    0.5, 0.5, 0.5)
    doc["schema_version"] = "1"
    doc["model"].update(
        pooled=model.pooled.tolist(), regularized=model.regularized.tolist(),
        chol_factors=model.chol_factors.tolist(),
        log_dets=model.log_dets.tolist(),
        log_priors=model.log_priors.tolist())
    assert predict_with(tmp_path, doc, path, "plain") == 0
    doc["model"]["chol_factors"] = (3.0 * model.chol_factors).tolist()
    doc["model"]["log_dets"][0] = -1000.0
    assert predict_with(tmp_path, doc, path, "tampered") == 0
    assert (tmp_path / "tampered" / "predictions.tsv").read_bytes() == \
        (tmp_path / "plain" / "predictions.tsv").read_bytes()


@pytest.mark.parametrize("flags, method, display", [
    (("--alpha", "0.5", "--lambda", "0", "--gamma", "1"),
     {"name": "LDA", "alpha": 0.5, "prior": "proportional"}, "LDA(0.5)"),
    (("--alpha", "0.5", "--lambda", "1", "--gamma", "0"),
     {"name": "QDA", "alpha": 0.5, "prior": "proportional"}, "QDA(0.5)"),
    (RDA_FLAGS + ("--prior", "uniform"), None,
     "RDA(0.5, 0.5, 0.5; uniform prior)"),
    (("--k", "3", "--metric", "esov"), None, "3-NN(ESOV)"),
])
def test_predict_display_comes_from_method_block(data, tmp_path, capsys,
                                                 flags, method, display):
    doc = fitted(tmp_path, data, *flags)
    if method is not None:
        doc["method"] = method
    assert predict_with(tmp_path, doc, data) == 0
    assert read_json(tmp_path / "model" / "report.json")["display"] == \
        display
    assert f"{display}: accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("flags, method", [
    (RDA_FLAGS, {"name": "RDA", "alpha": 0.4, "lam": 0.5, "gamma": 0.5}),
    (RDA_FLAGS, {"name": "LDA", "alpha": 0.5}),
    (RDA_FLAGS, {"name": "RDA", "alpha": 0.5, "lam": 0.5, "gamma": 0.5,
                 "prior": "uniform"}),
    (RDA_FLAGS, {"name": "KNN_ESOV", "k": 3}),
    (("--k", "3", "--metric", "esov"), {"name": "KNN_ESOV", "k": 2}),
    (("--k", "3", "--metric", "esov"),
     {"name": "KNN_ALPHA", "alpha": 0.5, "k": 3}),
])
def test_predict_rejects_disagreeing_method_block(data, tmp_path, capsys,
                                                  flags, method):
    doc = fitted(tmp_path, data, *flags)
    doc["method"] = method
    assert predict_with(tmp_path, doc, data) == 2
    assert "disagrees" in capsys.readouterr().err


def test_predict_rejects_knn_method_block_with_prior(data, tmp_path,
                                                     capsys):
    doc = fitted(tmp_path, data, "--k", "3", "--metric", "esov")
    doc["method"]["prior"] = "uniform"
    assert predict_with(tmp_path, doc, data) == 2
    assert "KNN_ESOV takes no prior" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [RDA_FLAGS, ("--k", "3", "--alpha", "0.5")])
def test_predict_rejects_method_block_with_text_alpha(data, tmp_path, capsys,
                                                      flags):
    doc = fitted(tmp_path, data, *flags)
    doc["method"]["alpha"] = "0.5"
    assert predict_with(tmp_path, doc, data) == 2
    assert "alpha must be a number" in capsys.readouterr().err


def test_inverse_counts_blank_lines_in_error_locations(data, tmp_path,
                                                       capsys):
    fwd = tmp_path / "fwd"
    main(["transform", "--data", str(data), "--alpha", "0.5",
          "--format", "csv", "--out-dir", str(fwd)])
    matrix = fwd / "transformed.csv"
    lines = matrix.read_text().splitlines()
    # a blank line 3, then a bad first cell on line 4
    lines[2:3] = ["", "x," + lines[2].split(",", 1)[1]]
    matrix.write_text("\n".join(lines) + "\n")
    assert main(["transform", "--inverse", "--data", str(matrix),
                 "--out-dir", str(tmp_path / "back")]) == 2
    assert "line 4, column 'z1'" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "sand,silt,clay,label\n60,30,10,coast\n-20,60,20,offshore\n",
    "sand,silt,clay\n60,30,10\n-20,60,20\n",
], ids=["labelled", "unlabelled"])
def test_predict_negative_part_names_line_and_column(data, tmp_path, capsys,
                                                     text):
    queries = tmp_path / "queries.csv"
    queries.write_text(text)
    doc = fitted(tmp_path, data, *RDA_FLAGS)
    assert predict_with(tmp_path, doc, queries) == 2
    assert "column(s) ['sand'] at line 3" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    ("60,30,10,coast", "20,60,20,coast", "50,40,10,coast"),
    ("20,60,20,offshore",),
], ids=["one-group", "one-row"])
def test_predict_scores_any_number_of_groups(data, tmp_path, capsys, rows):
    queries = tmp_path / "queries.csv"
    queries.write_text("sand,silt,clay,label\n" + "\n".join(rows) + "\n")
    doc = fitted(tmp_path, data, *RDA_FLAGS)
    assert predict_with(tmp_path, doc, queries) == 0
    report = read_json(tmp_path / "model" / "report.json")
    lines = (tmp_path / "model" / "predictions.tsv").read_text().splitlines()
    correct = [int(ln.split("\t")[3]) for ln in lines[1:]]
    assert report["n"] == len(rows) == len(correct)
    assert report["accuracy"] == np.mean(correct)
    assert "accuracy" in capsys.readouterr().out


def test_tab_delimited_text_file_reads_like_its_csv_copy(data, tmp_path,
                                                         capsys):
    tab = tmp_path / "soil.txt"
    tab.write_text(BASIC_CSV.replace(",", "\t"))
    doc = fitted(tmp_path, data, *RDA_FLAGS)
    seen = []
    for path in (data, tab):
        out = tmp_path / path.suffix[1:]
        capsys.readouterr()
        assert main(["summarize", "--data", str(path),
                     "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        summary = read_json(out / "summary.json")
        assert summary["dataset"].pop("path") == str(path)
        assert predict_with(tmp_path, doc, path, f"{out.name}-model") == 0
        predictions = (tmp_path / f"{out.name}-model" /
                       "predictions.tsv").read_bytes()
        seen.append((printed.replace(str(path), "<data>").replace(
            str(out), "<out>"), summary, predictions))
    assert seen[0] == seen[1]


def test_predict_drop_cols_applies_to_unlabelled_rows(data, tmp_path):
    doc = fitted(tmp_path, data, *RDA_FLAGS)
    bare = tmp_path / "bare.csv"
    bare.write_text("sand,silt,clay\n60,30,10\n20,60,20\n")
    with_id = tmp_path / "with_id.csv"
    with_id.write_text("id,sand,silt,clay\n1,60,30,10\n2,20,60,20\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    for path in (bare, with_id):
        assert main(["predict", "--model", str(model), "--data", str(path),
                     "--drop-cols", "id",
                     "--out-dir", str(tmp_path / path.stem)]) == 0
    assert (tmp_path / "bare" / "predictions.tsv").read_bytes() == \
        (tmp_path / "with_id" / "predictions.tsv").read_bytes()


CELL_FORMATS = ("{!r}", "{:.2f}", " {!r} ", "{:e}", "{:.0f}")


@st.composite
def labelled_and_bare(draw):
    """One file's text with a label column and without it."""
    n = draw(st.integers(1, 6))
    at = draw(st.integers(0, 3))
    part = st.one_of(st.just(0.0), st.floats(0.01, 1e6))
    rows = [["sand", "silt", "clay"]]
    for i in range(n):
        cells = [draw(st.sampled_from(CELL_FORMATS)).format(draw(part))
                 for _ in range(3)]
        if not any(float(c) for c in cells):
            cells[i % 3] = "1"
        rows.append(cells)
    labels = ["label"] + [f"g{i % 2}" for i in range(n)]
    labelled = "".join(",".join([*row[:at], label, *row[at:]]) + "\n"
                       for row, label in zip(rows, labels))
    return labelled, "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=labelled_and_bare())
def test_predict_closes_labelled_and_bare_rows_alike(data, tmp_path,
                                                     monkeypatch, texts):
    model = tmp_path / "fit" / "model.json"
    if not model.exists():
        fitted(tmp_path, data, *RDA_FLAGS)
    seen = []
    monkeypatch.setattr(cli, "rda_predict",
                        lambda fit, x: seen.append(x) or rda_predict(fit, x))
    for name, text in zip(("labelled", "bare"), texts):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        assert main(["predict", "--model", str(model), "--data", str(path),
                     "--out-dir", str(tmp_path / name)]) == 0
    assert seen[0].tobytes() == seen[1].tobytes()


# -- cross-validation -----------------------------------------------------------


def synth(tmp_path, *extra):
    out = tmp_path / "synth"
    assert main(["synth", "--regime", "lra", "--dim", "4", "--groups", "2",
                 "--group-size", "20", "--seed", "1",
                 "--out-dir", str(out), *extra]) == 0
    return out / "synthetic.csv"


def test_cv_single_replicate(tmp_path, capsys):
    path = synth(tmp_path)
    out = tmp_path / "cv"
    assert main(["cv", "--data", str(path), "--alpha", "0", "--lambda", "0",
                 "--gamma", "1", "--n-test", "6", "--reps", "1",
                 "--out-dir", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["report"]["B"] == 1
    assert report["report"]["sd_q"] is None
    assert report["report"]["mean_q"] == 1.0
    assert "mean q" in capsys.readouterr().out


def test_cv_requires_n_test(tmp_path, capsys):
    path = synth(tmp_path)
    assert main(["cv", "--data", str(path), "--alpha", "0", "--lambda", "0",
                 "--gamma", "1", "--out-dir", str(tmp_path / "o")]) == 2
    assert "--n-test" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["cv", "--k", "2", "--metric", "esov", "--n-test", "6", "--reps", "2"],
    ["cv", *RDA_FLAGS, "--n-test", "6", "--reps", "2"],
    ["grid", "--methods", "KNN_ESOV", "--k-grid", "1:3:1", "--n-test", "6",
     "--reps", "2"],
], ids=["cv-knn", "cv-rda", "grid"])
def test_negative_seed_is_an_input_error(tmp_path, capsys, command):
    path = synth(tmp_path)
    out = tmp_path / "o"
    assert main([*command, "--seed", "-1", "--data", str(path),
                 "--out-dir", str(out)]) == 2
    assert "seed must be a non-negative integer, got -1" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_synth_rejects_negative_seed(tmp_path, capsys):
    assert main(["synth", "--regime", "lra", "--seed", "-1",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "seed must be a non-negative integer, got -1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flags", [RDA_FLAGS, ("--k", "2", "--metric",
                                                "esov")],
                         ids=["rda", "knn"])
def test_predict_rejects_negative_seed(data, tmp_path, capsys, flags):
    # the flag means the same for every model kind, though only k-NN
    # draws from it
    model = tmp_path / "fit" / "model.json"
    assert main(["fit", "--data", str(data), *flags,
                 "--out-dir", str(model.parent)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--seed", "-5", "--out-dir", str(tmp_path / "p")]) == 2
    assert "seed must be a non-negative integer, got -5" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command, label", [
    (["transform", "--alpha", "nan"], "alpha"),
    (["transform", "--alpha", "inf"], "alpha"),
    (["distance", "--metric", "alpha", "--alpha", "nan"], "alpha"),
    (["cv", "--alpha", "nan", "--lambda", "0.5", "--gamma", "0.5",
      "--n-test", "6", "--reps", "2"], "alpha"),
    (["grid", "--alpha-grid", "nan", "--lambda-grid", "0.5",
      "--gamma-grid", "0.5", "--n-test", "6", "--reps", "2"], "alpha"),
    # LDA takes neither axis, but the report would echo them
    (["grid", "--methods", "LDA", "--alpha-grid", "0.5", "--lambda-grid",
      "inf", "--n-test", "6", "--reps", "2"], "lambda"),
    (["grid", "--methods", "LDA", "--alpha-grid", "0.5", "--gamma-grid",
      "nan", "--n-test", "6", "--reps", "2"], "gamma"),
], ids=["transform-nan", "transform-inf", "distance", "cv", "grid",
        "grid-unused-lambda", "grid-unused-gamma"])
def test_non_finite_alpha_is_an_input_error(tmp_path, capsys, command,
                                            label):
    path = synth(tmp_path)
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    assert f"{label} must be a finite number" in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("*.tsv"))
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", [
    [cmd, f"--alpha={alpha}", *flags] for alpha in ("-100", "1e308")
    for cmd, *flags in (
        ["transform"], ["distance"],
        ["cv", "--k", "3", "--n-test", "20", "--reps", "5"],
        ["cv", "--lambda", "0", "--gamma", "1", "--n-test", "20",
         "--reps", "5"],
    )
] + [["grid", "--alpha-grid=1e308,0.5", "--methods", "LDA", "--n-test", "20",
      "--reps", "5"]], ids=" ".join)
def test_alpha_with_non_finite_coordinates_is_an_input_error(
        tmp_path, capsys, command):
    path = synth(tmp_path, "--group-size", "50", "--seed", "7")
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "alpha=" in err and "non-finite coordinates" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["distance", "--alpha=-100"],
    ["cv", "--k", "3", "--alpha=-100", "--n-test", "20", "--reps", "5"],
    ["grid", "--methods", "KNN_ALPHA", "--alpha-grid=-100", "--k-grid", "1",
     "--n-test", "20", "--reps", "5"],
], ids=" ".join)
def test_knn_and_distance_name_the_data_rows(tmp_path, capsys, command):
    path = synth(tmp_path, "--group-size", "50", "--seed", "7")
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    assert ("the alpha metric at alpha=-100.0 gives non-finite coordinates "
            "for the data rows [0, 1, 2") in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["transform", "--alpha=-100"],
    ["cv", "--lambda", "0", "--gamma", "1", "--alpha=-100", "--n-test", "20",
     "--reps", "5"],
], ids=" ".join)
def test_transform_and_gaussian_cv_name_the_data_rows(tmp_path, capsys,
                                                      command):
    path = synth(tmp_path, "--group-size", "50", "--seed", "7")
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("the alpha-transformation at alpha=-100.0 gives non-finite "
            "coordinates for the data rows [0, 1, 2") in err


@pytest.mark.parametrize("command", [
    ["transform", "--alpha", "0.5"], ["distance", "--metric", "esov"],
], ids=" ".join)
def test_parts_that_sum_past_the_float_range_are_an_input_error(
        tmp_path, capsys, command):
    path = tmp_path / "huge.csv"
    path.write_text(BASIC_CSV.replace(
        "71.9,24.9", "8.988465674311579e+307,8.98846567431158e+307", 1))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--data", str(path), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "rows [1] have parts that sum past the float range" in err
    assert "closure" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["distance", "--metric", "alpha", "--alpha", "1e-320"],
    ["cv", "--k", "3", "--alpha", "1e-320", "--n-test", "20", "--reps", "5"],
    ["grid", "--methods", "KNN_ALPHA", "--alpha-grid", "1e-320", "--k-grid",
     "1", "--n-test", "20", "--reps", "5"],
], ids=["distance", "cv", "grid"])
def test_alpha_with_overflowing_distance_scale_is_an_input_error(
        tmp_path, capsys, command):
    # the power rows are finite, but D / |alpha| is not
    path = synth(tmp_path, "--group-size", "50", "--seed", "7")
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "alpha=1e-320" in err and "D/|alpha|" in err
    assert not out.exists() or not any(out.iterdir())


def test_inverse_rejects_non_finite_alpha(data, tmp_path, capsys):
    fwd = tmp_path / "fwd"
    main(["transform", "--data", str(data), "--alpha", "0.5",
          "--out-dir", str(fwd)])
    back = tmp_path / "back"
    assert main(["transform", "--inverse", "--alpha", "nan",
                 "--data", str(fwd / "transformed.tsv"),
                 "--out-dir", str(back)]) == 2
    assert "alpha must be a finite number" in capsys.readouterr().err
    assert not (back / "recovered.tsv").exists()


def test_predict_rejects_knn_model_with_nan_alpha(data, tmp_path, capsys):
    doc = fitted(tmp_path, data, "--k", "3", "--alpha", "0.5")
    # the method block and the metric agree, so only the alpha check
    # stands between the file and a silently wrong prediction
    doc["method"]["alpha"] = doc["model"]["metric"]["alpha"] = float("nan")
    assert predict_with(tmp_path, doc, data) == 2
    assert "alpha must be a finite number" in capsys.readouterr().err


@pytest.fixture
def one_group(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(BASIC_CSV.replace("offshore", "coast"))
    return path


@pytest.mark.parametrize("command", [
    ["fit", *RDA_FLAGS],
    ["fit", "--k", "1", "--metric", "esov"],
    ["cv", *RDA_FLAGS, "--n-test", "2", "--reps", "2"],
    ["cv", "--k", "1", "--metric", "esov", "--n-test", "2", "--reps", "2"],
    ["grid", "--methods", "LDA", "--alpha-grid", "0.5", "--n-test", "2",
     "--reps", "2"],
    ["grid", "--methods", "KNN_ESOV", "--k-grid", "1", "--n-test", "2",
     "--reps", "2"],
], ids=["fit-rda", "fit-knn", "cv-rda", "cv-knn", "grid-rda", "grid-knn"])
def test_training_rejects_single_group(one_group, tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([*command, "--data", str(one_group),
                 "--out-dir", str(out)]) == 2
    assert "need at least two groups" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [
    ["transform", "--alpha", "0.5"],
    ["distance", "--metric", "esov"],
    ["summarize"],
], ids=["transform", "distance", "summarize"])
def test_census_commands_accept_single_group(one_group, tmp_path, command):
    assert main([*command, "--data", str(one_group),
                 "--out-dir", str(tmp_path / "o")]) == 0


def test_cv_ill_conditioned_is_a_computation_failure(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = rng.dirichlet(np.ones(8), size=16)
    lines = [",".join(f"p{j}" for j in range(8)) + ",label"]
    for i, row in enumerate(rows):
        lines.append(",".join(f"{v:.6f}" for v in row)
                     + ("," + ("a" if i < 8 else "b")))
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["cv", "--data", str(path), "--alpha", "1", "--lambda", "1",
                 "--gamma", "0", "--n-test", "2", "--reps", "2",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "replicate" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["cv", "--alpha", "0.5", "--lambda", "0.5", "--gamma", "0.5"],
    ["grid", "--methods", "RDA,KNN_ESOV", "--alpha-grid", "0.5",
     "--lambda-grid", "0.5", "--gamma-grid", "0.5", "--k-grid", "1"],
])
def test_group_left_with_one_training_row_is_named_plainly(tmp_path, capsys,
                                                           command):
    # 20 rows of a and 3 of b: 12 test seats leave b one training row
    rng = np.random.default_rng(3)
    lines = ["x,y,w,label"] + [
        ",".join(f"{v:.6f}" for v in row) + ("," + ("a" if i < 20 else "b"))
        for i, row in enumerate(np.exp(rng.normal(size=(23, 3))))]
    path = tmp_path / "small.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main([command[0], "--data", str(path), *command[1:], "--n-test",
                 "12", "--reps", "3", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "group 'b' has 1 observation(s)" in capsys.readouterr().err


# -- grid search ----------------------------------------------------------------


def test_grid_pipeline_and_figures(tmp_path, capsys):
    path = synth(tmp_path)
    out = tmp_path / "grid"
    assert main(["grid", "--data", str(path),
                 "--alpha-grid", "0:1:0.5", "--lambda-grid", "0,1",
                 "--gamma-grid", "1", "--k-grid", "1:5:2",
                 "--methods", "RDA,KNN_ALPHA,KNN_ESOV",
                 "--n-test", "6", "--reps", "3",
                 "--out-dir", str(out)]) == 0
    report = read_json(out / "report.json")
    # 3 alphas x 2 lambdas x 1 gamma + 3 alphas x 3 ks + 3 ks
    assert report["search"]["n_combinations"] == 6 + 9 + 3
    assert set(report["search"]["best_per_method"]) == {
        "RDA", "KNN_ALPHA", "KNN_ESOV"}

    by_alpha = (out / "accuracy_by_alpha.tsv").read_text().splitlines()
    assert by_alpha[0] == "alpha\tRDA\tKNN_ALPHA"
    assert len(by_alpha) == 4
    k_by_alpha = (out / "knn_k_by_alpha.tsv").read_text().splitlines()
    assert len(k_by_alpha) == 4
    by_k = (out / "knn_by_k.tsv").read_text().splitlines()
    assert by_k[0] == "k\tbest_alpha\talpha_q\tesov_q"
    scatter = (out / "group_zero_scatter.tsv").read_text().splitlines()
    assert scatter[0] == "group\tsize\tzero_fraction\taccuracy\tsd"
    assert len(scatter) == 3

    text = capsys.readouterr().out
    assert "18 combinations" in text
    assert "best:" in text


def test_grid_axes_infer_methods(tmp_path):
    path = synth(tmp_path)
    out = tmp_path / "grid"
    # alphas plus ks and no shrinkage axes: LDA, QDA and both k-NN
    # variants are searched
    assert main(["grid", "--data", str(path), "--alpha-grid", "0,1",
                 "--k-grid", "1,3", "--n-test", "6", "--reps", "2",
                 "--out-dir", str(out)]) == 0
    report = read_json(out / "report.json")
    assert set(report["search"]["best_per_method"]) == {
        "LDA", "QDA", "KNN_ALPHA", "KNN_ESOV"}


def test_grid_reruns_are_byte_identical(tmp_path):
    path = synth(tmp_path)
    args = ["grid", "--data", str(path), "--alpha-grid", "0:1:0.5",
            "--methods", "LDA", "--n-test", "6", "--reps", "2",
            "--seed", "5"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "accuracy_by_alpha.tsv").read_bytes() == \
        (b / "accuracy_by_alpha.tsv").read_bytes()


def test_grid_rejects_malformed_axis(tmp_path, capsys):
    path = synth(tmp_path)
    # the last two have too many steps to count in a float
    for axis in ("0:1", "0:inf:1", "-1e308:1e308:1e-10"):
        assert main(["grid", "--data", str(path), f"--alpha-grid={axis}",
                     "--methods", "LDA", "--n-test", "6",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert f"bad --alpha-grid value {axis!r}" in capsys.readouterr().err


def test_grid_refuses_a_range_of_too_many_values(tmp_path, capsys):
    path = synth(tmp_path)
    # 10**12 + 1 values: refused once counted, before any is made
    assert main(["grid", "--data", str(path), "--alpha-grid", "0:1:1e-12",
                 "--methods", "LDA", "--n-test", "6",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "bad --alpha-grid value '0:1:1e-12'" in capsys.readouterr().err
    assert len(cli._parse_values("0:0.9999:1e-4", "--alpha-grid")) == 10_000
    with pytest.raises(ParameterOutOfRangeError, match="10001 values"):
        cli._parse_values("0:1:1e-4", "--alpha-grid")


@pytest.mark.parametrize("axes, message", [
    (["--alpha-grid", "0.5", "--lambda-grid", "2"],
     "lambda must lie in [0, 1], got 2.0"),
    (["--methods", "RDA", "--alpha-grid", "0.5", "--lambda-grid", "2",
      "--gamma-grid", "0.5"], "lambda must lie in [0, 1], got 2.0"),
    (["--methods", "LDA", "--alpha-grid", "0.5", "--gamma-grid", "-0.5"],
     "gamma must lie in [0, 1], got -0.5"),
    (["--methods", "LDA", "--alpha-grid", "0.5", "--k-grid", "0,3"],
     "k must be at least 1, got 0"),
], ids=["unused-lambda", "used-lambda", "unused-gamma", "unused-k"])
def test_grid_checks_every_axis_range(tmp_path, capsys, axes, message):
    path = synth(tmp_path)
    out = tmp_path / "o"
    assert main(["grid", "--data", str(path), *axes, "--n-test", "6",
                 "--reps", "2", "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k_grid", ["1:4:0.5", "1,2.5"])
def test_grid_rejects_non_integer_k(tmp_path, capsys, k_grid):
    path = synth(tmp_path)
    out = tmp_path / "o"
    assert main(["grid", "--data", str(path), "--k-grid", k_grid,
                 "--methods", "KNN_ESOV", "--n-test", "6", "--reps", "2",
                 "--out-dir", str(out)]) == 2
    assert "k must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_grid_rejects_unknown_method(tmp_path, capsys):
    path = synth(tmp_path)
    assert main(["grid", "--data", str(path), "--alpha-grid", "0,1",
                 "--methods", "SVM", "--n-test", "6",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "SVM" in capsys.readouterr().err


# -- synth ----------------------------------------------------------------------


def test_synth_output_is_loadable(tmp_path):
    path = synth(tmp_path)
    ds = load_dataset(path, DatasetSchema(label_col="label"))
    assert ds.n == 40 and ds.D == 4
    assert ds.group_names == ("g01", "g02")
    manifest = read_json(path.parent / "manifest.json")
    assert manifest["dataset"]["digest"] == ds.content_digest()


def test_synth_tsv_loads_with_the_default_schema(tmp_path):
    tsv = synth(tmp_path, "--format", "tsv").with_suffix(".tsv")
    ds = load_dataset(tsv, DatasetSchema(label_col="label"))
    csv = load_dataset(synth(tmp_path), DatasetSchema(label_col="label"))
    assert ds.component_names == csv.component_names
    assert ds.raw.tobytes() == csv.raw.tobytes()
    assert (ds.labels == csv.labels).all()


def test_synth_rejects_impossible_spec(tmp_path, capsys):
    assert main(["synth", "--regime", "lra", "--dim", "3", "--groups", "5",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "groups" in capsys.readouterr().err


@pytest.mark.parametrize("separation, message", [
    ("inf", "separation must be positive and finite"),
    # finite, but exp() of the group means overflows
    ("2000", "non-finite parts in 100 row(s)"),
], ids=["inf", "overflow"])
def test_synth_rejects_non_finite_output(tmp_path, capsys, separation,
                                         message):
    out = tmp_path / "o"
    assert main(["synth", "--regime", "lra", "--separation", separation,
                 "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "simplex-clf" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the command line must not pay for
    # importing it
    subprocess.run(
        [sys.executable, "-c",
         "import simplexclf.cli, sys; assert 'scipy' not in sys.modules"],
        env=child_env(), check=True)


RUN_COMMANDS = """\
import json, sys
from simplexclf.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
assert 'numpy.ma' not in sys.modules, 'a command imported numpy.ma'
"""


def test_commands_load_no_numpy_ma(data, tmp_path):
    # a plain np.unique or np.setdiff1d call imports numpy.ma (about
    # 15 ms) to rule out masked input; no command should pay for that
    d, out = str(data), str(tmp_path / "out")
    fit = [["fit", "--data", d, "--alpha", "0.5", "--lambda", "0.5",
            "--gamma", "0.5", "--out-dir", f"{out}/rda"],
           ["fit", "--data", d, "--k", "1", "--metric", "esov",
            "--out-dir", f"{out}/knn"]]
    commands = [
        ["transform", "--data", d, "--alpha", "0.5", "--out-dir", out],
        ["distance", "--data", d, "--metric", "esov", "--out-dir", out],
        ["summarize", "--data", d, "--out-dir", out],
        *fit,
        *(["predict", "--model", f"{argv[-1]}/model.json", "--data", d,
           "--out-dir", argv[-1]] for argv in fit),
        ["cv", "--data", d, "--k", "1", "--metric", "esov", "--n-test", "2",
         "--reps", "3", "--out-dir", out],
        ["grid", "--data", d, "--methods", "RDA,KNN_ESOV",
         "--alpha-grid", "0.5,1", "--lambda-grid", "0.5",
         "--gamma-grid", "0.5", "--k-grid", "1", "--n-test", "2",
         "--reps", "3", "--out-dir", out],
    ]
    child = subprocess.run([sys.executable, "-c", RUN_COMMANDS,
                            json.dumps(commands)],
                           env=child_env(), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


PLAIN = (dict, list, str, int, float, bool, type(None))


def assert_plain(value, where="doc"):
    """Fail on any value whose exact type is not a JSON type of the
    standard library: numpy scalars, tuples and str subclasses fail."""
    assert type(value) in PLAIN, f"{where}: {type(value).__name__}"
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{where}: key {key!r}"
            assert_plain(item, f"{where}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            assert_plain(item, f"{where}[{i}]")


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_every_document_is_plain_strict_json(data, tmp_path, monkeypatch):
    # the documents reach json.dumps as they are built, with nothing to
    # convert them on the way
    docs = []
    dumps = cli._dumps

    def recording(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(cli, "_dumps", recording)
    d, out = str(data), tmp_path / "out"
    runs = {
        "synth-csv": ["synth", "--regime", "lra"],
        "synth-json": ["synth", "--regime", "lra", "--format", "json"],
        "summarize": ["summarize", "--data", d],
        "fit-rda": ["fit", "--data", d, *RDA_FLAGS],
        "fit-knn": ["fit", "--data", d, "--k", "1", "--metric", "esov"],
        "cv": ["cv", "--data", d, *RDA_FLAGS, "--n-test", "2",
               "--reps", "3"],
        # QDA is singular on four training rows: the report lists skips
        "grid": ["grid", "--data", d, "--methods", "RDA,QDA,KNN_ESOV",
                 "--alpha-grid", "0.5,1", "--lambda-grid", "0.5",
                 "--gamma-grid", "0.5", "--k-grid", "1", "--n-test", "2",
                 "--reps", "3"],
    }
    for fmt in ("tsv", "json"):
        runs[f"transform-{fmt}"] = ["transform", "--data", d, "--alpha",
                                    "0.5", "--format", fmt]
        runs[f"distance-{fmt}"] = ["distance", "--data", d, "--metric",
                                   "esov", "--format", fmt]
    for fmt in ("tsv", "json"):
        runs[f"inverse-{fmt}"] = [
            "transform", "--inverse", "--format", fmt,
            "--data", str(out / "transform-tsv" / "transformed.tsv")]
        for kind in ("rda", "knn"):
            runs[f"predict-{kind}-{fmt}"] = [
                "predict", "--model", str(out / f"fit-{kind}" / "model.json"),
                "--data", d, "--format", fmt]
        # recovered compositions carry no label column
        runs[f"predict-bare-{fmt}"] = [
            "predict", "--model", str(out / "fit-knn" / "model.json"),
            "--format", fmt,
            "--data", str(out / "inverse-tsv" / "recovered.tsv")]
    for name, argv in runs.items():
        assert main([*argv, "--out-dir", str(out / name)]) == 0, name
    for doc in docs:
        assert_plain(doc)
    written = sorted(out.rglob("*.json"))
    assert len(written) == len(docs) > len(runs)
    for path in written:
        json.loads(path.read_text(), parse_constant=reject_constant)
