"""End-to-end command line checks: files written, exit codes, envelopes."""

import json

import numpy as np
import pytest

from simplexclf.classifiers import fit_rda
from simplexclf.cli import main
from simplexclf.dataio import DatasetSchema, load_dataset

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


@pytest.mark.parametrize("damage, named", [
    (truncate_means, "'means'"),
    (drop_covariances, "'covariances'"),
    (nan_covariance_cell, "'covariances'"),
    (singleton_count, "'counts'"),
    (zero_covariances, "does not rebuild"),
    (asymmetric_covariance, "non-symmetric"),
    (fractional_source_dim, "integer source_dim"),
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
    ["transform", "--alpha", "nan"],
    ["transform", "--alpha", "inf"],
    ["distance", "--metric", "alpha", "--alpha", "nan"],
    ["cv", "--alpha", "nan", "--lambda", "0.5", "--gamma", "0.5",
     "--n-test", "6", "--reps", "2"],
    ["grid", "--alpha-grid", "nan", "--lambda-grid", "0.5",
     "--gamma-grid", "0.5", "--n-test", "6", "--reps", "2"],
], ids=["transform-nan", "transform-inf", "distance", "cv", "grid"])
def test_non_finite_alpha_is_an_input_error(tmp_path, capsys, command):
    path = synth(tmp_path)
    out = tmp_path / "o"
    assert main([*command, "--data", str(path), "--out-dir", str(out)]) == 2
    assert "alpha must be a finite number" in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("*.tsv"))


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
    assert main(["grid", "--data", str(path), "--alpha-grid", "0:1",
                 "--methods", "LDA", "--n-test", "6",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "--alpha-grid" in capsys.readouterr().err


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


def test_synth_rejects_impossible_spec(tmp_path, capsys):
    assert main(["synth", "--regime", "lra", "--dim", "3", "--groups", "5",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "groups" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "simplex-clf" in capsys.readouterr().out
