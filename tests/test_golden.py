"""Golden digests of grid artifacts: any change to the numbers a grid
search reports shows up here.

Three grids are pinned.  The Gaussian one runs on a synthetic dataset with
d = 9 transformed coordinates, overlapping groups (so many test points
sit near a decision boundary) and a group small enough that QDA and
lambda = 1 RDA are skipped as ill-conditioned; its alpha axis covers
alpha < 0, alpha = 0 and alpha > 0.  The five-family one runs every
method on glass-shaped data with exact zeros and rounded parts (so
distance and vote ties occur), alpha > 0 only, and writes every panel,
the k-NN ones included.  The later-skip one runs the Gaussian methods on
data where one group lies on a hyperplane except for one row, so every
lambda = 1 combination fails at the first replicate that puts that row
in the test set, which is not replicate 0.  The tie-heavy k-NN one runs
both k-NN methods on lattice compositions with many duplicate rows, so
most votes tie, once with the default chunk budget and once with a 1-byte
one (one replicate per chunk).  A change to the Gaussian fit,
factorisation, scoring, the k-NN vote or the panel layout must leave
every digest as it is.
"""

import hashlib
import json

import numpy as np
import pytest

from simplexclf import evaluation
from simplexclf.cli import main

D = 10
SIZES = (40, 30, 20, 11)

# (seed, prior) -> sha256 of the ``search`` block and of each TSV panel
GOLDEN = {
    (1, "proportional"): {
        "search": "e7f6c9f43a54a92b3a5dacacd0f500202e4ad7c8"
                  "5cbb6dde0cb76b43e371c4f2",
        "accuracy_by_alpha.tsv": "2f169b8884bf2414af3301d28b693e909d68afdc"
                                 "d90d8e822ec209469ad4556d",
        "group_zero_scatter.tsv": "b11ef24379905333d8966f2e26a68004f6ffaa95"
                                  "25fa104f7e1b3b91fda84927",
    },
    (2, "uniform"): {
        "search": "843d6913670811056341d3d2d36925e9348495c1"
                  "00d95cd06cd37da31a0b938e",
        "accuracy_by_alpha.tsv": "19df70bc647590891f97a1d2ee70871095410baa"
                                 "839a403c04966c5efe85dbfa",
        "group_zero_scatter.tsv": "7475b722fd3921d99a18ecf5c8c6566d1a5f5155"
                                  "100516b73e3cf40b1109fd6a",
    },
}

# Glass-shaped groups: (label, size, mean part percentages, probability
# that each of the last three parts is an exact zero)
GLASS_LIKE = (
    ("1", 30, (13.2, 3.5, 72.6, 8.8, 0.45, 0.06), (0.02, 0.6, 0.9)),
    ("2", 26, (13.1, 3.0, 72.6, 9.1, 0.52, 0.08), (0.02, 0.5, 0.85)),
    ("5", 14, (12.8, 0.8, 72.4, 10.1, 1.47, 0.16), (0.05, 0.2, 0.3)),
    ("7", 14, (14.4, 0.5, 73.0, 8.5, 0.33, 0.11), (0.4, 0.2, 0.1)),
)

# (seed, prior) -> sha256 of the ``search`` block and of each TSV panel
GOLDEN_ALL_FAMILIES = {
    (3, "proportional"): {
        "search": "9b58704d740e3bfd0f5176eaefe9042d38a6b2ba"
                  "080106f57e669ea1ce2d5add",
        "accuracy_by_alpha.tsv": "00931b4e1b6521b2f73773d24e43c3de40abf426"
                                 "389c69a225c4e77528381ed0",
        "group_zero_scatter.tsv": "6e7c0fc3915a6c736a01554582cf97b23708dea4"
                                  "3bdd10864990cae1a1515d33",
        "knn_by_k.tsv": "233fa316b236431490fbb5aa61eecca251eca25e"
                        "4dc6815e8ba066b98f9a26c7",
        "knn_k_by_alpha.tsv": "c02d63426e6eeadbb38b27265a1ac27cfe931ec7"
                              "e6f1914ba5a3fc545e8ea063",
    },
    (5, "uniform"): {
        "search": "fdbb32ca40e79028a93ffbf18286346b6f572e59"
                  "3689d47de9c9e4407842beab",
        "accuracy_by_alpha.tsv": "23c4e83794ef1936d00daa11e9328ef9c817d266"
                                 "d7bd886d19c6aeb56a55392e",
        "group_zero_scatter.tsv": "e9dc92c0ef4398df6267c48f4f84b330fa049855"
                                  "714b0efac6860429b2d43946",
        "knn_by_k.tsv": "3dd2cd1334eb985e3b590150e60b3d98d7070f05"
                        "e5449e04b003c970617083bb",
        "knn_k_by_alpha.tsv": "d9b643479468f6995b54aed7c2c6883b62e54acd"
                              "42127e874f3c3adb32e221e7",
    },
}

# (seed, prior) -> sha256 of the ``search`` block and of each TSV panel
GOLDEN_LATER_SKIPS = {
    (4, "proportional"): {
        "search": "92e0c58021ba6d610189f3d59ec99e1c218c38d4"
                  "49f1d31d50fb13ce30e6cd8e",
        "accuracy_by_alpha.tsv": "1d269cb7a93be46a9af5ee0762e976a6e4aa7f4a"
                                 "203ebdf52d40cb1d1328389a",
        "group_zero_scatter.tsv": "f8ceadb7e934893766ccc321b2810e8f4bcb87fb"
                                  "e1776968b734784148bf7dff",
    },
    (6, "uniform"): {
        "search": "3c8a2f762fb6a257202db5ef1dc988c7ec14b520"
                  "040a9ff9b026b22c53eca565",
        "accuracy_by_alpha.tsv": "cb90769af705238d4e83c9207f59a7f509fdc104"
                                 "d1ee8c1bb25496d064588758",
        "group_zero_scatter.tsv": "25a496bbfd7c1284af471dd99a3071efd66b1003"
                                  "08f6029d057ab303ec523121",
    },
}


# seed -> sha256 of the ``search`` block and of each TSV panel, the same
# under every chunk budget
GOLDEN_KNN_TIES = {
    7: {
        "search": "394321f7b6ad0f71fb00351add25ff559e62213a"
                  "f5dfa207befa063691a8e6fc",
        "accuracy_by_alpha.tsv": "f70866fc0cc0def1e634564103a875c328086226"
                                 "0182ff9ab3778e83252b6e6d",
        "group_zero_scatter.tsv": "bab16449e5ebb87a10ac49e35fd1b393a6cbc4bb"
                                  "b5383bf956a0f29897c8cf68",
        "knn_by_k.tsv": "4869459e7429bd39c38d2529389be5349bc5c50d"
                        "cab9d15bb6b7fb2577bc4d73",
        "knn_k_by_alpha.tsv": "9112b4bad288313df2bddd01257b93d5af933754"
                              "dea9b3f693e12ca1b0e66603",
    },
    8: {
        "search": "cc44ccac80cb2bd0c250b8585cfbefa0db092e20"
                  "85ef886808d99f2f11d0074c",
        "accuracy_by_alpha.tsv": "ce18fd4a0c196fb7287546f5f7d2ad9a75bb8bf4"
                                 "84fca43edba93bf00b345414",
        "group_zero_scatter.tsv": "a16524937093d236836f4cb7def48affb267f890"
                                  "65f654ba8a2143d6ed962104",
        "knn_by_k.tsv": "2c0e5ad6ffd7c7942f6d6c73bfabefdda7d243a9"
                        "e5459642d815418196eb39f9",
        "knn_k_by_alpha.tsv": "3c035c4f2beefbfe4b9d0778901313213e947d06"
                              "52cbc0535907db7fed1d73de",
    },
}


def _write_data(path):
    rng = np.random.default_rng(7)
    lines = [",".join([f"p{j}" for j in range(D)] + ["label"])]
    for g, size in enumerate(SIZES):
        centre = rng.normal(0.0, 0.15, D)
        scale = rng.uniform(0.2, 0.8, D)
        for _ in range(size):
            row = np.exp(centre + scale * rng.standard_normal(D))
            lines.append(",".join(repr(float(v)) for v in row) + f",g{g}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_glass_like(path):
    rng = np.random.default_rng(13)
    parts = len(GLASS_LIKE[0][2])
    lines = [",".join([f"p{j}" for j in range(parts)] + ["label"])]
    for label, size, means, zero_p in GLASS_LIKE:
        noise = np.full(parts, 0.04)
        noise[-3:] = 0.35
        raw = np.asarray(means) * np.exp(
            noise * rng.standard_normal((size, parts)))
        raw[:, -3:] *= rng.random((size, 3)) >= np.asarray(zero_p)
        for row in np.round(raw, 2):
            lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_hyperplane_group(path):
    rng = np.random.default_rng(17)
    lines = [",".join([f"p{j}" for j in range(5)] + ["label"])]
    for g, size in enumerate((30, 24, 12)):
        centre = rng.normal(0.0, 0.3, 5)
        raw = np.exp(centre + 0.4 * rng.standard_normal((size, 5)))
        if g == 2:
            # equal last two parts make every transformed covariance of
            # the group singular unless its first row is in training
            raw[1:, 4] = raw[1:, 3]
        for row in raw:
            lines.append(",".join(repr(float(v)) for v in row) + f",g{g}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_lattice(path):
    rng = np.random.default_rng(19)
    lines = ["p0,p1,p2,p3,label"]
    for g, size in enumerate((14, 12, 10)):
        raw = rng.integers(0, 3, size=(size, 4))
        raw[raw.sum(axis=1) == 0, g] = 1
        lines += [",".join(map(str, row)) + f",g{g}" for row in raw]
    path.write_text("\n".join(lines) + "\n")
    return path


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _digests(out):
    search = json.loads((out / "report.json").read_text())["search"]
    digests = {"search": _sha(json.dumps(search, sort_keys=True).encode())}
    for panel in sorted(p.name for p in out.glob("*.tsv")):
        digests[panel] = _sha((out / panel).read_bytes())
    return search, digests


@pytest.mark.parametrize("seed, prior", sorted(GOLDEN))
def test_gaussian_grid_artifacts_match_golden_digests(tmp_path, seed, prior):
    data = _write_data(tmp_path / "data.csv")
    out = tmp_path / "grid"
    assert main(["grid", "--data", str(data), "--methods", "RDA,LDA,QDA",
                 "--alpha-grid=-0.5:1:0.5", "--lambda-grid", "0:1:0.5",
                 "--gamma-grid", "0,0.5,1", "--prior", prior,
                 "--n-test", "20", "--reps", "30", "--seed", str(seed),
                 "--out-dir", str(out)]) == 0
    search, digests = _digests(out)
    # the grid must reach the ill-conditioned branch for the digests to
    # cover it
    assert search["skipped"]
    assert digests == GOLDEN[(seed, prior)]


@pytest.mark.parametrize("seed, prior", sorted(GOLDEN_ALL_FAMILIES))
def test_all_family_grid_artifacts_match_golden_digests(tmp_path, seed,
                                                        prior):
    data = _write_glass_like(tmp_path / "data.csv")
    out = tmp_path / "grid"
    assert main(["grid", "--data", str(data), "--alpha-grid", "0.25:1:0.25",
                 "--lambda-grid", "0:1:0.5", "--gamma-grid", "0,1",
                 "--k-grid", "1,2,3,5,8", "--prior", prior,
                 "--n-test", "16", "--reps", "20", "--seed", str(seed),
                 "--out-dir", str(out)]) == 0
    search, digests = _digests(out)
    assert sorted(search["best_per_method"]) == sorted(
        ["RDA", "LDA", "QDA", "KNN_ALPHA", "KNN_ESOV"])
    assert sorted(digests) == ["accuracy_by_alpha.tsv",
                               "group_zero_scatter.tsv", "knn_by_k.tsv",
                               "knn_k_by_alpha.tsv", "search"]
    assert digests == GOLDEN_ALL_FAMILIES[(seed, prior)]


@pytest.mark.parametrize("seed, prior", sorted(GOLDEN_LATER_SKIPS))
def test_later_replicate_skips_match_golden_digests(tmp_path, seed, prior):
    data = _write_hyperplane_group(tmp_path / "data.csv")
    out = tmp_path / "grid"
    assert main(["grid", "--data", str(data), "--methods", "RDA,LDA,QDA",
                 "--alpha-grid=-0.5:1:0.5", "--lambda-grid", "0:1:0.5",
                 "--gamma-grid", "0,0.5,1", "--prior", prior,
                 "--n-test", "12", "--reps", "30", "--seed", str(seed),
                 "--out-dir", str(out)]) == 0
    search, digests = _digests(out)
    # exactly QDA and the lambda = 1 RDA combinations leave, and not at
    # replicate 0
    skipped = search["skipped"]
    assert len(skipped) == 4 + 4 * 3
    assert all(s["method"].get("lam", 1.0) == 1.0 for s in skipped)
    assert min(s["replicate"] for s in skipped) > 0
    assert digests == GOLDEN_LATER_SKIPS[(seed, prior)]


@pytest.mark.parametrize("budget", [1, evaluation._BLOCK_BYTES])
@pytest.mark.parametrize("seed", sorted(GOLDEN_KNN_TIES))
def test_tie_heavy_knn_grid_artifacts_match_golden_digests(
        tmp_path, monkeypatch, seed, budget):
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", budget)
    data = _write_lattice(tmp_path / "data.csv")
    out = tmp_path / "grid"
    assert main(["grid", "--data", str(data),
                 "--methods", "KNN_ALPHA,KNN_ESOV",
                 "--alpha-grid", "0.25,0.5,1", "--k-grid", "1,2,3,5,8",
                 "--n-test", "9", "--reps", "6", "--seed", str(seed),
                 "--out-dir", str(out)]) == 0
    _, digests = _digests(out)
    assert digests == GOLDEN_KNN_TIES[seed]
