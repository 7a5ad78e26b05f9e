"""Golden digests of grid artifacts: any change to the numbers a grid
search reports shows up here.

The digests were recorded from the Gaussian engine on a synthetic
dataset with d = 9 transformed coordinates, overlapping groups (so many
test points sit near a decision boundary) and a group small enough that
QDA and lambda = 1 RDA are skipped as ill-conditioned.  The alpha axis
covers alpha < 0, alpha = 0 and alpha > 0.  A performance change to the
Gaussian fit, factorisation or scoring must leave every digest as it is.
"""

import hashlib
import json

import numpy as np
import pytest

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


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed, prior", sorted(GOLDEN))
def test_gaussian_grid_artifacts_match_golden_digests(tmp_path, seed, prior):
    data = _write_data(tmp_path / "data.csv")
    out = tmp_path / "grid"
    assert main(["grid", "--data", str(data), "--methods", "RDA,LDA,QDA",
                 "--alpha-grid=-0.5:1:0.5", "--lambda-grid", "0:1:0.5",
                 "--gamma-grid", "0,0.5,1", "--prior", prior,
                 "--n-test", "20", "--reps", "30", "--seed", str(seed),
                 "--out-dir", str(out)]) == 0
    search = json.loads((out / "report.json").read_text())["search"]
    # the grid must reach the ill-conditioned branch for the digests to
    # cover it
    assert search["skipped"]
    digests = {"search": _sha(json.dumps(search, sort_keys=True).encode())}
    for panel in sorted(p.name for p in out.glob("*.tsv")):
        digests[panel] = _sha((out / panel).read_bytes())
    assert digests == GOLDEN[(seed, prior)]
