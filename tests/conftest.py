import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import simplexclf
from simplexclf.dataio import find_glass, load_glass

GLASS_HELP = (
    "forensic glass data not found. Run scripts/fetch_glass.py (downloads "
    "the UCI file to data/glass.csv; needs network access) or point "
    "SIMPLEX_CLF_GLASS at an existing copy. Deselect these tests with "
    "-m 'not needs_glass'."
)


@pytest.fixture(scope="session")
def glass():
    path = find_glass()
    if path is None:
        pytest.fail(GLASS_HELP, pytrace=False)
    return load_glass(path)


def random_compositions(rng, n, D, zeros=False):
    """Strictly positive unless ``zeros``; rows closed."""
    raw = rng.dirichlet(np.ones(D), size=n)
    if zeros:
        mask = rng.random(raw.shape) < 0.15
        # never zero out a full row
        mask[mask.all(axis=1), 0] = False
        raw[mask] = 0.0
    return raw / raw.sum(axis=1, keepdims=True)


def child_env():
    """The environment of a child interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(simplexclf.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fresh_dir(tmp_path):
    """A new, empty directory under ``tmp_path``.  A hypothesis test gives
    each example its own files: on some file systems truncating or
    replacing an existing file flushes it to disk, which cost about 60 ms
    a write where a new name costs well under 1 ms."""
    return Path(tempfile.mkdtemp(dir=tmp_path))
