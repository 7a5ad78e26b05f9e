"""The public names of the package and of each module."""

import importlib

import pytest

import simplexclf

MODULES = ("core", "metrics", "classifiers", "evaluation", "dataio")
# module exports that the package leaves under their module
MODULE_ONLY = {"evaluation": {"METHOD_NAMES", "METHOD_PARAMS"}}
# removed in favour of the report's own per_zero_count and q
REMOVED = {"breakdown_by_zero_count", "correct_rate"}


def test_package_exports_resolve():
    for name in simplexclf.__all__:
        assert hasattr(simplexclf, name), name
    assert not REMOVED & set(simplexclf.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve_and_reach_the_package(module):
    mod = importlib.import_module(f"simplexclf.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name
    assert not REMOVED & set(mod.__all__)
    assert set(mod.__all__) - set(simplexclf.__all__) == \
        MODULE_ONLY.get(module, set())
    for name in set(mod.__all__) & set(simplexclf.__all__):
        assert getattr(simplexclf, name) is getattr(mod, name), name
