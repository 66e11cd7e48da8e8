"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib

import pytest

MODULES = [
    "inertdrift",
    "inertdrift.geometry",
    "inertdrift.coefficients",
    "inertdrift.skorokhod",
    "inertdrift.stationary",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
