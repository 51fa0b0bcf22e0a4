"""Every exported name resolves, so a deleted function cannot stay exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ncgcurv

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ncgcurv.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ncgcurv.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    assert [n for n in ncgcurv.__all__ if not hasattr(ncgcurv, n)] == []


def test_package_exports_are_its_imports():
    tree = ast.parse(Path(ncgcurv.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(ncgcurv.__all__) == sorted(imported | {"__version__"})


def test_test_only_helpers_stay_in_the_tests():
    # the bimodule actions, the form involution and the coordinate product
    # have no caller outside tests/, so tests/test_forms.py and
    # tests/test_triple.py define them for themselves
    from ncgcurv import forms

    moved = {"left_mult", "right_mult", "multiply_coords"}
    assert moved.isdisjoint(set(ncgcurv.__all__) | set(forms.__all__))
    assert [n for n in moved if hasattr(forms, n)] == []
    assert not hasattr(forms.UniversalOneForm, "star")
    assert not hasattr(ncgcurv.SpectralTriple, "multiply_coords")
