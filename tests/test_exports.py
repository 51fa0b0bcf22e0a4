"""Every exported name resolves, so a deleted function cannot stay exported."""

import ast
import functools
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import ncgcurv

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ncgcurv.__path__))
ROOT = Path(__file__).resolve().parents[1]


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
    # tests/test_triple.py define them for themselves; the form arithmetic
    # (tables are composed as arrays) and FormSpace.membership (an alias of
    # glinalg.membership_residual) are gone altogether, as are the
    # correspondence wrappers (callers read one correspondence_report) and
    # ConnectionForm.pairing_adjoint (pairing_adjoint_entries is the one spelling);
    # the Kronecker lifts, the symmetrizer of whole forms and the delta basis as
    # forms are built by tests/reference.py
    from ncgcurv import curvature, fgpmod, forms

    moved = {"left_mult", "right_mult", "multiply_coords"}
    assert moved.isdisjoint(set(ncgcurv.__all__) | set(forms.__all__))
    assert [n for n in moved if hasattr(forms, n)] == []
    assert not hasattr(forms.UniversalOneForm, "star")
    assert not hasattr(ncgcurv.SpectralTriple, "multiply_coords")
    for cls in (forms.UniversalOneForm, ncgcurv.ConnectionForm):
        assert [n for n in ("__add__", "__mul__", "__rmul__") if hasattr(cls, n)] == []
    assert not hasattr(forms.FormSpace, "membership")
    wrappers = {"correspondence_curvature", "wac_diagnostic"}
    assert wrappers.isdisjoint(set(ncgcurv.__all__) | set(curvature.__all__))
    assert [n for n in wrappers if hasattr(curvature, n)] == []
    assert not hasattr(ncgcurv.ConnectionForm, "pairing_adjoint")
    removed = {"symmetrize_connection", "universal_form_basis"}
    assert removed.isdisjoint(set(ncgcurv.__all__) | set(fgpmod.__all__) | set(forms.__all__))
    assert [n for n in removed if hasattr(fgpmod, n) or hasattr(forms, n)] == []
    lifts = ("sign_lift", "dirac_lift", "dirac_plain_lift")
    assert [n for n in lifts if hasattr(ncgcurv.ProjectiveModule, n)] == []
    # represented() is the one evaluation of a form: A_D, A_D2 and the ker(m) defect
    evaluations = ("represented_d", "_represent", "mult_residual", "_point_mult_residual")
    assert [n for n in evaluations if hasattr(ncgcurv.ConnectionForm, n)] == []
    assert [n for n in ("a_d", "a_d2", "n_op") if hasattr(fgpmod.ConnectionOperators, n)] == []
    # the grading is applied by ProjectiveModule.graded and never assembled, and the
    # curvature routes and the spectrum read the connection's bundle alone
    from ncgcurv import glinalg

    assert not hasattr(ncgcurv.ProjectiveModule, "grading")
    assert not hasattr(glinalg, "parity_residual") and "parity_residual" not in glinalg.__all__
    assert not hasattr(fgpmod, "_block_lift")
    params = {f: list(inspect.signature(f).parameters) for f in (
        curvature.curvature_direct, curvature.curvature_formula, fgpmod.spectrum)}
    assert list(params.values()) == [["ops"], ["ops"], ["ops", "tol"]]


def _loads(node) -> list[str]:
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        return [node.id if isinstance(node, ast.Name) else node.attr]
    return []


@functools.cache
def _reads() -> Counter:
    """Reads of each name as a Name or an Attribute in the library, demos, oracles,
    tools and benchmark, less those inside a definition of that name."""
    reads = Counter()
    for path in (p for top in ("src", "demos", "oracles", "tools", "bench")
                 for p in sorted((ROOT / top).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            reads.update(_loads(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                reads[node.name] -= sum(n == node.name for sub in ast.walk(node)
                                        for n in _loads(sub))
    return reads


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_export_has_a_caller(name):
    # an exported name is read somewhere outside the tests: a name that only
    # __all__, a test or a string (a tracer target) mentions is dead API
    module = importlib.import_module(f"ncgcurv.{name}")
    assert [n for n in module.__all__ if _reads()[n] <= 0] == []


@functools.cache
def _attribute_reads() -> Counter:
    """Reads of each name as an attribute, ``x.name``, in the library, demos,
    oracles, tools and benchmark, less those inside a definition of that name."""
    reads = Counter()
    for path in (p for top in ("src", "demos", "oracles", "tools", "bench")
                 for p in sorted((ROOT / top).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads[node.name] -= sum(isinstance(sub, ast.Attribute) and sub.attr == node.name
                                        and isinstance(sub.ctx, ast.Load)
                                        for sub in ast.walk(node))
    return reads


def _public_members(cls) -> list[str]:
    """The public methods and properties that ``cls`` itself defines."""
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    return [n for n, v in vars(cls).items()
            if not n.startswith("_") and (callable(v) or isinstance(v, kinds))]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_class_member_has_a_caller(name):
    # a public method or property of an exported class is read as x.name
    # somewhere outside the tests, or it is dead API
    module = importlib.import_module(f"ncgcurv.{name}")
    classes = [getattr(module, n) for n in module.__all__ if isinstance(getattr(module, n), type)]
    unread = [f"{cls.__name__}.{n}" for cls in classes for n in _public_members(cls)
              if _attribute_reads()[n] <= 0]
    assert unread == []


def test_forms_keeps_no_kernel_memo():
    # forms is pure functions: each call solves its own kernel, and no
    # process-wide table keyed by triple survives between calls
    from ncgcurv import forms

    assert not hasattr(forms, "_KERNELS")
    tree = ast.parse(Path(forms.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "weakref" not in imported


def test_cli_imports_no_private_name():
    # the CLI reads the library through public names only: no `_name` is
    # imported from an ncgcurv module, nor read off an imported one
    from ncgcurv import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.split(".")[0] == "ncgcurv")]
    names = {alias.asname or alias.name for node in imports for alias in node.names}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    imported = [alias.name for node in imports for alias in node.names if private(alias.name)]
    read = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in names and private(node.attr)]
    assert imported == [] and read == []
