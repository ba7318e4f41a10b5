"""Every exported name resolves, and every imported name is used.

A name left in a module's `__all__` after its definition is deleted breaks
only `from fracinv.<module> import *`; the checks here turn it into a test
failure. The package's own imports are checked the same way. An import left
behind after its last use is deleted breaks nothing at all, so it is found
by reading each module's syntax tree.
"""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracinv

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracinv.__path__, "fracinv."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(fracinv.__file__).read_text())
    imported = [(node.module, alias.asname or alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(fracinv, name), name
        assert name in importlib.import_module(f"fracinv.{module}").__all__, (module, name)


# (module, name) of public API that was deleted, a dotted name for a class
# attribute or a dataclass field; a stale re-export or `__all__` entry would
# bring the name back
REMOVED = [("fracinv", "Trajectory"), ("fracinv.fem", "Trajectory"),
           ("fracinv.errors", "ResolutionError"),
           ("fracinv.inverse", "InverseSetup.nodal_to_param"),
           ("fracinv.problems", "ProblemSpec.sample"),
           ("fracinv.problems", "TimeGrid.times"),
           ("fracinv.grids", "Grid1D.interior"),
           ("fracinv.fem", "FemOperator.mass_apply"),
           ("fracinv.fem", "FemOperator.mass_apply_interior"),
           ("fracinv.experiments", "TableReport"),
           ("fracinv.problems", "ProblemSpec.T"),
           ("fracinv.problems", "ProblemSpec.domain"),
           ("fracinv.problems", "ProblemSpec.grid_for"),
           ("fracinv.problems", "ProblemSpec.diffusion"),
           ("fracinv.problems", "ProblemSpec.potential"),
           ("fracinv.config", "check_seed"),
           ("fracinv.fem", "FemOperator.row_sweep")]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_gone(module, name):
    owner = mod = importlib.import_module(module)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    # a field without a default has no class attribute: hasattr cannot see it
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
    assert not hasattr(owner, attr) and attr not in fields
    assert name not in getattr(mod, "__all__", [])


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    """Names read anywhere in the tree, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    # the package __init__ imports only to re-export; it is checked above
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    assert sorted(imported - _used_names(tree)) == []
