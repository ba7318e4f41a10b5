"""Every exported name resolves.

A name left in a module's `__all__` after its definition is deleted breaks
only `from fracinv.<module> import *`; the checks here turn it into a test
failure. The package's own imports are checked the same way.
"""

import ast
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
