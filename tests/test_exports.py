"""Every exported name of the package resolves to a definition.

A deleted function whose name stays in a module's ``__all__`` breaks
``from seqamp.<module> import *`` only; one that stays in the package's
``__init__`` breaks ``import seqamp`` for everybody.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import seqamp

SRC = Path(seqamp.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC)]))


def package_imports():
    """(module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"seqamp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"seqamp.{name}.__all__ names undefined {missing}"


def test_package_imports_are_exported_names():
    pairs = package_imports()
    assert pairs
    for module_name, name in pairs:
        module = importlib.import_module(f"seqamp.{module_name}")
        assert hasattr(module, name), f"seqamp.{module_name} has no {name}"
        assert name in module.__all__, f"{name} missing from seqamp.{module_name}.__all__"
