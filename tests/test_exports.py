"""Every exported name of the package resolves to a definition.

A deleted function whose name stays in a module's ``__all__`` breaks
``from seqamp.<module> import *`` only; one that stays in the package's
``__init__`` breaks ``import seqamp`` for everybody.  Likewise every
binding the benchmark's tracing wraps (``perfbench/bench_trace.SITES``)
must exist, or the benchmark fails inside its run.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import seqamp

SRC = Path(seqamp.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC)]))
BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def package_imports():
    """(module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def bench_trace_sites():
    """(module, attribute) of every lookup site the benchmark traces."""
    spec = importlib.util.spec_from_file_location("_bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return [site[:2] for site in module.SITES]


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


@pytest.mark.parametrize("module_name, attr", bench_trace_sites())
def test_bench_trace_site_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name} has no {attr}"
