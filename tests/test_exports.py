"""Every exported name of the package resolves to a definition.

A deleted function whose name stays in a module's ``__all__`` breaks
``from seqamp.<module> import *``.  The package itself exports no names,
so each module's ``__all__`` is the one list of its names.  Likewise every
binding the benchmark's tracing wraps (``perfbench/bench_trace.SITES``)
must exist, or the benchmark fails inside its run.  No module keeps an
import it does not use, unless that import is such a traced binding, and
no module keeps a private function, class or constant that nothing in the
package reads or imports a private name from a sibling module: what two
modules share is public.  The physical laws stay below the modules that
use them: ``config`` imports no sibling module, and ``amp`` imports only
``config`` and ``denoiser``.
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


def bench_trace_sites():
    """(module, attribute) of every lookup site the benchmark traces."""
    spec = importlib.util.spec_from_file_location("_bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return [site[:2] for site in module.SITES]


def unused_imports(source: str, allowed=()) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``.

    ``from __future__`` imports and the names in ``allowed`` are skipped.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used - set(allowed))


def unread_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private module-level name no module reads.

    ``sources`` maps module names to their source.  A name is read where it
    is loaded, taken as an attribute or imported; its definition is no read.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def sibling_imports(source: str) -> set[str]:
    """The package modules a module's relative imports name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def private_imports(source: str) -> list[str]:
    """The private names a module imports from its sibling modules."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for a in node.names if a.name.startswith("_"))


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def site_bindings(module_name: str) -> set[str]:
    """The attributes of ``seqamp.<module_name>`` the benchmark traces."""
    return {attr for module, attr in bench_trace_sites()
            if module == f"seqamp.{module_name}"}


# MODULES leaves out __init__.py, which holds only the package docstring
@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_unused_import(name):
    unused = unused_imports((SRC / f"{name}.py").read_text(), site_bindings(name))
    assert not unused, f"seqamp.{name} imports unused {unused}"


def test_unused_import_check_catches_a_leftover_import():
    source = (SRC / "state_evolution.py").read_text()
    allowed = site_bindings("state_evolution")
    assert unused_imports(source, allowed) == []
    assert unused_imports(source + "from .scenario import Profiles\n",
                          allowed) == ["Profiles"]
    # a traced binding passes only because SITES names it
    assert unused_imports(source) == ["ar1_channels"]


LAYERS = {"config": set(), "amp": {"config", "denoiser"}}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_only_the_layers_below(name):
    found = sibling_imports((SRC / f"{name}.py").read_text())
    assert found <= LAYERS[name], f"seqamp.{name} imports {sorted(found - LAYERS[name])}"


def test_sibling_import_check_sees_both_forms():
    source = (SRC / "amp.py").read_text()
    assert sibling_imports(source) == {"config", "denoiser"}
    extra = "from .scenario import Profiles\nfrom . import rng\n"
    assert sibling_imports(source + extra) == {"config", "denoiser", "scenario", "rng"}


def test_every_private_name_is_read():
    unread = unread_privates(package_sources())
    assert not unread, f"nothing in seqamp reads {unread}"


def test_unread_private_check_catches_a_leftover_helper():
    sources = package_sources()
    sources["denoiser"] += "\n\ndef _helper(t):\n    return _logistic_neg(t)\n"
    sources["sequential"] += "\n_LEFTOVER = 1e-12\n"
    assert unread_privates(sources) == ["denoiser._helper", "sequential._LEFTOVER"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_no_private_sibling_name(name):
    found = private_imports((SRC / f"{name}.py").read_text())
    assert not found, f"seqamp.{name} imports private {found}"


def test_private_import_check_sees_only_sibling_imports():
    source = ("from .amp import REL_TOL, _REL_FLOOR\nfrom . import _probe\n"
              "from .amp import adjoint as _adjoint\n"
              "from numpy.linalg import _umath_linalg\n")
    assert private_imports(source) == ["_REL_FLOOR", "_probe"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"seqamp.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"seqamp.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module_name, attr", bench_trace_sites())
def test_bench_trace_site_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name} has no {attr}"
