"""Every name a module exports resolves, so ``from mfbsde import *`` and
``from mfbsde.<module> import *`` never meet a stale ``__all__`` entry, and
each has a caller in the package; and the backward sweep and the
diagnostics stand apart from the expression language, whose module holds
no table of example generators."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mfbsde
from mfbsde import dsl

MODULES = ["mfbsde"] + [f"mfbsde.{m.name}" for m in pkgutil.iter_modules(mfbsde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _tree(module: str) -> ast.Module:
    return ast.parse(Path(mfbsde.__file__).with_name(f"{module}.py").read_text())


def _package_imports(module: str) -> set[str]:
    """The package modules (and names in them) that ``module`` imports, as
    dotted paths relative to the package, read from its source."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found |= {a.name.removeprefix("mfbsde.") for a in node.names
                      if a.name.startswith("mfbsde.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "mfbsde"
                                                   or node.module.startswith("mfbsde.")):
            base = "" if node.module in (None, "mfbsde") else node.module.removeprefix("mfbsde.")
            found |= {f"{base}.{a.name}" if base else a.name for a in node.names}
    return found


def _package_references(module: str) -> set[str]:
    """``_package_imports`` plus the ``mod.name`` attributes that ``module``
    reads off the package modules it imports whole."""
    imports = _package_imports(module)
    return imports | {f"{node.value.id}.{node.attr}" for node in ast.walk(_tree(module))
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in imports}


def test_every_exported_name_has_a_caller_in_the_package():
    # no public helper without a caller: each name in a module's __all__ is
    # read in its own module (a returned type, a constant), or imported or
    # read by another package module, re-exports by the package's own
    # __init__ included
    names = [m.name for m in pkgutil.iter_modules(mfbsde.__path__)]
    references = {name: _package_references(name) for name in ["__init__", *names]}
    uncalled = []
    for name in names:
        own = {node.id for node in ast.walk(_tree(name))
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used = set().union(*(refs for other, refs in references.items() if other != name))
        exported = getattr(importlib.import_module(f"mfbsde.{name}"), "__all__", ())
        uncalled += [f"{name}.{n}" for n in exported
                     if n not in own and f"{name}.{n}" not in used]
    assert uncalled == []


@pytest.mark.parametrize("module", ["solver", "diagnostics"])
def test_sweep_and_diagnostics_do_not_import_the_expression_language(module):
    imports = _package_imports(module)
    assert "core.PathEnsemble" in imports or "core.ProcessGrid" in imports
    assert [name for name in imports if name.split(".")[0] == "dsl"] == []


def test_the_expression_language_holds_no_example_table():
    assert not hasattr(dsl, "builtin")
    assert "builtin" not in dsl.__all__ and "builtin" not in mfbsde.__all__
