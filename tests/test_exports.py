"""Every name a module exports resolves, so ``from mfbsde import *`` and
``from mfbsde.<module> import *`` never meet a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import mfbsde

MODULES = ["mfbsde"] + [f"mfbsde.{m.name}" for m in pkgutil.iter_modules(mfbsde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
