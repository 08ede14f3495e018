import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mfbsde.core import build_grid, simulate_brownian


@pytest.fixture(scope="session")
def grid50():
    return build_grid(1.0, 50)


@pytest.fixture(scope="session")
def ensemble50(grid50):
    # shared mid-size ensemble; treat as read-only in tests
    return simulate_brownian(grid50, 1, 20_000, 12345)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture(scope="session")
def tool():
    """Load a script under ``tools/`` by path, as a module: ``tool("name")``."""
    def load(name):
        path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # registered first: its dataclasses look their module up by name
        sys.modules[name] = module
        spec.loader.exec_module(module)
        return module
    return load
