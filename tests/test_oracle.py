"""Reference solutions: closed forms, the binomial lattice (loaded from
``tools/regen_fixtures.py``), fixtures."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfbsde import dsl
from mfbsde.errors import FixtureMissing, InvalidInput
from mfbsde.acceptance import _FIXTURE_DIR, load_fixture
from mfbsde.scenario import ScenarioSpec, example_21, example_41, linear_scenario

from closed_form import LinearMeanFieldSpec, linear_closed_form

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mfbsde"


@pytest.fixture(scope="module")
def lattice(tool):
    return tool("regen_fixtures")


def _null_scenario(terminal="w", T=1.0):
    return ScenarioSpec(
        name="null",
        n=1,
        d=1,
        T=T,
        terminal=dsl.parse(terminal, dsl.TERMINAL_VARS),
        f=dsl.parse("0"),
        C=0.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
    )


# ---------------------------------------------------------------------------
# linear closed form
# ---------------------------------------------------------------------------


def discretization_residual(spec: LinearMeanFieldSpec, n_steps: int) -> float:
    """Sup-node residual of the closed form in the trapezoid-discretised
    integral equation ``m_y(t) = m_y(T) + int_t^T rhs``; decays at second
    order in the step."""
    sol = linear_closed_form(spec)
    t = np.linspace(0.0, spec.T, n_steps + 1)
    my = sol.m_y(t)
    mz = sol.m_z(t)
    rhs = spec.a * my + spec.b * my + spec.c * mz + spec.dbar * mz + spec.g
    h = spec.T / n_steps
    pieces = 0.5 * h * (rhs[:-1] + rhs[1:])
    tail = np.zeros(n_steps + 1)
    tail[:-1] = pieces[::-1].cumsum()[::-1]
    resid = my - (my[-1] + tail)
    return float(np.max(np.abs(resid)))


def test_linear_terminal_slice():
    spec = LinearMeanFieldSpec(a=0.3, b=0.2, c=0.1, dbar=0.4, g=0.5, p=1.0, q=2.0, T=1.0)
    sol = linear_closed_form(spec)
    # at t = T the ansatz reduces to the terminal data p + q*w
    w = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(sol.y(1.0, w), 1.0 + 2.0 * w, rtol=1e-12)


def test_linear_residual_ladder():
    spec = LinearMeanFieldSpec(a=0.5, b=0.3, c=0.2, dbar=0.4, g=0.1, T=1.0)
    r100 = discretization_residual(spec, 100)
    r200 = discretization_residual(spec, 200)
    r400 = discretization_residual(spec, 400)
    # trapezoid residual: second order, factor ~4 per halving
    assert r100 / r200 == pytest.approx(4.0, rel=0.1)
    assert r200 / r400 == pytest.approx(4.0, rel=0.1)


def test_linear_degenerate_is_martingale():
    # all coefficients zero: Y_t = E_t[q W_T] = q W_t
    spec = LinearMeanFieldSpec(q=2.0, T=1.0)
    sol = linear_closed_form(spec)
    t = np.linspace(0, 1, 5)
    np.testing.assert_allclose(sol.m_y(t), 0.0, atol=1e-15)
    np.testing.assert_allclose(sol.m_z(t), 2.0, rtol=1e-14)
    np.testing.assert_allclose(sol.y(0.5, 1.3), 2.6, rtol=1e-14)


def test_linear_removable_singularity():
    # a + b = 0 hits the removable singularity of the exponential kernels;
    # the expm1 branch must stay finite and continuous
    near = LinearMeanFieldSpec(a=0.5, b=-0.5 + 1e-9, dbar=0.3, g=1.0, T=1.0)
    at = LinearMeanFieldSpec(a=0.5, b=-0.5, dbar=0.3, g=1.0, T=1.0)
    t = np.linspace(0, 1, 7)
    np.testing.assert_allclose(
        linear_closed_form(near).m_y(t), linear_closed_form(at).m_y(t), rtol=1e-6
    )


# ---------------------------------------------------------------------------
# binomial lattice
# ---------------------------------------------------------------------------


def test_lattice_zero_driver_is_exact_martingale(lattice):
    res = lattice.brute_force_1d(_null_scenario(terminal="w^2"), 64)
    # E[W_t^2] = t on the lattice *exactly* (binomial variance is exact)
    np.testing.assert_allclose(res.m_y, res.times[-1] * np.ones_like(res.times),
                               rtol=0, atol=1e-12)
    assert res.iterations <= 2


def test_lattice_matches_linear_closed_form(lattice):
    sc = linear_scenario(a=0.2, b=0.3, dbar=0.5, g=0.1, terminal="w", T=1.0)
    spec = LinearMeanFieldSpec(a=0.2, b=0.3, dbar=0.5, g=0.1, q=1.0, T=1.0)
    sol = linear_closed_form(spec)
    res = lattice.brute_force_1d(sc, 400)
    err = np.max(np.abs(res.m_y - sol.m_y(res.times)))
    assert err < 5e-3


def test_lattice_grid_convergence_factor(lattice):
    # halving the step must change the answer by a factor <= 0.6
    sc = example_21(alpha=0.5, T=0.5, C=0.25, gamma=1.0)
    y = [lattice.brute_force_1d(sc, n).y0 for n in (125, 250, 500)]
    change1 = abs(y[1] - y[0])
    change2 = abs(y[2] - y[1])
    assert change2 <= 0.6 * change1


def test_lattice_rejects_bad_inputs(lattice):
    with pytest.raises(InvalidInput):
        lattice.brute_force_1d(_null_scenario(), 1)
    with pytest.raises(InvalidInput):
        lattice.brute_force_1d(example_41(), 16)  # not scalar


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def test_fixture_round_trip(tmp_path, lattice):
    res = lattice.brute_force_1d(_null_scenario(terminal="w^2"), 16)
    path = tmp_path / "probe.json"
    lattice.save_fixture(path, res, {"why": "round trip"})
    data = load_fixture(path)
    np.testing.assert_array_equal(data["m_y"], res.m_y)
    np.testing.assert_array_equal(data["times"], res.times)
    assert data["n_steps"] == 16
    assert data["params"]["why"] == "round trip"
    # valid JSON on disk
    json.loads(path.read_text())


def test_missing_fixture_advises_regeneration(tmp_path):
    with pytest.raises(FixtureMissing) as exc:
        load_fixture(tmp_path / "nope.json")
    assert "regen_fixtures" in str(exc.value)


def test_pinned_lattice_fixture_is_coherent():
    # the checked-in reference for the power-growth desk instance, package
    # data that criterion 7 reads
    assert _FIXTURE_DIR == _PACKAGE / "fixtures"
    data = load_fixture(_PACKAGE / "fixtures" / "ex21_lattice.json")
    assert data["n_steps"] == 2000
    assert data["times"].shape == data["m_y"].shape
    assert data["times"][0] == 0.0 and data["times"][-1] == 0.5
    # the state mean decreases towards the terminal mean E[0.5 cos(W_T)]
    assert data["m_y"][0] > 1.9
    assert abs(data["m_y"][-1] - 0.5 * np.exp(-0.25)) < 5e-3
    assert data["final_gap"] <= 1e-8


def test_a_copied_package_carries_its_fixture(tmp_path):
    # criterion 7 finds the fixture wherever the package lives, as an
    # installed one would
    shutil.copytree(_PACKAGE, tmp_path / "mfbsde", ignore=shutil.ignore_patterns("__pycache__"))
    code = ("import mfbsde.acceptance as a; print(a.__file__); "
            "print(a.load_fixture(a._FIXTURE_DIR / 'ex21_lattice.json')['n_steps'])")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert run.returncode == 0, run.stderr
    where, n_steps = run.stdout.splitlines()
    assert Path(where).resolve().parent == (tmp_path / "mfbsde").resolve()
    assert n_steps == "2000"
