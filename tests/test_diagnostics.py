"""Norm estimators, the exponential transform, and bound checks."""

import math

import numpy as np
import pytest

from mfbsde.core import ProcessGrid, build_grid, simulate_brownian
from mfbsde.diagnostics import (
    bmo2_estimate,
    bmo_budget_global,
    build_report,
    check_alpha_envelope,
    m2_norm,
    node_square_norms,
    phi,
    phi_prime,
    s2_norm,
    sup_norm,
)
from mfbsde.regression import NodeRegression, RegressionBasis
from mfbsde.solver import BackwardSolver, SolverConfig


def _const_process(grid, value, P=500, dims=(1,)):
    vals = np.full((grid.n_steps + 1, P, *dims), float(value))
    return ProcessGrid(grid=grid, values=vals)


def _regressions(ensemble):
    """``node_regression`` over ``ensemble`` with the default basis,
    factorising every node afresh."""
    return lambda i: NodeRegression(ensemble.state(i), RegressionBasis())


def phi_double_prime(y, gamma: float):
    """Second derivative ``exp(gamma*|y|)`` of the transform (off the kink)."""
    return np.exp(gamma * np.abs(np.asarray(y, dtype=np.float64)))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_sup_and_s2_norm_constant_process(grid50):
    p = _const_process(grid50, -3.0).values
    assert sup_norm(p) == 3.0
    assert s2_norm(p) == pytest.approx(3.0, rel=1e-12)


def test_m2_norm_constant_integrand(grid50):
    # |Z| = c: the integrated square over [0, 1] is c^2, so the M2 norm is c
    z = _const_process(grid50, 2.0, dims=(1, 1)).values
    assert m2_norm(z, grid50.steps) == pytest.approx(2.0, rel=1e-12)


def test_m2_norm_scaling(grid50, rng):
    z = rng.standard_normal((51, 200, 1, 1))
    assert m2_norm(3.0 * z, grid50.steps) == pytest.approx(
        3.0 * m2_norm(z, grid50.steps), rel=1e-12
    )


def test_bmo2_constant_integrand(grid50):
    # E_i[int_{t_i}^T 1 ds] = T - t_i, maximal at t_0
    ens = simulate_brownian(grid50, 1, 4000, 5)
    z = _const_process(grid50, 1.0, P=4000, dims=(1, 1))
    est = bmo2_estimate(z, _regressions(ens))
    assert est == pytest.approx(1.0, rel=0.02)


def test_bmo2_sees_conditional_tails(grid50):
    # integrand |W_t|: the conditional tail integral depends on the state,
    # so the BMO estimate must exceed the plain expectation
    ens = simulate_brownian(grid50, 1, 20_000, 6)
    z = ProcessGrid(grid=grid50, values=np.abs(ens.node_levels)[:, :, :, None])
    est = bmo2_estimate(z, _regressions(ens))
    mean_sq = m2_norm(z.values, grid50.steps) ** 2
    assert est > mean_sq


# ---------------------------------------------------------------------------
# node-by-node kernels against whole-array references
# ---------------------------------------------------------------------------

# Whole-array implementations of the norms and the envelope check, reading
# (L, P, m) squares with trailing-axis reductions: the node-by-node kernels
# must reproduce them whatever the strides behind the same values.


def _ref_square_norms(p):
    return np.sum(p.values.reshape(p.n_nodes, p.n_paths, -1) ** 2, axis=2)


def _ref_sup(y):
    return float(np.max(np.abs(y.values)))


def _ref_s2(y):
    flat = y.values.reshape(y.n_nodes, y.n_paths, -1)
    sq = np.einsum("lpk,lpk->lp", flat, flat)
    return float(np.sqrt(np.mean(sq.max(axis=0))))


def _ref_m2(z):
    lo, hi = z.span
    integral = z.grid.steps[lo:hi] @ _ref_square_norms(z)[:-1]
    return float(np.sqrt(np.mean(integral)))


def _ref_bmo2(z, ensemble):
    lo, hi = z.span
    sq = _ref_square_norms(z)
    L, P = sq.shape
    contrib = sq[:-1] * z.grid.steps[lo:hi][:, None]
    tails = np.zeros((L, P))
    tails[:-1] = contrib[::-1].cumsum(axis=0)[::-1]
    worst = 0.0
    for j in range(L - 1):
        reg = NodeRegression(ensemble.state(lo + j), RegressionBasis())
        worst = max(worst, float(reg.fit(tails[j]).max()))
    return worst


def _ref_envelope(y, alpha_fn):
    sq = _ref_square_norms(y)
    env = np.asarray(alpha_fn(y.times()), dtype=np.float64)[:, None]
    return float(np.mean(sq > env))


_DIMS = [(1,), (1, 1), (2, 1), (2, 2)]
_SPANS = [(0, 12), (4, 12), (3, 9)]


@pytest.fixture(scope="module")
def grid12():
    return build_grid(1.0, 12)


def _process(grid12, dims, span, layout, seed=0):
    """A random process grid; ``layout`` is that of the storage behind its
    node-major values, so "path-major" gives a non-contiguous view."""
    rng = np.random.default_rng([seed, len(dims), sum(dims), *span])
    L = span[1] - span[0] + 1
    values = 1.5 * rng.standard_normal((L, 300, *dims))
    if layout == "path-major":
        values = np.swapaxes(np.ascontiguousarray(np.swapaxes(values, 0, 1)), 0, 1)
    return ProcessGrid(grid=grid12, values=values, span=span)


@pytest.mark.parametrize("layout", ["path-major", "node-major"])
@pytest.mark.parametrize("span", _SPANS, ids=str)
@pytest.mark.parametrize("dims", _DIMS, ids=str)
def test_norms_match_whole_array_reference(grid12, dims, span, layout):
    proc = _process(grid12, dims, span, layout)
    assert proc.values.flags.c_contiguous == (layout == "node-major")
    nodes, steps = proc.values, grid12.steps[span[0] : span[1]]
    assert sup_norm(nodes) == _ref_sup(proc)
    assert s2_norm(nodes) == _ref_s2(proc)
    assert m2_norm(nodes, steps) == pytest.approx(_ref_m2(proc), rel=1e-12, abs=0)


@pytest.mark.parametrize("layout", ["path-major", "node-major"])
@pytest.mark.parametrize("span", _SPANS, ids=str)
@pytest.mark.parametrize("dims", _DIMS, ids=str)
def test_bmo2_matches_whole_array_reference(grid12, dims, span, layout):
    ens = simulate_brownian(grid12, 2, 300, 41)
    z = _process(grid12, dims, span, layout)
    want = _ref_bmo2(z, ens)
    assert bmo2_estimate(z, _regressions(ens)) == pytest.approx(want, rel=1e-12, abs=0)
    # a solver's cached regressions give the same estimate; every node of
    # the span but the last is asked for once
    solver = BackwardSolver(ens, SolverConfig(n_steps=12, n_paths=300))
    asked = []

    def node_regression(i):
        asked.append(i)
        return solver.node_regression(i)

    assert bmo2_estimate(z, node_regression) == pytest.approx(want, rel=1e-12, abs=0)
    assert sorted(asked) == list(range(span[0], span[1]))


@pytest.mark.parametrize("layout", ["path-major", "node-major"])
@pytest.mark.parametrize("span", _SPANS, ids=str)
@pytest.mark.parametrize("dims", _DIMS, ids=str)
def test_envelope_matches_whole_array_reference(grid12, dims, span, layout):
    y = _process(grid12, dims, span, layout)
    alpha_fn = lambda t: 1.0 + 2.0 * np.asarray(t)
    rate = check_alpha_envelope(y, alpha_fn)
    assert 0.0 < rate < 1.0
    assert rate == _ref_envelope(y, alpha_fn)


@pytest.mark.parametrize("width", range(1, 11))
def test_node_square_norms_match_trailing_sum(grid12, width):
    # widths from 8 on take numpy's own pairwise row sum
    y = _process(grid12, (width,), (0, 12), "node-major")
    want = _ref_square_norms(y)
    got = [sq.copy() for sq in node_square_norms(y)]
    assert np.array_equal(np.stack(got), want)
    backward = [sq.copy() for sq in node_square_norms(y, range(11, -1, -2))]
    assert np.array_equal(np.stack(backward), want[11::-2])


# ---------------------------------------------------------------------------
# exponential transform
# ---------------------------------------------------------------------------


def test_phi_vanishes_at_origin():
    for g in (0.4, 1.0, 3.0):
        assert phi(0.0, g) == 0.0
        assert phi_prime(0.0, g) == 0.0
        assert phi_double_prime(0.0, g) == 1.0


@pytest.mark.parametrize("gamma", [0.4, 1.0, 2.5])
def test_phi_ode_identity(gamma, rng):
    # phi'' - gamma*|phi'| = 1 pointwise (the design identity of the
    # transform); rounding scales with the exponential itself
    y = rng.uniform(-5, 5, 400)
    second = phi_double_prime(y, gamma)
    lhs = second - gamma * np.abs(phi_prime(y, gamma))
    assert np.max(np.abs(lhs - 1.0) / second) < 1e-12


def test_phi_even_and_increasing(rng):
    y = rng.uniform(0.0, 4.0, 100)
    np.testing.assert_array_equal(phi(y, 1.0), phi(-y, 1.0))
    assert np.all(np.diff(phi(np.sort(y), 1.0)) >= 0.0)


def test_phi_with_gamma_squared_beyond_doubles():
    # gamma^2 overflows for gamma above 1.34e154: phi divides by gamma
    # twice there, so a tiny argument gives a finite value and a large one
    # saturates, with no OverflowError; below, it divides by gamma^2 once
    gamma = 1.34e154
    a = gamma * 1.5e-171
    assert phi(1.5e-171, gamma) == (np.expm1(a) - a) / gamma / gamma
    with np.errstate(over="ignore"):
        assert phi(1e-150, 1e155) == math.inf
    assert phi(2.0, 0.4) == (np.expm1(0.8) - 0.8) / 0.4**2
    assert bmo_budget_global(1.5e-171, 1e-300, 1.0, 0.5, gamma) >= 0.0


def test_bmo_budget_finite_and_monotone():
    b1 = bmo_budget_global(1.0, 0.2, 10.0, 1.0, 0.4)
    b2 = bmo_budget_global(1.0, 0.2, 100.0, 1.0, 0.4)
    assert 0.0 < b1 < b2 < math.inf


def test_bmo_budget_saturates():
    # envelope level beyond the double exponential range
    assert bmo_budget_global(1.0, 1.0, 1e22, 1.0, 1.0) == math.inf


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


def test_alpha_envelope_synthetic(grid50):
    below = _const_process(grid50, 0.5)
    above = _const_process(grid50, 3.0)
    env = lambda t: np.ones_like(np.asarray(t))  # |Y|^2 <= 1
    assert check_alpha_envelope(below, env) == 0.0
    assert check_alpha_envelope(above, env) == 1.0


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def test_build_report_fields(grid50):
    ens = simulate_brownian(grid50, 1, 3000, 11)
    y = ProcessGrid(grid=grid50, values=ens.node_levels)
    z = _const_process(grid50, 1.0, P=3000, dims=(1, 1))
    rate = check_alpha_envelope(y, lambda t: 100.0 * np.ones_like(np.asarray(t)))
    rep = build_report(y, z, bmo2_estimate(z, _regressions(ens)), gamma=0.4, bmo_budget=5.0,
                       alpha_rate=rate)
    assert rep.bmo2_z == pytest.approx(1.0, rel=0.05)
    assert rep.bmo_within_budget
    assert rep.alpha_violation_rate == 0.0
    d = rep.as_dict()
    assert d["gamma"] == 0.4
