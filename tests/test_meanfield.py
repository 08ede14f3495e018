"""Mean-field fixed point machinery: frozen-mean map, local solve,
stitching, the Picard scheme, shift solvers, and the vector scheme."""

import dataclasses
import json
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from mfbsde import dsl, meanfield
from mfbsde.certificates import certify
from mfbsde import solver as solver_module
from mfbsde.cli import _SOLVERS
from mfbsde.config import load_config, manifest_for, write_failure_json
from mfbsde.core import TimeGrid, Window, build_grid, path_mean, simulate_brownian
from mfbsde.diagnostics import bmo2_estimate, check_alpha_envelope, m2_norm, s2_norm, sup_norm
from mfbsde.errors import InvalidInput, MaxIterations, NonContraction, WindowTooWide
from mfbsde.meanfield import (
    FixedPointTrace,
    SolveResult,
    global_solve,
    local_solve,
    multidim_solve,
    picard_global,
    shift_fixed_point,
)
from mfbsde.scenario import (
    FORM_SPLIT_LIPSCHITZ,
    FORM_SPLIT_QUADRATIC,
    ScenarioSpec,
    example_31,
    example_41,
    linear_scenario,
)
from mfbsde.regression import NodeRegression, RegressionBasis
from mfbsde.solver import BackwardSolver, SolverConfig, staged_driver

CFG = SolverConfig(
    n_steps=40,
    n_paths=10_000,
    seed=2468,
    tol_fp=1e-4,
    override_epsilon=True,
)


def _ensemble(scenario, cfg=CFG):
    grid = build_grid(scenario.T, cfg.n_steps)
    return simulate_brownian(grid, scenario.d, cfg.n_paths, cfg.seed)


def _graded_ensemble(scenario, cfg=CFG):
    # non-uniform grid: steps grow from T/N^1.5 at t=0 to about 1.5 T/N at T
    grid = TimeGrid(scenario.T * np.linspace(0.0, 1.0, cfg.n_steps + 1) ** 1.5)
    return simulate_brownian(grid, scenario.d, cfg.n_paths, cfg.seed)


def _mean_free_scenario():
    # driver uses only (s, y, z): the mean slots are inert
    return ScenarioSpec(
        name="mean-free",
        n=1,
        d=1,
        T=1.0,
        terminal=dsl.parse("sin(w)", dsl.TERMINAL_VARS),
        f=dsl.parse("0.1*y + 0.2*norm2(z)^2"),
        C=1.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=1.0,
    )


def _frozen_mean_solve(sc, ens, m_y, m_z):
    """One backward sweep on the full window with the mean slots frozen at
    the curves ``m_y`` (L, n) and ``m_z`` (L, d, n)."""
    window = ens.grid.full_window()
    terminal = sc.terminal_values(ens.state(window.hi))
    drive = staged_driver(dsl.Staged(sc.f, ("y",), n=sc.n, d=sc.d), window.lo,
                          ybar=m_y, zbar=m_z)
    return BackwardSolver(ens, CFG).solve(window, terminal, drive)


def _snapshot(out):
    """A copy of a sweep's result whose arrays no later sweep overwrites."""
    return dataclasses.replace(out, y=out.y.copy(), z=out.z.copy())


def _record_sweeps(monkeypatch) -> list:
    """``((lo, hi), driver, result, snapshot)`` of every backward sweep from
    now on: ``result`` holds the live arrays, which a later sweep of the
    window stores over, and ``snapshot`` their values as the sweep
    returned them."""
    sweeps = []
    sweep = BackwardSolver.solve

    def recording(self, window, terminal, driver, *args):
        out = sweep(self, window, terminal, driver, *args)
        sweeps.append(((window.lo, window.hi), driver, out, _snapshot(out)))
        return out

    monkeypatch.setattr(BackwardSolver, "solve", recording)
    return sweeps


# ---------------------------------------------------------------------------
# frozen-mean map
# ---------------------------------------------------------------------------


def test_frozen_mean_solve_ignores_inert_mean_slots():
    sc = _mean_free_scenario()
    ens = _ensemble(sc)
    L = CFG.n_steps + 1
    zeros = (np.zeros((L, 1)), np.zeros((L, 1, 1)))
    crazy = (50.0 * np.ones((L, 1)), -7.0 * np.ones((L, 1, 1)))
    first = _frozen_mean_solve(sc, ens, *zeros)
    second = _frozen_mean_solve(sc, ens, *crazy)
    # identical, not merely close
    assert first.y.tobytes() == second.y.tobytes()
    assert first.z.tobytes() == second.z.tobytes()


# ---------------------------------------------------------------------------
# local fixed point
# ---------------------------------------------------------------------------


def test_local_solve_mean_free_equals_standard_solve():
    # with inert mean slots the fixed point is reached after one map
    # application, which the second confirms, and equals the frozen-mean
    # solve bit for bit
    sc = _mean_free_scenario()
    ens = _ensemble(sc)
    res = local_solve(sc, ens, CFG)
    L = CFG.n_steps + 1
    ref = _frozen_mean_solve(sc, ens, np.zeros((L, 1)), np.zeros((L, 1, 1)))
    (trace,) = res.trace
    assert trace.converged
    assert res.y.values.tobytes() == ref.y.tobytes()
    assert res.z.values.tobytes() == ref.z.tobytes()


def test_local_solve_zero_driver_single_iteration():
    sc = ScenarioSpec(
        name="null",
        n=1,
        d=1,
        T=1.0,
        terminal=dsl.parse("w", dsl.TERMINAL_VARS),
        f=dsl.parse("0"),
        C=0.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
    )
    ens = _ensemble(sc)
    res = local_solve(sc, ens, CFG)
    # the driver reads no mean: the first step, from the terminal mean,
    # already is the fixed point, and the second confirms it exactly
    (trace,) = res.trace
    assert trace.converged
    assert trace.iterations == 2
    first, second = trace.total_distances()
    assert first > 0.0 and second == 0.0


def _constant_start(y_value, z_value):
    """Stand-in for ``meanfield._terminal_start``: constant state and
    integrand, whatever the terminal data."""

    def start(terminal, L, d):
        P, n = terminal.shape
        m_y, m_z = np.full((L, n), y_value), np.full((L, d, n), z_value)
        return meanfield._Iterate(
            np.broadcast_to(m_y[:, None], (L, P, n)),
            np.broadcast_to(m_z[:, None], (L, P, d, n)),
            m_y, m_z,
        )

    return start


def test_local_solve_uniqueness_across_starts(monkeypatch):
    sc = linear_scenario(b=0.5, dbar=0.5, T=1.0, xi_bound=4.0)
    ens = _ensemble(sc)
    monkeypatch.setattr(meanfield, "_terminal_start", _constant_start(0.0, 0.0))
    res_a = local_solve(sc, ens, CFG)
    monkeypatch.setattr(meanfield, "_terminal_start", _constant_start(2.0, 1.0))
    res_b = local_solve(sc, ens, CFG)
    gap = np.max(np.abs(res_a.m_y.values - res_b.m_y.values))
    assert res_a.trace[0].converged and res_b.trace[0].converged
    assert gap <= 2.0 * CFG.tol_fp


def test_local_solve_non_contraction_detected():
    # mean coupling is a Volterra map, so mild couplings always settle
    # eventually (ratios ~ cT/k); a coupling this aggressive grows the
    # iterate distances geometrically for many sweeps and must be
    # reported as non-contraction instead of ground through the budget
    sc = ScenarioSpec(
        name="coupled",
        n=1,
        d=1,
        T=1.0,
        terminal=dsl.parse("w", dsl.TERMINAL_VARS),
        f=dsl.parse("30*ybar + 1"),
        C=30.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
    )
    ens = _ensemble(sc)
    with pytest.raises(NonContraction):
        local_solve(sc, ens, CFG.updated(max_outer=50))


@pytest.mark.parametrize(
    "solve, scenario, context",
    [
        (local_solve, linear_scenario(b=0.5, dbar=0.5, xi_bound=4.0),
         "local solve on window (0, 10)"),
        (picard_global, linear_scenario(b=0.5, dbar=0.5, xi_bound=4.0),
         "global Picard on window (0, 10)"),
        (shift_fixed_point, example_31(T=0.5), "shift fixed point on window (0, 10)"),
        (multidim_solve, example_41(), "multidim solve on window (0, 10)"),
    ],
    ids=["local", "picard", "shift", "multidim"],
)
def test_outer_budget_exhaustion_carries_the_trace(solve, scenario, context):
    cfg = CFG.updated(n_steps=10, n_paths=2_000, max_outer=2, tol_fp=1e-14, n_windows=1)
    ens = _ensemble(scenario, cfg)
    with pytest.raises(MaxIterations, match="iteration budget exhausted at distance") as err:
        solve(scenario, ens, cfg)
    assert str(err.value).startswith(f"{context}: ")
    trace = err.value.trace
    assert isinstance(trace, FixedPointTrace)
    # every sweep is a step, compared with its predecessor
    assert trace.iterations == cfg.max_outer and not trace.converged
    assert all(dist > cfg.tol_fp for dist in trace.total_distances())


@pytest.mark.parametrize("solve", [local_solve, global_solve], ids=["local", "global"])
def test_window_override_is_recorded_on_each_trace(solve):
    # the certified width is below every window: under the override each
    # window's trace records the excess, the flag sums it up, and nothing
    # warns
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_steps=10, n_paths=2_000, n_windows=2)
    ens = _ensemble(sc, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(sc, ens, cfg)
    assert [t.exceeds_certificate for t in res.trace] == [True] * len(res.windows)
    assert res.flags["window_exceeds_certificate"] is True
    # without the override the first window is refused
    with pytest.raises(WindowTooWide, match="exceeds the certified width"):
        solve(sc, ens, cfg.updated(override_epsilon=False))


@pytest.mark.parametrize(
    "solve, config",
    [(shift_fixed_point, "ex31.cfg"), (multidim_solve, "ex41.cfg")],
    ids=["shift", "multidim"],
)
def test_split_solvers_check_every_window_width(solve, config):
    # the shipped split configs certify a zero width: every window is too wide
    configs = Path(__file__).resolve().parents[1] / "configs"
    scenario, cfg, _, _ = load_config(configs / config)
    cfg = cfg.updated(n_paths=500, n_steps=10)
    ens = _ensemble(scenario, cfg)
    with pytest.raises(WindowTooWide, match="exceeds the certified width"):
        solve(scenario, ens, cfg.updated(override_epsilon=False, n_windows=2))
    # under the override, ex41.cfg plans its windows from measured
    # contraction, and every planned window is checked too
    res = solve(scenario, ens, cfg)
    assert len(res.windows) > 1
    assert [t.exceeds_certificate for t in res.trace] == [True] * len(res.windows)
    assert res.flags["window_exceeds_certificate"] is True


def test_blow_up_is_non_contraction_naming_the_step():
    # a synthetic map whose distance passes 1e9 on step 3 of a budget of 30
    distances = iter([1.0, 10.0, 1e10])
    trace = FixedPointTrace()
    with pytest.raises(NonContraction) as err:
        meanfield._iterate(
            lambda state: (state, (next(distances), 0.0, 0.0)),
            None, trace, CFG.updated(max_outer=30), "synthetic map",
        )
    assert str(err.value) == "synthetic map: distance blew up to 1.000e+10 at step 3"
    assert err.value.trace is trace
    assert trace.total_distances() == [1.0, 10.0, 1e10] and not trace.converged


@pytest.mark.parametrize("solve, covers_z", [(local_solve, True), (picard_global, False)],
                         ids=["frozen-mean", "picard"])
def test_mean_distance_covers_the_mean_curves_of_the_map(solve, covers_z, monkeypatch):
    # the frozen-mean map's mean distance is the larger sup distance of the
    # two mean curves it freezes, Picard's that of the state's mean curve;
    # on this mean-integrand driver the integrand's curve moves further
    sc, cfg = _shipped("linear.cfg", n_steps=8, n_paths=1_000)
    ens = _ensemble(sc, cfg)
    sweeps = _record_sweeps(monkeypatch)
    res = solve(sc, ens, cfg)
    trace = res.trace[0] if covers_z else res.trace
    start = meanfield._terminal_start(sc.terminal_values(ens.state(8)), 9, sc.d)
    curves = [(start.m_y, start.m_z)] + [(path_mean(snap.y), path_mean(snap.z))
                                         for _, _, _, snap in sweeps]
    y_moves = [sup_norm(new[0], old[0]) for old, new in zip(curves, curves[1:])]
    z_moves = [sup_norm(new[1], old[1]) for old, new in zip(curves, curves[1:])]
    assert any(z > y for y, z in zip(y_moves, z_moves))
    expected = [max(y, z) for y, z in zip(y_moves, z_moves)] if covers_z else y_moves
    assert trace.mean_distances == expected


def test_window_too_wide_without_override():
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    ens = _ensemble(sc)
    with pytest.raises(WindowTooWide):
        local_solve(sc, ens, CFG.updated(override_epsilon=False))


def test_stitching_plans_windows_from_contraction_when_width_degenerates():
    # the certified stitching width underflows for these constants: under
    # the override the windows are sized from measured contraction and
    # tile [0, N]; without it the solve still refuses
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_steps=20, n_paths=2_000)
    ens = _ensemble(sc, cfg)
    with pytest.raises(WindowTooWide, match="below the grid resolution"):
        global_solve(sc, ens, cfg.updated(override_epsilon=False))
    a = global_solve(sc, ens, cfg)
    b = global_solve(sc, _ensemble(sc, cfg), cfg)
    assert len(a.windows) > 1 and a.windows[0][0] == 0 and a.windows[-1][1] == 20
    assert all(left[1] == right[0] for left, right in zip(a.windows, a.windows[1:]))
    assert a.windows == b.windows
    assert a.y.values.tobytes() == b.y.values.tobytes()
    assert a.z.values.tobytes() == b.z.values.tobytes()


def test_stitching_on_the_certified_width():
    # constants small enough for a stitching width eta of about three of
    # the 50 grid steps: without the override every planned window fits
    # within eta, and no trace or flag records an excess
    sc = ScenarioSpec(
        name="certified", n=1, d=1, T=1.0,
        terminal=dsl.parse("0.5*sin(w)", dsl.TERMINAL_VARS),
        f=dsl.parse("0.1*abs(y) + 0.05*norm2(z)^2"),
        C=0.1, gamma=0.1, alpha=0.0, xi_bound=0.5,
    )
    cert = certify(sc)
    assert cert.eta == pytest.approx(0.0632, abs=1e-4)
    assert cert.chain.eps == pytest.approx(0.0738, abs=1e-4)
    cfg = CFG.updated(n_steps=50, n_paths=2_000, override_epsilon=False)
    res = global_solve(sc, _ensemble(sc, cfg), cfg)
    assert len(res.windows) == 17 and res.windows[:2] == [(0, 2), (2, 5)]
    assert all(left[1] == right[0] for left, right in zip(res.windows, res.windows[1:]))
    assert res.windows[-1][1] == 50
    assert all(t.width <= cert.eta for t in res.trace)
    assert all(t.exceeds_certificate is False for t in res.trace)
    assert res.flags["window_exceeds_certificate"] is False


def _trace(width: float, ratios=()) -> FixedPointTrace:
    return FixedPointTrace(ratios=list(ratios), width=width)


def test_measured_plan_width_rule():
    # synthetic traces on a 20-step grid of step 0.05: the next width is the
    # last one times clamp(Q / q, 1/2, 2), in time, rounded to a node
    grid = build_grid(1.0, 20)
    plan = meanfield._measured_plan(grid)
    q = meanfield._Q_TARGET
    # the first window is one grid step, chosen by no ratio
    assert plan(20, None) == (Window(19, 20), None)
    # unclamped: four steps at q = Q / 1.5 become six
    assert plan(20, _trace(0.2, [q / 1.5, 0.9])) == (Window(14, 20), q / 1.5)
    # clamped at 2 for a ratio far below the target, and at 1/2 far above
    assert plan(20, _trace(0.2, [q / 100])) == (Window(12, 20), q / 100)
    assert plan(20, _trace(0.2, [q * 100])) == (Window(18, 20), q * 100)
    # a window that converged without a ratio (or at ratio 0) doubles it
    assert plan(20, _trace(0.1)) == (Window(16, 20), None)
    assert plan(20, _trace(0.1, [0.0])) == (Window(16, 20), 0.0)
    # at least one step, however small the planned width
    assert plan(7, _trace(0.05, [q * 100])) == (Window(6, 7), q * 100)
    # the last window ends at node 0, and the plan is done there
    assert plan(3, _trace(0.2, [q / 100])) == (Window(0, 3), q / 100)
    assert plan(0, _trace(0.2, [q])) is None


def test_measured_plan_widths_are_in_time_on_a_graded_grid():
    # steps grow to the right: the same width covers more nodes near t = 0
    grid = TimeGrid(np.linspace(0.0, 1.0, 21) ** 2)
    plan = meanfield._measured_plan(grid)
    w, _ = plan(20, None)
    assert w == Window(19, 20)
    width = 0.3
    for hi in (20, 10):
        w, _ = plan(hi, _trace(width / 2))  # no ratio: doubles to 0.3
        target = grid.nodes[hi] - width
        assert w.hi == hi and w.lo == int(np.argmin(np.abs(grid.nodes[:hi] - target)))
    assert plan(20, _trace(0.15))[0].n_nodes < plan(10, _trace(0.15))[0].n_nodes


def test_planned_ex41_matches_the_one_window_solve():
    # criterion 5's bound, 2 tol_fp + 1% of |E Y|, against one window; the
    # traces replay the width rule, and every window records a ratio, so
    # the leftmost window's last ratios are defined
    sc, cfg = _shipped("ex41.cfg", n_steps=20, n_paths=2_000)
    assert cfg.n_windows is None and cfg.override_epsilon
    ens = _ensemble(sc, cfg)
    planned = multidim_solve(sc, ens, cfg)
    rerun = multidim_solve(sc, ens, cfg)
    one = multidim_solve(sc, ens, cfg.updated(n_windows=1))
    assert len(planned.windows) > 1 and planned.windows[0][0] == 0
    ref = one.m_y.values
    bound = 2 * cfg.tol_fp + 0.01 * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(planned.m_y.values - ref) <= bound)
    assert planned.y.values.tobytes() == rerun.y.values.tobytes()
    assert planned.z.values.tobytes() == rerun.z.values.tobytes()
    plan = meanfield._measured_plan(ens.grid)
    last = None
    for (lo, hi), trace in zip(reversed(planned.windows), reversed(planned.trace)):
        assert plan(hi, last) == (Window(lo, hi), trace.ratio)
        assert trace.width == Window(lo, hi).width(ens.grid)
        assert trace.converged and trace.ratios
        last = trace
    assert planned.trace[-1].ratio is None
    record = planned.as_dict()["trace"]
    assert [(t["width"], t["ratio"]) for t in record] == [
        (t.width, t.ratio) for t in planned.trace]
    assert one.trace[0].ratio is None and one.trace[0].width == 1.0


def test_local_solve_needs_single_generator():
    sc = example_31()
    ens = _ensemble(sc)
    with pytest.raises(InvalidInput):
        local_solve(sc, ens, CFG)


@pytest.mark.parametrize("entry", ["BackwardSolver.solve", "local_solve"])
def test_windows_past_the_grid_are_rejected(entry):
    # a 10-step grid has nodes 0..10: each entry point refuses a window
    # reaching past node 10 before it reads the grid there; a local window
    # must end at node 10
    sc = _mean_free_scenario()
    cfg = CFG.updated(n_steps=10, n_paths=500)
    ens = _ensemble(sc, cfg)
    terminal = np.zeros((cfg.n_paths, 1))
    calls = {
        "BackwardSolver.solve": lambda: BackwardSolver(ens, cfg).solve(
            Window(10, 11), terminal, lambda i, s, z: lambda y: y
        ),
        "local_solve": lambda: local_solve(sc, ens, cfg, window=Window(5, 12)),
    }
    message = {
        "BackwardSolver.solve": "runs past the last node 10 of the grid",
        "local_solve": r"window \(5, 12\) must end at the last node 10 of the grid",
    }
    with pytest.raises(InvalidInput, match=message[entry]):
        calls[entry]()


@pytest.mark.parametrize("n_steps, n_windows", [(2, 3), (10, 25)])
def test_more_windows_than_steps_are_rejected(n_steps, n_windows):
    # the planner used to clamp the count silently to one window per step
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_steps=n_steps, n_paths=500)
    ens = _ensemble(sc, cfg)
    message = f"n_windows = {n_windows} exceeds the grid's {n_steps} steps"
    with pytest.raises(InvalidInput, match=message):
        global_solve(sc, ens, cfg.updated(n_windows=n_windows))
    res = global_solve(sc, ens, cfg.updated(n_windows=n_steps))
    assert res.windows == [(i, i + 1) for i in range(n_steps)]


# ---------------------------------------------------------------------------
# stitched global solve
# ---------------------------------------------------------------------------


def test_global_solve_window_coverage():
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    ens = _ensemble(sc)
    res = global_solve(sc, ens, CFG.updated(n_windows=4))
    assert len(res.windows) == 4
    # contiguous, ordered from t=0, covering every node
    assert res.windows[0][0] == 0
    assert res.windows[-1][1] == CFG.n_steps
    for (a, b), (c, d) in zip(res.windows, res.windows[1:]):
        assert b == c
    assert res.y.values.shape == (CFG.n_steps + 1, CFG.n_paths, 1)


@pytest.mark.parametrize("n_bins", [1, 2])
def test_global_solve_linear_closed_form(n_bins):
    # driver zbar alone: m_Y(t) = T - t, m_Z = 1
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    ens = _ensemble(sc)
    cfg = CFG.updated(n_windows=2, basis=RegressionBasis(n_bins=n_bins))
    res = global_solve(sc, ens, cfg)
    t = res.m_y.times()
    assert np.max(np.abs(res.m_y.values[:, 0] - (1.0 - t))) < 0.03
    assert np.max(np.abs(res.m_z.values[:, 0, 0] - 1.0)) < 0.06


def test_global_solve_linear_closed_form_on_a_graded_grid():
    # criterion 3's problem, path count, windows and tolerances on a
    # non-uniform grid
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_paths=100_000, n_windows=4)
    ens = _graded_ensemble(sc, cfg)
    steps = ens.grid.steps
    assert steps[-1] / steps[0] > 5.0
    res = global_solve(sc, ens, cfg)
    assert all(t.converged for t in res.trace)
    t = res.m_y.times()
    assert np.max(np.abs(res.m_y.values[:, 0] - (1.0 - t))) <= 0.02
    assert np.max(np.abs(res.m_z.values[:, 0, 0] - 1.0)) <= 0.03


def test_m2_distance_weights_each_node_by_its_own_step(rng):
    # node-by-node distance against a whole-array reference on a graded
    # grid; the node-dependent magnitudes make a shifted step vector visible
    sc = example_41()
    ens = _graded_ensemble(sc, CFG.updated(n_steps=12, n_paths=500))
    L, P = ens.grid.n_steps + 1, ens.n_paths
    z = rng.standard_normal((L, P, 2, 2)) * np.arange(1.0, L + 1.0)[:, None, None, None]
    steps = ens.grid.steps
    expected = float(np.sqrt(np.mean(np.sum(z[:-1] ** 2, axis=(2, 3)).T @ steps)))
    assert m2_norm(z, steps, np.zeros_like(z)) == pytest.approx(expected, rel=1e-12)
    # the start's read-only zero integrand, and no second array at all,
    # give the same bits
    zero = np.broadcast_to(0.0, z.shape)
    assert m2_norm(z, steps, zero) == m2_norm(z, steps, np.zeros_like(z)) == m2_norm(z, steps)


def test_global_solve_deterministic():
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_windows=2)
    a = global_solve(sc, _ensemble(sc, cfg), cfg)
    b = global_solve(sc, _ensemble(sc, cfg), cfg)
    assert a.y.values.tobytes() == b.y.values.tobytes()
    assert a.z.values.tobytes() == b.z.values.tobytes()


@pytest.mark.parametrize("solve", [global_solve, picard_global],
                         ids=["global", "picard"])
def test_vector_noise_scalar_state_closed_form(solve):
    # d = 2, n = 1: Y = W1 + W2 + 2 (T - t) solves xi = W1_T + W2_T with
    # f = |E[Z]|^2, so E[Y_t] = 2 (T - t) and E[Z] = (1, 1)
    sc = ScenarioSpec(
        name="d2n1",
        n=1,
        d=2,
        T=1.0,
        terminal=dsl.parse("w1 + w2", dsl.TERMINAL_VARS),
        f=dsl.parse("norm2(zbar)^2"),
        C=2.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
    )
    cfg = CFG.updated(n_steps=20, n_paths=20_000, seed=5, n_windows=2)
    ens = _ensemble(sc, cfg)
    res = solve(sc, ens, cfg)
    assert res.y.values.shape == (cfg.n_steps + 1, cfg.n_paths, 1)
    assert res.z.values.shape == (cfg.n_steps + 1, cfg.n_paths, 2, 1)
    # Monte Carlo error at 20k paths: each node's E[Z] component averages
    # (dW_a (dW_1 + dW_2)) / h, of variance 3, so its standard error is
    # sqrt(3 / 20000) = 0.012 and 0.08 is over 6 of them for the largest of
    # the 42 estimates.  E[Y] carries the terminal mean's standard error
    # sqrt(2 / 20000) = 0.010 plus the integrated E[Z] error (about 0.008):
    # 0.06 is over 4 combined standard errors.  Seed 5 reads 0.015 and 0.044.
    t = res.m_y.times()
    assert np.max(np.abs(res.m_y.values[:, 0] - 2.0 * (1.0 - t))) < 0.06
    assert np.max(np.abs(res.m_z.values[:, :, 0] - 1.0)) < 0.08


def test_picard_matches_stitched_on_linear():
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_windows=2, tol_fp=1e-4)
    ens = _ensemble(sc, cfg)
    stitched = global_solve(sc, ens, cfg)
    picard = picard_global(sc, ens, cfg)
    gap = np.max(np.abs(stitched.m_y.values - picard.m_y.values))
    assert gap < 10.0 * cfg.tol_fp + 1e-3


def test_picard_horizon_is_not_checked_against_the_certified_width():
    # the horizon is Picard's one window, and the certified width is
    # shorter: a local solve is refused, Picard solves without a warning
    sc = linear_scenario(dbar=1.0, xi_bound=4.0)
    cfg = CFG.updated(n_steps=10, n_paths=2_000, override_epsilon=False)
    ens = _ensemble(sc, cfg)
    assert certify(sc).chain.eps < sc.T
    with pytest.raises(WindowTooWide):
        local_solve(sc, ens, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = picard_global(sc, ens, cfg)
    assert res.trace.converged and res.windows == [(0, cfg.n_steps)]
    assert res.trace.exceeds_certificate is None
    assert "window_exceeds_certificate" not in res.flags


@pytest.mark.parametrize("solve, window", [
    (local_solve, None), (global_solve, None), (local_solve, Window(5, 10)),
], ids=["local", "global", "local-after-node-0"])
def test_a_lone_window_is_the_result_without_a_copy(solve, window, monkeypatch):
    # the result's process grids view the last sweep's own arrays, also when
    # the lone window starts after node 0
    sweeps = _record_sweeps(monkeypatch)
    sc = linear_scenario(b=0.5, dbar=0.5, xi_bound=4.0)
    cfg = CFG.updated(n_steps=10, n_paths=2_000, n_windows=1)
    ens = _ensemble(sc, cfg)
    res = solve(sc, ens, cfg) if window is None else solve(sc, ens, cfg, window=window)
    last = sweeps[-1][2]
    span = (0, cfg.n_steps) if window is None else (window.lo, window.hi)
    assert res.windows == [span]
    assert res.y.span == span and res.z.span == span
    assert np.shares_memory(res.y.values, last.y)
    assert np.shares_memory(res.z.values, last.z)


# ---------------------------------------------------------------------------
# shift solvers
# ---------------------------------------------------------------------------


def _shift_identity_scenario():
    return ScenarioSpec(
        name="shift-id",
        n=1,
        d=1,
        T=1.0,
        terminal=dsl.parse("w", dsl.TERMINAL_VARS),
        f1=dsl.parse("0"),
        f2=dsl.parse("norm2(z)^2"),
        C=1.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
        forms=frozenset({FORM_SPLIT_QUADRATIC}),
    )


@pytest.mark.parametrize(
    "solve, scenario",
    [(shift_fixed_point, example_31(T=0.5)), (multidim_solve, example_41())],
    ids=["shift", "multidim"],
)
def test_first_integrand_distance_is_taken_from_zero(solve, scenario, monkeypatch):
    # the start has a zero integrand: the first recorded distance is the
    # M2 distance of the first step's integrand to zero
    sweeps = _record_sweeps(monkeypatch)
    cfg = CFG.updated(n_steps=10, n_paths=2_000, tol_fp=1e-3, n_windows=1)
    ens = _ensemble(scenario, cfg)
    res = solve(scenario, ens, cfg)
    # every sweep is a step: sweep 0 is the first step's
    z = sweeps[0][3].z
    first = res.trace[0].z_distances[0]
    assert first > 0.0
    assert first == m2_norm(z, ens.grid.steps, np.zeros_like(z))


def test_shift_leaves_integrand_bitwise_identical():
    sc = _shift_identity_scenario()
    ens = _ensemble(sc)
    res = shift_fixed_point(sc, ens, CFG.updated(n_windows=1))
    # the base BSDE of f1 alone, solved afresh
    f1 = dsl.Staged(sc.f1, ("s", "z"))
    window = ens.grid.full_window()
    base = BackwardSolver(ens, CFG).solve(
        window, sc.terminal_values(ens.state(window.hi)), lambda i, s, z: f1(s=s, z=z)
    )
    assert res.z.values.tobytes() == base.z.tobytes()


def test_shift_identity_state():
    # E[f2] = E[Z^2] = 1 shifts the martingale to W_t + (T - t)
    sc = _shift_identity_scenario()
    ens = _ensemble(sc)
    res = shift_fixed_point(sc, ens, CFG.updated(n_windows=1))
    t = res.m_y.times()
    target = ens.node_levels[:, :, 0] + (1.0 - t)[:, None]
    err = np.max(np.mean(np.abs(res.y.values[:, :, 0] - target), axis=1))
    assert err < 0.03


def test_shift_selector_requires_split_form():
    sc = _mean_free_scenario()  # single generator, no split parts
    ens = _ensemble(sc)
    with pytest.raises(InvalidInput):
        shift_fixed_point(sc, ens, CFG)


def test_deterministic_shift_is_the_first_step_confirmed_exactly(monkeypatch):
    # f1 reads only (s, z) and f2 no state: the first step from the start
    # is the base BSDE plus its deterministic shift, and the second, which
    # reads the same slots, repeats it bit for bit
    sweeps = _record_sweeps(monkeypatch)
    sc = _shift_identity_scenario()
    res = shift_fixed_point(sc, _ensemble(sc), CFG.updated(n_windows=1))
    (trace,) = res.trace
    assert len(sweeps) == 2 and trace.converged
    first, second = trace.total_distances()
    assert first > 0.0 and second == 0.0


def test_shift_fixed_point_on_split_example():
    sc = example_31(T=0.5)
    cfg = CFG.updated(n_steps=30, tol_fp=1e-3, n_windows=2)
    ens = _ensemble(sc, cfg)
    res = shift_fixed_point(sc, ens, cfg)
    traces = res.trace if isinstance(res.trace, list) else [res.trace]
    assert all(t.converged for t in traces)
    assert np.all(np.isfinite(res.m_y.values))
    # terminal slice reproduces the data
    xi = sc.terminal_values(ens.state(cfg.n_steps))
    np.testing.assert_array_equal(res.y.values[-1], xi)


# ---------------------------------------------------------------------------
# vector scheme
# ---------------------------------------------------------------------------


def test_multidim_solve_shapes_and_convergence():
    sc = example_41()
    cfg = CFG.updated(n_steps=25, n_paths=8_000, tol_fp=2e-3, max_outer=20,
                      n_windows=1)
    ens = _ensemble(sc, cfg)
    res = multidim_solve(sc, ens, cfg)
    trace = res.trace[0] if isinstance(res.trace, list) else res.trace
    assert trace.converged
    assert res.y.values.shape == (cfg.n_steps + 1, cfg.n_paths, 2)
    assert res.z.values.shape == (cfg.n_steps + 1, cfg.n_paths, 2, 2)


def test_multidim_requires_lipschitz_split():
    sc = example_31()  # split-quad, not split-lip
    ens = _ensemble(sc)
    with pytest.raises(InvalidInput):
        multidim_solve(sc, ens, CFG)


def test_multidim_rejects_single_generator():
    sc = _mean_free_scenario()
    ens = _ensemble(sc)
    with pytest.raises(InvalidInput):
        multidim_solve(sc, ens, CFG)


# ---------------------------------------------------------------------------
# iteration budgets, the finalised BMO estimate, buffered distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("selector", sorted(_SOLVERS))
def test_one_sweep_budget_runs_one_sweep_and_fails(selector, monkeypatch):
    # max_outer counts sweeps: the one sweep is compared with the start,
    # is recorded, and cannot settle anything
    sweeps = _record_sweeps(monkeypatch)
    with pytest.raises(MaxIterations, match="iteration budget exhausted at distance") as err:
        _tiny_run(selector, max_outer=1, tol_fp=1e-12)
    trace = err.value.trace
    assert len(sweeps) == 1
    assert trace.iterations == 1 and not trace.converged
    assert trace.total_distances()[0] > 1e-12


def _shipped(name: str, **changes):
    sc, cfg, _, _ = load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    return sc, cfg.updated(**changes)


def _horizon_bmo2(result, ensemble, basis) -> float:
    """The whole-horizon estimate, every node factorised afresh."""
    return bmo2_estimate(result.z, lambda i: NodeRegression(ensemble.state(i), basis))


@pytest.mark.parametrize(
    "case",
    ["graded", "two-bins", "multidim-d2", "shift-3-windows"],
)
def test_finalised_bmo_equals_the_horizon_estimate(case, monkeypatch):
    if case == "graded":
        sc = linear_scenario(dbar=1.0, xi_bound=4.0)
        cfg = CFG.updated(n_paths=4_000, n_windows=4)
        ens, solve = _graded_ensemble(sc, cfg), global_solve
    elif case == "two-bins":
        sc = linear_scenario(dbar=1.0, xi_bound=4.0)
        cfg = CFG.updated(n_paths=4_000, n_windows=3, basis=RegressionBasis(n_bins=2))
        ens, solve = _ensemble(sc, cfg), global_solve
    elif case == "multidim-d2":
        sc, cfg = _shipped("ex41.cfg", n_steps=20, n_paths=3_000, n_windows=2)
        ens, solve = _ensemble(sc, cfg), multidim_solve
    else:
        sc, cfg = _shipped("ex31.cfg", n_steps=30, n_paths=3_000, n_windows=3)
        ens, solve = _ensemble(sc, cfg), shift_fixed_point
    built = []

    def counting(state, basis, design=None):
        built.extend(i for i in range(ens.grid.n_steps + 1)
                     if np.shares_memory(state, ens.state(i)))
        return NodeRegression(state, basis, design)

    monkeypatch.setattr(solver_module, "NodeRegression", counting)
    res = solve(sc, ens, cfg)
    assert len(res.windows) == cfg.n_windows
    # every node but the last is factorised exactly once: the finalised
    # BMO estimate fits with the factors the sweeps cached
    assert sorted(built) == list(range(ens.grid.n_steps))
    assert res.diagnostics.bmo2_z == _horizon_bmo2(res, ens, cfg.basis)


def _whole_sup(a, b):
    return float(np.max(np.abs(a - b)))


def _whole_s2(a, b):
    diff = (a - b).reshape(a.shape[0], a.shape[1], -1)
    sq = np.einsum("lpk,lpk->lp", diff, diff)
    return float(np.sqrt(np.mean(sq.max(axis=0))))


def _whole_m2(a, b, steps):
    flat = (a - b).reshape(a.shape[0], -1)
    sq = np.einsum("lk,lk->l", flat, flat)
    return float(np.sqrt(steps @ sq[:-1] / a.shape[1]))


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 2)], ids=["1", "2", "2x2"])
def test_node_by_node_distances_match_the_whole_array_forms(dims, rng):
    grid = TimeGrid(np.linspace(0.0, 1.0, 14) ** 1.5)
    L, P = grid.n_steps + 1, 700
    scale = np.arange(1.0, L + 1.0).reshape(L, 1, *([1] * len(dims)))
    a = rng.standard_normal((L, P, *dims)) * scale
    b = rng.standard_normal((L, P, *dims))
    assert sup_norm(a, b) == _whole_sup(a, b)
    assert s2_norm(a, b) == _whole_s2(a, b)
    # the per-node sums of squares are added in another order
    assert m2_norm(a, grid.steps, b) == pytest.approx(_whole_m2(a, b, grid.steps), rel=1e-13)
    assert m2_norm(a, grid.steps, np.broadcast_to(0.0, a.shape)) == pytest.approx(
        _whole_m2(a, np.zeros_like(a), grid.steps), rel=1e-13
    )
    # a NaN anywhere gives NaN, as the whole-array forms do
    a[L // 2, P - 1] = np.nan
    assert np.isnan(sup_norm(a, b)) and np.isnan(_whole_sup(a, b))
    assert np.isnan(s2_norm(a, b)) and np.isnan(_whole_s2(a, b))
    assert np.isnan(m2_norm(a, grid.steps, b))


# ---------------------------------------------------------------------------
# staged drivers
# ---------------------------------------------------------------------------


_STAGED = dsl.Staged


class _EvaluatingStage:
    """Stand-in for :class:`dsl.Staged` that binds nothing: every call
    evaluates the whole expression with :func:`dsl.evaluate`.  A program
    with ``y`` late takes its derivative ``dy`` from a real one at the same
    slots, so that both take the same Newton steps."""

    def __init__(self, expr, late, n=1, d=1):
        self.expr, self.n, self.d = expr, n, d
        self.reads_late = expr.free_variables & frozenset(late)
        self.slots = {}
        self.tangent = _STAGED(expr, late, n=n, d=d) if set(late) == {"y"} else None
        self.dy = None

    def bind(self, s=None, y=None, ybar=None, z=None, zbar=None):
        self.slots = {"s": s, "y": y, "ybar": ybar, "z": z, "zbar": zbar}
        if self.tangent is not None:
            self.tangent.bind(s=s, ybar=ybar, z=z, zbar=zbar)

    def __call__(self, s=None, y=None, ybar=None, z=None, zbar=None):
        if self.tangent is not None:
            self.tangent(y=y)
            self.dy = self.tangent.dy
        given = {"s": s, "y": y, "ybar": ybar, "z": z, "zbar": zbar}
        slots = {k: v if v is not None else self.slots.get(k) for k, v in given.items()}
        # a slot the expression does not read may be absent: a one-row
        # zero leaves the path count to the others
        n, d = self.n, self.d
        absent = {"s": 0.0, "y": np.zeros(n), "ybar": np.zeros(n),
                  "z": np.zeros((d, n)), "zbar": np.zeros((d, n))}
        slots = {k: absent[k] if v is None else v for k, v in slots.items()}
        return dsl.evaluate(self.expr, slots["s"], slots["y"], slots["ybar"],
                            slots["z"], slots["zbar"], n=n, d=d)


def _staging_cases():
    return {
        "global": (lambda: _shipped("ex22.cfg", n_steps=16, n_paths=2_000, n_windows=2),
                   global_solve),
        "picard": (lambda: _shipped("ex22.cfg", n_steps=16, n_paths=2_000), picard_global),
        "multidim": (lambda: _shipped("ex41.cfg", n_steps=12, n_paths=2_000), multidim_solve),
        "shift": (lambda: _shipped("ex31.cfg", n_steps=15, n_paths=2_000, n_windows=3),
                  shift_fixed_point),
        "shift-identity": (
            lambda: (_shift_identity_scenario(),
                     CFG.updated(n_steps=12, n_paths=2_000, n_windows=1)),
            shift_fixed_point,
        ),
    }


@pytest.mark.parametrize("case", list(_staging_cases()))
def test_staged_solves_equal_whole_expression_evaluation(case, monkeypatch):
    # staged drivers (bound once per node, remainder in reused buffers)
    # against drivers that evaluate the whole expression on every call;
    # Picard's lagged source is then the two-evaluation full - core form
    make, solve = _staging_cases()[case]
    sc, cfg = make()
    ens = _ensemble(sc, cfg)
    staged = solve(sc, ens, cfg)
    monkeypatch.setattr(dsl, "Staged", _EvaluatingStage)
    evaluated = solve(sc, ens, cfg)
    assert staged.y.values.tobytes() == evaluated.y.values.tobytes()
    assert staged.z.values.tobytes() == evaluated.z.values.tobytes()
    assert staged.m_y.values.tobytes() == evaluated.m_y.values.tobytes()


@pytest.mark.parametrize("case, programs", [("global", 1), ("picard", 2), ("shift", 1),
                                             ("multidim", 1)])
def test_no_program_outlives_its_sweep(case, programs, monkeypatch):
    # every map builds its programs for one sweep, and nothing holds them
    # after it: when a sweep starts, each program built before the last
    # sweep started is dead (Picard's L(0) program before the first), and
    # the live ones are this sweep's
    make, solve = _staging_cases()[case]
    sc, cfg = make()
    built, starts = [], []
    init = dsl.Staged.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    sweep = BackwardSolver.solve

    def checked(self, *args):
        live = [k for k, ref in enumerate(built) if ref() is not None]
        assert len(live) == programs
        assert not starts or min(live) >= starts[-1]
        starts.append(len(built))
        return sweep(self, *args)

    monkeypatch.setattr(dsl.Staged, "__init__", recorded)
    monkeypatch.setattr(BackwardSolver, "solve", checked)
    res = solve(sc, _ensemble(sc, cfg), cfg)
    traces = res.trace if isinstance(res.trace, list) else [res.trace]
    assert len(starts) == sum(t.iterations for t in traces) > len(traces)


@pytest.mark.parametrize(
    "config, changes, solve",
    [("ex41.cfg", {"n_steps": 12, "n_paths": 2_000}, multidim_solve),
     ("ex31.cfg", {"n_steps": 15, "n_paths": 2_000, "n_windows": 3}, shift_fixed_point)],
    ids=["multidim", "shift"],
)
def test_state_terms_are_bound_once_per_node_per_outer_step(config, changes, solve, monkeypatch):
    # f1's slots are frozen for a whole outer step: it is bound whole, with
    # no late slot, once per swept node per step, and each window runs one
    # sweep per step
    sc, cfg = _shipped(config, **changes)
    ens = _ensemble(sc, cfg)
    bound = []
    bind = dsl.Staged.bind

    def counted(self, *args, **kwargs):
        bound.append(self.reads_late)
        return bind(self, *args, **kwargs)

    monkeypatch.setattr(dsl.Staged, "bind", counted)
    sweeps = _record_sweeps(monkeypatch)
    res = solve(sc, ens, cfg)
    steps = sum((hi - lo) * t.iterations for (lo, hi), t in zip(res.windows, res.trace))
    assert bound == [frozenset()] * steps
    spans = [span for span, *_ in sweeps]
    assert [spans.count(w) for w in res.windows] == [t.iterations for t in res.trace]


def test_picard_source_is_full_minus_core_bit_for_bit(monkeypatch):
    # the second Picard sweep's driver is core(z) + [L(iterate) - L(0)] at
    # the first step's iterate, L the generator's terms that read a lagged
    # slot and core the other terms plus L at zero, each evaluated whole
    # here; it is the whole generator's core + [full - lagged core] up to
    # rounding
    sc, cfg = _shipped("ex22.cfg", n_steps=8, n_paths=1_000)
    ens = _ensemble(sc, cfg)
    L = cfg.n_steps + 1
    sweeps, probed = [], []
    sweep = BackwardSolver.solve

    def probing(self, window, terminal, driver, *args):
        if len(sweeps) == 1:  # the second sweep's driver, before it runs
            for j in range(L):
                z = sweeps[0].z[(j + 3) % L]  # any integrand
                probed.append(driver(j, float(ens.grid.nodes[j]), z).copy())
        out = sweep(self, window, terminal, driver, *args)
        # later sweeps store over the first one's arrays: keep a copy
        sweeps.append(_snapshot(out) if not sweeps else out)
        return out

    monkeypatch.setattr(BackwardSolver, "solve", probing)
    res = picard_global(sc, ens, cfg)
    assert len(sweeps) == res.trace.iterations
    start = sweeps[0]
    m_y, m_z = path_mean(start.y), path_mean(start.z)
    gen, n, d, P = sc.f, sc.n, sc.d, cfg.n_paths
    reading, regrouped = gen.split(("y", "ybar", "zbar"))
    assert dsl.to_text(reading) == "abs(y) + abs(ybar) + abs(sin(norm2(zbar)))"
    zeros = (np.zeros((P, n)), np.zeros(n))
    for j in range(L):
        s = float(ens.grid.nodes[j])
        z = start.z[(j + 3) % L]
        at = (s, start.y[j], m_y[j], start.z[j], m_z[j])
        at_zero = (s, *zeros, start.z[j], np.zeros((d, n)))
        core = dsl.evaluate(regrouped, s, *zeros, z, np.zeros((d, n)), n=n, d=d)
        lagged = dsl.evaluate(reading, *at, n=n, d=d)
        lagged_zero = dsl.evaluate(reading, *at_zero, n=n, d=d)
        assert probed[j].tobytes() == (core + (lagged - lagged_zero)).tobytes()
        full = dsl.evaluate(gen, *at, n=n, d=d)
        full_core = dsl.evaluate(gen, s, *zeros, z, np.zeros((d, n)), n=n, d=d)
        old = full_core + (full - dsl.evaluate(gen, *at_zero, n=n, d=d))
        assert np.all(np.abs(probed[j] - old) <= 1e-13 * np.maximum(1.0, np.abs(old)))


# ---------------------------------------------------------------------------
# the result record
# ---------------------------------------------------------------------------

# a tiny run of each CLI selector: shipped config and settings over the
# shared small ones
_TINY_RUNS = {
    "local": ("linear.cfg", {}),
    "global": ("linear.cfg", {"n_windows": 2}),
    "picard": ("linear.cfg", {}),
    "shift": ("ex31.cfg", {"n_windows": 2}),
    "multidim": ("ex41.cfg", {"n_windows": 2}),
}


def _tiny_run(selector, **changes):
    name, settings = _TINY_RUNS[selector]
    sc, cfg = _shipped(name)
    cfg = cfg.updated(**{"n_steps": 8, "n_paths": 500, "override_epsilon": True,
                         **settings, **changes})
    return _SOLVERS[selector](sc, _ensemble(sc, cfg), cfg)


@pytest.mark.parametrize("selector", sorted(_SOLVERS))
def test_result_record_is_plain_json(selector):
    # every value the record holds is a plain Python value
    json.dumps(_tiny_run(selector).as_dict())


@pytest.mark.parametrize("solve", [global_solve, picard_global], ids=["global", "picard"])
def test_trace_totals_are_the_sums_of_the_sweeps_counts(solve, monkeypatch):
    # every window's inner-iteration and damped-pass totals are its sweeps'
    sc, cfg = _shipped("ex22.cfg", n_steps=16, n_paths=2_000)
    ens = _ensemble(sc, cfg)
    sweeps = _record_sweeps(monkeypatch)
    res = solve(sc, ens, cfg)
    traces = res.trace if isinstance(res.trace, list) else [res.trace]
    spans = res.windows if solve is global_solve else [(0, cfg.n_steps)]
    assert len(traces) == len(spans) > (solve is global_solve)
    for span, trace in zip(spans, traces):
        outs = [out for where, _, out, _ in sweeps if where == span]
        assert len(outs) == trace.iterations
        assert trace.inner_iterations == sum(sum(out.inner_iterations) for out in outs)
        assert trace.damped_passes == sum(out.damped_passes for out in outs)
        record = trace.as_dict()
        assert (record["inner_iterations"], record["damped_passes"]) == (
            trace.inner_iterations, trace.damped_passes)
    # the y-reading driver takes Newton passes in the frozen-mean map, and
    # Picard's explicit driver one step per node
    per_node = traces[0].inner_iterations / (traces[0].iterations * (spans[0][1] - spans[0][0]))
    assert per_node == 1.0 if solve is picard_global else 2.0 <= per_node <= 3.0


@pytest.mark.parametrize("selector", sorted(_SOLVERS))
def test_within_certified_ball_compares_the_report_with_the_certificate(selector):
    res = _tiny_run(selector)
    flag = res.flags["within_certified_ball"]
    assert type(flag) is bool
    rep, cert = res.diagnostics, res.certificate
    assert rep.sup_y == sup_norm(res.y.values)
    assert flag == (rep.sup_y <= cert.ball_radius and rep.bmo2_z <= cert.chain.A)


@pytest.mark.parametrize("selector", sorted(_SOLVERS))
def test_envelope_rate_is_taken_once_from_the_solved_state(selector):
    res = _tiny_run(selector)
    rate = check_alpha_envelope(res.y, res.certificate.alpha_envelope)
    assert res.flags["alpha_envelope_rate"] == rate
    assert res.diagnostics.alpha_violation_rate == rate


@pytest.mark.parametrize("n_windows", [1, 2])
@pytest.mark.parametrize("selector", sorted(_SOLVERS))
def test_process_grids_are_node_major_and_contiguous(selector, n_windows, monkeypatch):
    # (nodes, paths, ...) and C-contiguous for every selector; every
    # window is solved in place in the result's state and integrand, so
    # the last sweep's arrays are views of them, the state shifted as the
    # sweep stored it where a mean shift moves it
    sweeps = _record_sweeps(monkeypatch)
    res = _tiny_run(selector, n_windows=n_windows)
    L, P = 9, 500
    assert res.y.values.shape == (L, P, *res.m_y.values.shape[1:])
    assert res.z.values.shape == (L, P, *res.m_z.values.shape[1:])
    assert res.y.values.flags.c_contiguous and res.z.values.flags.c_contiguous
    last = sweeps[-1][2]
    assert np.shares_memory(res.z.values, last.z)
    assert np.shares_memory(res.y.values, last.y)


@pytest.mark.parametrize("selector", sorted(_SOLVERS))
def test_in_sweep_distances_and_means_are_those_of_the_whole_iterates(selector, monkeypatch):
    # each sweep takes its distances and path means node by node as it
    # stores over the iterate it replaces: they are, bit for bit, the
    # diagnostics' norms of consecutive iterates (each window's start, then
    # every sweep's arrays as it returned them) and the path means of the
    # iterate the window ends on.  A window left of the horizon ends on the
    # right window's solved node 0, whose integrand is not the one its own
    # sweep took the mean of there
    sweeps = _record_sweeps(monkeypatch)
    finals = []
    iterate = meanfield._iterate

    def capturing(*args):
        finals.append(iterate(*args))
        return finals[-1]

    monkeypatch.setattr(meanfield, "_iterate", capturing)
    res = _tiny_run(selector)
    traces = res.trace if isinstance(res.trace, list) else [res.trace]
    norm = s2_norm if selector == "multidim" else sup_norm
    mean_z = selector in ("local", "global")
    grid = res.y.grid
    assert len(finals) == len(traces) == len(res.windows)
    # windows are solved right to left
    for (lo, hi), trace, final in zip(res.windows, traces, finals[::-1]):
        terminal = res.y.values[hi - res.y.span[0]]
        start = meanfield._terminal_start(terminal, hi - lo + 1, res.z.values.shape[2])
        snaps = [start] + [snap for span, _, _, snap in sweeps if span == (lo, hi)]
        assert len(snaps) == trace.iterations + 1 >= 3
        means = [(start.m_y, start.m_z)] + [(path_mean(s.y), path_mean(s.z)) for s in snaps[1:]]
        steps = grid.steps[lo:hi]
        pairs = list(zip(snaps, snaps[1:], means, means[1:]))
        assert trace.y_distances == [norm(new.y, old.y) for old, new, _, _ in pairs]
        assert trace.z_distances == [m2_norm(new.z, steps, old.z) for old, new, _, _ in pairs]
        mean = [max(sup_norm(m_new[0], m_old[0]), sup_norm(m_new[1], m_old[1])) if mean_z
                else sup_norm(m_new[0], m_old[0]) for _, _, m_old, m_new in pairs]
        assert trace.mean_distances == mean
        assert final.y.tobytes() == snaps[-1].y.tobytes()
        assert final.z.tobytes() == snaps[-1].z.tobytes()
        assert final.m_y.tobytes() == path_mean(final.y).tobytes()
        own = slice(None) if hi == grid.n_steps else slice(-1)
        assert final.m_z[own].tobytes() == path_mean(final.z[own]).tobytes()
        if hi < grid.n_steps:
            # as the right window's last sweep returned it
            right = res.windows[res.windows.index((lo, hi)) + 1]
            solved = [snap for span, _, _, snap in sweeps if span == right][-1]
            assert final.y[-1].tobytes() == solved.y[0].tobytes()
            assert final.z[-1].tobytes() == solved.z[0].tobytes()


@pytest.mark.parametrize("selector, name, n_windows", [
    ("local", "linear.cfg", 1), ("picard", "ex22.cfg", 1), ("shift", "ex31.cfg", 1),
    ("global", "linear.cfg", 4), ("shift", "ex31.cfg", 4), ("multidim", "ex41.cfg", 4),
], ids=["local-linear.cfg", "picard-ex22.cfg", "shift-ex31.cfg",
        "global-linear.cfg-4", "shift-ex31.cfg-4", "multidim-ex41.cfg-4"])
def test_a_window_holds_one_iterate(selector, name, n_windows):
    # every window is solved in place in the horizon arrays, its first
    # sweep storing into its block and every later one over it: a solve
    # peaks below its result plus half an iterate, where keeping the
    # replaced iterate until its sweep ends, or a window's iterate apart
    # from the horizon, would hold a whole one more
    sc, cfg = _shipped(name, n_steps=60, n_paths=20_000, n_windows=n_windows,
                       override_epsilon=True)
    ens = _ensemble(sc, cfg)
    cert = certify(sc)
    tracemalloc.start()
    try:
        res = _SOLVERS[selector](sc, ens, cfg, certificate=cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    traces = res.trace if isinstance(res.trace, list) else [res.trace]
    assert len(traces) == n_windows and all(t.iterations >= 2 for t in traces)
    iterate = res.y.values.nbytes + res.z.values.nbytes
    assert peak < 1.5 * iterate


def test_picard_record_has_no_per_step_envelope_rates():
    assert "alpha_rates" not in _tiny_run("picard").as_dict()["trace"]


def test_every_result_field_is_written():
    # nothing a solve returns besides its process grids stays out of the
    # record, so no unwritten side channel can come back
    record = _tiny_run("global").as_dict()
    names = [f.name for f in dataclasses.fields(SolveResult)]
    missing = [n for n in names if n not in ("y", "z") and n not in record]
    assert missing == []


def _clamps_per_window(sweeps) -> dict:
    """Clamp events of the recorded sweeps, summed per window."""
    counts = {}
    for span, _, out, _ in sweeps:
        counts[span] = counts.get(span, 0) + out.clamp_events
    return counts


@pytest.mark.parametrize("selector", sorted(_TINY_RUNS))
def test_trace_counts_the_clamps_of_its_step_sweeps(selector, monkeypatch):
    sweeps = _record_sweeps(monkeypatch)
    res = _tiny_run(selector, z_clamp=0.3)
    counts = _clamps_per_window(sweeps)
    traces = res.trace if isinstance(res.trace, list) else [res.trace]
    # every sweep is a step of some window's trace
    assert sorted(counts) == sorted(res.windows)
    assert [t.clamp_events for t in traces] == [counts[w] for w in res.windows]
    assert all(t.clamp_events > 0 for t in traces)


def test_failure_record_counts_the_clamps(tmp_path, monkeypatch):
    sweeps = _record_sweeps(monkeypatch)
    with pytest.raises(MaxIterations) as failed:
        _tiny_run("local", z_clamp=0.3, max_outer=2, tol_fp=1e-12)
    counts = _clamps_per_window(sweeps)
    path = tmp_path / "run_failure.json"
    write_failure_json(path, failed.value, manifest_for("x.cfg", "", CFG, "local"))
    trace = json.loads(path.read_text())["trace"]
    assert trace["clamp_events"] == counts[(0, 8)] > 0
