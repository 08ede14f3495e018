"""Backward regression solver: martingale limits, implicit stepping,
clamping, and the linear closed form."""

import dataclasses
import tracemalloc
import warnings
from itertools import combinations_with_replacement

import numpy as np
import pytest

from mfbsde import dsl, regression
from mfbsde.core import Window, build_grid, path_mean, simulate_brownian
from mfbsde.errors import InvalidInput, RegressionError, StepDivergence
from mfbsde.meanfield import local_solve
from mfbsde.regression import NodeRegression, RegressionBasis, _design_rows
from mfbsde.scenario import ScenarioSpec, linear_scenario
from mfbsde.solver import (
    BackwardSolver,
    SolverConfig,
    _clamp_z,
    staged_driver,
)

from closed_form import LinearMeanFieldSpec, linear_closed_form

CFG = SolverConfig(n_steps=50, n_paths=20_000, seed=12345)


def _scalar_scenario(f_text, terminal="w", T=1.0):
    return ScenarioSpec(
        name="t",
        n=1,
        d=1,
        T=T,
        terminal=dsl.parse(terminal, dsl.TERMINAL_VARS),
        f=dsl.parse(f_text),
        C=1.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
    )


def _frozen_mean_driver(sc, m_y, m_z, lo):
    """``sc.f`` with its mean slots frozen at ``m_y`` and ``m_z``."""
    return staged_driver(dsl.Staged(sc.f, ("y",), n=sc.n, d=sc.d), lo, ybar=m_y, zbar=m_z)


def _zero_means(sc, n_nodes):
    return np.zeros((n_nodes, sc.n)), np.zeros((n_nodes, sc.d, sc.n))


def _frozen_mean_sweep(sc, ensemble, cfg):
    """One sweep on the full window with the mean slots frozen at zero."""
    window = ensemble.grid.full_window()
    terminal = sc.terminal_values(ensemble.state(window.hi))
    drive = _frozen_mean_driver(sc, *_zero_means(sc, window.n_nodes), window.lo)
    return BackwardSolver(ensemble, cfg).solve(window, terminal, drive)


# ---------------------------------------------------------------------------
# regression layer
# ---------------------------------------------------------------------------


def test_poly_feature_count():
    x = np.random.default_rng(0).standard_normal((100, 2))
    X = _design_rows(x, 3).T
    assert X.shape == (100, 10)  # binom(2+3, 3)
    assert np.all(X[:, 0] == 1.0)


def test_poly_features_match_column_products(rng):
    # each monomial is its coordinates multiplied left to right, bit for bit
    x = rng.standard_normal((500, 3))
    cols = [np.ones(500)]
    for deg in range(1, 4):
        for combo in combinations_with_replacement(range(3), deg):
            col = x[:, combo[0]].copy()
            for j in combo[1:]:
                col *= x[:, j]
            cols.append(col)
    assert np.array_equal(_design_rows(x, 3).T, np.stack(cols, axis=1))


def test_regression_reproduces_polynomials(rng):
    x = rng.standard_normal((5000, 1))
    reg = NodeRegression(x, RegressionBasis(degree=3, ridge=0.0))
    target = 2.0 - x[:, 0] + 0.5 * x[:, 0] ** 3
    fitted = reg.fit(target)
    np.testing.assert_allclose(fitted, target, rtol=0, atol=1e-10)


def test_binned_regression_matches_per_bin_lstsq(rng):
    x = rng.standard_normal((3000, 2))
    vals = np.stack([np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2, np.abs(x[:, 0] * x[:, 1])], axis=1)
    basis = RegressionBasis(degree=3, n_bins=3, ridge=0.0)
    fitted = NodeRegression(x, basis).fit(vals)
    # quantile bins of the first coordinate, one least-squares fit each on
    # the design scaled to unit root-mean-square columns
    edges = np.quantile(x[:, 0], np.linspace(0.0, 1.0, 4))
    bins = np.clip(np.searchsorted(edges, x[:, 0], side="right") - 1, 0, 2)
    expected = np.empty_like(vals)
    for b in range(3):
        members = bins == b
        assert members.sum() == 1000
        X = _design_rows(x[members], basis.degree).T
        Xs = X / np.sqrt(np.mean(X * X, axis=0))
        coef, *_ = np.linalg.lstsq(Xs, vals[members], rcond=None)
        expected[members] = Xs @ coef
    np.testing.assert_allclose(fitted, expected, rtol=0, atol=1e-9)
    # the bins fit separately: a single global fit is visibly different
    single = NodeRegression(x, RegressionBasis(degree=3, ridge=0.0)).fit(vals)
    assert np.max(np.abs(single - expected)) > 1e-3


def _normal_equations_fit(state, basis, values):
    """Reference regression: per bin, a Cholesky solve of the ridged normal
    equations on the column-scaled design, once per fit."""
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    P = state.shape[0]
    if basis.n_bins > 1:
        edges = np.quantile(state[:, 0], np.linspace(0, 1, basis.n_bins + 1))
        idx = np.clip(np.searchsorted(edges, state[:, 0], side="right") - 1, 0,
                      basis.n_bins - 1)
        memberships = [np.flatnonzero(idx == b) for b in range(basis.n_bins)]
    else:
        memberships = [np.arange(P)]
    fitted = np.empty_like(vals)
    for members in memberships:
        X = _design_rows(state[members], basis.degree).T
        scale = np.sqrt(np.mean(X * X, axis=0))
        keep = scale > 0.0
        Xs = X[:, keep] / scale[keep]
        gram = Xs.T @ Xs
        gram[np.diag_indices_from(gram)] += basis.ridge * members.size
        chol = np.linalg.cholesky(gram)
        c = np.linalg.solve(chol.T, np.linalg.solve(chol, Xs.T @ vals[members]))
        fitted[members] = Xs @ c
    return fitted[:, 0] if squeeze else fitted


@pytest.mark.parametrize("n_bins, d", [(1, 1), (1, 2), (3, 2)])
@pytest.mark.parametrize("m", [None, 3])
def test_projector_matches_normal_equations(rng, n_bins, d, m):
    x = rng.standard_normal((4000, d))
    shape = (4000,) if m is None else (4000, m)
    vals = np.sin(3.0 * x[:, :1] + np.arange(m or 1)) + x[:, -1:] ** 2
    vals = vals.reshape(shape)
    basis = RegressionBasis(degree=3, n_bins=n_bins)
    fitted = NodeRegression(x, basis).fit(vals)
    assert fitted.shape == shape
    expected = _normal_equations_fit(x, basis, vals)
    np.testing.assert_allclose(fitted, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [None, 2])
def test_projector_matches_normal_equations_at_t0(grid50, m):
    # the t=0 state is zero on every path: only the constant column is kept
    ens = simulate_brownian(grid50, 1, 1000, 3)
    vals = np.cos(np.arange(1000.0 * (m or 1))).reshape((1000,) if m is None else (1000, m))
    basis = RegressionBasis(degree=3)
    fitted = NodeRegression(ens.state(0), basis).fit(vals)
    expected = _normal_equations_fit(ens.state(0), basis, vals)
    np.testing.assert_allclose(fitted, expected, rtol=0, atol=1e-12)
    mean = np.broadcast_to(vals.mean(axis=0), vals.shape)
    np.testing.assert_allclose(fitted, mean, rtol=1e-7)


@pytest.mark.parametrize(
    "d, n_bins",
    [pytest.param(1, 1, id="1"), pytest.param(2, 1, id="2"), pytest.param(1, 3, id="1-3bins")],
)
def test_node_regressions_retain_no_path_sized_arrays(grid50, d, n_bins):
    # a single-bin node keeps k x k factors and a view of its levels: the
    # 50 fitted nodes of a 20k-path ensemble retain kilobytes, where one
    # (features, paths) projector per node would retain 32 MB at d = 1.
    # A binned node adds its member index, 4 bytes per path as int32.
    P = 20_000
    ens = simulate_brownian(grid50, d, P, 5)
    solver = BackwardSolver(ens, CFG.updated(basis=RegressionBasis(n_bins=n_bins)))
    # a first build may import numpy's lazy submodules (np.quantile loads
    # numpy.ma): build the last node, which no sweep fits, before measuring
    solver.node_regression(grid50.n_steps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        regs = [solver.node_regression(i) for i in range(grid50.n_steps)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(regs) == grid50.n_steps
    index_bytes = 4 * P * grid50.n_steps if n_bins > 1 else 0
    assert retained < index_bytes + 1_000_000


def test_regression_rank_deficiency_raises(rng):
    col = rng.standard_normal(64)
    state = np.stack([col, col], axis=1)  # duplicated coordinate
    with pytest.raises(RegressionError):
        NodeRegression(state, RegressionBasis(degree=3, ridge=0.0))


def test_regression_needs_more_paths_than_features(rng):
    x = rng.standard_normal((3, 1))
    with pytest.raises(InvalidInput):
        NodeRegression(x, RegressionBasis(degree=3))


def test_degenerate_state_falls_back_to_mean(grid50):
    # the t=0 node has zero state everywhere: conditioning is trivial
    ens = simulate_brownian(grid50, 1, 1000, 3)
    reg = NodeRegression(ens.state(0), RegressionBasis(degree=3, ridge=0.0))
    vals = np.arange(1000, dtype=np.float64)
    fitted = reg.fit(vals)
    np.testing.assert_allclose(fitted, vals.mean(), rtol=1e-13)
    # the default ridge biases the constant fit by its own magnitude only
    reg2 = NodeRegression(ens.state(0), RegressionBasis(degree=3))
    fitted2 = reg2.fit(vals)
    np.testing.assert_allclose(fitted2, vals.mean(), rtol=1e-7)


# ---------------------------------------------------------------------------
# single backward steps
# ---------------------------------------------------------------------------


def _last_step(ensemble, driver):
    """The backward step at node 49 alone: a sweep on ``Window(49, 50)``
    from ``W_T``; returns the state (P, n) and integrand (P, d, n) at 49."""
    res = BackwardSolver(ensemble, CFG).solve(Window(49, 50), ensemble.state(50), driver)
    return res.y[0], res.z[0]


def test_backward_step_source_only(ensemble50):
    # f constant: y_i = E_i[y_next] + h
    w_last = ensemble50.state(49)[:, 0]
    y, z = _last_step(ensemble50, lambda i, s, z: lambda y: np.ones_like(y))
    h = 0.02
    err = y[:, 0] - (w_last + h)
    # regression noise is worst in the state tails; the bulk is tight
    assert np.mean(np.abs(err)) < 5e-3
    assert np.max(np.abs(err)) < 0.05
    # integrand of the martingale part of W is one
    assert z.mean() == pytest.approx(1.0, abs=0.05)


def test_backward_step_implicit_linear(ensemble50):
    # f = 10*y is stiff enough that the implicit solve matters:
    # y = cond/(1 - 10*h) with cond = E_i[W_T | W_i] = W_i
    y, _ = _last_step(ensemble50, lambda i, s, z: lambda y: 10.0 * y)
    w = ensemble50.state(49)[:, 0]
    np.testing.assert_allclose(y[:, 0], w / 0.8, rtol=0, atol=2e-2)


def test_backward_step_divergence(ensemble50):
    # h * Lipschitz = 2: the damped iteration cannot settle
    with pytest.raises(StepDivergence):
        _last_step(ensemble50, lambda i, s, z: lambda y: 100.0 * y)


def test_non_finite_state_is_a_step_divergence():
    # one step of width 1 from a 1e306 terminal: the explicit step adds
    # 1.79e308 and leaves the doubles
    ensemble = simulate_brownian(build_grid(1.0, 1), 1, 40, 7)
    terminal = np.full((40, 1), 1e306)
    drive = lambda i, s, z: np.full((40, 1), 1.79e308)  # noqa: E731
    with np.errstate(over="ignore"), pytest.raises(StepDivergence) as got:
        BackwardSolver(ensemble, CFG).solve(Window(0, 1), terminal, drive)
    assert str(got.value) == "non-finite state in backward step (grid node 0)"


@pytest.mark.parametrize("n_bins", [1, 3])
def test_representable_state_fits_where_its_path_sums_overflow(n_bins):
    # a constant 1e306 terminal at 200 paths: the fit's path sums leave the
    # doubles, the fit of the scaled values does not, and with a zero
    # driver the state is the terminal's conditional mean, up to the ridge
    ensemble = simulate_brownian(build_grid(1.0, 1), 1, 200, 3)
    terminal = np.full((200, 1), 1e306)
    drive = lambda i, s, z: np.zeros((200, 1))  # noqa: E731
    cfg = CFG.updated(basis=RegressionBasis(n_bins=n_bins))
    # the integrand clamp squares the fit's rounding residual, about 1e296
    with np.errstate(over="ignore"):
        res = BackwardSolver(ensemble, cfg).solve(Window(0, 1), terminal, drive)
    assert np.all(res.y[1] == terminal)
    np.testing.assert_allclose(res.y[0], 1e306, rtol=1e-6)


def test_backward_step_index_validation(ensemble50):
    # node 50 is the last one: it has no forward step
    with pytest.raises(InvalidInput):
        BackwardSolver(ensemble50, CFG).solve(
            Window(50, 51), np.zeros((ensemble50.n_paths, 1)), lambda i, s, z: lambda y: y
        )


@pytest.mark.parametrize("shape", [(), (20_000,), (20_000, 1, 1), (19_999, 1)],
                         ids=["scalar", "no-component-axis", "extra-axis", "path-count"])
def test_a_terminal_of_the_wrong_shape_is_refused(ensemble50, shape):
    with pytest.raises(InvalidInput, match="terminal shape does not match ensemble"):
        BackwardSolver(ensemble50, CFG).solve(
            Window(0, 50), np.zeros(shape), lambda i, s, z: lambda y: y
        )


@pytest.mark.parametrize("n_bins", [1, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_backward_step_fits_match_normal_equations(grid50, n_bins, d):
    # with a zero driver the step's state is the conditional mean, and its
    # integrand the fit of the centred residual times the increment over h
    P = 4_000
    ens = simulate_brownian(grid50, d, P, 11)
    basis = RegressionBasis(n_bins=n_bins)
    x, w = ens.state(49), ens.state(50)
    y_next = np.stack([np.sin(w[:, 0]) + np.cos(w[:, -1]), np.sin(w[:, 0] * w[:, -1])], axis=1)
    res = BackwardSolver(ens, CFG.updated(n_paths=P, basis=basis)).solve(
        Window(49, 50), y_next, lambda i, s, z: np.zeros((P, 2))
    )
    cond = _normal_equations_fit(x, basis, y_next)
    raw = (w - x)[:, :, None] * (y_next - cond)[:, None, :] / grid50.steps[49]
    z = _normal_equations_fit(x, basis, raw.reshape(P, 2 * d)).reshape(P, d, 2)
    np.testing.assert_allclose(res.y[0], cond, rtol=0, atol=1e-12)
    # the cubic fits of the outer bins reach |z| of about 30 at their far
    # ends, so the tolerance is 1e-12 of the integrand's size
    np.testing.assert_allclose(res.z[0], z, rtol=0, atol=1e-12 * max(1.0, np.abs(z).max()))


def _clamp_by_row_norms(z, level):
    """Every row's norm taken and compared with the level."""
    P = z.shape[0]
    norms = np.sqrt(np.sum(z.reshape(P, -1) ** 2, axis=1))
    over = norms > level
    return z * np.where(over, level / norms, 1.0)[:, None, None], int(over.sum())


@pytest.mark.parametrize("d, n", [(1, 1), (2, 2)])
@pytest.mark.parametrize("case", ["below", "at", "ulp-above"])
def test_clamp_precheck_matches_the_full_norm_path(rng, d, n, case):
    level = 0.7
    z = rng.uniform(-1.0, 1.0, (50, d, n)) * (0.5 * level / np.sqrt(d * n))
    if case == "below":
        # equal entries whose sqrt(d*n) bound sits just under the level:
        # the max-entry pre-check alone decides
        z[3] = level / np.sqrt(d * n) * (1.0 - 1e-11)
    else:
        z[3] = 0.0
        z[3, 0, 0] = level if case == "at" else np.nextafter(level, np.inf)
    got, count = _clamp_z(z, level)
    want, want_count = _clamp_by_row_norms(z, level)
    assert count == want_count == int(case == "ulp-above")
    assert np.array_equal(got, want)
    if case != "ulp-above":
        assert got is z


def test_clamp_scales_a_row_whose_norm_overflows_down_to_the_level():
    # the squares of 1e200 leave the doubles, so such a row's norm is taken
    # over its largest entry: the row lands at the level, not at zero, and
    # no overflow warning escapes
    z = np.full((3, 1, 1), 1e200)
    z[1] = 0.5
    wide = np.full((3, 2, 2), 1e200)
    wide[1] = 0.5
    wide[2, 0, 0] = -1.7e308
    for arr in (z, wide):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, count = _clamp_z(arr, 100.0)
        assert count == 2
        assert np.array_equal(got[1], arr[1])
        norms = np.linalg.norm(got.reshape(3, -1), axis=1)
        np.testing.assert_allclose(norms[[0, 2]], 100.0, rtol=1e-14)
        assert np.array_equal(np.sign(got), np.sign(arr))


# ---------------------------------------------------------------------------
# full sweeps
# ---------------------------------------------------------------------------


def test_zero_driver_recovers_martingale(ensemble50):
    # f = 0, xi = W_T: Y_i = W_i and Z = 1 up to regression noise; the
    # sweep's arrays are node-major, (L, P, ...)
    sc = _scalar_scenario("0")
    info = _frozen_mean_sweep(sc, ensemble50, CFG)
    assert info.y.shape == (51, ensemble50.n_paths, 1)
    assert info.z.shape == (51, ensemble50.n_paths, 1, 1)
    w = ensemble50.node_levels[:, :, 0]
    err = np.max(np.mean(np.abs(info.y[:, :, 0] - w), axis=1))
    assert err < 0.02
    m_z = info.z.mean(axis=1)
    assert np.max(np.abs(m_z - 1.0)) < 0.05
    assert info.clamp_events == 0
    assert all(k == 1 for k in info.inner_iterations)  # z-only driver: 1 pass


def test_tower_property_of_state_mean(ensemble50):
    # with f = 0 the state mean is constant in time (martingale property)
    sc = _scalar_scenario("0", terminal="w^2")
    info = _frozen_mean_sweep(sc, ensemble50, CFG)
    m = info.y.mean(axis=1)[:, 0]
    # E[W_T^2] = T = 1; drift of the estimated mean stays within MC noise
    assert np.max(np.abs(m - m[-1])) < 0.02


@pytest.mark.parametrize(
    "basis, d",
    [(RegressionBasis(), 1), (RegressionBasis(n_bins=3), 1),
     (RegressionBasis(degree=0), 1), (RegressionBasis(n_bins=4), 2)],
    ids=["default", "3-bins", "degree-0", "d2-4-bins"],
)
def test_zero_driver_keeps_the_terminal_mean_at_every_node(basis, d):
    # every basis keeps a constant column (the t=0 node keeps only that),
    # so each fit keeps the path mean up to the ridge: a driver-free sweep's
    # mean curve is the terminal's mean, which frozen-mean windows start from
    grid = build_grid(1.0, 20)
    ens = simulate_brownian(grid, d, 5_000, 7)
    w = ens.state(grid.n_steps)
    terminal = np.stack([3.0 + w[:, 0] + w[:, -1] ** 2, -1.0 + 0.5 * w[:, 0] ** 3], axis=1)
    terminal = terminal[:, :d]
    target = path_mean(terminal[None])[0]
    for ridge in (basis.ridge, 0.0):
        cfg = CFG.updated(basis=dataclasses.replace(basis, ridge=ridge))
        sweep = BackwardSolver(ens, cfg).solve(
            grid.full_window(), terminal, lambda i, s, z: np.zeros((z.shape[0], z.shape[2]))
        )
        gap = np.abs(path_mean(sweep.y) - target)
        if ridge:
            bound = 2.0 * grid.n_steps * ridge * np.abs(target)
        else:
            bound = 1e-12 * np.maximum(np.abs(target), 1.0)
        assert np.all(gap <= bound), (ridge, gap, bound)


def test_clamp_events_counted(ensemble50):
    sc = _scalar_scenario("0")
    cfg = CFG.updated(z_clamp=0.5)  # Z is ~1: every path clamps
    info = _frozen_mean_sweep(sc, ensemble50, cfg)
    assert info.clamp_events > 0
    # the recorded integrand is the raw regression output, pre-clamp
    assert info.z.mean() == pytest.approx(1.0, abs=0.05)


def test_interior_window_needs_terminal(ensemble50):
    # a local window ends at the last node: an interior one is refused
    # before its width is checked, so the override does not warn
    sc = _scalar_scenario("0")
    window = Window(10, 30)
    cfg = CFG.updated(override_epsilon=True)  # the window is wider than certified
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="must end at the last node 50 of the grid"):
            local_solve(sc, ensemble50, cfg, window=window)


def _node_integrand(ensemble, sc):
    return np.zeros((ensemble.n_paths, sc.d, sc.n))


def test_y_free_driver_takes_one_explicit_step(ensemble50):
    # the explicit step is the array the implicit loop settles on at its
    # second pass, when the driver does not read y
    sc = _scalar_scenario("1 + s + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))",
                          terminal="sin(w)")
    window = ensemble50.grid.full_window()
    L = window.n_nodes
    m_y = np.full((L, 1), 0.3)
    m_z = np.full((L, 1, 1), -0.2)
    drive = _frozen_mean_driver(sc, m_y, m_z, window.lo)
    # a y-free generator binds to its values, not to a function of y
    assert isinstance(drive(0, 0.0, _node_integrand(ensemble50, sc)), np.ndarray)
    terminal = sc.terminal_values(ensemble50.state(window.hi))
    solver = BackwardSolver(ensemble50, CFG)
    explicit = solver.solve(window, terminal, drive)
    # the same values behind a function of y take the implicit loop
    implicit = solver.solve(window, terminal,
                            lambda i, s, z: (lambda f: lambda y: f)(drive(i, s, z)))
    assert explicit.inner_iterations == [1] * (L - 1)
    assert max(implicit.inner_iterations) == 2
    assert np.array_equal(explicit.y, implicit.y)
    assert np.array_equal(explicit.z, implicit.z)


def test_y_reading_driver_keeps_the_implicit_loop(ensemble50):
    sc = _scalar_scenario("1 + 0.5*abs(y)")
    window = ensemble50.grid.full_window()
    L = window.n_nodes
    drive = _frozen_mean_driver(sc, np.zeros((L, 1)), np.zeros((L, 1, 1)), window.lo)
    bound = drive(0, 0.0, _node_integrand(ensemble50, sc))
    assert callable(bound) and bound.reads_late == {"y"}
    info = _frozen_mean_sweep(sc, ensemble50, CFG)
    # Newton passes: a point, then its check, and one more where a path's
    # abs(y) changed sign
    assert min(info.inner_iterations) == 2 and max(info.inner_iterations) <= 3


def test_y_reading_driver_binds_once_per_node_per_sweep(ensemble50, monkeypatch):
    # the y-free terms are evaluated once per node; every pass of the
    # implicit loop re-runs only the abs(y) remainder
    sc = _scalar_scenario("1 + s + abs(y) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))")
    calls = {"bind": 0, "call": 0}
    bind, call = dsl.Staged.bind, dsl.Staged.__call__

    def counted_bind(self, *args, **kwargs):
        calls["bind"] += 1
        return bind(self, *args, **kwargs)

    def counted_call(self, *args, **kwargs):
        calls["call"] += 1
        return call(self, *args, **kwargs)

    monkeypatch.setattr(dsl.Staged, "bind", counted_bind)
    monkeypatch.setattr(dsl.Staged, "__call__", counted_call)
    info = _frozen_mean_sweep(sc, ensemble50, CFG)
    L = ensemble50.grid.n_steps + 1
    assert calls["bind"] == L - 1
    assert calls["call"] == sum(info.inner_iterations)
    assert min(info.inner_iterations) == 2 and max(info.inner_iterations) <= 3


def _plain(drive):
    """``drive`` with each node's program behind a function of y that
    gives no derivative, so the implicit solve takes plain passes."""
    return lambda i, s, z: (lambda f: lambda y: f(y=y))(drive(i, s, z))


@pytest.mark.parametrize("text,n", [("sin(y)", 1), ("abs(y)", 1), ("norm2(y)", 2)])
def test_newton_passes_reach_the_plain_loop_answer(ensemble50, text, n):
    # the n = 2 norm mixes the components of y: no derivative, plain passes
    sc = ScenarioSpec(name="t", n=n, d=1, T=1.0, f=dsl.parse(text),
                      terminal=dsl.parse("sin(w) ; cos(w)" if n > 1 else "sin(w)",
                                         dsl.TERMINAL_VARS),
                      C=1.0, gamma=1.0, alpha=0.0, xi_bound=4.0)
    window = ensemble50.grid.full_window()
    drive = _frozen_mean_driver(sc, *_zero_means(sc, window.n_nodes), window.lo)
    terminal = sc.terminal_values(ensemble50.state(window.hi))
    solver = BackwardSolver(ensemble50, CFG)
    newton = solver.solve(window, terminal, drive)
    plain = solver.solve(window, terminal, _plain(drive))
    assert (drive(0, 0.0, np.zeros((ensemble50.n_paths, 1, n))).dy is None) == (n > 1)
    assert newton.damped_passes == plain.damped_passes == 0
    if n > 1:
        assert newton.y.tobytes() == plain.y.tobytes()
        assert newton.inner_iterations == plain.inner_iterations
        return
    assert np.all(np.abs(newton.y - plain.y) <= 1e-9 * np.maximum(1.0, np.abs(plain.y)))
    assert sum(newton.inner_iterations) < sum(plain.inner_iterations)


@pytest.mark.parametrize("term", ["y", "abs(y)"])
def test_newton_takes_the_plain_step_where_its_denominator_is_small(ensemble50, term):
    # h f'(y) = 0.6 sign(y), so 1 - h f'(y) is below 1/2 where y > 0: those
    # paths take plain steps.  With f'(y) = 0.6 / h everywhere every pass is
    # the plain step, bit for bit; with abs(y) the others take Newton steps.
    # The state grows by 1 / (1 - 0.6) a step: three steps keep it small
    h = float(ensemble50.grid.steps[0])
    sc = _scalar_scenario(f"{0.6 / h!r} * {term}")
    window = Window(47, 50)
    drive = _frozen_mean_driver(sc, *_zero_means(sc, window.n_nodes), window.lo)
    terminal = sc.terminal_values(ensemble50.state(window.hi))
    solver = BackwardSolver(ensemble50, CFG)
    newton = solver.solve(window, terminal, drive)
    plain = solver.solve(window, terminal, _plain(drive))
    if term == "y":
        assert newton.y.tobytes() == plain.y.tobytes()
        assert newton.inner_iterations == plain.inner_iterations
    else:
        assert np.all(np.abs(newton.y - plain.y) <= 1e-9 * np.maximum(1.0, np.abs(plain.y)))


def test_solver_cache_reused(ensemble50):
    solver = BackwardSolver(ensemble50, CFG)
    a = solver.node_regression(17)
    b = solver.node_regression(17)
    assert a is b


@pytest.mark.parametrize("n_bins", [1, 3])
def test_a_node_built_on_a_design_buffer_is_factorised_from_it(ensemble50, n_bins):
    # the node forms its design into the caller's buffer, and fits as a
    # node that formed its own
    basis = RegressionBasis(n_bins=n_bins)
    state = ensemble50.state(25)
    design = np.empty((basis.n_features(1), ensemble50.n_paths))
    reg = NodeRegression(state, basis, design)
    assert design.tobytes() == reg.design().tobytes()
    vals = np.sin(3.0 * state[:, 0])
    assert reg.fit(vals, design).tobytes() == NodeRegression(state, basis).fit(vals).tobytes()


def test_a_first_sweep_forms_each_node_design_once(ensemble50, monkeypatch):
    # a node met first is factorised from the design its step forms into
    # the sweep's buffer, not from a design of its own
    formed = []
    design_rows = regression._design_rows

    def counting(state, degree, out=None):
        formed.append(out is not None)
        return design_rows(state, degree, out)

    monkeypatch.setattr(regression, "_design_rows", counting)
    _frozen_mean_sweep(_scalar_scenario("0.1*y + 0.2*norm2(z)^2"), ensemble50, CFG)
    assert formed == [True] * 50


# ---------------------------------------------------------------------------
# linear closed form
# ---------------------------------------------------------------------------


def test_linear_oracle_against_solver():
    spec = LinearMeanFieldSpec(a=0.5, b=0.3, c=0.2, dbar=0.4, g=0.1, q=1.0, T=1.0)
    sol = linear_closed_form(spec)
    sc = linear_scenario(a=0.5, b=0.3, c=0.2, dbar=0.4, g=0.1, terminal="w", T=1.0)

    grid = build_grid(1.0, 50)
    ens = simulate_brownian(grid, 1, 40_000, 777)
    t = grid.nodes
    m_y = sol.m_y(t)[:, None]
    m_z = sol.m_z(t)[:, None, None]
    window = grid.full_window()
    terminal = sc.terminal_values(ens.state(window.hi))
    drive = _frozen_mean_driver(sc, m_y, m_z, window.lo)
    res = BackwardSolver(ens, CFG.updated(n_paths=40_000)).solve(window, terminal, drive)

    got_my = res.y.mean(axis=1)[:, 0]
    got_mz = res.z.mean(axis=1)[:, 0, 0]
    assert np.max(np.abs(got_my - sol.m_y(t))) < 0.02
    # drop the copied final integrand node from the comparison
    assert np.max(np.abs(got_mz - sol.m_z(t))[:-1]) < 0.04


def test_linear_oracle_internal_consistency():
    # psi/phi solve their ODEs: finite-difference residual check
    spec = LinearMeanFieldSpec(a=1.0, b=-0.5, c=0.3, dbar=0.7, g=0.2, q=2.0, T=1.5)
    sol = linear_closed_form(spec)
    t = np.linspace(0.0, 1.5, 2001)
    m_y = sol.m_y(t)
    dm = np.gradient(m_y, t)
    rhs = -((spec.a + spec.b) * m_y + (spec.c + spec.dbar) * sol.m_z(t) + spec.g)
    assert np.max(np.abs(dm - rhs)[5:-5]) < 2e-5
