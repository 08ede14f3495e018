"""Grids, Brownian ensembles, process containers."""

import numpy as np
import pytest

from mfbsde.core import (
    MeanCurve,
    PathEnsemble,
    ProcessGrid,
    TimeGrid,
    Window,
    build_grid,
    ensemble_mean,
    path_mean,
    simulate_brownian,
)
from mfbsde.errors import InvalidInput


def test_build_grid_basic():
    g = build_grid(2.0, 8)
    assert g.nodes[-1] == 2.0
    assert g.n_steps == 8
    assert g.nodes[0] == 0.0
    np.testing.assert_allclose(g.steps, 0.25)


def test_grid_rejects_bad_input():
    with pytest.raises(InvalidInput):
        build_grid(0.0, 10)
    with pytest.raises(InvalidInput):
        build_grid(1.0, 0)
    with pytest.raises(InvalidInput):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(InvalidInput):
        TimeGrid(np.array([0.1, 0.5, 1.0]))


def test_nonuniform_grid_allowed():
    g = TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]))
    assert g.n_steps == 3
    np.testing.assert_allclose(g.steps, [0.1, 0.3, 0.6])


def test_window_validation():
    w = Window(3, 10)
    assert w.n_nodes == 8
    g = build_grid(1.0, 20)
    assert w.width(g) == pytest.approx(0.35)
    with pytest.raises(InvalidInput):
        Window(5, 5)
    with pytest.raises(InvalidInput):
        Window(-1, 5)


def test_brownian_shapes_and_t0(grid50):
    ens = simulate_brownian(grid50, 2, 100, 7)
    increments = np.diff(ens.node_levels, axis=0)
    assert increments.shape == (50, 100, 2)
    assert ens.node_levels.shape == (51, 100, 2)
    assert np.all(ens.node_levels[0] == 0.0)
    # levels really are the running sums of the increments
    np.testing.assert_allclose(
        ens.node_levels[-1], increments.sum(axis=0), rtol=0, atol=1e-12
    )


def test_brownian_seed_reproducibility(grid50):
    a = simulate_brownian(grid50, 1, 500, 42)
    b = simulate_brownian(grid50, 1, 500, 42)
    c = simulate_brownian(grid50, 1, 500, 43)
    inc_a, inc_b, inc_c = (np.diff(e.node_levels, axis=0).tobytes() for e in (a, b, c))
    assert inc_a == inc_b != inc_c


def test_brownian_rejects_a_negative_seed(grid50):
    with pytest.raises(InvalidInput, match="seed must be >= 0, not -1"):
        simulate_brownian(grid50, 1, 100, -1)


def _seed_draws(grid, d, n_paths, seed):
    """The increments ``simulate_brownian`` draws for ``seed``, path-major."""
    draws = np.random.default_rng(seed).standard_normal((n_paths, grid.n_steps, d))
    return draws * np.sqrt(grid.steps)[None, :, None]


@pytest.mark.parametrize("d", [1, 2])
def test_brownian_levels_are_the_path_major_running_sums_of_the_draws(d):
    # a graded grid, so every step has its own scale; more paths than one
    # block of draws, and a partial last block
    grid = TimeGrid(np.linspace(0.0, 1.0, 31) ** 1.5)
    ens = simulate_brownian(grid, d, 2_500, 5)
    draws = np.swapaxes(_seed_draws(grid, d, 2_500, 5), 0, 1)  # node-major
    levels = ens.node_levels
    assert levels.shape == (31, 2_500, d)
    assert levels[1:].tobytes() == np.cumsum(draws, axis=0).tobytes()
    # an increment, a difference of levels, lies within an ulp of the
    # larger of its two levels from the draw
    ulp = np.spacing(np.maximum(np.abs(levels[1:]), np.abs(levels[:-1])))
    assert np.all(np.abs(np.diff(levels, axis=0) - draws) <= ulp)


def test_path_ensemble_validates_its_levels(grid50):
    assert PathEnsemble(grid=grid50, d=2, node_levels=np.zeros((51, 4, 2))).n_paths == 4
    with pytest.raises(InvalidInput, match="does not match"):
        PathEnsemble(grid=grid50, d=2, node_levels=np.zeros((4, 51, 2)))
    with pytest.raises(InvalidInput, match="two paths"):
        PathEnsemble(grid=grid50, d=2, node_levels=np.zeros((51, 1, 2)))
    levels = np.zeros((51, 4, 2))
    levels[0, 3, 1] = 0.5
    with pytest.raises(InvalidInput, match="start at zero"):
        PathEnsemble(grid=grid50, d=2, node_levels=levels)


def test_brownian_state_is_one_contiguous_node_block(grid50):
    ens = simulate_brownian(grid50, 2, 300, 9)
    for i in (0, 17, 50):
        state = ens.state(i)
        assert state.shape == (300, 2)
        assert state.flags.c_contiguous
        assert np.shares_memory(state, ens.node_levels)
        assert state.tobytes() == ens.node_levels[i].tobytes()


def test_brownian_terminal_statistics(grid50):
    # W_T ~ N(0, T): the sample mean of P paths has sd sqrt(T/P), the
    # sample variance concentrates like sqrt(2/P); allow generous bands
    P, T = 100_000, float(grid50.nodes[-1])
    ens = simulate_brownian(grid50, 1, P, 2024)
    wT = ens.node_levels[-1, :, 0]
    assert abs(wT.mean()) < 4.0 * np.sqrt(T / P)
    assert abs(wT.var() - T) / T < 0.05


def test_brownian_increment_independence(grid50):
    ens = simulate_brownian(grid50, 1, 50_000, 99)
    inc = np.diff(ens.node_levels, axis=0)[:, :, 0]
    corr = np.corrcoef(inc[3], inc[17])[0, 1]
    assert abs(corr) < 0.02


def test_process_grid_span_and_times(grid50):
    # a process grid spans every node of its grid
    p = ProcessGrid(grid=grid50, values=np.zeros((51, 10, 1)))
    assert (p.n_nodes, p.n_paths) == (51, 10)
    assert p.times() is grid50.nodes
    with pytest.raises(InvalidInput, match="does not match the grid's nodes"):
        ProcessGrid(grid=grid50, values=np.zeros((21, 10, 1)))


def test_process_grid_rejects_nonfinite(grid50):
    vals = np.zeros((51, 4, 1))
    vals[7, 2, 0] = np.nan
    with pytest.raises(InvalidInput):
        ProcessGrid(grid=grid50, values=vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("node", [0, 25, 50], ids=["first", "middle", "last"])
@pytest.mark.parametrize("layout", ["path-major", "node-major"])
def test_process_grid_rejects_nonfinite_at_any_node(grid50, bad, node, layout):
    # values are node-major; ``layout`` is that of the storage behind them
    if layout == "node-major":
        vals = np.zeros((51, 4, 2, 2))
        entry = vals[node, 3]
    else:
        storage = np.zeros((4, 51, 2, 2))
        vals = np.swapaxes(storage, 0, 1)
        entry = storage[3, node]
    ProcessGrid(grid=grid50, values=vals)
    entry[1, 0] = bad
    with pytest.raises(InvalidInput, match="finite"):
        ProcessGrid(grid=grid50, values=vals)


def test_ensemble_mean_is_exactly_linear(grid50, rng):
    a = rng.standard_normal((51, 300, 1))
    b = rng.standard_normal((51, 300, 1))
    pa = ProcessGrid(grid=grid50, values=a)
    pb = ProcessGrid(grid=grid50, values=b)
    pab = ProcessGrid(grid=grid50, values=a + 2.0 * b)
    lhs = ensemble_mean(pab).values
    rhs = ensemble_mean(pa).values + 2.0 * ensemble_mean(pb).values
    # fixed reduction order: linearity holds to rounding of the final add
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_process_grid_views_node_major_storage(grid50):
    node_major = np.arange(51 * 4 * 2, dtype=np.float64).reshape(51, 4, 2)
    p = ProcessGrid(grid=grid50, values=node_major)
    assert p.values.shape == (51, 4, 2)
    assert (p.n_paths, p.n_nodes, p.values.shape[2:]) == (4, 51, (2,))
    assert np.shares_memory(p.values, node_major)
    assert p.values.flags.c_contiguous
    with pytest.raises(ValueError):
        p.values[0, 0, 0] = 1.0
    # the caller's array stays writable
    assert node_major.flags.writeable
    node_major[0, 0, 0] = -1.0
    assert p.values[0, 0, 0] == -1.0


def test_ensemble_mean_is_the_node_major_path_mean(grid50, rng):
    node_major = rng.standard_normal((51, 300, 2, 2))
    p = ProcessGrid(grid=grid50, values=node_major)
    want = path_mean(node_major)
    assert want.shape == (51, 2, 2)
    assert ensemble_mean(p).values.tobytes() == want.tobytes()
    # a non-contiguous node-major view of the same values
    strided = np.swapaxes(np.ascontiguousarray(np.swapaxes(node_major, 0, 1)), 0, 1)
    view = ProcessGrid(grid=grid50, values=strided)
    assert ensemble_mean(view).values.tobytes() == want.tobytes()
    np.testing.assert_allclose(want, node_major.mean(axis=1), rtol=0, atol=1e-15)


def test_mean_curve_span(grid50):
    # a mean curve spans every node of its grid
    mc = MeanCurve(grid=grid50, values=np.ones(51))
    assert mc.times() is grid50.nodes
    with pytest.raises(InvalidInput, match="does not match the grid's nodes"):
        MeanCurve(grid=grid50, values=np.ones(11))


def test_values_are_write_protected(grid50):
    ens = simulate_brownian(grid50, 1, 10, 1)
    with pytest.raises(ValueError):
        ens.node_levels[0, 0, 0] = 1.0
