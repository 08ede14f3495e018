"""Time grids, Brownian ensembles, grid-indexed process containers, and row reductions.

All containers are plain immutable data, and every array indexed by grid
nodes keeps the nodes on axis 0: Brownian levels ``(nodes, paths, d)``,
process values ``(nodes, paths, ...)`` and mean curves ``(nodes, ...)``,
the layout the backward sweep writes.  Every mean over paths is numpy's
own pairwise sum down the path axis (:func:`node_mean`), which no BLAS
thread count reorders, so reruns are bit-identical on the same platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = [
    "TimeGrid",
    "Window",
    "PathEnsemble",
    "ProcessGrid",
    "MeanCurve",
    "build_grid",
    "simulate_brownian",
    "ensemble_mean",
    "node_mean",
    "path_mean",
]


_DRAW_BLOCK = 1024  # paths per block of Brownian draws: (N, d) doubles each, cache-sized


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Partition ``0 = t_0 < t_1 < ... < t_N = T`` of the solve horizon.

    Non-uniform spacing is allowed; every consumer works with per-step
    widths rather than a single ``h``.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidInput("a time grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise InvalidInput("time grids start at t=0")
        steps = np.diff(nodes)
        if not np.all(steps > 0.0):
            raise InvalidInput("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _readonly(nodes))
        object.__setattr__(self, "_steps", _readonly(steps))

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def steps(self) -> np.ndarray:
        return self._steps  # type: ignore[attr-defined]

    def full_window(self) -> "Window":
        return Window(0, self.n_steps)

    def check_window(self, window: "Window") -> None:
        """Raise :class:`InvalidInput` when ``window`` runs past the last node."""
        if window.hi > self.n_steps:
            raise InvalidInput(
                f"window ({window.lo}, {window.hi}) runs past the last node "
                f"{self.n_steps} of the grid"
            )


@dataclass(frozen=True)
class Window:
    """Contiguous node range ``[lo, hi]`` into a parent grid (inclusive)."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise InvalidInput(f"bad window ({self.lo}, {self.hi})")

    @property
    def n_nodes(self) -> int:
        return self.hi - self.lo + 1

    def width(self, grid: TimeGrid) -> float:
        return float(grid.nodes[self.hi] - grid.nodes[self.lo])


def build_grid(T: float, n_steps: int) -> TimeGrid:
    """Uniform grid on ``[0, T]`` with ``n_steps`` steps."""
    if not (T > 0.0):
        raise InvalidInput("horizon T must be positive")
    if n_steps < 1:
        raise InvalidInput("need at least one step")
    return TimeGrid(np.linspace(0.0, float(T), n_steps + 1))


@dataclass(frozen=True)
class PathEnsemble:
    """Monte Carlo ensemble of d-dimensional Brownian paths on a grid.

    The paths are held once, as one node-major array of their levels,
    ``node_levels`` of shape (N+1, n_paths, d), zero at t=0: node i's state
    :meth:`state` is one contiguous block.  No increment array is kept:
    the increment over step i is the difference of levels ``state(i+1) -
    state(i)``, which lies within an ulp of the larger of the two levels
    from the drawn increment they were summed from.
    """

    grid: TimeGrid
    d: int
    node_levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.node_levels, dtype=np.float64)
        if levels.shape != (self.grid.n_steps + 1, levels.shape[1], self.d):
            raise InvalidInput(
                f"node levels shape {levels.shape} does not match grid/d"
            )
        if levels.shape[1] < 2:
            raise InvalidInput("an ensemble needs at least two paths")
        if np.any(levels[0] != 0.0):
            raise InvalidInput("Brownian paths start at zero")
        object.__setattr__(self, "node_levels", _readonly(levels))

    @property
    def n_paths(self) -> int:
        return self.node_levels.shape[1]

    def state(self, i: int) -> np.ndarray:
        """Brownian level W_{t_i}, shape (n_paths, d), C-contiguous."""
        return self.node_levels[i]


def simulate_brownian(grid: TimeGrid, d: int, n_paths: int, seed: int) -> PathEnsemble:
    """Draw a Brownian ensemble with a counter-based generator.

    The stream is a pure function of ``seed`` (numpy PCG64), so identical
    calls reproduce identical paths byte for byte.  The increments are drawn
    path-major, (n_paths, N, d), in blocks of ``_DRAW_BLOCK`` paths (the
    generator fills its output in order, so the blocks continue one stream)
    and each block is summed along its paths straight into the node-major
    levels while it is in cache: the same additions, in the same order, as
    a path-major running sum of one whole draw, which is never held.
    """
    if d < 1:
        raise InvalidInput("dimension d must be >= 1")
    if n_paths < 2:
        raise InvalidInput("need at least two paths")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, not {seed}")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(grid.steps)[None, :, None]
    levels = np.empty((grid.n_steps + 1, n_paths, d))
    levels[0] = 0.0
    for lo in range(0, n_paths, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, n_paths)
        draws = rng.standard_normal((hi - lo, grid.n_steps, d))
        draws *= scale
        np.cumsum(np.swapaxes(draws, 0, 1), axis=0, out=levels[1:, lo:hi])
    return PathEnsemble(grid=grid, d=d, node_levels=levels)


@dataclass(frozen=True)
class _NodeSeries:
    """Values on every node of a grid, the nodes on axis 0."""

    grid: TimeGrid
    values: np.ndarray

    def _store(self, vals: np.ndarray) -> None:
        """Check the node axis of ``vals`` against the grid, and store it."""
        if vals.shape[0] != self.grid.n_steps + 1:
            raise InvalidInput("value length does not match the grid's nodes")
        object.__setattr__(self, "values", vals)

    def times(self) -> np.ndarray:
        return self.grid.nodes


@dataclass(frozen=True)
class ProcessGrid(_NodeSeries):
    """Per-path process sampled on a grid.

    ``values`` has shape (N+1, n_paths, *dims), node-major.  All entries
    must be finite.  A float64 array is kept as a read-only view, not
    copied: a solver's result views the arrays it solved into.  The
    caller's own array stays writable.
    """

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim < 2:
            raise InvalidInput("process values need shape (nodes, paths, ...)")
        vals = vals.view()
        vals.setflags(write=False)
        self._store(vals)
        if vals.shape[1] < 1:
            raise InvalidInput("empty path axis")
        if not _all_finite(vals):
            raise InvalidInput("process values must be finite")

    @property
    def n_paths(self) -> int:
        return self.values.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


def _all_finite(vals: np.ndarray) -> bool:
    """Whether every entry of a (nodes, paths, ...) array is finite, checked
    node by node into one reused (paths, ...) mask."""
    mask = np.empty(vals.shape[1:], dtype=bool)
    return all(np.isfinite(node, out=mask).all() for node in vals)


@dataclass(frozen=True)
class MeanCurve(_NodeSeries):
    """Deterministic node-indexed curve, shape (N+1, *dims)."""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim < 1:
            raise InvalidInput("curve values need a node axis")
        self._store(_readonly(vals))
        if not np.all(np.isfinite(self.values)):
            raise InvalidInput("curve values must be finite")


def node_mean(row: np.ndarray) -> np.ndarray:
    """Mean over paths of one node's block (P, ...), shape (...).

    The kernel of every mean over paths: numpy's pairwise ``sum`` of each
    column of ``row.reshape(P, -1)``, over P.  It calls no BLAS, so no
    thread count moves a bit; one reduction over the path axis of the
    whole block would loop per path when the trailing axes are short.
    """
    P = row.shape[0]
    return np.array([col.sum() for col in row.reshape(P, -1).T]).reshape(row.shape[1:]) / P


def path_mean(a: np.ndarray) -> np.ndarray:
    """Mean over paths of a node-major array (L, P, ...), shape (L, ...):
    :func:`node_mean` of each node's block."""
    out = np.empty((a.shape[0], *a.shape[2:]))
    for j, row in enumerate(a):
        out[j] = node_mean(row)
    return out


# numpy reduces a row narrower than this one element at a time, from zero
_SEQUENTIAL_ROW_WIDTH = 8


def row_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(a * b, axis=1)`` of two (P, m) arrays, bit for bit, as a
    (P,) array (written into ``out`` when given).

    Narrow rows are summed column by column in numpy's own order
    ``((0 + p0) + p1) + ...``.  Whole-column products and adds avoid one
    short reduction per row, and stay fast on the strided node slices the
    solvers pass in.
    """
    width = a.shape[1]
    if width >= _SEQUENTIAL_ROW_WIDTH:
        return np.sum(a * b, axis=1, out=out)
    out = np.multiply(a[:, 0], b[:, 0], out=out)
    out += 0.0
    for k in range(1, width):
        out += a[:, k] * b[:, k]
    return out


def row_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (P, m) array, as a (P, 1) array."""
    out = row_dot(a, a)
    return np.sqrt(out, out=out)[:, None]


def ensemble_mean(p: ProcessGrid) -> MeanCurve:
    """Node-wise path average of a process, by :func:`path_mean`."""
    return MeanCurve(grid=p.grid, values=path_mean(p.values))
