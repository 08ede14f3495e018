"""Mean-field solvers: frozen-mean fixed point, Picard scheme, mean shifts.

The quadratic drivers couple each path to the ensemble through the means of
the state and of the martingale integrand.  All solvers share one backward
regression engine and one window engine, and differ only in the map they
iterate and the windows they iterate it on:

* ``local_solve`` iterates the frozen-mean solve (the mean slots of the
  driver frozen at given curves) to its fixed point on one window, which
  ends at the horizon;
* ``global_solve`` stitches those window fixed points backward across the
  horizon, on the windows of :func:`_plan_windows`;
* ``picard_global`` iterates, on the whole horizon as one window, the
  linearised scheme whose source term is the previous iterate's full
  driver increment;
* split generators ``f1 + mean(f2)``: the mean shift moves the state but
  leaves the integrand untouched.  ``shift_fixed_point`` and
  ``multidim_solve`` (vector-valued, z-Lipschitz ``f1``) stitch the fixed
  points of one frozen-state map of one sweep per step, and differ only in
  the state distance (sup or S2), on the windows ``global_solve`` would
  plan (:func:`_frozen_state_step`).

Each public solver refuses a scenario of the wrong shape
(:func:`_check_shape`) and hands the window engine, :func:`_solve`, one
step ``step(window, iterate, sweep)``, its state norm, and its windows: a
fixed list, or None for the stitched plan of :func:`_plan_windows`.  The
engine certifies the scenario when it is given no certificate, walks the
windows right to left, checks each against the certified width (all but
Picard's horizon), and iterates the step in one loop, :func:`_iterate`,
from one start, :func:`_terminal_start`: the terminal data's path mean at
every node and a zero integrand.  Each window's :class:`FixedPointTrace`
records its width, its choosing ratio, whether it exceeds the certified
width, its sweeps' z-clamp activations and its steps' distances; a failure
carries the trace, so whatever a window did reaches the result JSON or the
failure record.  After the last window the engine finalises once on the
span it solved: the BMO estimate, fitted with the regressions the sweeps
cached (every node's k x k factors live for the whole solve, and nothing is
factorised again), the diagnostics report, the envelope rate, the process
grids, and the flags, among them whether the solved pair lies in the
certified ball of S^inf x BMO.

Iterates are node-major, ``(L, P, ...)``, as the backward sweep stores
them and as :class:`ProcessGrid` holds them: every per-node read
(drivers, sources, mean shifts) and every mean over paths runs on
contiguous blocks, the result's process grids are read-only views of the
horizon arrays, and the final diagnostics read them node by node with
O(P) working memory.  Every window is solved in place in the horizon
arrays: its iterate is the view of its block of nodes, which the first
sweep, from the start's read-only views, stores into, and every later
sweep stores over, node by node, backward.  Each node's old values are
read before they are replaced: by the driver (the frozen-state map's
``f1`` slots, Picard's source), by the frozen-state map's mean shift
(``f2`` at the old state), and by the node's share of the distances
between the two iterates, the diagnostics' own path norms
(:class:`~mfbsde.diagnostics.SupNorm`, ``S2Norm``, ``M2Norm``) taken node
by node, each difference in the slot the new values then go to; the new
iterate's mean curves are taken node by node too
(:func:`~mfbsde.core.node_mean`).  So no window iterate, second iterate
or full-size difference is ever allocated, and no window is copied.

Each solver evaluates its generators as :class:`dsl.Staged` programs that
bind what its map holds fixed, built inside each step for its one sweep (the
:func:`~mfbsde.solver.staged_driver` program, and the frozen-state map's
``f2`` at the sweep's first store), so nothing holds a program, its bound slots or its buffers once
the sweep is done.  The two frozen maps differ only in the slots they hand
:func:`~mfbsde.solver.staged_driver`: the frozen-mean map freezes ``ybar,
zbar``, so the implicit state solve re-runs only the ``y`` terms and takes
Newton steps from their derivative, and the frozen-state map freezes ``y,
ybar, zbar``, so ``f1`` has no late slot and each node binds it whole.
Picard lags only the terms of the generator's sum that read ``y``, ``ybar``
or ``zbar`` (:meth:`~mfbsde.dsl.GeneratorExpr.split`): its driver builds
their source at each node, binding ``s`` and the iterate's integrand and
running them at the iterate and at zeros (once per solve, by a throwaway
program, when they read neither ``s`` nor ``z``), and adds the in-sweep
core, the other terms plus the lagged ones at zero as one bound operand,
bound once per sweep.  The mean shift runs one buffered all-late program
per step, once per node as the sweep stores it.  Results are bit for bit
those of evaluating each expression whole.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import dsl
from .certificates import Certificate, certify
from .core import (
    MeanCurve,
    PathEnsemble,
    ProcessGrid,
    Window,
    ensemble_mean,
    node_mean,
    path_mean,
)
from .diagnostics import (
    DiagnosticsReport,
    M2Norm,
    S2Norm,
    SupNorm,
    bmo2_estimate,
    bmo_budget_global,
    build_report,
    check_alpha_envelope,
    sup_norm,
)
from .errors import (
    InvalidInput,
    MaxIterations,
    NonContraction,
    WindowTooWide,
)
from .scenario import (
    FORM_GLOBAL_ODE,
    FORM_SPLIT_LIPSCHITZ,
    FORM_SPLIT_QUADRATIC,
    ScenarioSpec,
)
from .solver import BackwardSolver, SolverConfig, staged_driver

__all__ = [
    "FixedPointTrace",
    "SolveResult",
    "local_solve",
    "global_solve",
    "picard_global",
    "shift_fixed_point",
    "multidim_solve",
]

_ALPHA_RATE_TOLERANCE = 0.005  # flagged when the envelope violation rate exceeds this
_BLOW_UP = 1e9  # an iterate distance above this is divergence
_Q_TARGET = 0.05  # first contraction ratio a measured window plan aims at


@dataclass
class FixedPointTrace:
    """Per-iterate record of one fixed-point run.

    Every list but ``ratios`` has one entry per step, and a step is one
    sweep: the first entry measures the first step against the start (the
    terminal data's path mean with a zero integrand), each later one
    against the step before, and ``ratios`` has one entry per step after
    the first.  ``wall_times`` are the steps' wall-clock seconds, each
    step's distances included: the sweep takes them node by node as it
    stores.  ``clamp_events`` counts the integrand rows clamped by every
    sweep, ``inner_iterations`` the passes of every node's state solve (one
    for an explicit step), and ``damped_passes`` those of them that halved
    their step.  ``width`` is the window's width in time, and ``ratio`` is
    the first contraction ratio of the window to the right that chose it
    when the windows are planned from measured contraction (None for fixed
    plans, for the first window, and after a window without a ratio).
    ``exceeds_certificate`` records whether the window is wider than the
    certified width, which only ``override_epsilon`` lets a solve run (None
    where the width is not checked: Picard's horizon)."""

    y_distances: list[float] = field(default_factory=list)
    z_distances: list[float] = field(default_factory=list)
    mean_distances: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    clamp_events: int = 0
    inner_iterations: int = 0
    damped_passes: int = 0
    converged: bool = False
    width: float = 0.0
    ratio: float | None = None
    exceeds_certificate: bool | None = None

    @property
    def iterations(self) -> int:
        return len(self.y_distances)

    def total_distances(self) -> list[float]:
        return [a + b for a, b in zip(self.y_distances, self.z_distances)]

    def push(self, y_dist: float, z_dist: float, mean_dist: float, wall: float) -> float:
        total = y_dist + z_dist
        if self.y_distances:
            prev = self.y_distances[-1] + self.z_distances[-1]
            self.ratios.append(total / prev if prev > 0 else 0.0)
        self.y_distances.append(y_dist)
        self.z_distances.append(z_dist)
        self.mean_distances.append(mean_dist)
        self.wall_times.append(wall)
        return total

    def as_dict(self) -> dict:
        return asdict(self) | {"iterations": self.iterations}


@dataclass
class SolveResult:
    """Solver output: processes, means, trace(s), diagnostics, certificate.

    Everything but the process grids is written by :meth:`as_dict`."""

    y: ProcessGrid
    z: ProcessGrid
    m_y: MeanCurve
    m_z: MeanCurve
    trace: FixedPointTrace | list
    certificate: Certificate
    diagnostics: DiagnosticsReport
    windows: list[tuple[int, int]] = field(default_factory=list)
    flags: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        trace = self.trace
        if isinstance(trace, list):
            trace_out = [t.as_dict() for t in trace]
        else:
            trace_out = trace.as_dict()
        return {
            "times": self.m_y.times().tolist(),
            "m_y": self.m_y.values.tolist(),
            "m_z": self.m_z.values.tolist(),
            "trace": trace_out,
            "windows": [list(w) for w in self.windows],
            "flags": self.flags,
            "diagnostics": self.diagnostics.as_dict(),
            "certificate": self.certificate.as_dict(),
        }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_window_width(
    window: Window, ensemble: PathEnsemble, cert: Certificate, config: SolverConfig
) -> bool:
    """Whether ``window`` is wider than the certified width.  A wider
    window raises :class:`WindowTooWide` unless ``override_epsilon`` is
    set; under the override the answer is recorded on the window's trace."""
    width = window.width(ensemble.grid)
    exceeded = width > cert.chain.eps
    if exceeded and not config.override_epsilon:
        raise WindowTooWide(
            f"window width {width:.6g} exceeds the certified width "
            f"{cert.chain.eps:.6g} (log {cert.chain.log_eps:.4g}); "
            "set override_epsilon to proceed anyway"
        )
    return exceeded


class _Iterate(NamedTuple):
    """One iterate of a mean-field map on a window: the node-major state
    (L, P, n) and integrand (L, P, d, n) values, and their mean curves."""

    y: np.ndarray
    z: np.ndarray
    m_y: np.ndarray
    m_z: np.ndarray


def _terminal_start(terminal: np.ndarray, L: int, d: int) -> _Iterate:
    """The start of every map on an ``L``-node window closed by the (P, n)
    ``terminal``: its path mean at every node, on every path, with a zero
    integrand.  The per-path arrays are read-only broadcast views, so
    nothing P-sized is allocated.  Every basis keeps a constant column, so
    least squares keeps the path mean: this is the mean curve of the
    terminal data's regression martingale up to the ridge."""
    P, n = terminal.shape
    m_y = np.repeat(path_mean(terminal[None]), L, axis=0)
    return _Iterate(
        np.broadcast_to(m_y[:, None, :], (L, P, n)),
        np.broadcast_to(0.0, (L, P, d, n)),
        m_y,
        np.zeros((L, d, n)),
    )


def _stalled(ratios) -> bool:
    return len(ratios) >= 3 and all(x >= 1.0 - 1e-12 for x in ratios[-3:])


def _iterate(step, state, trace, config, context: str):
    """Apply ``state, distances = step(state)`` until two successive
    iterates agree.

    ``state`` is the start, :func:`_terminal_start`, and ``step`` returns
    the next iterate with its state, integrand and mean distances to the
    one it replaces.  Every step is timed, distances included, and pushed
    on ``trace`` (the first is measured against the start), and
    ``max_outer`` bounds the steps.  The loop returns the last iterate once
    the state plus integrand distance is within ``tol_fp``.  It raises
    :class:`NonContraction` when the distance blows up past ``_BLOW_UP`` or
    when the last three ratios stay at or above one with the distance above
    the first, and :class:`MaxIterations` when ``max_outer`` steps do not
    converge.
    """
    for k in range(1, config.max_outer + 1):
        t0 = time.perf_counter()
        state, distances = step(state)
        total = trace.push(*distances, time.perf_counter() - t0)
        if total <= config.tol_fp:
            trace.converged = True
            return state
        if total > _BLOW_UP:
            raise NonContraction(
                f"{context}: distance blew up to {total:.3e} at step {k}", trace
            )
        if _stalled(trace.ratios) and total > trace.total_distances()[0]:
            break
    r = trace.ratios
    if _stalled(r):
        raise NonContraction(
            f"{context}: successive distances stopped contracting "
            f"(last ratios {', '.join(f'{x:.3f}' for x in r[-3:])})",
            trace,
        )
    raise MaxIterations(
        f"{context}: iteration budget exhausted at distance "
        f"{trace.total_distances()[-1]:.3e}",
        trace,
    )


# ---------------------------------------------------------------------------
# the window engine
# ---------------------------------------------------------------------------


def _check_shape(scenario: ScenarioSpec, what: str, form: str | None = None) -> None:
    """Refuse a scenario of the wrong shape for solver ``what``: a single
    generator when ``form`` is None, else a split pair asserting ``form``."""
    if form is None and scenario.f is None:
        raise InvalidInput(f"{what} needs a single-generator scenario")
    if form is not None and not scenario.is_split:
        raise InvalidInput(f"{what} needs a split (f1, f2) scenario")
    if form is not None and form not in scenario.forms:
        raise InvalidInput(
            f"{what} needs the scenario to assert the '{form}' structural form"
        )


def _solve(scenario, ensemble, config, certificate, step, state_norm, context,
           windows=None, check_width: bool = True, mean_z: bool = False) -> SolveResult:
    """Fixed points of ``step`` on adjacent windows, the first ending at the
    horizon, chosen right to left and finalised once.

    ``certificate`` is certified from ``scenario`` when None.  ``windows``
    is a list of windows, a plan (:func:`_measured_plan`), or None for
    those of :func:`_plan_windows`; a plan of several windows ends at node
    0.  ``step(window, it, sweep)`` applies the solver's map once to the
    iterate ``it`` and returns the next with its distances to ``it``;
    ``sweep(driver, shift=None)`` runs the window's backward sweep, closed
    by the terminal data or by the state solved on the window to the right,
    stores it over ``it`` (``shift(j, z, m_z)``, when given, is the (n,) row
    added to node ``j``'s swept state, with that node's integrand and its
    mean), adds its counts to the window's trace, and returns the new
    iterate and its distances.  Successive iterates are compared by
    ``state_norm`` (a node-wise norm class of :mod:`~mfbsde.diagnostics`)
    on the state, empirical M2 on the integrand and the sup distance of the
    state's mean curve, or of both mean curves with ``mean_z``; errors name
    ``context`` and the window.  Each window is checked against the
    certified width (unless ``check_width`` is false) before it is solved,
    in place: its iterate is its block ``[lo, hi]`` of the horizon arrays.
    Below the horizon node ``hi`` holds the right window's solved state and
    integrand, so the store there takes its means and state distance in a
    scratch row and writes nothing (M2 reads no integrand there)."""
    cert = certificate if certificate is not None else certify(scenario)
    if windows is None:
        windows = _plan_windows(ensemble, config, cert)
    plan = windows if callable(windows) else _fixed_plan(windows)
    solver = BackwardSolver(ensemble, config)
    grid, P, n, d = ensemble.grid, ensemble.n_paths, scenario.n, scenario.d
    N = grid.n_steps
    lo0 = 0 if callable(windows) else min(w.lo for w in windows)  # a plan ends at node 0
    y_vals, z_vals = np.empty((N + 1 - lo0, P, n)), np.empty((N + 1 - lo0, P, d, n))
    solved, traces = [], []
    ones = np.ones(P)
    row = np.empty((P, n))  # a shifted state, or a distance nothing keeps

    # one window's step closures, and the iterates its staged programs
    # bind, are freed when this returns
    def fixed_point(window: Window, terminal: np.ndarray, trace: FixedPointTrace):
        steps = grid.steps[window.lo : window.hi]
        block = slice(window.lo - lo0, window.hi + 1 - lo0)
        ys, zs = y_vals[block], z_vals[block]
        # below the horizon the last node holds the right window's solution
        shared = window.n_nodes - 1 if window.hi < N else None

        def sweep(it: _Iterate, driver, shift=None):
            m_y, m_z = np.empty(it.m_y.shape), np.empty(it.m_z.shape)
            y_dist, z_dist = state_norm(it.y.shape), M2Norm(it.z.shape, steps)

            def store(j, y, z):
                # node j of ``it`` is read here, after the driver read it,
                # and then replaced: each difference is taken in the slot
                # the new values go to
                m_z[j] = node_mean(z, ones)
                if shift is not None:
                    y = np.add(y, shift(j, z, m_z[j]), out=row)
                m_y[j] = node_mean(y, ones)
                if j == shared:
                    y_dist.add(j, np.subtract(y, it.y[j], out=row))
                    return
                y_dist.add(j, np.subtract(y, it.y[j], out=ys[j]))
                z_dist.add(j, np.subtract(z, it.z[j], out=zs[j]))
                ys[j] = y
                zs[j] = z

            out = solver.solve(window, terminal, driver, (ys, zs), store)
            trace.clamp_events += out.clamp_events
            trace.inner_iterations += sum(out.inner_iterations)
            trace.damped_passes += out.damped_passes
            mean = sup_norm(m_y, it.m_y)
            if mean_z:
                mean = max(mean, sup_norm(m_z, it.m_z))
            return _Iterate(ys, zs, m_y, m_z), (y_dist.value(), z_dist.value(), mean)

        return _iterate(lambda it: step(window, it, partial(sweep, it)),
                        _terminal_start(terminal, window.n_nodes, d), trace, config,
                        f"{context} on window {(window.lo, window.hi)}")

    planned = plan(N, None)
    terminal = scenario.terminal_values(ensemble.state(N))
    while planned is not None:
        w, ratio = planned
        exceeds = _check_window_width(w, ensemble, cert, config) if check_width else None
        solved.append(w)
        traces.append(FixedPointTrace(width=w.width(grid), ratio=ratio,
                                      exceeds_certificate=exceeds))
        fixed_point(w, terminal, traces[-1])
        planned = plan(w.lo, traces[-1])
        terminal = y_vals[w.lo - lo0]
    solved.reverse()
    traces.reverse()

    ygrid = ProcessGrid(grid=grid, values=y_vals, span=(lo0, N))
    zgrid = ProcessGrid(grid=grid, values=z_vals, span=(lo0, N))
    budget = None
    if FORM_GLOBAL_ODE in scenario.forms:
        budget = bmo_budget_global(
            scenario.xi_bound, scenario.C, cert.lam, scenario.T, scenario.gamma
        )
    rate = check_alpha_envelope(ygrid, cert.alpha_envelope)
    report = build_report(ygrid, zgrid, bmo2_estimate(zgrid, solver.node_regression),
                          gamma=scenario.gamma, bmo_budget=budget, alpha_rate=rate)
    flags = {}
    if check_width:
        flags["window_exceeds_certificate"] = any(t.exceeds_certificate for t in traces)
    flags["alpha_envelope_rate"] = rate
    flags["alpha_envelope_ok"] = rate <= _ALPHA_RATE_TOLERANCE
    flags["within_certified_ball"] = bool(
        report.sup_y <= cert.ball_radius and report.bmo2_z <= cert.chain.A
    )
    return SolveResult(
        y=ygrid,
        z=zgrid,
        m_y=ensemble_mean(ygrid),
        m_z=ensemble_mean(zgrid),
        trace=traces,
        certificate=cert,
        diagnostics=report,
        windows=[(w.lo, w.hi) for w in solved],
        flags=flags,
    )


def _fixed_plan(windows: list[Window]):
    """The plan of a fixed list of adjacent windows: the one ending at
    ``hi``, chosen by no ratio, until the list is done."""
    by_hi = {w.hi: (w, None) for w in windows}
    return lambda hi, last: by_hi.get(hi)


def _measured_plan(grid):
    """The plan of windows sized from measured contraction, right to left
    from the horizon to node 0.

    The first window is one grid step wide.  Each later one is the last
    window's width times ``clamp(_Q_TARGET / q, 1/2, 2)``, ``q`` the last
    window's first contraction ratio; a window that converged without a
    ratio (or at ratio 0) doubles the width.  Widths are in time, and the
    window starts at the node nearest to its planned start, so it is at
    least one step wide on any grid and the last one ends at node 0.  The
    rule reads only the traces, so reruns plan the same windows."""
    nodes = grid.nodes

    def next_window(hi: int, last: FixedPointTrace | None):
        if hi == 0:
            return None
        if last is None:
            return Window(hi - 1, hi), None
        ratio = last.ratios[0] if last.ratios else None
        factor = min(2.0, max(0.5, _Q_TARGET / ratio)) if ratio else 2.0
        lo = int(np.argmin(np.abs(nodes[:hi] - (nodes[hi] - factor * last.width))))
        return Window(lo, hi), ratio

    return next_window


# ---------------------------------------------------------------------------
# frozen-mean map: local fixed point and stitching
# ---------------------------------------------------------------------------


def _frozen_mean_step(scenario):
    """The step of the frozen-mean map: one sweep with the driver's mean
    slots frozen at the previous iterate's mean curves."""

    def step(window: Window, it: _Iterate, sweep) -> _Iterate:
        f = dsl.Staged(scenario.f, ("y",), n=scenario.n, d=scenario.d)
        return sweep(staged_driver(f, window.lo, ybar=it.m_y, zbar=it.m_z))

    return step


def local_solve(
    scenario: ScenarioSpec,
    ensemble: PathEnsemble,
    config: SolverConfig,
    window: Window | None = None,
    certificate: Certificate | None = None,
) -> SolveResult:
    """Fixed point of the frozen-mean map on one window, which ends at the
    last node of the grid (the whole grid by default).

    Starts from the terminal data's path mean at every node and a zero
    integrand, and applies the frozen-mean solve until two successive
    iterates agree to ``tol_fp`` in sup norm (state) plus empirical M2
    distance (integrand).  Raises :class:`InvalidInput` for a window that
    does not end at the last node, :class:`NonContraction` when the
    distances stop shrinking persistently, :class:`MaxIterations` on budget
    exhaustion.  The trace is a one-element list, as for every stitched
    solve.
    """
    _check_shape(scenario, "local_solve")
    window = window or ensemble.grid.full_window()
    N = ensemble.grid.n_steps
    if window.hi != N:
        raise InvalidInput(
            f"local_solve window ({window.lo}, {window.hi}) must end at the "
            f"last node {N} of the grid"
        )
    return _solve(scenario, ensemble, config, certificate, _frozen_mean_step(scenario),
                  SupNorm, "local solve", [window], mean_z=True)


def _plan_windows(ensemble: PathEnsemble, config: SolverConfig, cert: Certificate):
    """The windows of a stitched solve: ``n_windows`` equal windows when it
    is set, else windows of the certified stitching width when that is at
    least one grid step, else, under ``override_epsilon``, the plan of
    windows sized from measured contraction (:func:`_measured_plan`)."""
    grid = ensemble.grid
    N = grid.n_steps
    if config.n_windows is not None:
        if config.n_windows > N:
            raise InvalidInput(
                f"n_windows = {config.n_windows} exceeds the grid's {N} steps"
            )
        bounds = np.linspace(0, N, config.n_windows + 1).round().astype(int)
        bounds = np.unique(bounds)
        return [Window(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    width = cert.eta if cert.eta > 0.0 else 0.0
    if width < float(np.min(grid.steps)):
        if config.override_epsilon:
            return _measured_plan(grid)
        raise WindowTooWide(
            "certified stitching width is below the grid resolution; "
            "set override_epsilon to size windows from measured contraction"
        )
    windows = []
    hi = N
    while hi > 0:
        t_hi = grid.nodes[hi]
        lo = int(np.searchsorted(grid.nodes, t_hi - width, side="left"))
        lo = min(lo, hi - 1)
        windows.append(Window(lo, hi))
        hi = lo
    return windows


def global_solve(
    scenario: ScenarioSpec,
    ensemble: PathEnsemble,
    config: SolverConfig,
    certificate: Certificate | None = None,
) -> SolveResult:
    """Horizon-wide solve by stitching frozen-mean fixed points window by
    window, right to left.  Window sizes come from the configuration, from
    the certificate's stitching width when it is resolvable on the grid,
    or else, under ``override_epsilon``, from the contraction each solved
    window measured (:func:`_plan_windows`).  Envelope violations are
    reported in ``flags``, not raised."""
    _check_shape(scenario, "global_solve")
    return _solve(scenario, ensemble, config, certificate, _frozen_mean_step(scenario),
                  SupNorm, "local solve", mean_z=True)


# ---------------------------------------------------------------------------
# global Picard scheme
# ---------------------------------------------------------------------------


def picard_global(
    scenario: ScenarioSpec,
    ensemble: PathEnsemble,
    config: SolverConfig,
    certificate: Certificate | None = None,
) -> SolveResult:
    """Horizon-wide Picard iteration.

    Iterate 0 is the terminal data's path mean with a zero integrand.  Each
    subsequent iterate solves the BSDE with driver ``f(s, 0, 0, z, 0)``
    plus the per-path source ``L(s, Y^j, E Y^j, Z^j, E Z^j) - L(s, 0, 0,
    Z^j, 0)`` frozen at the previous iterate, where ``L`` is the sum of the
    terms of the generator's top-level sum that read ``y``, ``ybar`` or
    ``zbar`` (the whole generator when it is not such a sum).  The other
    terms, the quadratic-in-z part among them, stay live inside each sweep,
    with ``L`` at zero; only ``L`` is lagged.  The horizon is one window,
    not checked against the certified width, and the trace is a single
    :class:`FixedPointTrace`.
    """
    _check_shape(scenario, "picard_global")
    n, d, P = scenario.n, scenario.d, ensemble.n_paths
    # each node's source binds (s, Z^j) and runs L at the iterate and at
    # zeros; the sweep's core is the other terms plus L with its lagged
    # slots bound at zero, one bound operand, so a call runs only the rest
    lag = ("y", "ybar", "zbar")
    reading, regrouped = scenario.f.split(lag)
    zeros = {"y": np.zeros(n), "ybar": np.zeros(n), "zbar": np.zeros((d, n))}
    source = np.empty((P, n))
    at_zero = None

    def step(window: Window, it: _Iterate, sweep) -> _Iterate:
        nonlocal at_zero
        # L at zeros is one (1, n) row when it reads neither s nor z, run
        # once per solve, at the first step, by a throwaway program
        if at_zero is None and not reading.free_variables & {"s", "z"}:
            at_zero = dsl.Staged(reading, lag, n=n, d=d)(**zeros)
        lagged = dsl.Staged(reading, lag, n=n, d=d)
        core = dsl.Staged(regrouped, ("s", "z"), n=n, d=d)

        def driver(i, s, z):
            j = i - window.lo
            lagged.bind(s=s, z=it.z[j])
            np.copyto(source, lagged(y=it.y[j], ybar=it.m_y[j], zbar=it.m_z[j]))
            np.subtract(source, lagged(**zeros) if at_zero is None else at_zero, out=source)
            f = core(s=s, z=z)
            return np.add(f, source, out=f)

        core.bind(**zeros)
        return sweep(driver)

    result = _solve(scenario, ensemble, config, certificate, step, SupNorm,
                    "global Picard", [ensemble.grid.full_window()], check_width=False)
    result.trace = result.trace[0]
    return result


# ---------------------------------------------------------------------------
# split generators: mean shift solvers
# ---------------------------------------------------------------------------


def _frozen_state_step(scenario, ensemble):
    """The step of the frozen-state map of a split scenario.

    A step sweeps once with ``f1`` at the previous iterate's state and
    mean-integrand curve, and shifts each swept node's state as it is
    stored, by the tail integral of the mean of ``f2`` (trapezoid rule),
    accumulated backward node by node with ``f2`` at the previous state and
    the fresh integrand; the new iterate's mean-integrand curve is the
    sweep's.  The outer distance includes the integrand, so the fixed point
    also resolves that curve.  ``f1`` is bound whole once per swept node, so
    each backward step is explicit.  When ``f1`` reads only ``s, z`` and
    ``f2`` neither ``y`` nor ``ybar``, the first step from the start is
    exactly the deterministic shift of the base BSDE, and the second
    confirms it at distance 0.
    """
    n, d = scenario.n, scenario.d
    nodes, steps = ensemble.grid.nodes, ensemble.grid.steps
    ones = np.ones(ensemble.n_paths)

    def step(window: Window, it: _Iterate, sweep):
        # f2's program, built at the sweep's first store (it serves the
        # stores alone), and the shift and mean of f2 at the node after
        f2 = shift = fbar = None

        def mean_shift(j, z, m_z):
            nonlocal f2, shift, fbar
            if f2 is None:
                f2 = dsl.Staged(scenario.f2, dsl.GENERATOR_VARS, n=n, d=d)
            i = window.lo + j
            f = node_mean(f2(s=float(nodes[i]), z=z, zbar=m_z, y=it.y[j], ybar=it.m_y[j]), ones)
            shift = np.zeros(n) if shift is None else shift + 0.5 * steps[i] * (f + fbar)
            fbar = f
            return shift

        f1 = dsl.Staged(scenario.f1, (), n=n, d=d)
        return sweep(staged_driver(f1, window.lo, y=it.y, ybar=it.m_y, zbar=it.m_z), mean_shift)

    return step


def shift_fixed_point(
    scenario: ScenarioSpec,
    ensemble: PathEnsemble,
    config: SolverConfig,
    certificate: Certificate | None = None,
) -> SolveResult:
    """General split solve: freeze the full state process between sweeps.

    Each iterate solves the base BSDE whose driver evaluates ``f1`` at the
    frozen per-path state (so the state slot carries no implicitness), then
    shifts by the tail integral of the mean of ``f2`` evaluated along the
    frozen state and the fresh integrand.  The integrand is never moved by
    the shift.  Windows are planned as for :func:`global_solve` and
    stitched right to left.
    """
    _check_shape(scenario, "shift_fixed_point", FORM_SPLIT_QUADRATIC)
    return _solve(scenario, ensemble, config, certificate,
                  _frozen_state_step(scenario, ensemble), SupNorm, "shift fixed point")


def multidim_solve(
    scenario: ScenarioSpec,
    ensemble: PathEnsemble,
    config: SolverConfig,
    certificate: Certificate | None = None,
) -> SolveResult:
    """Vector-valued split solve with a z-Lipschitz first part.

    The map of :func:`shift_fixed_point`: each step freezes the full state
    process and the mean-integrand curve seen by ``f1`` at the previous
    iterate's, so the outer fixed point resolves that curve too.  Distances
    use the empirical S2 norm for the state and M2 for the integrand.
    """
    _check_shape(scenario, "multidim_solve", FORM_SPLIT_LIPSCHITZ)
    return _solve(scenario, ensemble, config, certificate,
                  _frozen_state_step(scenario, ensemble), S2Norm, "multidim solve")
