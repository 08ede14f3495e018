"""Backward regression Monte Carlo solver for standard (frozen-mean) BSDEs.

One backward step at node i:

* conditional mean ``c = E_i[Y_{i+1}]`` by node regression,
* integrand ``Z_i`` by regressing the martingale residual
  ``(Y_{i+1} - c) * dW_i / h_i`` (the centred estimator has far smaller
  variance than the raw product and the same conditional expectation),
* state ``Y_i`` from the implicit equation ``y = c + h_i * f(t_i, y, Z_i)``
  (the driver may be quadratic in z but z enters explicitly), solved by
  Newton steps where the driver gives its y-derivative and by plain
  fixed-point passes elsewhere, with a damped step where the residual
  grows (the implicit scheme of Gobet, Lemor & Warin, Ann. Appl. Probab.
  15(3), 2005).

The driver is bound once per node: ``driver(i, s, z)`` returns the node's
driver values when they do not read the state, and the equation is explicit
(one step), or a callable of ``y`` that re-runs only the state-reading
remainder on each pass.  :func:`staged_driver` builds that driver from a
:class:`~mfbsde.dsl.Staged` program with its other slots frozen at
node-major curves; a program with ``y`` late is the callable, and gives
the Newton slope ``df/dy`` from the same call.  The step's ``c + h*f``,
Newton step and denominator are written into buffers reused across the
sweep.

A sweep stores each node once its driver has run and its state is solved,
backward, through a store hook, into the pair of node-major arrays it is
given (or allocates): the mean-field solvers hand it their window's block
of the horizon arrays, the iterate the sweep replaces, and their hook reads
each node's old values (its share of the distances, the frozen-state mean
shift) before it writes the new ones, or none at a node the window to the
right solved.  The sweep fits its next state from its own row, never read
back from the arrays, where a hook may store a shifted state.

Driver evaluations clamp the z argument at a configurable norm level;
clamp activations are counted and reported, and a converged run is expected
to show zero activations at the final resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import PathEnsemble, Window, row_norm
from .errors import InvalidInput, StepDivergence
from .regression import NodeRegression, RegressionBasis

__all__ = ["SolverConfig", "StandardSolve", "BackwardSolver"]

_TOL_INNER = 1e-10  # relative residual at which the implicit state solve stops


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by every solver entry point."""

    n_steps: int = 100
    n_paths: int = 50_000
    seed: int = 0
    basis: RegressionBasis = field(default_factory=RegressionBasis)
    max_inner: int = 60
    tol_fp: float = 1e-3
    max_outer: int = 30
    z_clamp: float = 100.0
    n_windows: int | None = None
    override_epsilon: bool = False

    def __post_init__(self):
        if self.n_steps < 1 or self.n_paths < 2:
            raise InvalidInput("need n_steps >= 1 and n_paths >= 2")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, not {self.seed}")
        for name in ("tol_fp", "z_clamp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, not {value}")
        if self.tol_fp <= 0:
            raise InvalidInput("tol_fp must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise InvalidInput("iteration budgets must be >= 1")
        if self.z_clamp <= 0:
            raise InvalidInput("z_clamp must be positive")
        if self.n_windows is not None and self.n_windows < 1:
            raise InvalidInput("n_windows must be >= 1")

    def updated(self, **changes) -> "SolverConfig":
        return replace(self, **changes)


@dataclass
class StandardSolve:
    """Result of one backward sweep on a window."""

    y: np.ndarray            # (L, P, n), node-major
    z: np.ndarray            # (L, P, d, n), node-major
    inner_iterations: list[int]
    clamp_events: int
    damped_passes: int


class BackwardSolver:
    """Backward sweeps over one ensemble, with node regressions cached.

    The basis depends only on the Brownian levels, so each node is
    factorised once and its k x k factors (and, for a binned basis, its
    int32 member index) are reused by every fixed-point iteration and by
    the diagnostics, for the solver's whole life.  A sweep forms each
    node's (features, paths) design once per step, into one buffer sized
    from the basis and reused across the sweep; a node met first is
    factorised from that design, and both fits of the step read it.  Sweeps
    store their values node-major, so every node is read and written as
    one contiguous block, and take each step's Brownian increment as the
    difference of two node levels into one reused buffer.
    """

    def __init__(self, ensemble: PathEnsemble, config: SolverConfig):
        self.ensemble = ensemble
        self.config = config
        self._cache: dict[int, NodeRegression] = {}

    def node_regression(self, i: int, design: np.ndarray | None = None) -> NodeRegression:
        """Node ``i``'s regression, factorised at the first call, with its
        design formed into ``design`` when given (and factorised from it)."""
        reg = self._cache.get(i)
        if reg is None:
            reg = self._cache[i] = NodeRegression(self.ensemble.state(i), self.config.basis, design)
        elif design is not None:
            reg.design(out=design)
        return reg

    def solve(self, window: Window, terminal: np.ndarray, driver, out=None,
              store=None) -> StandardSolve:
        """Backward sweep on ``window``.

        ``terminal`` has shape (P, n).  ``driver(i, s, z)`` is called once
        per node with the node index, time and clamped integrand (P, d, n).
        It returns either the driver's (P, n) values, when they do not
        depend on the state, which gives one explicit step, or a callable
        ``f(y=...)`` mapping a state (P, n) to (P, n), which the implicit
        state solve calls on each pass; when ``f`` has a (P, n) attribute
        ``dy`` after a call (a :class:`~mfbsde.dsl.Staged` program with
        ``y`` late), that is ``df_j/dy_j`` there, and the solve takes Newton
        steps.  A returned array, and the arrays ``f`` returns and holds,
        need only stay valid until the driver or ``f`` is called again: the
        sweep uses each at once.

        ``out`` is the pair of node-major arrays, (L, P, n) and (L, P, d,
        n), that the sweep stores into and returns (fresh ones when None).
        Each node ``j = i - lo`` is stored once its driver has run and its
        state is solved, by ``store(j, y, z)``, backward; node ``L - 1``,
        the terminal with a copy of node ``L - 2``'s integrand, is stored
        just before node ``L - 2``.  The default ``store`` writes ``y`` and
        ``z`` into ``out``; a given one writes them there itself, or leaves
        the node as it was, so until it does, node ``j`` of ``out`` still
        holds whatever was there before (an earlier sweep's values, which
        the driver may read).  ``y`` and ``z`` need only stay valid until
        ``store`` returns.  Raises :class:`InvalidInput` when ``window``
        runs past the grid or ``terminal`` is not (P, n).
        """
        ens = self.ensemble
        ens.grid.check_window(window)
        cfg = self.config
        P = ens.n_paths
        if terminal.ndim != 2 or len(terminal) != P:
            raise InvalidInput("terminal shape does not match ensemble")
        n = terminal.shape[1]
        d = ens.d
        lo, hi = window.lo, window.hi
        L = window.n_nodes
        nodes = ens.grid.nodes
        steps = ens.grid.steps

        Y, Z = (np.empty((L, P, n)), np.empty((L, P, d, n))) if out is None else out
        if store is None:
            def store(j, y, z):
                Y[j] = y
                Z[j] = z

        raw = np.empty((P, d, n))
        design = np.empty((cfg.basis.n_features(d), P))
        dw = np.empty((P, d))
        work = np.empty((4, P, n))  # two alternating iterates and two scratch rows
        finite = np.empty((P, n), dtype=bool)
        inner_counts: list[int] = []
        clamp_events = damped = 0
        # the sweep's own next state, not read back from ``Y``, where a
        # store may put something else; a row of ``work`` after the first
        # node, which the next node overwrites only once it has fitted it
        y_next = terminal

        for i in range(hi - 1, lo - 1, -1):
            j = i - lo
            h = float(steps[i])
            t = float(nodes[i])
            reg = self.node_regression(i, design)

            cond = reg.fit(y_next, design)
            resid = y_next - cond
            np.subtract(ens.state(i + 1), ens.state(i), out=dw)
            # one product per (increment, state) component pair: each is a
            # single loop over the paths
            for a in range(d):
                for b in range(n):
                    np.multiply(dw[:, a], resid[:, b], out=raw[:, a, b])
            raw /= h
            z_fit = reg.fit(raw.reshape(P, d * n), design)
            z_i = z_fit.reshape(P, d, n)

            z_drv, n_clamped = _clamp_z(z_i, cfg.z_clamp)
            clamp_events += n_clamped

            y, iters, halved = _implicit_state(cond, h, i, driver(i, t, z_drv), work, cfg)
            if not np.isfinite(y, out=finite).all():
                raise StepDivergence("non-finite state in backward step", i)
            if i == hi - 1:
                store(L - 1, terminal, z_i)
            store(j, y, z_i)
            y_next = y
            inner_counts.append(iters)
            damped += halved

        inner_counts.reverse()
        return StandardSolve(y=Y, z=Z, inner_iterations=inner_counts,
                             clamp_events=clamp_events, damped_passes=damped)


def staged_driver(stage, lo: int, **frozen):
    """``driver(i, s, z)`` of :meth:`BackwardSolver.solve` for ``stage``
    with its other slots frozen at node-major curves aligned with the window
    whose first node is ``lo``: node ``i`` binds ``s``, ``z`` and row
    ``i - lo`` of each, and returns ``stage`` when it reads a late slot (the
    implicit state solve re-runs it), else its values."""

    def driver(i: int, s: float, z: np.ndarray):
        j = i - lo
        stage.bind(s=s, z=z, **{k: v[j] for k, v in frozen.items()})
        return stage if stage.reads_late else stage()

    return driver


def _clamp_z(z: np.ndarray, level: float) -> tuple[np.ndarray, int]:
    """``z`` (P, d, n) with every path's row scaled down to norm ``level``
    where its norm exceeds it, and the number of rows scaled."""
    P = z.shape[0]
    # A computed row norm is at most sqrt(d*n) * max|z| * (1 + u)^((d*n + 2)/2),
    # u = 2^-53 (one rounding per square and per addition, halved by the
    # root, and one for the root); the bound below is rounded down by at
    # most (1 - u)^3.  The 1e-12 margin covers both while d*n < 10^4, so a
    # bound at or under the level means the full-norm path scales no row.
    # A NaN bound fails the test and takes that path.
    bound = float(np.maximum(z.max(), -z.min())) * math.sqrt(z[0].size)
    if bound * (1.0 + 1e-12) <= level:
        return z, 0
    rows = z.reshape(P, -1)
    with np.errstate(over="ignore"):  # an overflowed norm is retaken below
        norms = row_norm(rows)[:, 0]
    over = norms > level
    n_over = int(np.count_nonzero(over))
    if n_over == 0:
        return z, 0
    scale = np.ones(P)
    scale[over] = level / norms[over]
    # a finite row whose norm overflows is measured over its largest |entry|
    huge = np.isinf(norms) & np.isfinite(rows).all(axis=1)
    top = np.abs(rows[huge]).max(axis=1, keepdims=True)
    scale[huge] = level / row_norm(rows[huge] / top)[:, 0] / top[:, 0]
    return z * scale[:, None, None], n_over


def _implicit_state(cond, h, i, f, work, cfg) -> tuple[np.ndarray, int, int]:
    """Solve ``y = g(y) = cond + h * f(y)`` for the node's bound driver
    ``f``; an array ``f`` gives the explicit step.  Each pass evaluates
    ``g`` at the current point, and the loop returns ``g(y)`` once the
    residual ``|g(y) - y|`` is at most ``_TOL_INNER * max(1, |g(y)|)``.
    Otherwise the next point is the Newton point ``y + (g(y) - y) / (1 - h
    f'(y))`` where ``f`` gives its derivative ``dy`` and, path by path,
    that denominator is finite and at least 1/2, else the plain step
    ``g(y)``; a pass whose residual grew halves its step.  Every pass
    writes into ``work`` (two alternating points and two scratch rows), so
    the returned state is one of its rows.  Returns the state, the passes
    and the halved passes."""
    y_a, y_b, step, den = work
    # cond + h*f is formed in the point's own buffer (addition commutes
    # bit for bit): one buffer fewer in the working set than a scratch row
    if not callable(f):
        return np.add(cond, np.multiply(h, f, out=y_a), out=y_a), 1, 0
    y = cond
    prev_res = np.inf
    damped = 0
    for m in range(1, cfg.max_inner + 1):
        g = y_b if y is y_a else y_a
        np.add(cond, np.multiply(h, f(y=y), out=g), out=g)
        res = _sup(np.subtract(g, y, out=step))
        if res <= _TOL_INNER * max(1.0, _sup(g)):
            return g, m, damped
        dy = getattr(f, "dy", None)
        if dy is not None:
            _newton_point(g, y, step, np.subtract(1.0, np.multiply(h, dy, out=den), out=den))
        if res > prev_res:
            # non-monotone residual: damp the step by half
            np.add(g, y, out=g)
            np.multiply(0.5, g, out=g)
            damped += 1
        y = g
        prev_res = res
    raise StepDivergence(
        f"state iteration stalled at residual {prev_res:.3e}", i
    )


def _sup(a: np.ndarray) -> float:
    """``max |a|``, NaN if ``a`` holds one, without a pass that writes."""
    return float(max(a.max(), -a.min()))


def _newton_point(g, y, step, den) -> None:
    """Overwrite ``g`` with ``y + step / den`` on the paths where ``den``
    is finite and at least 1/2; ``step`` is scratch."""
    if den.min() >= 0.5 and den.max() < np.inf:
        np.add(y, np.divide(step, den, out=step), out=g)
        return
    ok = (den >= 0.5) & (den < np.inf)
    np.divide(step, den, out=step, where=ok)
    np.add(y, step, out=g, where=ok)
