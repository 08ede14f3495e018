"""Empirical norms, a-priori bound checks, and run reports.

The BMO estimator evaluates, at every grid node, the regression estimate of
the conditional tail integral ``E_i[ integral_{t_i}^{T} |Z_s|^2 ds ]``
(right-point quadrature on the stored integrand), takes the worst path at
each node, and then the worst node.  Grid nodes stand in for general
stopping times, so the estimate is a lower bound of the continuous-time
norm up to discretisation.  The estimator takes the node regressions as a
callable ``node_regression(i)`` of the global node index; the solvers pass
:meth:`BackwardSolver.node_regression`, so the diagnostics fit against the
factors the backward sweep already built and keep no cache of their own
(each fit forms its node's design afresh).  A solve takes the estimate
once, over the span it solved, and :func:`build_report` takes the result.

Every norm and check reads a process node by node, through the node-major
view ``np.swapaxes(values, 0, 1)``: no transposed copy is made, whatever
the layout behind ``values``.  At each node the squared Euclidean norms of
the paths go into one reused ``(P,)`` buffer (:func:`node_square_norms`,
column products in numpy's own summation order), and each check folds them
into O(P) state: a running per-path maximum (S^p), a running per-path
integral (M^p), a backward running tail with one regression fit per node
(BMO), or per-node violation counts and margins (the envelope).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import ProcessGrid
from .dsl import row_dot
from .errors import InvalidInput

__all__ = [
    "sup_norm",
    "sp_norm",
    "mp_norm",
    "bmo2_estimate",
    "node_square_norms",
    "phi",
    "phi_prime",
    "bmo_budget_global",
    "check_alpha_envelope",
    "DiagnosticsReport",
    "build_report",
]


def _node_rows(p: ProcessGrid, nodes=None):
    """The process at each node of ``nodes`` (local indices, all nodes in
    order by default) as a (P, m) view, its components flattened."""
    values = np.swapaxes(p.values, 0, 1)
    P = p.n_paths
    for j in range(p.n_nodes) if nodes is None else nodes:
        yield values[j].reshape(P, -1)


def node_square_norms(p: ProcessGrid, nodes=None):
    """Squared Euclidean norm of every path's value, node by node.

    Yields one (P,) buffer per node of ``nodes`` (local indices, all nodes
    in order by default), equal bit for bit to ``np.sum(v ** 2, axis=-1)``
    over the flattened components.  The buffer is reused: read each node
    before taking the next.
    """
    buf = np.empty(p.n_paths)
    for row in _node_rows(p, nodes):
        yield row_dot(row, row, out=buf)


def sup_norm(y: ProcessGrid) -> float:
    """Largest absolute entry over paths, nodes, and components."""
    if y.values.size == 0:
        raise InvalidInput("empty process")
    buf = None
    sup = 0.0
    for row in _node_rows(y):
        buf = np.abs(row, out=buf)
        sup = max(sup, float(buf.max()))
    return sup


def sp_norm(y: ProcessGrid, p: float = 2.0) -> float:
    """Empirical S^p norm ``(E[sup_t |Y_t|^p])^(1/p)``."""
    if p <= 0:
        raise InvalidInput("p must be positive")
    # the square root is monotone, so the largest square gives the sup norm
    sup_sq = np.zeros(y.n_paths)
    for sq in node_square_norms(y):
        np.maximum(sup_sq, sq, out=sup_sq)
    sups = np.sqrt(sup_sq)
    return float(np.mean(sups**p) ** (1.0 / p))


def mp_norm(z: ProcessGrid, p: float = 2.0) -> float:
    """Empirical M^p norm ``(E[(integral |Z|^2 ds)^(p/2)])^(1/p)``,
    right-point quadrature on the grid."""
    if p <= 0:
        raise InvalidInput("p must be positive")
    lo, hi = z.span
    steps = z.grid.steps[lo:hi]
    integral = np.zeros(z.n_paths)
    for h, sq in zip(steps, node_square_norms(z, range(z.n_nodes - 1))):
        integral += sq * h
    return float(np.mean(integral ** (p / 2.0)) ** (1.0 / p))


def bmo2_estimate(z: ProcessGrid, node_regression) -> float:
    """Squared BMO estimate ``max_i max_paths E_i[int_{t_i}^T |Z|^2 ds]``.

    ``node_regression(i)`` returns the :class:`NodeRegression` of global
    node ``i`` (a solver's :meth:`BackwardSolver.node_regression`); it is
    asked once for every node of the span but the last.  The per-path
    integral starts at zero at the span's last node.
    """
    lo, hi = z.span
    steps = z.grid.steps[lo:hi]
    # per-path integral to the horizon, backward: I_j = I_{j+1} + |Z_j|^2 h_j
    integral = np.zeros(z.n_paths)
    worst = 0.0
    backward = range(z.n_nodes - 2, -1, -1)
    for j, sq in zip(backward, node_square_norms(z, backward)):
        integral += sq * steps[j]
        worst = max(worst, float(node_regression(lo + j).fit(integral).max()))
    return worst


# ---------------------------------------------------------------------------
# Exponential transform
# ---------------------------------------------------------------------------


def phi(y, gamma: float):
    """Transform ``(exp(gamma*|y|) - gamma*|y| - 1) / gamma^2``."""
    a = gamma * np.abs(np.asarray(y, dtype=np.float64))
    return (np.expm1(a) - a) / gamma**2


def phi_prime(y, gamma: float):
    """Derivative ``sign(y) * (exp(gamma*|y|) - 1) / gamma``."""
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.expm1(gamma * np.abs(y)) / gamma


def bmo_budget_global(xi_bound: float, C: float, lam: float, T: float, gamma: float) -> float:
    """Global budget ``2*phi(|xi|) + 4*C*phi'(sqrt(lam))*(1 + sqrt(lam))*T``
    for the squared BMO norm of the martingale part, where ``lam`` bounds
    the squared state.  Saturates to inf when the envelope level exceeds
    the double exponential range (any finite estimate then trivially fits)."""
    r = math.sqrt(lam)
    if gamma * r > 700.0:
        return math.inf
    return float(2.0 * phi(xi_bound, gamma) + 4.0 * C * abs(phi_prime(r, gamma)) * (1.0 + r) * T)


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------


def check_alpha_envelope(y: ProcessGrid, alpha_fn) -> dict:
    """Fraction of (path, node) samples with ``|Y_t|^2 > alpha(t)``."""
    P, L = y.n_paths, y.n_nodes
    env = np.broadcast_to(np.asarray(alpha_fn(y.times()), dtype=np.float64), (L,))
    violations = 0
    margin = math.inf
    for e, sq in zip(env, node_square_norms(y)):
        violations += int(np.count_nonzero(sq > e))
        # subtraction is monotone: the largest square gives the node's margin
        margin = min(margin, float(e - sq.max()))
    return {"violation_rate": violations / (P * L), "min_margin": margin,
            "nodes": L, "paths": P}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    sup_y: float
    sp_y: float
    mp_z: float
    bmo2_z: float
    p: float
    gamma: float
    bmo_budget: float | None = None
    bmo_within_budget: bool | None = None
    alpha_violation_rate: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def build_report(
    y: ProcessGrid,
    z: ProcessGrid,
    bmo: float,
    gamma: float,
    p: float = 2.0,
    bmo_budget: float | None = None,
    alpha_fn=None,
) -> DiagnosticsReport:
    """Norms and envelope rate of one solved ``(y, z)``, with ``bmo``, its
    :func:`bmo2_estimate`."""
    rep = DiagnosticsReport(
        sup_y=sup_norm(y),
        sp_y=sp_norm(y, p),
        mp_z=mp_norm(z, p),
        bmo2_z=bmo,
        p=p,
        gamma=gamma,
    )
    if bmo_budget is not None:
        rep.bmo_budget = bmo_budget
        rep.bmo_within_budget = bmo <= bmo_budget * (1.0 + 1e-9)
    if alpha_fn is not None:
        rep.alpha_violation_rate = check_alpha_envelope(y, alpha_fn)["violation_rate"]
    return rep
