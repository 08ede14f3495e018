"""Empirical norms, a-priori bound checks, and run reports.

The BMO estimator evaluates, at every grid node, the regression estimate of
the conditional tail integral ``E_i[ integral_{t_i}^{T} |Z_s|^2 ds ]``
(right-point quadrature on the stored integrand), takes the worst path at
each node, and then the worst node.  Grid nodes stand in for general
stopping times, so the estimate is a lower bound of the continuous-time
norm up to discretisation.

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
from dataclasses import dataclass

import numpy as np

from .core import PathEnsemble, ProcessGrid
from .dsl import row_dot
from .errors import InvalidInput
from .regression import NodeRegression, RegressionBasis

__all__ = [
    "sup_norm",
    "sp_norm",
    "mp_norm",
    "bmo2_estimate",
    "node_square_norms",
    "phi",
    "phi_prime",
    "phi_double_prime",
    "bmo_budget_global",
    "check_alpha_envelope",
    "check_lemma21",
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


def bmo2_estimate(
    z: ProcessGrid,
    ensemble: PathEnsemble,
    basis: RegressionBasis | None = None,
    regressions: dict[int, NodeRegression] | None = None,
) -> float:
    """Squared BMO estimate ``max_i max_paths E_i[int_{t_i}^T |Z|^2 ds]``.

    ``regressions`` may supply pre-factorised node regressions (e.g. a
    solver's cache) keyed by global node index.
    """
    lo, hi = z.span
    steps = z.grid.steps[lo:hi]
    basis = basis or RegressionBasis()
    # per-path tail integral, backward: tail_j = tail_{j+1} + |Z_j|^2 h_j
    tail = np.zeros(z.n_paths)
    worst = 0.0
    backward = range(z.n_nodes - 2, -1, -1)
    for j, sq in zip(backward, node_square_norms(z, backward)):
        tail += sq * steps[j]
        i = lo + j
        if regressions is not None and i in regressions:
            reg = regressions[i]
        else:
            reg = NodeRegression(ensemble.state(i), basis)
            if regressions is not None:
                regressions[i] = reg
        worst = max(worst, float(reg.fit(tail).max()))
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


def phi_double_prime(y, gamma: float):
    """Second derivative ``exp(gamma*|y|)`` (off the kink)."""
    return np.exp(gamma * np.abs(np.asarray(y, dtype=np.float64)))


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


def check_lemma21(
    y: ProcessGrid,
    xi_abs: np.ndarray,
    g_curve: np.ndarray,
    beta: float,
    gamma: float,
) -> dict:
    """Exponential-moment bound on the initial state.

    Checks ``exp(gamma*|Y_0|) <= E[exp(gamma*e^{beta*T}*|xi| +
    gamma * int_0^T |g(s)| e^{beta*s} ds)]`` with ``g`` a deterministic
    envelope of the driver magnitude along the run.  Returns the log-scale
    margin (nonnegative when the bound holds).
    """
    times = y.times()
    T = float(times[-1] - times[0])
    g_curve = np.asarray(g_curve, dtype=np.float64)
    if g_curve.shape != times.shape:
        raise InvalidInput("g_curve must be aligned with the process nodes")
    weights = np.exp(beta * (times - times[0]))
    integral = float(np.trapezoid(np.abs(g_curve) * weights, times - times[0]))
    exponent = gamma * math.exp(beta * T) * np.abs(xi_abs) + gamma * integral
    # average in log space to avoid overflow for crude envelopes
    m = float(np.max(exponent))
    log_rhs = m + math.log(float(np.mean(np.exp(exponent - m))))
    y0 = float(np.max(np.linalg.norm(y.values[:, 0, :].reshape(y.n_paths, -1), axis=1)))
    log_lhs = gamma * y0
    return {
        "log_lhs": log_lhs,
        "log_rhs": log_rhs,
        "margin": log_rhs - log_lhs,
        "holds": log_lhs <= log_rhs * (1.0 + 1e-12) + 1e-12,
    }


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
    lemma21_margin: float | None = None
    clamp_events: int = 0

    def as_dict(self) -> dict:
        return {
            "sup_y": self.sup_y,
            "sp_y": self.sp_y,
            "mp_z": self.mp_z,
            "bmo2_z": self.bmo2_z,
            "p": self.p,
            "gamma": self.gamma,
            "bmo_budget": self.bmo_budget,
            "bmo_within_budget": self.bmo_within_budget,
            "alpha_violation_rate": self.alpha_violation_rate,
            "lemma21_margin": self.lemma21_margin,
            "clamp_events": self.clamp_events,
        }


def build_report(
    y: ProcessGrid,
    z: ProcessGrid,
    ensemble: PathEnsemble,
    gamma: float,
    p: float = 2.0,
    bmo_budget: float | None = None,
    alpha_fn=None,
    regressions: dict[int, NodeRegression] | None = None,
    basis: RegressionBasis | None = None,
    clamp_events: int = 0,
) -> DiagnosticsReport:
    bmo = bmo2_estimate(z, ensemble, basis=basis, regressions=regressions)
    rep = DiagnosticsReport(
        sup_y=sup_norm(y),
        sp_y=sp_norm(y, p),
        mp_z=mp_norm(z, p),
        bmo2_z=bmo,
        p=p,
        gamma=gamma,
        clamp_events=clamp_events,
    )
    if bmo_budget is not None:
        rep.bmo_budget = bmo_budget
        rep.bmo_within_budget = bmo <= bmo_budget * (1.0 + 1e-9)
    if alpha_fn is not None:
        rep.alpha_violation_rate = check_alpha_envelope(y, alpha_fn)["violation_rate"]
    return rep
