"""Empirical norms, a-priori bound checks, and run reports.

The BMO estimator evaluates, at every grid node, the regression estimate of
the conditional tail integral ``E_i[ integral_{t_i}^{T} |Z_s|^2 ds ]``
(right-point quadrature on the stored integrand), takes the worst path at
each node, and then the worst node.  Grid nodes stand in for general
stopping times, so the estimate is a lower bound of the continuous-time
norm up to discretisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PathEnsemble, ProcessGrid
from .errors import InvalidInput
from .regression import NodeRegression, RegressionBasis

__all__ = [
    "sup_norm",
    "sp_norm",
    "mp_norm",
    "bmo2_estimate",
    "phi",
    "phi_prime",
    "phi_double_prime",
    "bmo_budget_global",
    "check_alpha_envelope",
    "check_lemma21",
    "DiagnosticsReport",
    "build_report",
]


def sup_norm(y: ProcessGrid) -> float:
    """Largest absolute entry over paths, nodes, and components."""
    if y.values.size == 0:
        raise InvalidInput("empty process")
    return float(np.max(np.abs(y.values)))


def sp_norm(y: ProcessGrid, p: float = 2.0) -> float:
    """Empirical S^p norm ``(E[sup_t |Y_t|^p])^(1/p)``."""
    if p <= 0:
        raise InvalidInput("p must be positive")
    P = y.n_paths
    mags = np.linalg.norm(y.values.reshape(P, y.n_nodes, -1), axis=2)
    sups = mags.max(axis=1)
    return float(np.mean(sups**p) ** (1.0 / p))


def _z_square_steps(z: ProcessGrid) -> tuple[np.ndarray, np.ndarray]:
    P, L = z.n_paths, z.n_nodes
    lo, hi = z.span
    steps = z.grid.steps[lo:hi]
    sq = np.sum(z.values.reshape(P, L, -1) ** 2, axis=2)
    return sq, steps


def mp_norm(z: ProcessGrid, p: float = 2.0) -> float:
    """Empirical M^p norm ``(E[(integral |Z|^2 ds)^(p/2)])^(1/p)``,
    right-point quadrature on the grid."""
    if p <= 0:
        raise InvalidInput("p must be positive")
    sq, steps = _z_square_steps(z)
    integral = sq[:, :-1] @ steps
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
    sq, steps = _z_square_steps(z)
    lo, _ = z.span
    P, L = sq.shape
    # tail integrals per path: tail[j] = sum_{l >= j} sq[l] * h[l]
    contrib = sq[:, :-1] * steps[None, :]
    tails = np.zeros((P, L))
    tails[:, :-1] = contrib[:, ::-1].cumsum(axis=1)[:, ::-1]
    basis = basis or RegressionBasis()
    worst = 0.0
    for j in range(L - 1):
        i = lo + j
        if regressions is not None and i in regressions:
            reg = regressions[i]
        else:
            reg = NodeRegression(ensemble.state(i), basis)
            if regressions is not None:
                regressions[i] = reg
        fitted = reg.fit(tails[:, j])
        worst = max(worst, float(fitted.max()))
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
    sq = np.sum(y.values.reshape(P, L, -1) ** 2, axis=2)
    env = np.asarray(alpha_fn(y.times()), dtype=np.float64)[None, :]
    viol = sq > env
    rate = float(np.mean(viol))
    margin = float(np.min(env - sq))
    return {"violation_rate": rate, "min_margin": margin, "nodes": L, "paths": P}


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
