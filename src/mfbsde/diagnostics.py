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

The path norms (:func:`sup_norm`, :func:`s2_norm`, :func:`m2_norm`) take
node-major ``(L, P, ...)`` arrays, the layout of the backward sweep and of
every :class:`ProcessGrid`, and measure ``a - b`` when given a second array
``b``.  Each is one node-wise class (:class:`SupNorm`, :class:`S2Norm`,
:class:`M2Norm`) that takes the nodes' difference blocks one at a time, in
any order; a NaN anywhere gives NaN.  The functions take each node's
difference into one reused ``(P, ...)`` buffer, and :func:`build_report`
measures the values of its process grids with them.  The backward sweep
takes its iterate distances with the classes, node by node as it stores
over the iterate it replaces, each difference in the slot its new values
then go to.  The BMO estimate and the envelope check read a process
grid node by node too, whatever the strides behind ``values``: at each
node the squared Euclidean norms of the paths go into one reused ``(P,)``
buffer (:func:`node_square_norms`, column products in numpy's own
summation order), folded into a backward running tail with one regression
fit per node (BMO) or into per-node violation counts (the envelope).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import ProcessGrid, row_dot
from .errors import InvalidInput

__all__ = [
    "SupNorm",
    "S2Norm",
    "M2Norm",
    "sup_norm",
    "s2_norm",
    "m2_norm",
    "bmo2_estimate",
    "node_square_norms",
    "phi",
    "phi_prime",
    "bmo_budget_global",
    "check_alpha_envelope",
    "DiagnosticsReport",
    "build_report",
]


def node_square_norms(p: ProcessGrid, nodes=None):
    """Squared Euclidean norm of every path's value, node by node.

    Yields one (P,) buffer per node of ``nodes`` (local indices, all nodes
    in order by default), equal bit for bit to ``np.sum(v ** 2, axis=-1)``
    over the flattened components.  The buffer is reused: read each node
    before taking the next.
    """
    P = p.n_paths
    buf = np.empty(P)
    for j in range(p.n_nodes) if nodes is None else nodes:
        row = p.values[j].reshape(P, -1)
        yield row_dot(row, row, out=buf)


class SupNorm:
    """Largest absolute entry of a node-major difference over nodes, paths
    and components, taken node by node: ``add(j, diff)`` takes node ``j``'s
    difference block (which it may overwrite), the nodes in any order, and
    :meth:`value` is the norm once each of the ``nodes`` nodes of ``shape``
    (the (L, P, ...) shape of the difference) has been added.  A NaN
    anywhere gives NaN, as the whole-array maximum does."""

    def __init__(self, shape):
        self.nodes = shape[0]
        self._peaks = np.empty(self.nodes)

    def add(self, j: int, diff: np.ndarray) -> None:
        self._peaks[j] = np.abs(diff, out=diff).max()

    def value(self) -> float:
        return float(self._peaks.max())


class S2Norm:
    """Empirical S2 norm ``sqrt(E[max_t |a_t|^2])``, taken node by node as
    :class:`SupNorm` is: each path's running maximum of its squared norms
    is exact in any node order."""

    def __init__(self, shape):
        self.nodes = shape[0]
        self._sq = np.empty(shape[1])
        self._sup_sq = np.zeros(shape[1])  # squares are non-negative

    def add(self, j, diff):
        flat = diff.reshape(len(self._sq), -1)
        np.maximum(self._sup_sq, np.einsum("pk,pk->p", flat, flat, out=self._sq),
                   out=self._sup_sq)

    def value(self):
        return float(np.sqrt(np.mean(self._sup_sq)))


class M2Norm:
    """Empirical M2 norm ``sqrt(E[integral |a|^2 ds])`` on the ``L - 1``
    steps ``steps``, taken node by node as :class:`SupNorm` is.
    Right-point quadrature: the last node carries no step, and adding it
    does nothing.  The path mean of the integral is the step-weighted sum
    of each node's mean squared norm."""

    def __init__(self, shape, steps: np.ndarray):
        self.nodes = len(steps)
        self._steps = steps
        self._paths = shape[1]
        self._sq = np.empty(self.nodes)

    def add(self, j, diff):
        if j < self.nodes:
            row = diff.reshape(-1)
            self._sq[j] = np.einsum("k,k->", row, row)

    def value(self):
        return float(np.sqrt(self._steps @ self._sq / self._paths))


def _measure(norm, a: np.ndarray, b: np.ndarray | None) -> float:
    """``norm`` of the node-major ``a`` (``a - b``), each node's difference
    in one reused buffer."""
    diff = np.empty(a.shape[1:])
    for j in range(norm.nodes):
        norm.add(j, np.subtract(a[j], 0.0 if b is None else b[j], out=diff))
    return norm.value()


def sup_norm(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Largest absolute entry of ``a`` (of ``a - b``), by :class:`SupNorm`."""
    if a.size == 0:
        raise InvalidInput("empty process")
    return _measure(SupNorm(a.shape), a, b)


def s2_norm(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Empirical S2 norm of ``a`` (of ``a - b``), by :class:`S2Norm`."""
    return _measure(S2Norm(a.shape), a, b)


def m2_norm(a: np.ndarray, steps: np.ndarray, b: np.ndarray | None = None) -> float:
    """Empirical M2 norm of ``a`` (of ``a - b``) on ``L - 1`` steps
    ``steps``, by :class:`M2Norm`."""
    return _measure(M2Norm(a.shape, steps), a, b)


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
    if math.isinf(gamma * gamma):  # gamma^2 leaves the doubles: divide twice
        return (np.expm1(a) - a) / gamma / gamma
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


def check_alpha_envelope(y: ProcessGrid, alpha_fn) -> float:
    """Fraction of (path, node) samples with ``|Y_t|^2 > alpha(t)``."""
    P, L = y.n_paths, y.n_nodes
    env = np.broadcast_to(np.asarray(alpha_fn(y.times()), dtype=np.float64), (L,))
    violations = 0
    for e, sq in zip(env, node_square_norms(y)):
        violations += int(np.count_nonzero(sq > e))
    return violations / (P * L)


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
    bmo_budget: float | None = None,
    alpha_rate: float | None = None,
) -> DiagnosticsReport:
    """Norms of one solved ``(y, z)``, with ``bmo``, its
    :func:`bmo2_estimate`, and ``alpha_rate``, its
    :func:`check_alpha_envelope`."""
    lo, hi = z.span
    rep = DiagnosticsReport(
        sup_y=sup_norm(y.values),
        sp_y=s2_norm(y.values),
        mp_z=m2_norm(z.values, z.grid.steps[lo:hi]),
        bmo2_z=bmo,
        p=2.0,
        gamma=gamma,
        alpha_violation_rate=alpha_rate,
    )
    if bmo_budget is not None:
        rep.bmo_budget = bmo_budget
        rep.bmo_within_budget = bmo <= bmo_budget * (1.0 + 1e-9)
    return rep
