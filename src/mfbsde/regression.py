"""Least-squares conditional expectation estimators.

The conditional expectation given the Brownian level at a node is
approximated by projection onto polynomial features of that level,
optionally fitted separately on quantile bins of the first coordinate
(a cheap localisation).  The design depends only on the node's Brownian
state, so each node is factorised once.  With ``X`` the node's monomial
design, held as (features, paths) rows, ``s`` its root-mean-square row
scales and ``L`` the Cholesky factor of the ridged Gram matrix of the
scaled design ``diag(1/s) X``, a node keeps only the k x k map
``A = L^-1 diag(1/s)`` per bin and a view of its levels.  A fit is the
projection ``X^T (A^T (A (X v)))``, four matrix products and no solve.  The
design is formed again for each fit, or once per backward step by the
caller, into its buffer (where a new node also factorises it), and passed
in, so no (features, paths) array outlives a call.  A design that stays
rank-deficient after the ridge raises :class:`RegressionError` with a
condition estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, isfinite

import numpy as np

from .errors import InvalidInput, RegressionError

__all__ = ["RegressionBasis", "NodeRegression"]


@dataclass(frozen=True)
class RegressionBasis:
    """Feature recipe: total-degree polynomial in the state, optional bins."""

    degree: int = 3
    n_bins: int = 1
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidInput("degree must be >= 0")
        if self.n_bins < 1:
            raise InvalidInput("n_bins must be >= 1")
        if not isfinite(self.ridge):
            raise InvalidInput(f"ridge must be finite, not {self.ridge}")
        if self.ridge < 0.0:
            raise InvalidInput("ridge must be >= 0")

    def n_features(self, d: int) -> int:
        """Monomials of total degree <= ``degree`` in ``d`` coordinates."""
        return comb(d + self.degree, self.degree)


def _design_rows(state: np.ndarray, degree: int, out: np.ndarray | None = None) -> np.ndarray:
    """Monomials of total degree <= ``degree`` of ``state`` (P, d), constant
    first, as contiguous rows: (k, P) with ``k = binom(d + degree, degree)``,
    written into ``out`` when given.

    Each monomial is its lower-degree prefix times one coordinate (the
    degree-one monomials take the constant row as prefix), so the
    coordinates are multiplied left to right.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 2:
        raise InvalidInput("state must have shape (paths, d)")
    P, d = state.shape
    coords = np.ascontiguousarray(state.T)
    combos = [
        combo
        for deg in range(1, degree + 1)
        for combo in combinations_with_replacement(range(d), deg)
    ]
    rows = np.empty((1 + len(combos), P)) if out is None else out
    rows[0] = 1.0
    index = {(): 0}
    for r, combo in enumerate(combos, start=1):
        np.multiply(rows[index[combo[:-1]]], coords[combo[-1]], out=rows[r])
        index[combo] = r
    return rows


class NodeRegression:
    """Least-squares projection onto basis functions of one node's state.

    Built once per node; it keeps a view of the state (no copy) and, per
    bin, the k x k map ``A = L^-1 diag(1/s)``.  Features that vanish on
    every path of a bin (``s = 0``) are dropped from ``L``, and their
    columns of ``A`` are zero: the keep mask, folded into the map.  A
    single bin fits the values as given, without a member index; a binned
    node keeps one int32 index of its paths sorted by bin, and lays its
    design out in that order.  Degenerate states (all non-constant columns
    vanish, e.g. the t=0 node) keep the constant column only, so the fit is
    the plain path average up to the ridge.  The node is factorised from
    its design formed into ``design``, a caller's buffer, when given.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis, design=None):
        state = np.asarray(state, dtype=np.float64)
        P = state.shape[0]
        self.basis = basis
        self._state = state
        self._n_paths = P
        # paths sorted by bin, with each bin's (start, stop) in that order;
        # None for the single-bin case
        self._order: np.ndarray | None = None
        self._spans = [(0, P)]
        if basis.n_bins > 1:
            edges = np.quantile(state[:, 0], np.linspace(0, 1, basis.n_bins + 1))
            idx = np.clip(np.searchsorted(edges, state[:, 0], side="right") - 1, 0,
                          basis.n_bins - 1)
            self._order = np.argsort(idx, kind="stable").astype(np.int32)
            stops = np.cumsum(np.bincount(idx, minlength=basis.n_bins))
            self._spans = list(zip([0, *stops[:-1]], stops))
        rows = self.design(out=design)
        # one k x k factor per bin; None for an empty bin
        self._factors = [
            _factor(rows[:, lo:hi], basis.ridge) if hi > lo else None
            for lo, hi in self._spans
        ]

    @property
    def n_features(self) -> int:
        return self.basis.n_features(self._state.shape[1])

    def design(self, out: np.ndarray | None = None) -> np.ndarray:
        """The node's unscaled monomial design as (features, paths) rows,
        a binned node's paths in bin order; written into ``out`` (shape
        ``(n_features, paths)``) when given."""
        state = self._state if self._order is None else self._state[self._order]
        return _design_rows(state, self.basis.degree, out)

    def fit(self, values: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Project ``values`` (shape (P,) or (P, m)) onto the basis; the
        fitted values have the input's shape.  ``design`` is this node's
        :meth:`design`, formed here when not given."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape[0] != self._n_paths:
            raise InvalidInput("value rows do not match the node's path count")
        rows = self.design() if design is None else design
        if self._order is None:
            return _project(rows, self._factors[0], vals)
        fitted = np.empty_like(vals)
        for (lo, hi), a in zip(self._spans, self._factors):
            if a is not None:
                members = self._order[lo:hi]
                fitted[members] = _project(rows[:, lo:hi], a, vals[members])
        return fitted


def _project(x: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The fit ``x^T (A^T (A (x v)))`` of ``v`` on the design rows ``x``.
    Where the path sums ``x v`` leave doubles though ``v`` is finite, it
    fits ``v / max|v|`` and scales back, so a representable state fits."""
    with np.errstate(over="ignore", invalid="ignore"):
        xv = x @ v
    if not np.isfinite(xv).all():
        top = np.max(np.abs(v))
        if np.isfinite(top):
            return x.T @ (a.T @ (a @ (x @ (v / top)))) * top
    return x.T @ (a.T @ (a @ xv))


def _factor(rows: np.ndarray, ridge: float) -> np.ndarray:
    """``A = L^-1 diag(1/s)`` for the design ``rows`` (features, paths) with
    root-mean-square row scales ``s``, where ``L L^T = Xs^T Xs + ridge * P
    * I`` for the column-scaled design ``Xs``; rows with ``s = 0`` get zero
    columns.  The squares and the scaled design share one scratch block."""
    k, P = rows.shape
    xs_t = np.multiply(rows, rows)
    scale = np.sqrt(np.mean(xs_t, axis=1))
    keep = scale > 0.0
    if keep.all():
        np.divide(rows, scale[:, None], out=xs_t)
    else:
        xs_t = rows[keep] / scale[keep, None]
    k_keep = xs_t.shape[0]
    if P <= k_keep:
        raise InvalidInput(f"{P} paths cannot support {k_keep} features")
    gram = xs_t @ xs_t.T
    gram[np.diag_indices_from(gram)] += ridge * P
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        cond = float(np.linalg.cond(gram))
        raise RegressionError("design rank-deficient after ridge", cond)
    a = np.zeros((k_keep, k))
    a[:, keep] = np.linalg.inv(chol) / scale[keep]
    return a
