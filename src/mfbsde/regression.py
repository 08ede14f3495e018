"""Least-squares conditional expectation estimators.

The conditional expectation given the Brownian level at a node is
approximated by projection onto polynomial features of that level,
optionally fitted separately on quantile bins of the first coordinate
(a cheap localisation).  The design depends only on the node's Brownian
state, so each node is factorised once: with ``L`` the Cholesky factor of
the ridged Gram matrix of the column-scaled design ``Xs``, the node keeps
``Q^T = L^-1 Xs^T`` and every fit is the projection ``Q (Q^T v)``, two
matrix products and no solve.  A design that stays rank-deficient after the
ridge raises :class:`RegressionError` with a condition estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInput, RegressionError

__all__ = ["RegressionBasis", "NodeRegression", "poly_features"]


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
        if self.ridge < 0.0:
            raise InvalidInput("ridge must be >= 0")


def poly_features(state: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= ``degree``; constant column first.

    ``state`` has shape (P, d); the result has shape (P, k) with
    ``k = binom(d + degree, degree)``.
    """
    return _design_rows(state, degree).T


def _design_rows(state: np.ndarray, degree: int) -> np.ndarray:
    """The monomials of :func:`poly_features` as contiguous rows, (k, P).

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
    rows = np.empty((1 + len(combos), P))
    rows[0] = 1.0
    index = {(): 0}
    for r, combo in enumerate(combos, start=1):
        np.multiply(rows[index[combo[:-1]]], coords[combo[-1]], out=rows[r])
        index[combo] = r
    return rows


class NodeRegression:
    """Projector onto basis functions of one node's state.

    Built once per node; each bin keeps ``Q^T = L^-1 Xs^T`` as a
    C-contiguous ``(k, paths in bin)`` array.  A single bin fits the values
    as given, without a member index.  Degenerate states (all non-constant
    columns vanish, e.g. the t=0 node) keep the constant column only, so the
    fit is the plain path average up to the ridge.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis):
        state = np.asarray(state, dtype=np.float64)
        P = state.shape[0]
        self.basis = basis
        # (members, Q^T) per bin; members is None for the single-bin case
        self._bins: list[tuple[np.ndarray | None, np.ndarray | None]] = []
        if basis.n_bins > 1:
            edges = np.quantile(state[:, 0], np.linspace(0, 1, basis.n_bins + 1))
            idx = np.clip(np.searchsorted(edges, state[:, 0], side="right") - 1, 0,
                          basis.n_bins - 1)
            for b in range(basis.n_bins):
                members = np.flatnonzero(idx == b)
                qt = _projector(state[members], basis) if members.size else None
                self._bins.append((members, qt))
        else:
            self._bins.append((None, _projector(state, basis)))
        self._n_features = poly_features(state[:1], basis.degree).shape[1]
        self._n_paths = P

    @property
    def n_features(self) -> int:
        return self._n_features

    def fit(self, values: np.ndarray) -> np.ndarray:
        """Project ``values`` (shape (P,) or (P, m)) onto the basis; the
        fitted values have the input's shape."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape[0] != self._n_paths:
            raise InvalidInput("value rows do not match the node's path count")
        members, qt = self._bins[0]
        if members is None:
            return qt.T @ (qt @ vals)
        fitted = np.empty_like(vals)
        for members, qt in self._bins:
            if qt is not None:
                fitted[members] = qt.T @ (qt @ vals[members])
        return fitted


def _projector(state: np.ndarray, basis: RegressionBasis) -> np.ndarray:
    """``Q^T = L^-1 Xs^T`` for the column-scaled design ``Xs`` of ``state``,
    where ``L L^T = Xs^T Xs + ridge * P * I``."""
    rows = _design_rows(state, basis.degree)
    P = rows.shape[1]
    scale = np.sqrt(np.mean(rows * rows, axis=1))
    keep = scale > 0.0
    xs_t = rows[keep] / scale[keep, None]
    k = xs_t.shape[0]
    if P <= k:
        raise InvalidInput(f"{P} paths cannot support {k} features")
    gram = xs_t @ xs_t.T
    gram[np.diag_indices_from(gram)] += basis.ridge * P
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        cond = float(np.linalg.cond(gram))
        raise RegressionError("design rank-deficient after ridge", cond)
    return np.linalg.inv(chol) @ xs_t
