"""Least-squares conditional expectation estimators.

The conditional expectation given the Brownian level at a node is
approximated by projection onto polynomial features of that level,
optionally fitted separately on quantile bins of the first coordinate
(a cheap localisation).  Normal equations are solved with a ridge term and
column scaling; a design that stays rank-deficient after the ridge raises
:class:`RegressionError` with a condition estimate.
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
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 2:
        raise InvalidInput("state must have shape (paths, d)")
    P, d = state.shape
    cols = [np.ones(P)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), deg):
            col = state[:, combo[0]].copy()
            for j in combo[1:]:
                col *= state[:, j]
            cols.append(col)
    return np.stack(cols, axis=1)


class NodeRegression:
    """Projector onto basis functions of one node's state.

    Degenerate states (all columns constant, e.g. the t=0 node) fall back
    to the plain path average, which is the exact conditional expectation
    given a trivial state.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis):
        state = np.asarray(state, dtype=np.float64)
        P = state.shape[0]
        self.basis = basis
        self._bins: list[tuple[np.ndarray, np.ndarray | None, np.ndarray]] = []
        if basis.n_bins > 1:
            edges = np.quantile(state[:, 0], np.linspace(0, 1, basis.n_bins + 1))
            idx = np.clip(np.searchsorted(edges, state[:, 0], side="right") - 1, 0,
                          basis.n_bins - 1)
            memberships = [np.flatnonzero(idx == b) for b in range(basis.n_bins)]
        else:
            memberships = [np.arange(P)]
        for members in memberships:
            if members.size == 0:
                self._bins.append((members, None, np.empty(0)))
                continue
            X = poly_features(state[members], basis.degree)
            scale = np.sqrt(np.mean(X * X, axis=0))
            keep = scale > 0.0
            scale = np.where(keep, scale, 1.0)
            Xs = X[:, keep] / scale[keep]
            if members.size <= int(keep.sum()):
                raise InvalidInput(
                    f"{members.size} paths cannot support {int(keep.sum())} features"
                )
            gram = Xs.T @ Xs
            gram[np.diag_indices_from(gram)] += basis.ridge * members.size
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                cond = float(np.linalg.cond(gram))
                raise RegressionError("design rank-deficient after ridge", cond)
            self._bins.append((members, chol, Xs))
        self._n_features = poly_features(state[:1], basis.degree).shape[1]
        self._n_paths = P

    @property
    def n_features(self) -> int:
        return self._n_features

    def fit(self, values: np.ndarray) -> np.ndarray:
        """Project ``values`` (shape (P,) or (P, m)) onto the basis; the
        fitted values have the input's shape."""
        vals = np.asarray(values, dtype=np.float64)
        squeeze = vals.ndim == 1
        if squeeze:
            vals = vals[:, None]
        if vals.shape[0] != self._n_paths:
            raise InvalidInput("value rows do not match the node's path count")
        fitted = np.empty_like(vals)
        for members, chol, Xs in self._bins:
            if members.size == 0:
                continue
            sub = vals[members]
            if chol is None or Xs.shape[1] == 0:
                fitted[members] = sub.mean(axis=0, keepdims=True)
                continue
            rhs = Xs.T @ sub
            c = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
            fitted[members] = Xs @ c
        return fitted[:, 0] if squeeze else fitted
