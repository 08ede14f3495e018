"""Closed-form solution of the scalar linear mean-field problem, for tests.

:func:`linear_closed_form` solves scalar linear drivers
``a*y + b*ybar + c*z + dbar*zbar + g`` with affine-in-W terminal data by
reducing the affine ansatz to two one-dimensional ODEs with explicit
solutions (stable ``expm1`` branches at the removable singularities).
Nothing in the package calls it, so it lives with the tests that do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfbsde.errors import InvalidInput


@dataclass(frozen=True)
class LinearMeanFieldSpec:
    """Scalar linear driver ``a*y + b*ybar + c*z + dbar*zbar + g`` with
    terminal data ``p + q*W_T`` on horizon ``T``."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    dbar: float = 0.0
    g: float = 0.0
    p: float = 0.0
    q: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        if not (self.T > 0.0):
            raise InvalidInput("T must be positive")


def _int_exp(r: float, tau: np.ndarray) -> np.ndarray:
    """Stable ``(exp(r*tau) - 1) / r`` with the ``r -> 0`` limit ``tau``."""
    if r == 0.0:
        return np.asarray(tau, dtype=np.float64).copy()
    return np.expm1(r * np.asarray(tau, dtype=np.float64)) / r


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution ``Y_t = phi(t) + psi(t) * W_t``, ``Z_t = psi(t)``."""

    spec: LinearMeanFieldSpec

    def psi(self, t) -> np.ndarray:
        sp = self.spec
        tau = sp.T - np.asarray(t, dtype=np.float64)
        return sp.q * np.exp(sp.a * tau)

    def phi(self, t) -> np.ndarray:
        sp = self.spec
        tau = sp.T - np.asarray(t, dtype=np.float64)
        r = sp.a + sp.b
        hom = sp.p * np.exp(r * tau)
        drive = sp.g * _int_exp(r, tau)
        cross = (sp.c + sp.dbar) * sp.q * np.exp(sp.a * tau) * _int_exp(sp.b, tau)
        return hom + drive + cross

    def y(self, t, w) -> np.ndarray:
        return self.phi(t) + self.psi(t) * np.asarray(w, dtype=np.float64)

    def m_y(self, t) -> np.ndarray:
        # E[W_t] = 0, so the mean state is the deterministic part
        return self.phi(t)

    def m_z(self, t) -> np.ndarray:
        return self.psi(t)


def linear_closed_form(spec: LinearMeanFieldSpec) -> LinearSolution:
    """Exact solution of the linear mean-field problem."""
    return LinearSolution(spec)
