"""Independent reference solution for validating the regression solvers.

:func:`brute_force_1d` solves scalar problems on a recombining binomial
lattice, on different numerics than the main pipeline: conditional
expectations are exact half-sums, integrand values are central
differences, and the ensemble means use binomial weights.  The mean curves
are iterated to their fixed point.  First-order accurate in the step;
halving the step roughly halves the error.  Its runs are pinned as JSON
fixtures (:func:`save_fixture`, :func:`load_fixture`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsl
from .errors import FixtureMissing, InvalidInput, MaxIterations
from .scenario import ScenarioSpec

__all__ = [
    "BruteForceResult",
    "brute_force_1d",
    "save_fixture",
    "load_fixture",
]


# ---------------------------------------------------------------------------
# binomial lattice brute force
# ---------------------------------------------------------------------------


@dataclass
class BruteForceResult:
    times: np.ndarray
    m_y: np.ndarray
    m_z: np.ndarray
    y0: float
    iterations: int
    converged: bool
    history: list[float]
    n_steps: int


def _lattice_weights(n_steps: int) -> list[np.ndarray]:
    """Binomial probabilities level by level (iterative halving, exact)."""
    weights = [np.array([1.0])]
    for _ in range(n_steps):
        prev = weights[-1]
        nxt = np.zeros(prev.size + 1)
        nxt[:-1] += 0.5 * prev
        nxt[1:] += 0.5 * prev
        weights.append(nxt)
    return weights


def brute_force_1d(
    scenario: ScenarioSpec,
    n_steps: int,
    tol_mean: float = 1e-8,
    max_outer: int = 60,
) -> BruteForceResult:
    """Scalar reference solve on a recombining binomial lattice.

    The walk takes steps of ``+-sqrt(h)`` with probability one half, so at
    level i the states are ``(2j - i) * sqrt(h)``.  Backward induction with
    the mean curves frozen gives exact conditional expectations (half-sums)
    and central-difference integrand values; the mean curves then iterate
    to their fixed point.  The state equation at each node is solved by
    plain damped fixed-point passes, where the Monte Carlo engine takes
    Newton steps, and none of the regression machinery is shared.
    """
    if scenario.n != 1 or scenario.d != 1:
        raise InvalidInput("the lattice oracle is scalar-only")
    if scenario.f is None:
        raise InvalidInput("the lattice oracle needs a single-generator scenario")
    if n_steps < 2:
        raise InvalidInput("need at least two lattice steps")

    gen = scenario.f
    T = scenario.T
    h = T / n_steps
    sqh = math.sqrt(h)
    times = np.linspace(0.0, T, n_steps + 1)
    weights = _lattice_weights(n_steps)

    levels = [(2.0 * np.arange(i + 1) - i) * sqh for i in range(n_steps + 1)]
    xi = scenario.terminal_values(levels[-1][:, None])[:, 0]

    m_y = np.full(n_steps + 1, float(np.sum(weights[-1] * xi)))
    m_z = np.zeros(n_steps + 1)
    history: list[float] = []
    converged = False
    y_levels: list[np.ndarray] = []
    z_levels: list[np.ndarray] = []

    for it in range(1, max_outer + 1):
        y_levels = [np.empty(i + 1) for i in range(n_steps + 1)]
        z_levels = [np.empty(i + 1) for i in range(n_steps + 1)]
        y_levels[-1] = xi.copy()
        for i in range(n_steps - 1, -1, -1):
            up = y_levels[i + 1][1:]
            dn = y_levels[i + 1][:-1]
            cond = 0.5 * (up + dn)
            z = (up - dn) / (2.0 * sqh)
            z_levels[i] = z
            t = times[i]
            y = cond.copy()
            prev_res = math.inf
            for _ in range(80):
                f = dsl.evaluate(gen, t, y, m_y[i], z, m_z[i], n=1, d=1)[:, 0]
                y_new = cond + h * f
                res = float(np.max(np.abs(y_new - y)))
                if res > prev_res:
                    y_new = 0.5 * (y_new + y)
                    res = float(np.max(np.abs(y_new - y)))
                y = y_new
                prev_res = res
                if res <= 1e-12 * max(1.0, float(np.max(np.abs(y)))):
                    break
            y_levels[i] = y
        z_levels[-1] = np.concatenate([z_levels[-2], z_levels[-2][-1:]])

        new_m_y = np.array(
            [float(np.sum(weights[i] * y_levels[i])) for i in range(n_steps + 1)]
        )
        new_m_z = np.array(
            [float(np.sum(weights[i] * z_levels[i][: i + 1])) for i in range(n_steps)]
            + [0.0]
        )
        new_m_z[-1] = new_m_z[-2]
        gap = float(
            max(np.max(np.abs(new_m_y - m_y)), np.max(np.abs(new_m_z - m_z)))
        )
        history.append(gap)
        m_y, m_z = new_m_y, new_m_z
        if gap <= tol_mean:
            converged = True
            break

    if not converged:
        raise MaxIterations(
            f"lattice mean iteration stalled at gap {history[-1]:.3e} "
            f"after {len(history)} sweeps",
            history,
        )

    return BruteForceResult(
        times=times,
        m_y=m_y,
        m_z=m_z,
        y0=float(y_levels[0][0]),
        iterations=len(history),
        converged=converged,
        history=history,
        n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def save_fixture(path, result: BruteForceResult, params: dict) -> None:
    """Pin a lattice run (with its generation parameters) as JSON."""
    payload = {
        "params": params,
        "n_steps": result.n_steps,
        "iterations": result.iterations,
        "final_gap": result.history[-1],
        "times": result.times.tolist(),
        "m_y": result.m_y.tolist(),
        "m_z": result.m_z.tolist(),
        "y0": result.y0,
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_fixture(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FixtureMissing(
            f"reference fixture {p} is missing; regenerate it with "
            "'python tools/regen_fixtures.py'"
        )
    data = json.loads(p.read_text())
    data["times"] = np.asarray(data["times"], dtype=np.float64)
    data["m_y"] = np.asarray(data["m_y"], dtype=np.float64)
    data["m_z"] = np.asarray(data["m_z"], dtype=np.float64)
    return data
