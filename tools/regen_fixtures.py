#!/usr/bin/env python3
"""The binomial-lattice reference solver, and the writer of the pinned
fixtures under src/mfbsde/fixtures/ that the acceptance criteria read.

:func:`brute_force_1d` solves scalar problems on a recombining binomial
lattice, on different numerics than the package's Monte Carlo solvers:
conditional expectations are exact half-sums, integrand values are central
differences, and the ensemble means use binomial weights.  The mean curves
are iterated to their fixed point.  First-order accurate in the step;
halving the step roughly halves the error.

The stored curves come from a lattice run at a resolution far finer than
anything the Monte Carlo solver uses, then subsampled onto nodes that
align with the acceptance solver grid.  Each fixture records the
generation parameters and a small grid-refinement report so the pin can be
audited without rerunning anything.

Run from the repository root:

    python3 tools/regen_fixtures.py
"""
from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from mfbsde import dsl
from mfbsde.errors import InvalidInput, MaxIterations
from mfbsde.scenario import ScenarioSpec, example_21

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "mfbsde" / "fixtures"

# power-growth desk instance pinned by the acceptance suite
ALPHA = 0.5
T = 0.5
C = 0.25
GAMMA = 1.0
LATTICE_STEPS = 2000
DOWNSAMPLE = 20  # 2000 / 20 = 100 stored intervals, matching the solver grid
MEAN_TOL = 1e-8


# ---------------------------------------------------------------------------
# binomial lattice
# ---------------------------------------------------------------------------


@dataclass
class BruteForceResult:
    times: np.ndarray
    m_y: np.ndarray
    m_z: np.ndarray
    y0: float
    iterations: int
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
            break
    else:
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
        history=history,
        n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def save_fixture(path, result: BruteForceResult, params: dict, stride: int = 1) -> None:
    """Pin a lattice run (with its generation parameters) as JSON, its
    curves at every ``stride``-th node."""
    payload = {
        "params": params,
        "n_steps": result.n_steps,
        "iterations": result.iterations,
        "final_gap": result.history[-1],
        "times": result.times[::stride].tolist(),
        "m_y": result.m_y[::stride].tolist(),
        "m_z": result.m_z[::stride].tolist(),
        "y0": result.y0,
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def regen_ex21_lattice() -> Path:
    scenario = example_21(alpha=ALPHA, T=T, C=C, gamma=GAMMA)

    # refinement ladder: the coarse runs only feed the convergence report
    report = {}
    prev = None
    for n in (LATTICE_STEPS // 4, LATTICE_STEPS // 2, LATTICE_STEPS):
        t0 = time.perf_counter()
        res = brute_force_1d(scenario, n, tol_mean=MEAN_TOL)
        elapsed = time.perf_counter() - t0
        report[f"m_y0_at_{n}"] = res.y0
        print(
            f"  lattice N={n:5d}: {elapsed:6.1f}s, {res.iterations} mean sweeps, "
            f"m_y(0) = {res.y0:.10f}"
        )
        if prev is not None:
            report[f"step_change_{n}"] = abs(res.y0 - prev.y0)
        prev = res

    fine = prev
    assert fine is not None and fine.n_steps == LATTICE_STEPS
    changes = [v for k, v in report.items() if k.startswith("step_change_")]
    report["halving_factor"] = changes[1] / changes[0]
    print(f"  refinement factor per halving: {report['halving_factor']:.3f}")

    params = {
        "scenario": scenario.name,
        "alpha": ALPHA,
        "T": T,
        "C": C,
        "gamma": GAMMA,
        "terminal": "0.5*cos(w)",
        "lattice_steps": LATTICE_STEPS,
        "downsample": DOWNSAMPLE,
        "mean_tolerance": MEAN_TOL,
        "refinement": report,
    }
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    out = FIXTURE_DIR / "ex21_lattice.json"
    save_fixture(out, fine, params, stride=DOWNSAMPLE)
    nodes = fine.times[::DOWNSAMPLE].size
    print(f"  wrote {out} ({out.stat().st_size} bytes, {nodes} nodes)")
    return out


def main() -> int:
    print("regenerating ex21_lattice.json ...")
    regen_ex21_lattice()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
