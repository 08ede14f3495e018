#!/usr/bin/env python3
"""Regenerate the pinned lattice reference fixtures under src/mfbsde/fixtures/,
the package data the acceptance criteria read.

The stored curves come from the binomial-lattice oracle at a resolution
far finer than anything the Monte Carlo solver uses, then subsampled onto
nodes that align with the acceptance solver grid.  Each fixture records
the generation parameters and a small grid-refinement report so the pin
can be audited without rerunning anything.

Run from the repository root:

    python3 tools/regen_fixtures.py
"""
from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from mfbsde.oracle import brute_force_1d, save_fixture
from mfbsde.scenario import example_21

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "mfbsde" / "fixtures"

# power-growth desk instance pinned by the acceptance suite
ALPHA = 0.5
T = 0.5
C = 0.25
GAMMA = 1.0
LATTICE_STEPS = 2000
DOWNSAMPLE = 20  # 2000 / 20 = 100 stored intervals, matching the solver grid
MEAN_TOL = 1e-8


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

    sl = slice(None, None, DOWNSAMPLE)
    stored = dataclasses.replace(
        fine,
        times=fine.times[sl],
        m_y=fine.m_y[sl],
        m_z=fine.m_z[sl],
    )
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
    save_fixture(out, stored, params)
    print(f"  wrote {out} ({out.stat().st_size} bytes, {stored.times.size} nodes)")
    return out


def main() -> int:
    print("regenerating ex21_lattice.json ...")
    regen_ex21_lattice()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
