"""The benchmark's workloads: which config, at what size, which solver
calls, and the acceptance check each output must pass.

Every workload loads a shipped config, overrides only its size and the
ensemble seed, and calls the package's public solvers with the
certificate computed during set-up.  The tolerances are those of the
package's acceptance criteria, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable
from math import comb

import numpy as np

from mfbsde import meanfield


@dataclass(frozen=True)
class Workload:
    name: str
    config: str            # path relative to the repository root
    overrides: dict        # SolverConfig fields set on top of the config
    solvers: tuple         # (CLI selector, meanfield function name) pairs
    check: Callable        # (scenario, cfg, results, solve_s) -> (ok, details)

    def solve(self, scenario, ensemble, cfg, cert) -> dict:
        """Run the workload's solver calls; returns results by selector.
        Solvers are looked up on ``meanfield`` at call time so a tracer's
        patches apply."""
        return {
            selector: getattr(meanfield, fn)(scenario, ensemble, cfg, certificate=cert)
            for selector, fn in self.solvers
        }

    def working_set(self, scenario, cfg) -> dict:
        """Bytes of the main arrays, computed from shapes (float64).  The
        regression cache holds one design per node."""
        P, N, n, d = cfg.n_paths, cfg.n_steps, scenario.n, scenario.d
        design = P * comb(d + cfg.basis.degree, d) * 8
        arrays = {
            "brownian_increments": P * N * d * 8,
            "brownian_levels": P * (N + 1) * d * 8,
            "sweep_y": P * (N + 1) * n * 8,
            "sweep_z": P * (N + 1) * d * n * 8,
        }
        return arrays | {
            "regression_design_per_node": design,
            "regression_designs": design * N,
            "largest_array": max(design, *arrays.values()),
            "total": sum(arrays.values()) + design * N,
        }


def _check_linear(scenario, cfg, results, solve_s):
    """Criterion 3: closed form E[Y] = T - t, E[Z] = 1, inside 60 s."""
    res = results["global"]
    times = res.m_y.times()
    my_err = float(np.max(np.abs(res.m_y.values[:, 0] - (scenario.T - times))))
    mz_err = float(np.max(np.abs(res.m_z.values[:, 0, 0] - 1.0)))
    ok = my_err <= 0.02 and mz_err <= 0.03 and solve_s < 60.0
    return ok, {
        "mean_y_err": my_err,
        "mean_z_err": mz_err,
        "iterations_per_window": [t.iterations for t in res.trace],
    }


def _check_ex22(scenario, cfg, results, solve_s):
    """Criteria 5 and 6: Picard within ``2 tol + 1%`` of the stitched
    E[Y] curve, envelope violation rate below 0.005."""
    stitched, picard = results["global"], results["picard"]
    ref = stitched.m_y.values[:, 0]
    gaps = np.abs(ref - picard.m_y.values[:, 0])
    bound = 2.0 * cfg.tol_fp + 0.01 * np.maximum(1.0, np.abs(ref))
    rate = float(stitched.flags["alpha_envelope_rate"])
    ok = bool(np.all(gaps <= bound)) and rate < 0.005
    return ok, {
        "mean_y_err": float(np.max(gaps)),
        "max_gap_minus_bound": float(np.max(gaps - bound)),
        "alpha_envelope_rate": rate,
        "stitched_iterations": [t.iterations for t in stitched.trace],
        "picard_iterations": picard.trace.iterations,
    }


def _check_ex41(scenario, cfg, results, solve_s):
    """Criterion 9: converged within 20 outer iterations, mean of the
    last three contraction ratios below 0.9."""
    trace = results["multidim"].trace[0]
    tail = trace.ratios[-3:]
    avg_tail = float(np.mean(tail)) if tail else float("inf")
    ok = trace.converged and trace.iterations <= 20 and avg_tail < 0.9
    return ok, {
        "iterations": trace.iterations,
        "avg_last3_ratio": avg_tail,
    }


# Each workload exercises layers the others bypass; README.md gives the
# reasons and the predictions they support.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="linear-100k",
            config="configs/linear.cfg",
            overrides={"n_steps": 100, "n_paths": 100_000, "n_windows": 4, "tol_fp": 1e-4},
            solvers=(("global", "global_solve"),),
            check=_check_linear,
        ),
        Workload(
            name="ex22-crosscheck",
            config="configs/ex22.cfg",
            overrides={"n_paths": 40_000},
            solvers=(("global", "global_solve"), ("picard", "picard_global")),
            check=_check_ex22,
        ),
        Workload(
            name="ex41-multidim",
            config="configs/ex41.cfg",
            overrides={},
            solvers=(("multidim", "multidim_solve"),),
            check=_check_ex41,
        ),
    )
}
