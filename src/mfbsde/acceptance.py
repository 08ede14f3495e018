"""Acceptance criteria: one callable per criterion, shared by the test
suite and the ``validate`` CLI command.

Each criterion is a check registered with ``_criterion``, which declares
its runtime budget and its tolerances once, at the registration.  One
runner times the whole check, judges it against its budget, and returns a
:class:`CriterionResult` with a machine-readable pass/fail, its runtime,
its tolerances as ``{key: value}``, and enough detail to see *why* it
passed or failed.  A check that raises a library error is a recorded
failure, with the error under ``details["error"]``, not an aborted run.
The tolerances are constants of this module: nothing outside it, no flag
or environment variable, can move them.  Heavy runs shared between
criteria are cached module-wide.
"""

from __future__ import annotations

import functools
import json
import math
import tempfile
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .certificates import build_chain, certify, ode_bound
from .config import manifest_for, write_result_csv
from .core import build_grid, simulate_brownian
from .errors import FixtureMissing, MFBSDEError
from .meanfield import global_solve, multidim_solve, picard_global, shift_fixed_point
from .scenario import (
    FORM_SPLIT_QUADRATIC,
    ScenarioSpec,
    example_21,
    example_22,
    example_41,
    linear_scenario,
)
from .solver import BackwardSolver, SolverConfig
from . import dsl

__all__ = ["CriterionResult", "run_criterion", "CRITERIA"]

_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def load_fixture(path) -> dict:
    """Read a pinned lattice fixture, its curves as float arrays."""
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


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime: float
    limit: float | None
    details: dict = dc_field(default_factory=dict)
    tolerances: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lim = f"/{self.limit:.0f}s" if self.limit else ""
        return f"{status} criterion {self.cid}: {self.name} ({self.runtime:.2f}s{lim})"

    def as_dict(self) -> dict:
        return {
            "criterion": self.cid,
            "name": self.name,
            "passed": self.passed,
            "runtime_seconds": self.runtime,
            "runtime_limit_seconds": self.limit,
            "details": _plain(self.details),
            "tolerances": self.tolerances,
        }


def _ensemble(scenario: ScenarioSpec, config: SolverConfig):
    """The Brownian ensemble of ``config`` on a uniform grid over the
    scenario's horizon."""
    grid = build_grid(scenario.T, config.n_steps)
    return simulate_brownian(grid, scenario.d, config.n_paths, config.seed)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# ---------------------------------------------------------------------------
# the criterion frame
# ---------------------------------------------------------------------------

CRITERIA: dict = {}


def _criterion(cid: int, name: str, limit: float | None = None, **tolerances):
    """Register a check as criterion ``cid``, with its runtime budget
    ``limit`` (seconds, or None) and its tolerances, declared here once.

    The check receives the tolerances as keyword arguments and returns
    ``(passed, details)``.  The registered runner times the whole check,
    fails it when the runtime reaches ``limit``, records a raised library
    error as a failure with ``details["error"]``, and reports the
    tolerances as given."""

    def register(check):
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            try:
                passed, details = check(**tolerances)
            except MFBSDEError as exc:
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            runtime = time.perf_counter() - t0
            passed = bool(passed) and (limit is None or runtime < limit)
            return CriterionResult(cid, name, passed, runtime, limit, details, dict(tolerances))

        run.__name__ = run.__qualname__ = check.__name__
        CRITERIA[cid] = run
        return run

    return register


def run_criterion(cid: int) -> CriterionResult:
    if cid not in CRITERIA:
        raise KeyError(f"no criterion {cid}")
    return CRITERIA[cid]()


# ---------------------------------------------------------------------------
# criterion 1: certificate algebra on random parameter tuples
# ---------------------------------------------------------------------------


@_criterion(
    1, "certificate algebra on 1000 random parameter tuples", limit=1.0,
    c1_linear_identity=1e-12, c1_root_identity=1e-10,
)
def criterion_1(c1_linear_identity, c1_root_identity):
    rng = np.random.default_rng(20240819)
    n_tuples = 1000
    worst_lin = 0.0
    worst_root = 0.0
    min_delta = math.inf
    ceiling_ok = True
    for _ in range(n_tuples):
        C = rng.uniform(0.0, 2.0)
        gamma = rng.uniform(0.5, 4.0)
        alpha = rng.uniform(0.0, 0.9)
        xi = rng.uniform(0.0, 1.0)
        T = rng.uniform(0.25, 2.0)
        ch = build_chain(C, gamma, alpha, xi, T)
        min_delta = min(min_delta, ch.Delta)
        worst_lin = max(
            worst_lin, abs(ch.one_minus_delta_A - ch.one_minus_delta_A_closed)
        )
        worst_root = max(worst_root, ch.root_residual)
        if ch.A > ch.A_ceiling * (1.0 + 1e-12):
            ceiling_ok = False
    passed = (
        min_delta >= 0.0
        and worst_lin <= c1_linear_identity
        and worst_root <= c1_root_identity
        and ceiling_ok
    )
    return passed, {
        "tuples": n_tuples,
        "min_discriminant": min_delta,
        "max_linear_identity_error": worst_lin,
        "max_root_identity_residual": worst_root,
        "root_ceiling_respected": ceiling_ok,
    }


# ---------------------------------------------------------------------------
# criterion 2: ODE envelope closed form vs numerical integration
# ---------------------------------------------------------------------------


def _rk4_envelope(ctilde: np.ndarray, T: np.ndarray, n_steps: int, n_out: int):
    """Backward-in-time RK4 for ``a' = -c - 3c*a`` on the normalised clock,
    in extended precision; returns values at ``n_out + 1`` evenly spaced
    times (t = T down to 0) per parameter pair.

    On the normalised clock the equation is ``a' = T(c + 3c a)``, linear,
    so one RK4 step is exactly the affine map ``a -> R a + S`` with
    ``z = 3cTh``, ``R = 1 + z + z^2/2 + z^3/6 + z^4/24`` and
    ``S = hTc (1 + z/2 + z^2/6 + z^3/24)``: the four stages collapse into
    one multiply and one add per step."""
    c = np.asarray(ctilde, dtype=np.longdouble)
    Tl = np.asarray(T, dtype=np.longdouble)
    a = c.copy()  # value at t = T
    h = np.longdouble(1.0) / n_steps
    keep = n_steps // n_out
    out = np.empty((n_out + 1, c.size), dtype=np.longdouble)
    out[0] = a

    z = h * 3.0 * c * Tl
    R = 1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0
    S = h * Tl * c * (1.0 + z / 2.0 + z * z / 6.0 + z**3 / 24.0)
    for step in range(1, n_steps + 1):
        a = R * a + S
        if step % keep == 0:
            out[step // keep] = a
    return out


@_criterion(
    2, "ODE envelope closed form vs fourth-order integration", limit=1.0,
    c2_sup_error=1e-8,
)
def criterion_2(c2_sup_error):
    combos = [(c, T) for c in (0.5, 1.0, 2.0) for T in (0.5, 1.0, 2.0)]
    cs = np.array([c for c, _ in combos])
    Ts = np.array([T for _, T in combos])
    n_out = 100
    numeric = _rk4_envelope(cs, Ts, 40_000, n_out)
    worst = 0.0
    for j, (c, T) in enumerate(combos):
        fn, _ = ode_bound(c, T)
        # normalised clock sigma runs t = T -> 0
        t_nodes = T * (1.0 - np.linspace(0.0, 1.0, n_out + 1))
        closed = fn(t_nodes)
        worst = max(worst, float(np.max(np.abs(closed - numeric[:, j].astype(np.float64)))))
    return worst <= c2_sup_error, {"combos": combos, "sup_error": worst}


# ---------------------------------------------------------------------------
# criterion 3 (and 10): linear mean-field problem vs closed form
# ---------------------------------------------------------------------------

_C3_SEED = 31003


def _c3_run():
    scenario = linear_scenario(
        a=0.0, b=0.0, c=0.0, dbar=1.0, g=0.0, terminal="w", T=1.0, name="linear-meanz"
    )
    config = SolverConfig(
        n_steps=100, n_paths=100_000, seed=_C3_SEED, n_windows=4,
        override_epsilon=True, tol_fp=1e-4,
    )
    return scenario, config, global_solve(scenario, _ensemble(scenario, config), config)


# criterion 3's solve, run once and shared with criterion 10
_c3_cached = functools.cache(_c3_run)


def _c3_csv_bytes(run) -> bytes:
    _, config, result = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "c3.csv"
        write_result_csv(out, result, manifest_for("<criterion-3>", "", config, "global"))
        return out.read_bytes()


@_criterion(
    3, "linear mean-integrand problem vs closed form (N=100, 1e5 paths)", limit=60.0,
    c3_mean_y=0.02, c3_mean_z=0.03,
)
def criterion_3(c3_mean_y, c3_mean_z):
    scenario, config, result = _c3_cached()
    times = result.m_y.times()
    my_err = float(np.max(np.abs(result.m_y.values[:, 0] - (scenario.T - times))))
    mz_err = float(np.max(np.abs(result.m_z.values[:, 0, 0] - 1.0)))
    return my_err <= c3_mean_y and mz_err <= c3_mean_z, {
        "sup_error_mean_y": my_err,
        "sup_error_mean_z": mz_err,
        "windows": result.windows,
        "iterations_per_window": [t.iterations for t in result.trace],
    }


# ---------------------------------------------------------------------------
# criterion 4: mean shift leaves the integrand untouched
# ---------------------------------------------------------------------------


@_criterion(
    4, "mean shift: integrand bit-identical, state matches closed form", limit=60.0,
    c4_mean_abs_y=0.02,
)
def criterion_4(c4_mean_abs_y):
    scenario = ScenarioSpec(
        name="shift-identity",
        n=1,
        d=1,
        T=1.0,
        terminal=dsl.parse("w", dsl.TERMINAL_VARS),
        f1=dsl.parse("0"),
        f2=dsl.parse("norm2(z)^2"),
        C=1.0,
        gamma=1.0,
        alpha=0.0,
        xi_bound=4.0,
        forms=frozenset({FORM_SPLIT_QUADRATIC}),
    )
    config = SolverConfig(
        n_steps=60, n_paths=60_000, seed=31004, override_epsilon=True, n_windows=1,
    )
    ensemble = _ensemble(scenario, config)
    result = shift_fixed_point(scenario, ensemble, config)
    # the base BSDE of f1 alone, solved afresh: the shift must not have
    # moved a single bit of its integrand
    f1 = dsl.Staged(scenario.f1, ("s", "z"))
    window = ensemble.grid.full_window()
    base = BackwardSolver(ensemble, config).solve(
        window, scenario.terminal_values(ensemble.state(window.hi)),
        lambda i, s, z: f1(s=s, z=z),
    )
    z_same = result.z.values.tobytes() == base.z.tobytes()
    times = result.m_y.times()
    target = ensemble.node_levels[:, :, 0] + (scenario.T - times)[:, None]
    err = float(np.max(np.mean(np.abs(result.y.values[:, :, 0] - target), axis=1)))
    return z_same and err <= c4_mean_abs_y, {
        "z_bitwise_identical": z_same,
        "sup_mean_abs_error_y": err,
    }


# ---------------------------------------------------------------------------
# criteria 5 and 6: Picard vs stitched fixed point, envelope violation rate
# ---------------------------------------------------------------------------

_C5_SEED = 31005


@functools.cache
def _c5_runs():
    scenario = example_22()
    config = SolverConfig(
        n_steps=80, n_paths=40_000, seed=_C5_SEED, tol_fp=1e-3, max_outer=40,
        n_windows=4, override_epsilon=True,
    )
    ensemble = _ensemble(scenario, config)
    stitched = global_solve(scenario, ensemble, config)
    return scenario, config, stitched, picard_global(scenario, ensemble, config)


@_criterion(
    5, "Picard scheme matches the stitched fixed point (time-dependent driver)",
    c5_extra_relative=0.01,
)
def criterion_5(c5_extra_relative):
    scenario, config, stitched, picard = _c5_runs()
    ref = stitched.m_y.values[:, 0]
    other = picard.m_y.values[:, 0]
    bound = 2.0 * config.tol_fp + c5_extra_relative * np.maximum(1.0, np.abs(ref))
    gaps = np.abs(ref - other)
    worst = float(np.max(gaps - bound))
    return worst <= 0.0, {
        "max_gap": float(np.max(gaps)),
        "max_gap_minus_bound": worst,
        "picard_iterations": picard.trace.iterations,
        "stitched_iterations": [t.iterations for t in stitched.trace],
    }


@_criterion(
    6, "ODE envelope violation rate below Monte Carlo tolerance",
    c6_violation_rate=0.005,
)
def criterion_6(c6_violation_rate):
    scenario, config, stitched, picard = _c5_runs()
    rate = float(stitched.flags["alpha_envelope_rate"])
    return rate < c6_violation_rate, {
        "violation_rate": rate,
        "ctilde": stitched.certificate.ctilde,
        "lambda": stitched.certificate.lam,
    }


# ---------------------------------------------------------------------------
# criteria 7 and 8: power-growth driver vs lattice fixture; contraction window
# ---------------------------------------------------------------------------

_C7_SEED = 31007


def _c7_scenario() -> ScenarioSpec:
    return example_21(alpha=0.5, T=0.5, C=0.25, gamma=1.0)


@_criterion(
    7, "power-growth driver vs pinned lattice reference", limit=120.0,
    c7_mean_y=0.02,
)
def criterion_7(c7_mean_y):
    fixture = load_fixture(_FIXTURE_DIR / "ex21_lattice.json")
    scenario = _c7_scenario()
    config = SolverConfig(
        n_steps=100, n_paths=60_000, seed=_C7_SEED, tol_fp=5e-4, n_windows=2,
        override_epsilon=True,
    )
    result = global_solve(scenario, _ensemble(scenario, config), config)

    # compare at the fixture's (coarser) nodes; both grids are uniform on
    # [0, T], so matching times sit at integer index ratios
    times = result.m_y.times()
    fix_t = fixture["times"]
    fix_my = fixture["m_y"]
    idx = np.round(fix_t / scenario.T * (len(times) - 1)).astype(int)
    aligned = bool(np.all(np.abs(times[idx] - fix_t) < 1e-12))
    my_main = result.m_y.values[idx, 0]
    scale = max(1.0, float(np.max(np.abs(fix_my))))
    err = float(np.max(np.abs(my_main - fix_my))) / scale
    return aligned and err <= c7_mean_y, {
        "relative_sup_error_mean_y": err,
        "fixture_nodes": int(len(fix_t)),
        "fixture_lattice_steps": fixture["n_steps"],
        "nodes_aligned": aligned,
    }


@_criterion(8, "contraction ratios below one on the terminal window")
def criterion_8():
    scenario = _c7_scenario()
    config = SolverConfig(
        n_steps=100, n_paths=40_000, seed=31008, tol_fp=1e-7, max_outer=25,
        n_windows=2, override_epsilon=True,
    )
    ensemble = _ensemble(scenario, config)
    cert = certify(scenario)
    # the analytic window width underflows doubles for these constants (its
    # logarithm is reported below); the contraction evidence is collected on
    # the terminal window, the right half of the horizon, which a stitched
    # solve of two windows solves first, under the explicit override flag
    result = global_solve(scenario, ensemble, config, certificate=cert)
    trace = result.trace[-1]
    ratios = trace.ratios
    consecutive = 0
    best = 0
    for r in ratios:
        consecutive = consecutive + 1 if r < 1.0 else 0
        best = max(best, consecutive)
    return trace.converged and best >= 3, {
        "ratios": [round(r, 5) for r in ratios],
        "max_consecutive_below_one": best,
        "iterations": trace.iterations,
        "window_width": trace.width,
        "certified_width_log": cert.chain.log_eps,
        "certified_width_underflows": cert.chain.eps_underflow,
    }


# ---------------------------------------------------------------------------
# criterion 9: multi-dimensional split solve
# ---------------------------------------------------------------------------


@_criterion(
    9, "vector split solve: contraction of the state-freezing iteration",
    c9_mean_ratio=0.9,
)
def criterion_9(c9_mean_ratio):
    scenario = example_41()
    config = SolverConfig(
        n_steps=50, n_paths=30_000, seed=31009, tol_fp=1e-3, max_outer=20, n_windows=1,
        override_epsilon=True,
    )
    result = multidim_solve(scenario, _ensemble(scenario, config), config)
    trace = result.trace[0]
    ratios = trace.ratios
    last3 = ratios[-3:]
    avg_last3 = float(np.mean(last3)) if last3 else math.inf
    passed = trace.converged and trace.iterations <= 20 and avg_last3 < c9_mean_ratio
    return passed, {
        "iterations": trace.iterations,
        "ratios": [round(r, 5) for r in ratios],
        "avg_last3_ratio": avg_last3,
        "converged": trace.converged,
    }


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns
# ---------------------------------------------------------------------------


@_criterion(10, "identical config and seed give byte-identical CSV output")
def criterion_10():
    # criterion 3's solve (run here if it is not cached) against one fresh
    # solve: two independent runs of the same config and seed
    first = _c3_csv_bytes(_c3_cached())
    second = _c3_csv_bytes(_c3_run())
    identical = first == second
    return identical, {"bytes": len(first), "identical": identical}
