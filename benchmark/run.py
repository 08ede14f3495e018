#!/usr/bin/env python3
"""mfbsde benchmark: time to a converged mean-field solve, checked against
the acceptance tolerances, with an optional layer-by-layer trace.

Run from the repository root::

    python3 benchmark/run.py --workload linear-100k --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --workload all --seed 1

One run is one process.  It sets up the workload (config, grid, Brownian
ensemble from the seed, certificate) several times and keeps the median
set-up time, then repeats the workload's solver calls for about
``--seconds`` seconds on the last ensemble and reports medians.  Every
solve is checked and its result CSV hashed; solves of one seed must hash
identically.  With
``--trace 1`` untraced and traced solves alternate, and the per-layer
metrics come from the traced ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metric names.
"""

import os
import sys

# The BLAS thread count is fixed before numpy is first imported.  One
# thread was no slower than two on a 2-core box and spread less.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
LAYERS = ("core", "certificates", "dsl", "regression", "solver",
          "meanfield", "diagnostics", "config")


def _use_checkout_source():
    """Make ``import mfbsde`` load this checkout's source tree, ahead of
    any installed copy."""
    if not (SRC / "mfbsde" / "__init__.py").is_file():
        sys.exit(f"run.py: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# set-up and one solve attempt
# ---------------------------------------------------------------------------


def set_up(workload, seed):
    """Config, grid, Brownian ensemble and certificate: what ``setup_s``
    times.  Functions are looked up on their modules so tracing applies."""
    from mfbsde import certificates, config, core

    t0 = time.perf_counter()
    scenario, cfg, _, text = config.load_config(ROOT / workload.config)
    cfg = cfg.updated(seed=seed, **workload.overrides)
    grid = core.build_grid(scenario.T, cfg.n_steps)
    ensemble = core.simulate_brownian(grid, scenario.d, cfg.n_paths, cfg.seed)
    cert = certificates.certify(scenario)
    return (scenario, cfg, text, ensemble, cert), time.perf_counter() - t0


def attempt(workload, state, out_dir, tracer=None):
    """One run of the workload's solver calls, its check, and its output
    files.  An ``MFBSDEError`` counts as a failed attempt."""
    from mfbsde import config
    from mfbsde.errors import MFBSDEError

    scenario, cfg, text, ensemble, cert = state
    solve = workload.solve if tracer is None else tracer.wrap("bench.solve", workload.solve)
    root = None if tracer is None else len(tracer.spans)
    t0 = time.perf_counter()
    try:
        results = solve(scenario, ensemble, cfg, cert)
    except MFBSDEError as exc:
        return {"ok": False, "solve_s": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}"}
    solve_s = time.perf_counter() - t0
    ok, details = workload.check(scenario, cfg, results, solve_s)

    digests = {}
    for selector, result in results.items():
        manifest = config.manifest_for(workload.config, text, cfg, selector)
        csv_path = out_dir / f"{workload.name}-{selector}.csv"
        config.write_result_csv(csv_path, result, manifest)
        config.write_result_json(csv_path.with_suffix(".json"), result, manifest)
        digests[selector] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    out = {"ok": ok, "solve_s": solve_s, "details": details, "csv_sha256": digests}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, root, results)
    return out


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _count_fit(counters, args, _result):
    reg, values = args[0], args[1]
    P = values.shape[0]
    m = values.shape[1] if values.ndim > 1 else 1
    k = reg.n_features
    # two P x k products, two k x k solves with m right-hand sides
    counters["regression.fit_flop"] += 4 * P * k * m + 2 * (2 * k**3 / 3 + 2 * k * k * m)
    # design read by both products, values read once, fit written once
    counters["regression.fit_bytes"] += 8 * (2 * P * k + 2 * P * m)


def _count_sweep(counters, _args, result):
    counters["solver.inner_iterations"] += sum(result.inner_iterations)
    counters["solver.clamp_events"] += result.clamp_events


def _count_written(counters, args, _result):
    counters["config.bytes_written"] += Path(args[0]).stat().st_size


def install_tracer():
    """Patch every traced entry point where its callers look it up."""
    from mfbsde import certificates, config, core, diagnostics, dsl, meanfield, solver
    from mfbsde.regression import NodeRegression
    from tracing import Tracer

    tr = Tracer()
    tr.patch("core.simulate", [(core, "simulate_brownian")])
    tr.patch("certificates.certify", [(certificates, "certify"), (meanfield, "certify")])
    tr.patch("config.load", [(config, "load_config")])
    tr.patch("dsl.evaluate", [(dsl, "evaluate")])
    tr.patch("regression.factorise", [(NodeRegression, "__init__")])
    tr.patch("regression.fit", [(NodeRegression, "fit")], _count_fit)
    tr.patch("solver.sweep", [(solver.BackwardSolver, "solve")], _count_sweep)
    for name in ("global_solve", "local_solve", "picard_global", "multidim_solve"):
        tr.patch(f"meanfield.{name}", [(meanfield, name)])
    tr.patch("diagnostics.report", [(meanfield, "build_report")])
    tr.patch("diagnostics.bmo2", [(meanfield, "bmo2_estimate"), (diagnostics, "bmo2_estimate")])
    tr.patch("diagnostics.envelope",
             [(meanfield, "check_alpha_envelope"), (diagnostics, "check_alpha_envelope")])
    for name in ("write_result_csv", "write_result_json"):
        tr.patch("config.write", [(config, name)], _count_written)
    return tr


def _outer_iterations(results) -> int:
    total = 0
    for result in results.values():
        traces = result.trace if isinstance(result.trace, list) else [result.trace]
        total += sum(t.iterations for t in traces)
    return total


def layer_metrics(tr, root, results) -> dict:
    """Per-layer numbers of one traced attempt; spans under ``root`` are
    the solve, the ``config.write`` spans after it are the output."""
    inside = tr.summary(root)
    everything = tr.summary()
    solve_s = tr.duration(root)

    def get(name, key):
        return inside.get(name, {}).get(key, 0)

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, agg in inside.items():
        layer = name.split(".")[0]
        if layer in self_by_layer:
            self_by_layer[layer] += agg["self_s"]
    outer = _outer_iterations(results)
    c = tr.counters
    return {
        "dsl.evaluate_n": get("dsl.evaluate", "n"),
        "dsl.evaluate_s": get("dsl.evaluate", "total_s"),
        "regression.factorise_n": get("regression.factorise", "n"),
        "regression.factorise_s": get("regression.factorise", "total_s"),
        "regression.fit_n": get("regression.fit", "n"),
        "regression.fit_s": get("regression.fit", "total_s"),
        "regression.fit_gflop_computed": c["regression.fit_flop"] / 1e9,
        "regression.fit_gb_computed": c["regression.fit_bytes"] / 1e9,
        "solver.sweep_n": get("solver.sweep", "n"),
        "solver.sweep_s": get("solver.sweep", "total_s"),
        "solver.sweep_self_s": get("solver.sweep", "self_s"),
        "solver.inner_iterations": c["solver.inner_iterations"],
        "solver.clamp_events": c["solver.clamp_events"],
        "meanfield.outer_iterations": outer,
        "meanfield.sweeps_per_outer": get("solver.sweep", "n") / outer,
        "meanfield.self_s": self_by_layer["meanfield"],
        "diagnostics.report_n": get("diagnostics.report", "n"),
        "diagnostics.report_s": get("diagnostics.report", "total_s"),
        "diagnostics.bmo2_s": get("diagnostics.bmo2", "total_s"),
        "diagnostics.envelope_n": get("diagnostics.envelope", "n"),
        "diagnostics.envelope_s": get("diagnostics.envelope", "total_s"),
        "config.write_s": everything.get("config.write", {}).get("total_s", 0.0),
        "config.bytes_written": c["config.bytes_written"],
        "trace_accounted_frac": sum(self_by_layer.values()) / solve_s,
        "_self_by_layer": self_by_layer,
    }


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _llc_bytes():
    """Largest cache level visible to cpu0, from sysfs; None if unreadable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def machine_facts(working_set) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and returns nothing
        blas = {}
    llc = _llc_bytes()
    facts = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "llc_bytes": llc,
        "working_set_bytes": working_set,
    }
    if llc:
        four = 4 * llc
        reach = "reach" if working_set["largest_array"] >= four else "do not reach"
        facts["llc_note"] = (
            f"largest array {working_set['largest_array'] / 1e6:.1f} MB, working set "
            f"{working_set['total'] / 1e6:.1f} MB; arrays {reach} 4x the LLC "
            f"({four / 1e6:.0f} MB), so byte counts are computed, not measured bandwidth"
        )
    return facts


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = HERE / ".runs" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    warnings.simplefilter("ignore", RuntimeWarning)  # certificate overrides

    setup_tracer = install_tracer() if trace else None
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous ensemble before drawing the next
            state, secs = set_up(workload, seed)
            setup_times.append(secs)
    finally:
        if setup_tracer is not None:
            setup_tracer.restore()

    # Rounds of one untraced solve (plus one traced solve with --trace 1)
    # repeat while another round would end nearer to ``seconds`` than
    # stopping now, so a run lasts about ``seconds`` whatever a solve takes.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(attempt(workload, state, out_dir))
        if len(plain) == 1:
            # peak memory of a one-solve process, as the CLI runs; later
            # solves add allocator growth that depends on how many fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            with install_tracer() as tr:
                traced.append(attempt(workload, state, out_dir, tr))
            (out_dir / "spans.json").write_text(json.dumps(tr.dump()))
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break

    attempts = plain + traced
    # criterion 10: every solve of one seed writes byte-identical CSVs
    ok_digests = [a["csv_sha256"] for a in attempts if a["ok"]]
    reference = ok_digests[0] if ok_digests else None
    failed = sum(1 for a in attempts if not a["ok"] or a["csv_sha256"] != reference)
    scenario, cfg = state[0], state[1]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "solve_s": [a["solve_s"] for a in plain],
        "setup_s": setup_times,
        "csv_sha256": reference,
        "csv_identical_across_solves": all(d == reference for d in ok_digests),
        "checks": [a.get("details") or a.get("error") for a in attempts],
        "machine": machine_facts(workload.working_set(scenario, cfg)),
    }
    summary = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.median(a["solve_s"] for a in plain),
        "peak_rss_mb": peak_rss_mb,
        "mean_y_err": (attempts[0].get("details") or {}).get("mean_y_err"),
    }
    if trace:
        summary["traced_solve_s"] = statistics.median(a["solve_s"] for a in traced)
        # failed solves return no results to count, so only successful
        # traced solves give per-layer numbers
        layers = [a["layers"] for a in traced if "layers" in a]
        summary["layers"] = {
            key: statistics.median(layer[key] for layer in layers)
            for key in (layers[0] if layers else ()) if not key.startswith("_")
        }
        summary["self_by_layer"] = layers[-1]["_self_by_layer"] if layers else {}
        summary["setup_layers"] = _setup_layers(setup_tracer)
        record["traced_solve_s"] = [a["solve_s"] for a in traced]
    (out_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    return summary | {"record": record}


def _setup_layers(tr) -> dict:
    spans = {"core.simulate": [], "certificates.certify": []}
    for _, _, name, t0, t1 in tr.spans:
        if name in spans:
            spans[name].append(t1 - t0)
    return {f"{name}_s": statistics.median(v) for name, v in spans.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

E2E = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))


PER_LAYER = {
    "core.simulate_s": "s",
    "certificates.certify_s": "s",
    "dsl.evaluate_n": "count",
    "dsl.evaluate_s": "s",
    "regression.factorise_n": "count",
    "regression.factorise_s": "s",
    "regression.fit_n": "count",
    "regression.fit_s": "s",
    "regression.fit_gflop_computed": "GFLOP",
    "regression.fit_gb_computed": "GB",
    "solver.sweep_n": "count",
    "solver.sweep_s": "s",
    "solver.sweep_self_s": "s",
    "solver.inner_iterations": "count",
    "solver.clamp_events": "count",
    "meanfield.outer_iterations": "count",
    "meanfield.sweeps_per_outer": "ratio",
    "meanfield.self_s": "s",
    "diagnostics.report_n": "count",
    "diagnostics.report_s": "s",
    "diagnostics.bmo2_s": "s",
    "diagnostics.envelope_n": "count",
    "diagnostics.envelope_s": "s",
    "config.write_s": "s",
    "config.bytes_written": "B",
    "trace_accounted_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def per_layer_metrics(s) -> dict:
    """The ``--trace 1`` metrics, in BENCHMARK.json order."""
    values = dict(s["setup_layers"])
    values.update(s["layers"])
    values["trace_overhead_frac"] = (s["traced_solve_s"] - s["solve_s"]) / s["solve_s"]
    return {key: {"value": values[key], "unit": unit}
            for key, unit in PER_LAYER.items() if key in values}


def report(s, trace) -> dict:
    rec = s["record"]
    n = len(rec["solve_s"])
    print(f"workload {rec['workload']}  seed {rec['seed']}  {s['attempted']} solve(s), "
          f"{s['failed']} failed  ({BLAS_THREADS} BLAS thread)")
    print(f"  setup_s      {s['setup_s']:.4f} s   median of {len(rec['setup_s'])} set-ups")
    print(f"  solve_s      {s['solve_s']:.4f} s   median of {n} untraced solve(s), "
          f"range {min(rec['solve_s']):.3f}-{max(rec['solve_s']):.3f} s")
    print(f"  peak_rss_mb  {s['peak_rss_mb']:.1f} MB")
    if s["mean_y_err"] is not None:
        print(f"  mean_y_err   {s['mean_y_err']:.3e}     sup error of E[Y] against the reference")
    print(f"  fail_frac    {s['failed'] / s['attempted']:.3f}")
    print(f"  csv_sha256   {rec['csv_sha256']}  identical across solves: "
          f"{rec['csv_identical_across_solves']}")
    print(f"  machine      {json.dumps(rec['machine'], default=str)}")
    if not s["correct"]:
        print(f"  checks       {json.dumps(rec['checks'], default=str)}")
    if not trace:
        return {key: {"value": s[key], "unit": unit} for key, unit in E2E}
    metrics = per_layer_metrics(s)
    print(f"  traced solve_s {s['traced_solve_s']:.4f} s; self time by layer:")
    for layer, secs in s["self_by_layer"].items():
        print(f"    {layer:<13}{secs:9.4f} s  {secs / s['traced_solve_s']:7.1%}")
    for key, m in metrics.items():
        print(f"  {key:<32}{m['value']:.6g} {m['unit']}")
    return metrics


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="linear-100k, ex22-crosscheck, ex41-multidim, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _use_checkout_source()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    s = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics = report(s, args.trace)
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
