"""The benchmark harness reaches into the package by name: its tracer
patches functions where the solvers look them up, its workloads name the
solvers on ``meanfield``, and its checks read result fields.  These tests
keep those names alive, so a change to the package cannot silently leave
the harness patching nothing or reading a field that is gone."""

import importlib.util
import os
import pkgutil
import sys
from pathlib import Path

import pytest

import mfbsde
from mfbsde import config, core, diagnostics, meanfield

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
TINY = {"n_steps": 8, "n_paths": 500}


@pytest.fixture(scope="module")
def bench():
    """``benchmark/run.py`` and ``benchmark/workloads.py``, imported with the
    benchmark directory on ``sys.path``; the path, the environment (run.py
    pins the BLAS thread count in it) and the module table are restored
    afterwards."""
    path, environ, modules = list(sys.path), dict(os.environ), set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import workloads

        yield run, workloads
    finally:
        sys.path[:] = path
        os.environ.clear()
        os.environ.update(environ)
        for name in set(sys.modules) - modules:
            if str(BENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]


def test_every_tracer_target_resolves_and_is_restored(bench):
    run, _ = bench
    before = {name: getattr(meanfield, name)
              for name in ("check_alpha_envelope", "bmo2_estimate", "build_report", "certify")}
    tr = run.install_tracer()  # getattr on every target raises if one is gone
    try:
        assert all(getattr(meanfield, name) is not fn for name, fn in before.items())
    finally:
        tr.restore()
    assert all(getattr(meanfield, name) is fn for name, fn in before.items())


def test_the_tracers_local_solve_is_the_global_solver():
    # the tracer patches ``meanfield.local_solve`` by name: it is one more
    # name of the stitched solver, which no module exports, so it cannot
    # grow into a second solver while the harness still asks for it
    assert meanfield.local_solve is meanfield.global_solve
    modules = [mfbsde] + [importlib.import_module(f"mfbsde.{m.name}")
                          for m in pkgutil.iter_modules(mfbsde.__path__)]
    assert [m.__name__ for m in modules if "local_solve" in getattr(m, "__all__", ())] == []


def test_every_workload_solver_is_a_meanfield_function(bench):
    _, workloads = bench
    names = [fn for w in workloads.WORKLOADS.values() for _, fn in w.solvers]
    assert names and all(callable(getattr(meanfield, fn)) for fn in names)


def _tiny_attempt(workload):
    scenario, cfg, _, _ = config.load_config(BENCH.parent / workload.config)
    cfg = cfg.updated(**{**workload.overrides, **TINY})
    grid = core.build_grid(scenario.T, cfg.n_steps)
    ensemble = core.simulate_brownian(grid, scenario.d, cfg.n_paths, cfg.seed)
    return scenario, cfg, ensemble, meanfield.certify(scenario)


def test_a_traced_global_solve_is_one_solver_span(bench):
    # the tracer wraps each name of the stitched solver apart: a solve
    # called by one name is one span under that name, not one under each
    run, workloads = bench
    scenario, cfg, ensemble, cert = _tiny_attempt(workloads.WORKLOADS["linear-100k"])
    with run.install_tracer() as tr:
        meanfield.global_solve(scenario, ensemble, cfg, cert)
    summary = tr.summary()
    assert summary["meanfield.global_solve"]["n"] == 1
    assert "meanfield.local_solve" not in summary


@pytest.mark.parametrize("name", ["linear-100k", "ex22-crosscheck", "ex41-multidim"])
def test_a_traced_solve_takes_each_diagnostic_once_per_solver_call(bench, name):
    run, workloads = bench
    workload = workloads.WORKLOADS[name]
    scenario, cfg, ensemble, cert = _tiny_attempt(workload)
    with run.install_tracer() as tr:
        results = workload.solve(scenario, ensemble, cfg, cert)
    calls = len(workload.solvers)
    summary = tr.summary()
    assert summary["diagnostics.envelope"]["n"] == calls
    assert summary["diagnostics.bmo2"]["n"] == calls
    assert summary["diagnostics.report"]["n"] == calls
    # the workload's check reads its result fields; the tiny size may miss
    # its tolerances, but every field it reads must exist
    ok, details = workload.check(scenario, cfg, results, 0.0)
    assert isinstance(ok, bool) and isinstance(details, dict)
    if "picard" in results:
        assert results["picard"].trace.iterations >= 1
    assert meanfield.check_alpha_envelope is diagnostics.check_alpha_envelope
