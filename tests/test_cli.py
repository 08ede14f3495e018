"""Command line interface: exit codes, outputs, and overrides."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfbsde import cli
from mfbsde.cli import _SOLVERS, main
from mfbsde.config import _OUTPUT_KEYS, _SOLVER_KEYS, load_config
from mfbsde.errors import MFBSDEError
from mfbsde.solver import BackwardSolver
from strategies import texts_of_depth

TINY = """
[scenario]
name = tiny
T = 1.0
terminal = w
f = 1.0*zbar
[constants]
C = 1.0
gamma = 1.0
alpha = 0.0
xi_bound = 4.0
[solver]
steps = 8
paths = 300
seed = 3
n_windows = 1
override_epsilon = true
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return p


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "mfbsde" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["solve", "--no-such-flag"]) == 2


def test_bench_is_usage_error(tiny_cfg, capsys):
    # benchmark/run.py is the one timing harness, and --solver shift
    # solves the deterministic-shift case in two sweeps
    for argv, name in [(["bench"], "bench"),
                       (["solve", "--solver", "shift-simple"], "shift-simple")]:
        assert main([*argv, "--config", str(tiny_cfg)]) == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_unknown_solver_is_usage_error(tiny_cfg, capsys):
    assert main(["solve", "--config", str(tiny_cfg), "--solver", "nope"]) == 2


def test_local_selector_is_refused(tiny_cfg, tmp_path, capsys):
    # the local solve is --solver global on one window: "local" is no
    # selector, and argparse names the four that are
    out = tmp_path / "out"
    argv = ["solve", "--config", str(tiny_cfg), "--out-dir", str(out), "--solver", "local"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    choices = re.search(r"invalid choice: 'local' \(choose from (.*)\)", err).group(1)
    assert [c.strip(" '") for c in choices.split(",")] == ["global", "multidim", "picard", "shift"]
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "ghost.cfg")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: ")
    return err


def test_config_setting_the_retired_track_ball_key_exits_2(tmp_path, capsys):
    p = tmp_path / "old.cfg"
    p.write_text(TINY + "track_ball = false\n")
    assert main(["certify", "--config", str(p)]) == 2
    assert "unknown config key 'track_ball' in [solver]" in _one_error_line(capsys)


def test_config_naming_a_directory_exits_2(tmp_path, capsys):
    assert main(["certify", "--config", str(tmp_path)]) == 2
    assert "cannot read config file" in _one_error_line(capsys)


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(TINY.replace("name = tiny", "name = caf\u00e9").encode("latin-1"))
    assert main(["solve", "--config", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert "cannot read config file" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_out_dir_naming_a_file_exits_2(command, tiny_cfg, tmp_path, capsys, monkeypatch):
    # found before the ensemble is simulated
    monkeypatch.setattr(cli, "simulate_brownian",
                        lambda *args: pytest.fail("simulated before the output directory"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--config", str(tiny_cfg), "--out-dir", str(taken)]) == 2
    assert "File exists" in _one_error_line(capsys)


def test_every_flag_sets_a_config_key():
    tables = {"solver": _SOLVER_KEYS, "output": _OUTPUT_KEYS}
    assert all(key in tables[section] for section, key in cli._FLAGS.values())


@pytest.mark.parametrize("flag,key,value", [
    ("--paths", "paths", "abc"), ("--steps", "steps", "1.5"), ("--seed", "seed", "x"),
    ("--windows", "n_windows", "two"),
])
def test_malformed_flag_value_is_one_error_line_naming_the_key(
        flag, key, value, tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(tiny_cfg), "--out-dir", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"error: bad value for '{key}': '{value}'\n"
    assert not out.exists()


def test_terminal_beyond_the_dimension_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(TINY.replace("terminal = w\n", "d = 2\nterminal = w3\n")
                 .replace("f = 1.0*zbar", "f = norm2(zbar)"))
    assert main(["certify", "--config", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys).splitlines() == [
        "error: terminal reads ['w3'], beyond the d = 2 coordinates w1 .. w2"]
    assert not (tmp_path / "out").exists()


def test_exponent_that_reads_a_slot_exits_2_when_the_config_loads(tmp_path, capsys):
    # refused by the shape rules before any path is simulated, so no
    # failure record is written
    p = tmp_path / "bad.cfg"
    p.write_text(TINY.replace("f = 1.0*zbar", "f = 1 + 0.1*(1 + abs(y))^abs(sin(norm2(z)))"))
    assert main(["solve", "--config", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert _one_error_line(capsys).splitlines() == [
        "error: exponent must be a constant scalar in '(1 + abs(y))^abs(sin(norm2(z)))'"]
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "typo.cfg"
    p.write_text(TINY.replace("seed = 3", "sed = 3"))
    rc = main(["solve", "--config", str(p), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key 'sed' in [solver]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_alpha_out_of_range_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(TINY.replace("alpha = 0.0", "alpha = 1.0"))
    rc = main(["certify", "--config", str(p), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["T", "terminal_clamp", "C", "gamma", "xi_bound", "ctilde",
                                 "tol_fp", "z_clamp", "ridge"])
def test_non_finite_number_exits_2(key, value, tmp_path, capsys):
    # the key's line in TINY is replaced, or the key added to its section
    section = {"T": "scenario", "terminal_clamp": "scenario", "tol_fp": "solver",
               "z_clamp": "solver", "ridge": "solver"}.get(key, "constants")
    text = re.sub(rf"^{key} = .*\n", "", TINY, flags=re.M)
    p = tmp_path / "bad.cfg"
    p.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    rc = main(["solve", "--config", str(p), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert _one_error_line(capsys).splitlines() == [f"error: {key} must be finite, not {value}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,config_seed,flags", [
    ("solve", "-1", []), ("certify", "-1", []), ("solve", "3", ["--seed", "-1"]),
], ids=["config-solve", "config-certify", "flag-solve"])
def test_negative_seed_exits_2(command, config_seed, flags, tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(TINY.replace("seed = 3", f"seed = {config_seed}"))
    rc = main([command, "--config", str(p), "--out-dir", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert _one_error_line(capsys).splitlines() == ["error: seed must be >= 0, not -1"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,config,rc,error", [
    ("solve", ("tiny", "f = 1.0*zbar", "f = 1.0*zbar + 1e400*0"), 2,
     "error: f: number 1e400 is not finite (column 12)"),
    ("solve", ("tiny", "f = 1.0*zbar", "f = y^1e400"), 2,
     "error: f: number 1e400 is not finite (column 3)"),
    ("certify", ("ex22.cfg",
                 "\nf = 1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))\n",
                 "\nf = 1 + 0.5*norm2(z)^2 + abs(y)^exp(1000)\n"), 1,
     "error: EvalDomainError: non-finite exponent in 'abs(y)^exp(1000)' (column 28)"),
    ("solve", ("tiny", "f = 1.0*zbar", "f = 1.0*zbar + exp(1000)"), 1,
     "error: EvalDomainError: non-finite value in '1 * zbar + exp(1000)' (column 1)"),
], ids=["literal-sum", "literal-exponent", "constant-exponent", "constant-overflow"])
def test_non_finite_generator_ends_in_one_error_line(command, config, rc, error, tmp_path, capsys):
    # no traceback and no numpy warning: stderr is the error line alone
    name, old, new = config
    shipped = Path(__file__).resolve().parents[1] / "configs" / name
    text = TINY if name == "tiny" else shipped.read_text()
    assert old in text
    p = tmp_path / "bad.cfg"
    p.write_text(text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(p), "--out-dir", str(tmp_path / "out")]) == rc
    assert capsys.readouterr().err == error + "\n"


def test_solver_scenario_mismatch_exits_2(tiny_cfg, tmp_path, capsys):
    # the shift solvers need a split (f1, f2) generator pair
    rc = main(
        ["solve", "--config", str(tiny_cfg), "--solver", "shift",
         "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_more_windows_than_steps_exits_2(tiny_cfg, tmp_path, capsys):
    rc = main(["solve", "--config", str(tiny_cfg), "--steps", "4", "--windows", "5",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = _one_error_line(capsys)
    assert err.splitlines() == ["error: n_windows = 5 exceeds the grid's 4 steps"]


def test_certify_writes_reports(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "certs"
    rc = main(["certify", "--config", str(tiny_cfg), "--out-dir", str(out),
               "--prefix", "t"])
    assert rc == 0
    assert (out / "t_certificate.txt").exists()
    assert (out / "t_certificate.json").exists()
    captured = capsys.readouterr().out
    assert "window width eps" in captured
    assert "wrote" in captured


@pytest.mark.parametrize("edit", [("T = 1.0", "T = 1e5"), ("C = 0.2", "C = 1e300")],
                         ids=["T=1e5", "C=1e300"])
def test_certify_reports_large_constants_as_overflow(edit, tmp_path, capsys):
    # exp(C*T) and C^2 leave the double range: the chain takes them in log
    # space and reports an overflowed moment constant and an underflowed width
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex22.cfg"
    text = shipped.read_text()
    assert f"\n{edit[0]}\n" in text
    cfg = tmp_path / "ex22.cfg"
    cfg.write_text(text.replace(f"\n{edit[0]}\n", f"\n{edit[1]}\n"))
    out = tmp_path / "out"
    rc = main(["certify", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    chain = json.loads((out / "ex22_certificate.json").read_text())["chain"]
    assert chain["c_delta_overflow"] is True
    assert chain["eps_underflow"] is True
    assert chain["c_delta_large"] is True


def test_certify_reports_an_underflowed_moment_base(tmp_path, capsys):
    # gamma * C underflows doubles: the chain is built in log space and
    # reports the window of 1/8 that its logarithms give (mpmath at 50
    # digits), with no traceback
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex22.cfg"
    text = shipped.read_text()
    cfg = tmp_path / "ex22.cfg"
    cfg.write_text(text.replace("\nC = 0.2\n", "\nC = 1e-300\n")
                   .replace("\ngamma = 0.4\n", "\ngamma = 1e-300\n"))
    out = tmp_path / "out"
    rc = main(["certify", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    chain = json.loads((out / "ex22_certificate.json").read_text())["chain"]
    assert chain["C"] == chain["gamma"] == 1e-300
    assert chain["log_m"] == pytest.approx(1381.5510557964274, rel=1e-12)
    assert chain["log_eps"] == pytest.approx(-2.0794415416798359, rel=1e-12)
    assert chain["eps_branch"] == "mass-term"
    assert chain["eps_underflow"] is False


def test_certify_on_a_huge_horizon_warns_nothing(tmp_path, capsys):
    # exp overflows in the ODE envelope on purpose (lambda = inf), and so
    # does the spot check's growth bound 0.5*gamma*|z|^2 at gamma = 1e308:
    # no warning either way
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex22.cfg"
    text = shipped.read_text()
    cfg = tmp_path / "ex22.cfg"
    for edit, lam in [(("T = 1.0", "T = 1e5"), math.inf),
                      (("gamma = 0.4", "gamma = 1e308"), -1 / 3 + 16 / 3 * math.exp(15.0))]:
        cfg.write_text(text.replace(f"\n{edit[0]}\n", f"\n{edit[1]}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["certify", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "out" / "ex22_certificate.json").read_text())
        assert payload["lambda"] == pytest.approx(lam)


def test_solve_writes_outputs(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(tiny_cfg), "--out-dir", str(out),
               "--prefix", "demo"])
    assert rc == 0
    csv_path = out / "demo_result.csv"
    json_path = out / "demo_result.json"
    assert csv_path.exists() and json_path.exists()
    assert csv_path.read_text().startswith("# manifest_sha256=")
    captured = capsys.readouterr().out
    assert "solver=global scenario=tiny" in captured
    assert "state mean at t=0" in captured
    # every flag of the record, in the order of their names
    flags = json.loads(json_path.read_text())["flags"]
    assert "alpha_envelope_ok" in flags and "within_certified_ball" in flags
    lines = [line for line in captured.splitlines() if line.split(":")[0] in flags]
    assert lines == [f"{key}: {flags[key]}" for key in sorted(flags)]


def test_solve_summary_reports_window_override(tiny_cfg, tmp_path, capsys):
    # one window spans the whole horizon, wider than the certified width;
    # the config's override flag lets the solve proceed, and the result
    # records the excess on the window's trace and in the flags, with no
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--config", str(tiny_cfg), "--out-dir", str(tmp_path),
                   "--prefix", "tiny"])
    assert rc == 0
    assert "window_exceeds_certificate: True" in capsys.readouterr().out
    record = json.loads((tmp_path / "tiny_result.json").read_text())
    assert [t["exceeds_certificate"] for t in record["trace"]] == [True]
    assert record["flags"]["window_exceeds_certificate"] is True


def test_override_epsilon_flag_lets_a_too_wide_window_proceed(tmp_path, capsys):
    # ex21 without its config override: two windows of width 0.25 against
    # a certified width that underflows to 0
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex21.cfg"
    config = tmp_path / "ex21.cfg"
    config.write_text("".join(line for line in shipped.read_text().splitlines(True)
                              if not line.startswith("override_epsilon")))
    argv = ["solve", "--config", str(config), "--paths", "2000", "--steps", "20"]
    assert main([*argv, "--out-dir", str(tmp_path / "refused")]) == 2
    assert _one_error_line(capsys).splitlines() == [
        "error: window width 0.25 exceeds the certified width 0 (log -1016); "
        "set override_epsilon to proceed anyway"]
    assert main([*argv, "--out-dir", str(tmp_path / "run"), "--override-epsilon"]) == 0
    assert "window_exceeds_certificate: True" in capsys.readouterr().out.splitlines()


def test_solve_summary_prints_the_clamp_counts_of_the_json(tmp_path, capsys):
    # Z is about 1 on this scenario: a clamp level of 0.5 clamps in every
    # window, and the summary's counts are the result JSON's
    cfg = tmp_path / "clamped.cfg"
    cfg.write_text(TINY.replace("n_windows = 1", "n_windows = 2\nz_clamp = 0.5"))
    rc = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path),
               "--prefix", "clamped"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads((tmp_path / "clamped_result.json").read_text())
    trace = record["trace"]
    assert [t["exceeds_certificate"] for t in trace] == [True, True]
    assert record["flags"]["window_exceeds_certificate"] is True
    counts = [t["clamp_events"] for t in trace]
    assert len(counts) == 2 and all(c > 0 for c in counts)
    assert f"z-clamp events per window: {counts[0]}, {counts[1]}" in lines
    iterations = [t["iterations"] for t in trace]
    assert f"iterations per window: {iterations[0]}, {iterations[1]}" in lines


def test_solve_summary_prints_the_inner_counts_of_the_json(tmp_path, capsys):
    # a driver that reads y takes the implicit solve: the summary prints
    # each window's passes and damped passes, as the result JSON holds them
    cfg = tmp_path / "implicit.cfg"
    cfg.write_text(TINY.replace("n_windows = 1", "n_windows = 2")
                   .replace("f = 1.0*zbar", "f = 1 + abs(y) + 0.5*norm2(z)^2"))
    rc = main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path),
               "--prefix", "implicit"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    trace = json.loads((tmp_path / "implicit_result.json").read_text())["trace"]
    inner = [t["inner_iterations"] for t in trace]
    damped = [t["damped_passes"] for t in trace]
    assert len(inner) == 2 and all(k > 0 for k in inner)
    assert f"inner iterations per window: {inner[0]}, {inner[1]}" in lines
    assert f"damped passes per window: {damped[0]}, {damped[1]}" in lines


def test_solve_summary_prints_the_planned_windows_of_the_json(tmp_path, capsys):
    # ex41.cfg sets no n_windows: the windows are planned from measured
    # contraction, and the summary prints each one's span, width and
    # choosing ratio as the result JSON records them
    config = Path(__file__).resolve().parents[1] / "configs" / "ex41.cfg"
    rc = main(["solve", "--config", str(config), "--solver", "multidim",
               "--paths", "500", "--steps", "10", "--out-dir", str(tmp_path),
               "--prefix", "planned"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads((tmp_path / "planned_result.json").read_text())
    windows, trace = record["windows"], record["trace"]
    assert len(windows) > 1 and trace[-1]["ratio"] is None
    # the config certifies a zero width: every planned window exceeds it
    assert all(t["exceeds_certificate"] is True for t in trace)
    assert record["flags"]["window_exceeds_certificate"] is True
    assert all(t["ratio"] is not None for t in trace[:-1])
    assert "window spans: " + ", ".join(f"[{lo}, {hi}]" for lo, hi in windows) in lines
    assert "window widths: " + ", ".join(f"{t['width']:.6g}" for t in trace) in lines
    assert "choosing ratios: " + ", ".join(
        "-" if t["ratio"] is None else f"{t['ratio']:.4g}" for t in trace) in lines
    assert "iterations per window: " + ", ".join(
        str(t["iterations"]) for t in trace) in lines


def test_exhausted_outer_budget_exits_1(tmp_path, capsys, monkeypatch):
    # max_outer counts sweeps: one sweep, compared with the start, cannot
    # settle the first window
    sweeps = []
    sweep = BackwardSolver.solve

    def counting(self, window, terminal, driver, *args):
        sweeps.append(window)
        return sweep(self, window, terminal, driver, *args)

    monkeypatch.setattr(BackwardSolver, "solve", counting)
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex22.cfg"
    text = shipped.read_text()
    assert "max_outer = 30" in text
    cfg = tmp_path / "ex22.cfg"
    cfg.write_text(text.replace("max_outer = 30", "max_outer = 1"))
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out-dir", str(out),
               "--paths", "400", "--steps", "8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "MaxIterations" in err
    assert "iteration budget exhausted at distance" in err
    assert len(sweeps) == 1
    # the failure record: the error, the failing window's partial trace, the manifest
    assert not (out / "ex22_result.csv").exists()
    record = json.loads((out / "ex22_failure.json").read_text())
    assert record["error"] == "MaxIterations"
    assert err.strip() == f"error: MaxIterations: {record['message']}"
    assert record["message"].startswith("global solve on window (6, 8): ")
    assert record["trace"]["iterations"] == 1
    assert record["trace"]["converged"] is False
    man = record["manifest"]
    assert man["selector"] == "global"
    assert (man["solver"]["n_paths"], man["solver"]["n_steps"]) == (400, 8)
    assert man["solver"]["max_outer"] == 1
    assert len(man["manifest_sha256"]) == 64


def test_diverging_backward_step_writes_failure_record(tmp_path, capsys):
    # ex22's generator reads y: one inner pass cannot settle the implicit state
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex22.cfg"
    text = shipped.read_text()
    assert "max_outer = 30\n" in text and "max_inner" not in text
    cfg = tmp_path / "ex22.cfg"
    cfg.write_text(text.replace("max_outer = 30\n", "max_outer = 30\nmax_inner = 1\n"))
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out-dir", str(out),
               "--paths", "400", "--steps", "8"])
    assert rc == 1
    captured = capsys.readouterr()
    failure = out / "ex22_failure.json"
    assert f"wrote {failure}" in captured.out
    assert not (out / "ex22_result.csv").exists()
    record = json.loads(failure.read_text())
    assert record["error"] == "StepDivergence"
    assert record["message"].startswith("state iteration stalled at residual")
    assert captured.err.strip() == f"error: StepDivergence: {record['message']}"
    assert record["trace"] is None
    man = record["manifest"]
    assert man["selector"] == "global"
    assert (man["solver"]["n_paths"], man["solver"]["n_steps"]) == (400, 8)
    assert man["solver"]["max_inner"] == 1
    assert len(man["manifest_sha256"]) == 64


def test_invalid_input_in_the_solver_writes_failure_record(tmp_path, capsys):
    # an invalid input the solver call finds still exits 2, and leaves a
    # failure record as every other failure of that call does
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex41.cfg"
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(shipped), "--solver", "multidim", "--out-dir", str(out),
               "--paths", "3", "--steps", "4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 3 paths cannot support 10 features\n"
    failure = out / "ex41_failure.json"
    assert f"wrote {failure}" in captured.out
    assert not (out / "ex41_result.csv").exists()
    record = json.loads(failure.read_text())
    assert record["error"] == "InvalidInput"
    assert record["message"] == "3 paths cannot support 10 features"
    assert record["trace"] is None
    assert record["manifest"]["selector"] == "multidim"


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_default_ctilde_beyond_doubles_ends_in_one_error_line(command, tmp_path, capsys):
    # ex21 declares no ctilde: its default max(3C, xi_bound^2) leaves the
    # double range at xi_bound = 1e300
    shipped = Path(__file__).resolve().parents[1] / "configs" / "ex21.cfg"
    text = shipped.read_text()
    assert "\nxi_bound = 0.5\n" in text and "ctilde" not in text
    cfg = tmp_path / "ex21.cfg"
    cfg.write_text(text.replace("\nxi_bound = 0.5\n", "\nxi_bound = 1e300\n"))
    rc = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
               *(["--paths", "200", "--steps", "4"] if command == "solve" else [])])
    assert rc == 2
    assert _one_error_line(capsys).splitlines() == [
        "error: the default ctilde max(3C, xi_bound^2) overflows doubles; declare ctilde"
    ]


def test_solve_overrides_reach_manifest(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(tiny_cfg), "--out-dir", str(out),
               "--seed", "9", "--paths", "250", "--steps", "6"])
    assert rc == 0
    payload = json.loads((out / "run_result.json").read_text())
    solver = payload["manifest"]["solver"]
    assert (solver["seed"], solver["n_steps"], solver["n_paths"]) == (9, 6, 250)
    assert len(payload["times"]) == 7
    # a flag given as an empty string keeps the file's value
    assert main(["solve", "--config", str(tiny_cfg), "--out-dir", str(out),
                 "--seed", "", "--paths", "", "--steps", "6"]) == 0
    solver = json.loads((out / "run_result.json").read_text())["manifest"]["solver"]
    assert (solver["seed"], solver["n_steps"], solver["n_paths"]) == (3, 6, 300)


@pytest.mark.parametrize("selector", ["picard"])
def test_one_window_solvers_record_no_window_count(selector, tmp_path):
    # n_windows shapes nothing the horizon-wide solver writes: the manifest
    # records it as null, so both runs write the same bytes, manifest line
    # included
    config = Path(__file__).resolve().parents[1] / "configs" / "ex21.cfg"
    texts = []
    for extra in ([], ["--windows", "3"]):
        out = tmp_path / f"out{len(extra)}"
        assert main(["solve", "--config", str(config), "--solver", selector,
                     "--out-dir", str(out), "--paths", "300", "--steps", "6", *extra]) == 0
        texts.append((out / "ex21_result.csv").read_text())
        manifest = json.loads((out / "ex21_result.json").read_text())["manifest"]
        assert manifest["solver"]["n_windows"] is None
    assert texts[0] == texts[1]


def test_solve_solver_choice_named_in_manifest(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(tiny_cfg), "--out-dir", str(out),
               "--solver", "picard"])
    assert rc == 0
    payload = json.loads((out / "run_result.json").read_text())
    assert payload["manifest"]["selector"] == "picard"


def test_validate_subset(capsys):
    rc = main(["validate", "--criteria", "1,2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(out) == 2
    assert out[0].startswith("PASS criterion 1:")
    assert out[1].startswith("PASS criterion 2:")


def test_validate_json_report(tmp_path, capsys):
    report = tmp_path / "v.json"
    rc = main(["validate", "--criteria", "1", "--json", str(report)])
    assert rc == 0
    rows = json.loads(report.read_text())
    assert len(rows) == 1
    assert rows[0]["criterion"] == 1 and rows[0]["passed"] is True


def test_validate_runs_each_listed_criterion_once_in_ascending_order(tmp_path, capsys):
    report = tmp_path / "v.json"
    assert main(["validate", "--criteria", "2,1,2,1", "--json", str(report)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["PASS criterion 1", "PASS criterion 2"]
    assert [row["criterion"] for row in json.loads(report.read_text())] == [1, 2]


def test_validate_records_a_raising_criterion_as_fail_and_carries_on(
        tmp_path, capsys, monkeypatch):
    from mfbsde import acceptance
    from mfbsde.errors import InfeasibleCertificate

    def refuse(*args):
        raise InfeasibleCertificate("refused for the test")

    monkeypatch.setattr(acceptance, "build_chain", refuse)
    report = tmp_path / "v.json"
    rc = main(["validate", "--criteria", "1,2", "--json", str(report)])
    assert rc == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].startswith("FAIL criterion 1:")
    assert lines[1].startswith("PASS criterion 2:")
    assert "Traceback" not in err
    rows = json.loads(report.read_text())
    assert [(r["criterion"], r["passed"]) for r in rows] == [(1, False), (2, True)]
    assert rows[0]["details"] == {"error": "InfeasibleCertificate: refused for the test"}


def test_validate_json_into_a_missing_directory_exits_2(tmp_path, capsys):
    report = tmp_path / "missing" / "v.json"
    assert main(["validate", "--criteria", "1", "--json", str(report)]) == 2
    out, err = capsys.readouterr()
    # the unwritable report is found before any criterion runs
    assert "PASS criterion" not in out
    assert "Traceback" not in err and err.startswith("error: ")
    assert "No such file or directory" in err


def test_validate_json_naming_a_directory_exits_2(tmp_path, capsys):
    assert main(["validate", "--criteria", "1", "--json", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    # found before any criterion runs
    assert "PASS criterion" not in out
    assert "Traceback" not in err and err.startswith("error: ")
    assert "Is a directory" in err


def test_validate_rejects_bad_list(capsys):
    assert main(["validate", "--criteria", "1,zebra"]) == 2
    assert "bad --criteria" in capsys.readouterr().err


@pytest.mark.parametrize("criteria", [",", ""])
def test_validate_rejects_an_empty_list(criteria, capsys, monkeypatch):
    from mfbsde import acceptance

    ran = []
    monkeypatch.setattr(acceptance, "run_criterion", ran.append)
    assert main(["validate", "--criteria", criteria]) == 2
    assert _one_error_line(capsys).splitlines() == [f"error: bad --criteria list: {criteria!r}"]
    assert ran == []


def test_validate_rejects_unknown_ids(capsys):
    assert main(["validate", "--criteria", "99"]) == 2
    assert "unknown criteria" in capsys.readouterr().err


# ------------------------------------------------------------ failure contract

_FINITE = st.floats(min_value=1e-300, max_value=1e300)
_SPLIT_FORMS = {"shift": "split-quad", "multidim": "split-lip"}


@st.composite
def _contract_runs(draw):
    """A command (``certify`` or a solver selector) and a config of 1-4
    steps and 2-60 paths, whose generators are generated texts of depth 3
    or less and whose constants span the doubles, one of them at most NaN
    or inf.  Three configs in four have the shape the command needs."""
    command = draw(st.sampled_from(["certify", *sorted(_SOLVERS)]))
    n, d = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))

    def vector(strategy):
        return " ; ".join(draw(strategy) for _ in range(n))

    forms = ["", "quad-growth", "global-ode", "split-quad", "split-lip"]
    if command in _SPLIT_FORMS and draw(st.integers(0, 3)):
        forms = [_SPLIT_FORMS[command]]
    elif command != "certify" and draw(st.integers(0, 3)):
        forms = forms[:3]
    form = draw(st.sampled_from(forms))
    texts = texts_of_depth(3)
    if form.startswith("split"):
        generators = f"f1 = {vector(texts)}\nf2 = {vector(texts)}"
    else:
        generators = f"f = {vector(texts)}"
    terminal = vector(st.sampled_from(["w1", "sin(w)", "0.5*cos(w1)", "1.0"]))
    keys = ["T", "C", "gamma", "xi_bound", "alpha"] + (["ctilde"] if draw(st.booleans()) else [])
    bad = draw(st.none() | st.sampled_from(keys))

    def constant(key):
        if key == bad:
            return draw(st.sampled_from([math.nan, math.inf]))
        return draw(st.floats(0.0, 0.99) if key == "alpha" else _FINITE)

    values = {key: constant(key) for key in keys}
    constants = "\n".join(f"{key} = {values[key]!r}" for key in keys[1:])
    return command, (
        f"[scenario]\nname = drawn\nn = {n}\nd = {d}\nT = {values['T']!r}\n"
        f"terminal = {terminal}\n{generators}\nforms = {form}\n"
        f"[constants]\n{constants}\n"
        f"[solver]\nsteps = {draw(st.integers(1, 4))}\npaths = {draw(st.integers(2, 60))}\n"
        "seed = 5\nmax_outer = 5\noverride_epsilon = true\n")


_PINNED = TINY.replace("xi_bound = 4.0", "xi_bound = 1e300").replace("steps = 8", "steps = 2")


@settings(max_examples=60, deadline=None)
@given(_contract_runs())
@example(("certify", _PINNED))
@example(("global", _PINNED))
def test_every_run_ends_in_its_documented_exit(run):
    # whatever the config, a run exits 0, 1 or 2 with no warning and no
    # traceback: one error line on a failure, the result pair on success,
    # and a failure record for every failed solve past config loading
    command, text = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "drawn.cfg"
        cfg.write_text(text)
        out = Path(tmp) / "out"
        argv = ["certify"] if command == "certify" else ["solve", "--solver", command]
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            rc = main([*argv, "--config", str(cfg), "--out-dir", str(out), "--prefix", "p"])
        assert rc in (0, 1, 2)
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == (rc != 0)
        pair = ("certificate.txt", "certificate.json") if command == "certify" else (
            "result.csv", "result.json")
        assert all((out / f"p_{name}").exists() == (rc == 0) for name in pair)
        if command != "certify" and rc != 0:
            try:
                load_config(cfg)
            except MFBSDEError:
                return
            assert (out / "p_failure.json").exists()
