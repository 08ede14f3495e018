"""Config parsing, run manifests, and the CSV/JSON output writers."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfbsde
from mfbsde import (
    InvalidInput,
    build_grid,
    certify,
    dsl,
    example_21,
    example_22,
    example_41,
    linear_scenario,
    load_config,
    simulate_brownian,
)
from mfbsde.config import (
    _OUTPUT_KEYS,
    _SOLVER_KEYS,
    OutputOptions,
    RunManifest,
    manifest_for,
    write_certificate_files,
    write_result_csv,
    write_result_json,
)
from mfbsde.meanfield import global_solve
from mfbsde.regression import RegressionBasis
from mfbsde.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

MINIMAL = """
[scenario]
T = 2.0
terminal = w
f = 0.0
[constants]
C = 1.0
gamma = 1.0
xi_bound = 1.0
[solver]
"""


def _write(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize(
    "fname", sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))
)
def test_shipped_configs_parse(fname):
    scenario, solver, options, text = load_config(CONFIG_DIR / fname)
    assert scenario.T > 0
    assert scenario.terminal is not None
    assert (scenario.f is not None) or (
        scenario.f1 is not None and scenario.f2 is not None
    )
    assert solver.n_steps > 0 and solver.n_paths > 0
    assert options.prefix
    assert text.strip()


def test_shipped_config_count():
    assert len(list(CONFIG_DIR.glob("*.cfg"))) == 5


def test_ex22_fields():
    scenario, solver, options, _ = load_config(CONFIG_DIR / "ex22.cfg")
    assert scenario.name == "ex2.2"
    assert (scenario.n, scenario.d) == (1, 1)
    assert scenario.T == 1.0
    assert (scenario.C, scenario.gamma, scenario.alpha) == (0.2, 0.4, 0.0)
    assert scenario.xi_bound == 1.0
    assert scenario.ctilde == 5.0
    assert scenario.forms == frozenset({"quad-growth", "global-ode"})
    assert scenario.f is not None and scenario.f1 is None and scenario.f2 is None
    assert solver.n_steps == 80
    assert solver.n_paths == 20_000
    assert solver.seed == 7
    assert solver.n_windows == 4
    assert solver.override_epsilon is True
    assert (options.directory, options.prefix) == ("out", "ex22")


def test_linear_fields():
    scenario, solver, _, _ = load_config(CONFIG_DIR / "linear.cfg")
    assert scenario.name == "linear-meanz"
    assert scenario.xi_bound == 4.0
    assert solver.tol_fp == 1e-4
    assert solver.n_windows == 2


# The acceptance criteria build their problems from the scenario factories,
# while the command line and the benchmark load the shipped configs.
@pytest.mark.parametrize(
    "fname,factory",
    [
        ("ex21.cfg", lambda: example_21(alpha=0.5, T=0.5, C=0.25, gamma=1.0)),
        ("ex22.cfg", example_22),
        ("ex41.cfg", example_41),
    ],
)
def test_shipped_config_is_its_scenario_factory(fname, factory):
    assert load_config(CONFIG_DIR / fname)[0] == factory()


def test_shipped_linear_config_is_the_linear_factory():
    loaded = load_config(CONFIG_DIR / "linear.cfg")[0]
    built = linear_scenario(dbar=1.0, terminal="w", name="linear-meanz")
    assert dataclasses.replace(loaded, f=built.f) == built
    # "1.0*zbar" is the factory's sum with every other coefficient zero
    rng = np.random.default_rng(5)
    P = 200
    slots = (rng.uniform(0.0, 1.0, P), *rng.normal(0.0, 3.0, (2, P, 1)),
             *rng.normal(0.0, 3.0, (2, P, 1, 1)))
    assert np.all(dsl.evaluate(loaded.f, *slots) == dsl.evaluate(built.f, *slots))


def test_defaults_fill_in(tmp_path):
    scenario, solver, options, _ = load_config(_write(tmp_path, MINIMAL, "mini.cfg"))
    # scenario name falls back to the file stem
    assert scenario.name == "mini"
    assert (scenario.n, scenario.d) == (1, 1)
    assert scenario.alpha == 0.0
    assert scenario.ctilde is None
    assert scenario.forms == frozenset()
    assert (solver.n_steps, solver.n_paths, solver.seed) == (100, 50_000, 0)
    assert solver.tol_fp == 1e-3
    assert solver.z_clamp == 100.0
    assert solver.override_epsilon is False
    assert solver.n_windows is None
    assert solver.basis.degree == 3 and solver.basis.ridge == 1e-8
    assert options == OutputOptions()


def test_solver_table_matches_the_dataclasses():
    # one [solver] key per SolverConfig field, the basis by its own fields,
    # and one [output] key per OutputOptions field: a field without a key
    # (or a key without a field) fails here
    fields = [f.name for f in dataclasses.fields(SolverConfig) if f.name != "basis"]
    fields += [f.name for f in dataclasses.fields(RegressionBasis)]
    assert sorted(fld for fld, _ in _SOLVER_KEYS.values()) == sorted(fields)
    assert sorted(fld for fld, _ in _OUTPUT_KEYS.values()) == sorted(
        f.name for f in dataclasses.fields(OutputOptions)
    )


# non-default value of every [solver] key: (text, parsed value)
SOLVER_VALUES = {
    "steps": ("7", 7),
    "paths": ("9", 9),
    "seed": ("5", 5),
    "basis_degree": ("2", 2),
    "basis_bins": ("4", 4),
    "ridge": ("1e-6", 1e-6),
    "max_inner": ("8", 8),
    "tol_fp": ("0.25", 0.25),
    "max_outer": ("6", 6),
    "z_clamp": ("7.5", 7.5),
    "n_windows": ("3", 3),
    "override_epsilon": ("true", True),
}


def test_every_solver_key_reaches_its_field(tmp_path):
    assert set(SOLVER_VALUES) == set(_SOLVER_KEYS)
    text = MINIMAL + "".join(f"{k} = {raw}\n" for k, (raw, _) in SOLVER_VALUES.items())
    _, solver, _, _ = load_config(_write(tmp_path, text))

    def flat(cfg):
        d = dataclasses.asdict(cfg)
        return d | d.pop("basis")

    got, default = flat(solver), flat(SolverConfig())
    for key, (_, value) in SOLVER_VALUES.items():
        fld = _SOLVER_KEYS[key][0]
        assert got[fld] == value != default[fld], key


def test_misspelt_key_rejected(tmp_path):
    text = (CONFIG_DIR / "ex22.cfg").read_text()
    assert "tol_fp = 1e-3" in text
    path = _write(tmp_path, text.replace("tol_fp = 1e-3", "tolfp = 1e-9"))
    with pytest.raises(InvalidInput, match=r"unknown config key 'tolfp' in \[solver\]"):
        load_config(path)


@pytest.mark.parametrize(
    "line", ["window_width = 0.25", "bmo_budget = 5.0", "tol_inner = 1e-12"]
)
def test_removed_solver_key_rejected(tmp_path, line):
    key = line.split()[0]
    with pytest.raises(InvalidInput, match=rf"unknown config key '{key}' in \[solver\]"):
        load_config(_write(tmp_path, MINIMAL + line + "\n"))


@pytest.mark.parametrize(
    "section, line",
    [("scenario", "horizon = 2.0"), ("constants", "lam = 1.0"), ("output", "directory = x")],
)
def test_unknown_key_rejected_in_every_section(tmp_path, section, line):
    text = MINIMAL + "[output]\n"
    text = text.replace(f"[{section}]", f"[{section}]\n{line}")
    key = line.split()[0]
    with pytest.raises(InvalidInput, match=rf"unknown config key '{key}' in \[{section}\]"):
        load_config(_write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(InvalidInput, match=r"unknown config section \[outputs\]"):
        load_config(_write(tmp_path, MINIMAL + "[outputs]\ndir = x\n"))


def test_readme_config_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    scenario, solver, options, _ = load_config(_write(tmp_path, block))
    assert (scenario.name, scenario.n, scenario.d) == ("ex2.2", 1, 1)
    assert scenario.ctilde == 5.0
    assert (solver.n_steps, solver.n_paths, solver.n_windows) == (80, 20_000, 4)
    assert options.prefix == "ex22"


def test_terminal_clamp_reaches_the_scenario_and_clips(tmp_path):
    text = MINIMAL.replace("terminal = w", "terminal = w\nterminal_clamp = 0.5")
    scenario = load_config(_write(tmp_path, text))[0]
    assert scenario.terminal_clamp == 0.5
    w = np.array([[-2.0], [-0.5], [0.1], [0.7]])
    assert scenario.terminal_values(w).tolist() == [[-0.5], [-0.5], [0.1], [0.5]]


def test_terminal_clamp_above_the_terminal_bound_rejected(tmp_path):
    text = MINIMAL.replace("terminal = w", "terminal = w\nterminal_clamp = 1.5")
    with pytest.raises(InvalidInput, match="terminal_clamp exceeds the declared terminal bound"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_example_21_refuses_a_non_finite_alpha_with_the_alpha_message(alpha):
    # the factory prints 1 + alpha into its formula, so alpha is checked first
    with pytest.raises(InvalidInput, match=r"^mean-integrand exponent alpha must lie in \[0, 1\)$"):
        example_21(alpha=float(alpha))


def test_split_pair_config(tmp_path):
    text = MINIMAL.replace("f = 0.0", "f1 = abs(y)\nf2 = abs(ybar)")
    scenario, _, _, _ = load_config(_write(tmp_path, text))
    assert scenario.f is None
    assert scenario.f1 is not None and scenario.f2 is not None


@pytest.mark.parametrize("drop", ["scenario", "constants", "solver"])
def test_missing_section_rejected(tmp_path, drop):
    text = MINIMAL.replace(f"[{drop}]", f"[{drop}_typo]")
    with pytest.raises(InvalidInput, match=rf"missing \[{drop}\]"):
        load_config(_write(tmp_path, text))


def test_missing_required_key(tmp_path):
    text = MINIMAL.replace("T = 2.0", "")
    with pytest.raises(InvalidInput, match="missing config key 'T'"):
        load_config(_write(tmp_path, text))


def test_generator_required(tmp_path):
    text = MINIMAL.replace("f = 0.0", "")
    with pytest.raises(InvalidInput, match="f1, f2"):
        load_config(_write(tmp_path, text))


def test_generator_exclusive(tmp_path):
    text = MINIMAL.replace("f = 0.0", "f = 0.0\nf1 = 1.0\nf2 = 0.0")
    with pytest.raises(InvalidInput):
        load_config(_write(tmp_path, text))


def test_bad_int_value(tmp_path):
    text = MINIMAL + "steps = soon\n"
    with pytest.raises(InvalidInput, match="bad value for 'steps'"):
        load_config(_write(tmp_path, text))
    # a key given over the file's value is read as the file's would be
    with pytest.raises(InvalidInput, match="bad value for 'steps': 'soon'"):
        load_config(_write(tmp_path, MINIMAL), {("solver", "steps"): "soon"})


def test_given_keys_set_over_the_file(tmp_path):
    path = _write(tmp_path, MINIMAL + "steps = 7\nseed = 2\n[output]\nprefix = a%b\n")
    keys = {("solver", "steps"): "9", ("solver", "seed"): "", ("solver", "paths"): None,
            ("solver", "override_epsilon"): "true", ("output", "dir"): "c%d"}
    _, solver, options, text = load_config(path, keys)
    # an empty or None value sets nothing; '%' is literal, in the file and in a key
    assert (solver.n_steps, solver.seed, solver.n_paths) == (9, 2, 50_000)
    assert solver.override_epsilon is True
    assert options == OutputOptions(directory="c%d", prefix="a%b")
    # the text is the file's: keys reach the manifest through the settings
    assert text == path.read_text()
    # a key of a section the file leaves out
    _, _, options, _ = load_config(_write(tmp_path, MINIMAL), {("output", "prefix"): "p"})
    assert options == OutputOptions(prefix="p")


def test_bad_bool_value(tmp_path):
    text = MINIMAL + "override_epsilon = maybe\n"
    with pytest.raises(InvalidInput, match="override_epsilon"):
        load_config(_write(tmp_path, text))


def test_bool_spellings(tmp_path):
    for raw, expected in [("yes", True), ("on", True), ("0", False), ("Off", False)]:
        text = MINIMAL + f"override_epsilon = {raw}\n"
        _, solver, _, _ = load_config(_write(tmp_path, text))
        assert solver.override_epsilon is expected


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InvalidInput, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_malformed_ini_rejected(tmp_path):
    with pytest.raises(InvalidInput, match="malformed config"):
        load_config(_write(tmp_path, "steps = 3\nno section header anywhere\n"))


# --------------------------------------------------------------- manifests

def test_manifest_digest_round_trip(tmp_path):
    path = _write(tmp_path, MINIMAL)
    _, solver, _, text = load_config(path)
    man = manifest_for(path, text, solver, "global")
    assert man.config_sha256 == hashlib.sha256(text.encode()).hexdigest()
    # each setting once: seed and sizes are in the solver settings alone
    assert {"seed", "n_steps", "n_paths"}.isdisjoint(man.as_dict())
    # the whole effective solver configuration, basis included
    assert man.solver == dataclasses.asdict(solver)
    assert man.solver["basis"] == {"degree": 3, "n_bins": 1, "ridge": 1e-8}
    assert man.numpy_version == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert man.blas == f"{blas['name']} {blas['version']}"
    assert len(man.source_sha256) == 64
    # digest is a pure function of the fields
    again = manifest_for(path, text, solver, "global")
    assert again.digest == man.digest
    d = man.as_dict()
    assert d["manifest_sha256"] == man.digest
    json.dumps(d)  # serialisable


def test_manifest_digest_sensitivity(tmp_path):
    path = _write(tmp_path, MINIMAL)
    _, solver, _, text = load_config(path)
    man = manifest_for(path, text, solver, "global")
    assert manifest_for(path, text, solver, "picard").digest != man.digest
    bumped = dataclasses.replace(man, solver={**man.solver, "seed": man.solver["seed"] + 1})
    assert bumped.digest != man.digest
    # window plans change the solution without touching the config text
    one = manifest_for(path, text, solver.updated(n_windows=1), "global")
    two = manifest_for(path, text, solver.updated(n_windows=2), "global")
    assert len({man.digest, one.digest, two.digest}) == 3
    for field, value in (("numpy_version", "0.0"), ("platform", "other"), ("blas", "other"),
                         ("source_sha256", "0" * 64)):
        assert dataclasses.replace(man, **{field: value}).digest != man.digest


_SOURCE_DIGEST = (
    "from mfbsde.config import manifest_for; from mfbsde.solver import SolverConfig; "
    "print(manifest_for('x.cfg', '', SolverConfig(), 'global').source_sha256)"
)


def _source_digest(src: Path) -> str:
    """The manifest's source digest, taken in a fresh process that imports
    the package from ``src``."""
    run = subprocess.run([sys.executable, "-B", "-c", _SOURCE_DIGEST],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_a_changed_source_byte_changes_the_manifest(tmp_path):
    # the digest names the code: a copy of the package gives this process's
    # digest, and the same copy with one byte changed gives another
    package = Path(mfbsde.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "mfbsde", ignore=shutil.ignore_patterns("__pycache__"))
    here = manifest_for("x.cfg", "", SolverConfig(), "global").source_sha256
    assert _source_digest(tmp_path) == here
    errors = tmp_path / "mfbsde" / "errors.py"
    data = bytearray(errors.read_bytes())
    data[data.index(b"error")] = ord("E")
    errors.write_bytes(bytes(data))
    assert _source_digest(tmp_path) != here


def test_manifest_digest_ignores_how_the_config_path_is_spelled(tmp_path, monkeypatch):
    # one config read by a relative and by an absolute path: the content is
    # hashed, the path is only recorded
    path = _write(tmp_path, MINIMAL)
    _, solver, _, text = load_config(path)
    monkeypatch.chdir(tmp_path)
    relative = manifest_for(path.name, text, solver, "global")
    absolute = manifest_for(path.resolve(), text, solver, "global")
    assert relative.config_path != absolute.config_path
    assert relative.digest == absolute.digest
    assert relative.as_dict()["config_path"] == path.name



# ----------------------------------------------------------- output writers

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    scenario = linear_scenario()
    solver = SolverConfig(
        n_steps=10,
        n_paths=400,
        seed=5,
        tol_fp=1e-3,
        n_windows=1,
        override_epsilon=True,
    )
    ensemble = simulate_brownian(build_grid(scenario.T, 10), 1, 400, 5)
    result = global_solve(scenario, ensemble, solver)
    manifest = RunManifest(
        config_path="configs/linear.cfg",
        config_sha256=hashlib.sha256(b"stub").hexdigest(),
        selector="global",
        package_version="0.0-test",
        source_sha256="0" * 64,
        solver=dataclasses.asdict(solver),
        numpy_version="0.0-test",
        blas="test",
        platform="test",
    )
    return result, manifest


def test_write_result_csv(small_run, tmp_path):
    result, manifest = small_run
    out = tmp_path / "run.csv"
    write_result_csv(out, result, manifest)
    lines = out.read_text().splitlines()
    assert lines[0] == f"# manifest_sha256={manifest.digest}"
    assert lines[1] == "t,m_y1,sd_y1,m_z1,mean_z_sq,alpha_bound"
    times = result.m_y.times()
    assert len(lines) == 2 + len(times)
    # repr() formatting keeps the grid exactly recoverable
    got_t = np.array([float(row.split(",")[0]) for row in lines[2:]])
    assert np.array_equal(got_t, times)
    for row in lines[2:]:
        assert all(np.isfinite(float(cell)) for cell in row.split(","))


def test_write_result_csv_with_envelope(small_run, tmp_path):
    # the last column is the certificate's envelope at every node
    result, manifest = small_run
    out = tmp_path / "run_env.csv"
    write_result_csv(out, result, manifest)
    lines = out.read_text().splitlines()
    assert lines[1].endswith(",alpha_bound")
    env = result.certificate.alpha_envelope(result.m_y.times())
    assert [float(row.split(",")[-1]) for row in lines[2:]] == env.tolist()


def test_write_result_json(small_run, tmp_path):
    result, manifest = small_run
    out = tmp_path / "run.json"
    write_result_json(out, result, manifest)
    payload = json.loads(out.read_text())
    assert payload["manifest"]["manifest_sha256"] == manifest.digest
    assert payload["manifest"]["selector"] == "global"
    assert len(payload["times"]) == len(result.m_y.times())
    # stitched runs carry one trace per window
    assert payload["trace"][0]["converged"] is True
    assert payload["windows"] == [[0, 10]]


def test_write_certificate_files(small_run, tmp_path):
    _, manifest = small_run
    cert = certify(example_22())
    txt, js = write_certificate_files(tmp_path / "certs", "ex22", cert, manifest)
    assert txt.exists() and js.exists()
    body = txt.read_text()
    assert "window width eps" in body
    assert manifest.digest in body
    payload = json.loads(js.read_text())
    assert payload["manifest"]["manifest_sha256"] == manifest.digest
    assert payload["ctilde"] == 5.0
