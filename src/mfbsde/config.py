"""Run configuration files, manifests, and output writers.

Config files are INI-style text with four sections::

    [scenario]
    name = ex2.2
    n = 1
    d = 1
    T = 1.0
    terminal = sin(w)
    ; terminal_clamp = 1.0          (optional)
    f = 1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))
    ; or a split pair:  f1 = ...  /  f2 = ...
    ; components of a vector generator are separated by ';'
    forms = quad-growth global-ode

    [constants]
    C = 0.2
    gamma = 0.4
    alpha = 0.0
    xi_bound = 1.0
    ; ctilde = 5.0                  (optional envelope constant)

    [solver]
    steps = 100
    paths = 100000
    seed = 7
    basis_degree = 3
    ridge = 1e-8
    tol_fp = 1e-3
    max_outer = 30
    ; n_windows = 4
    override_epsilon = true
    z_clamp = 100.0

    [output]
    dir = out
    prefix = run

Comments take whole lines: ``;`` inside a value separates vector
components, so a trailing ``; note`` would become part of the value.  Each
section accepts only the keys it reads; any other key, or any other
section, raises :class:`InvalidInput`.  ``[solver]`` and ``[output]`` map
their keys, from the file or from command-line flags, onto the fields of
:class:`SolverConfig`, :class:`RegressionBasis` and :class:`OutputOptions`;
a key left out keeps that field's default.

Every output file embeds the SHA-256 manifest hash of (config text, the
whole effective solver configuration after command-line flags, selector,
package version, the digest of the package's source, numpy version, BLAS
library, platform), so results can be traced back to their inputs; the
config's path is recorded but not hashed.  Reruns are byte-identical only
on one platform, numpy build and BLAS library, so those are part of the
hash, and so is the source: a change of code that moves a number under an
unchanged version number still changes the manifest.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import functools
import hashlib
import io
import json
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsl
from .diagnostics import node_square_norms
from .errors import InvalidInput, MFBSDEError, ParseError
from .regression import RegressionBasis
from .scenario import ScenarioSpec
from .solver import SolverConfig

__all__ = [
    "OutputOptions",
    "RunManifest",
    "host_platform",
    "load_config",
    "manifest_for",
    "write_result_csv",
    "write_certificate_files",
    "write_failure_json",
    "write_result_json",
]


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    prefix: str = "run"


# key -> (field, type) for the sections parsed straight into dataclasses;
# the [solver] fields belong to SolverConfig or, for the basis, to
# RegressionBasis, whose field names do not overlap
_SOLVER_KEYS = {
    "steps": ("n_steps", int),
    "paths": ("n_paths", int),
    "seed": ("seed", int),
    "basis_degree": ("degree", int),
    "basis_bins": ("n_bins", int),
    "ridge": ("ridge", float),
    "max_inner": ("max_inner", int),
    "tol_fp": ("tol_fp", float),
    "max_outer": ("max_outer", int),
    "z_clamp": ("z_clamp", float),
    "n_windows": ("n_windows", int),
    "override_epsilon": ("override_epsilon", bool),
}
_OUTPUT_KEYS = {
    "dir": ("directory", str),
    "prefix": ("prefix", str),
}
_SCENARIO_KEYS = ("name", "n", "d", "T", "terminal", "terminal_clamp", "f", "f1", "f2", "forms")
_CONSTANTS_KEYS = ("C", "gamma", "alpha", "xi_bound", "ctilde")


def _get(section, key, conv, default=None, required=False):
    if key not in section or section[key].strip() == "":
        if required:
            raise InvalidInput(f"missing config key '{key}'")
        return default
    raw = section[key].strip()
    try:
        if conv is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return conv(raw)
    except ValueError as exc:
        raise InvalidInput(f"bad value for '{key}': {raw!r}") from exc


def _expression(section, key: str, variables=dsl.GENERATOR_VARS):
    """The parsed expression under ``key`` (required for the terminal
    condition, else None when absent); a parse error names the key."""
    text = _get(section, key, str, required=key == "terminal")
    if text is None:
        return None
    try:
        return dsl.parse(text, variables)
    except ParseError as exc:
        raise ParseError(f"{key}: {exc.message}", exc.column) from None


def _check_keys(section, name: str, keys) -> None:
    known = {key.lower() for key in keys}  # the parser lower-cases keys
    for key in section:
        if key not in known:
            raise InvalidInput(f"unknown config key '{key}' in [{name}]")


def _fields(section, name: str, table: dict) -> dict:
    """``{field: value}`` for the keys of ``table`` set in ``section``."""
    _check_keys(section, name, table)
    values = {}
    for key, (fld, conv) in table.items():
        value = _get(section, key, conv)
        if value is not None:
            values[fld] = value
    return values


def load_config(path, keys=None) -> tuple[ScenarioSpec, SolverConfig, OutputOptions, str]:
    """Parse a config file into a scenario, solver settings, and output
    options.  ``keys`` maps ``(section, key)`` to text set over the file's
    value before anything is converted; an empty or None value sets
    nothing.  Returns the file's raw text as well (it feeds the manifest
    hash)."""
    p = Path(path)
    if not p.exists():
        raise InvalidInput(f"config file {p} not found")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read config file {p}: {exc}") from exc
    # values are literal text: no '%' interpolation, in the file or a flag
    cp = configparser.ConfigParser(inline_comment_prefixes=None, interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise InvalidInput(f"malformed config: {exc}") from exc
    for sect in ("scenario", "constants", "solver"):
        if sect not in cp:
            raise InvalidInput(f"missing [{sect}] section")
    for sect in cp.sections():
        if sect not in ("scenario", "constants", "solver", "output"):
            raise InvalidInput(f"unknown config section [{sect}]")
    for (sect, key), value in (keys or {}).items():
        if value:
            cp.read_dict({sect: {key: value}})

    sc = cp["scenario"]
    cs = cp["constants"]
    _check_keys(sc, "scenario", _SCENARIO_KEYS)
    _check_keys(cs, "constants", _CONSTANTS_KEYS)

    forms = tuple(_get(sc, "forms", str, default="").split())

    scenario = ScenarioSpec(
        name=_get(sc, "name", str, default=p.stem),
        n=_get(sc, "n", int, default=1),
        d=_get(sc, "d", int, default=1),
        T=_get(sc, "T", float, required=True),
        terminal=_expression(sc, "terminal", dsl.TERMINAL_VARS),
        terminal_clamp=_get(sc, "terminal_clamp", float),
        f=_expression(sc, "f"),
        f1=_expression(sc, "f1"),
        f2=_expression(sc, "f2"),
        C=_get(cs, "C", float, required=True),
        gamma=_get(cs, "gamma", float, required=True),
        alpha=_get(cs, "alpha", float, default=0.0),
        xi_bound=_get(cs, "xi_bound", float, required=True),
        ctilde=_get(cs, "ctilde", float),
        forms=frozenset(forms),
    )

    settings = _fields(cp["solver"], "solver", _SOLVER_KEYS)
    basis_fields = {f.name for f in dataclasses.fields(RegressionBasis)}
    basis = RegressionBasis(**{k: v for k, v in settings.items() if k in basis_fields})
    solver = SolverConfig(
        basis=basis, **{k: v for k, v in settings.items() if k not in basis_fields}
    )
    out = cp["output"] if "output" in cp else {}
    options = OutputOptions(**_fields(out, "output", _OUTPUT_KEYS))
    return scenario, solver, options, text


@dataclass(frozen=True)
class RunManifest:
    """Provenance record embedded in every output file."""

    config_path: str
    config_sha256: str
    selector: str
    package_version: str
    source_sha256: str
    solver: dict
    numpy_version: str
    blas: str
    platform: str

    @property
    def digest(self) -> str:
        # the config's content is config_sha256: how its path was spelled
        # changes no output, so it stays out of the hash
        fields = dataclasses.asdict(self)
        del fields["config_path"]
        body = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["manifest_sha256"] = self.digest
        return d


def manifest_for(path, text: str, solver: SolverConfig, selector: str) -> RunManifest:
    from . import __version__

    return RunManifest(
        config_path=str(path),
        config_sha256=hashlib.sha256(text.encode()).hexdigest(),
        selector=selector,
        package_version=__version__,
        source_sha256=_source_sha256(),
        solver=dataclasses.asdict(solver),
        numpy_version=np.__version__,
        blas=_blas_library(),
        platform=host_platform(),
    )


@functools.cache
def _source_sha256() -> str:
    """SHA-256 of the package's ``.py`` files, each by its path within the
    package, its length and its bytes, in path order; taken once per
    process."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def _blas_library() -> str:
    """Name and version of the BLAS numpy was built against, e.g.
    ``scipy-openblas 0.3.31.188.0``; read once, when first asked for."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def host_platform() -> str:
    """Operating system and machine architecture, e.g. ``Linux-x86_64``."""
    return f"{platform.system()}-{platform.machine()}"


def _fmt(x: float) -> str:
    # shortest round-trip decimal form keeps reruns byte-identical
    return repr(float(x))


def write_result_csv(path, result, manifest: RunManifest) -> None:
    """Node-indexed summary: time, mean/sd of the state, mean integrand,
    mean squared integrand magnitude, and the certificate's envelope bound.
    One data row per grid node."""
    times = result.m_y.times()
    my = result.m_y.values.reshape(len(times), -1)
    mz = result.m_z.values.reshape(len(times), -1)
    P = result.y.n_paths
    # node by node, one state component at a time: numpy reduces short
    # rows one path at a time
    sd = np.array([[column.std() for column in node.reshape(P, -1).T]
                   for node in result.y.values])
    zsq = np.array([sq.mean() for sq in node_square_norms(result.z)])
    env = result.certificate.alpha_envelope(times)

    buf = io.StringIO()
    buf.write(f"# manifest_sha256={manifest.digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    header = (
        ["t"]
        + [f"m_y{k + 1}" for k in range(my.shape[1])]
        + [f"sd_y{k + 1}" for k in range(sd.shape[1])]
        + [f"m_z{k + 1}" for k in range(mz.shape[1])]
        + ["mean_z_sq", "alpha_bound"]
    )
    writer.writerow(header)
    for i, t in enumerate(times):
        row = (
            [_fmt(t)]
            + [_fmt(v) for v in my[i]]
            + [_fmt(v) for v in sd[i]]
            + [_fmt(v) for v in mz[i]]
            + [_fmt(zsq[i]), _fmt(env[i])]
        )
        writer.writerow(row)
    Path(path).write_text(buf.getvalue())


def write_result_json(path, result, manifest: RunManifest) -> None:
    payload = result.as_dict()
    payload["manifest"] = manifest.as_dict()
    Path(path).write_text(json.dumps(payload, indent=1))


def write_failure_json(path, error: MFBSDEError, manifest: RunManifest) -> None:
    """Record of a failed solve: the error, the partial trace of an outer
    iteration that stopped without converging (the failing window's; None
    for other errors) and the manifest."""
    trace = getattr(error, "trace", None)
    payload = {
        "error": type(error).__name__,
        "message": str(error),
        "trace": trace.as_dict() if trace is not None else None,
        "manifest": manifest.as_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def write_certificate_files(out_dir, prefix: str, cert, manifest: RunManifest) -> tuple[Path, Path]:
    out = Path(out_dir)
    (out / prefix).parent.mkdir(parents=True, exist_ok=True)
    txt = out / f"{prefix}_certificate.txt"
    js = out / f"{prefix}_certificate.json"
    txt.write_text(
        cert.report_text() + f"\n  manifest sha256               : {manifest.digest}\n"
    )
    payload = cert.as_dict()
    payload["manifest"] = manifest.as_dict()
    js.write_text(json.dumps(payload, indent=1))
    return txt, js
