"""Command line interface.

Three commands:

``mfbsde certify --config FILE``
    Compute the constant chain for the configured scenario and write a
    human-readable report plus a JSON version next to it.

``mfbsde solve --config FILE [--solver NAME] [flags...]``
    Run one of the four solvers, ``global``, ``picard``, ``shift`` or
    ``multidim``, and write CSV/JSON results.  The local solve is
    ``global`` on one window (``--windows 1``); any other name, ``local``
    among them, exits 2 with argparse's choices message.  The CSV has an
    ``alpha_bound`` column, the certificate's envelope; the JSON is ``SolveResult.as_dict()`` plus the
    manifest.  Its traces hold one entry per sweep, the first measured
    against the start (the terminal data's path mean with a zero
    integrand), so ``max_outer`` is a budget of sweeps per window, and
    count each window's z-clamp activations (``clamp_events``), the passes
    of its state solves (``inner_iterations``) and those that halved their
    step (``damped_passes``), its width in time (``width``) and, for
    windows sized from measured contraction, the first contraction ratio of
    the window to its right that chose that width (``ratio``, null
    otherwise), and whether it is wider than the certified width
    (``exceeds_certificate``, null for Picard's horizon).
    The summary prints each window's span, width, choosing ratio (``-``
    for none), outer iterations, z-clamp activations, inner iterations and
    damped passes, and every entry of the result's ``flags``.
    ``--solver shift`` also covers the deterministic-shift case (``f1`` of
    ``s, z`` only, ``f2`` without the state): two sweeps, the first exact.
    ``picard`` solves the horizon as one window: it ignores ``n_windows``
    and ``--windows``, and the manifest records ``n_windows`` as null.

``mfbsde validate [--criteria 1,2,...]``
    Run the acceptance criteria and print one PASS/FAIL line each; a
    criterion listed twice runs once.

Every other flag of ``certify`` and ``solve`` sets one config key over the
file's value (``_FLAGS``) and is read as that key is: a malformed value is
one ``error:`` line naming the key, an empty one sets nothing.

Exit codes: 0 on success, 1 when a solver or certificate computation fails,
2 for invalid inputs (bad config, bad flags, solver/scenario mismatch) and
for files that cannot be read or written, each with one ``error:`` line.
A solve whose solver call fails (an outer iteration that stops without
converging, a diverging backward step, an unusable regression, a
solver/scenario mismatch or another invalid input found there, ...) also
writes ``<prefix>_failure.json``: the error, the partial trace of a failed
outer iteration (null for other failures), with the same counts, and the
manifest.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import certify
from .config import (
    load_config,
    manifest_for,
    write_certificate_files,
    write_failure_json,
    write_result_csv,
    write_result_json,
)
from .core import build_grid, simulate_brownian
from .errors import InvalidInput, MFBSDEError
from .meanfield import (
    global_solve,
    multidim_solve,
    picard_global,
    shift_fixed_point,
)

_SOLVERS = {
    "global": global_solve,
    "picard": picard_global,
    "shift": shift_fixed_point,
    "multidim": multidim_solve,
}

# flag -> the (section, key) of the config it sets
_FLAGS = {
    "--out-dir": ("output", "dir"),
    "--prefix": ("output", "prefix"),
    "--seed": ("solver", "seed"),
    "--paths": ("solver", "paths"),
    "--steps": ("solver", "steps"),
    "--windows": ("solver", "n_windows"),
    "--override-epsilon": ("solver", "override_epsilon"),
}

# the summary's per-window lines: label, and one trace's cell
_WINDOW_LINES = (
    ("window widths", lambda t: f"{t.width:.6g}"),
    ("choosing ratios", lambda t: "-" if t.ratio is None else f"{t.ratio:.4g}"),
    ("iterations per window", lambda t: str(t.iterations)),
    ("z-clamp events per window", lambda t: str(t.clamp_events)),
    ("inner iterations per window", lambda t: str(t.inner_iterations)),
    ("damped passes per window", lambda t: str(t.damped_passes)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="Monte Carlo solvers and certificates for mean-field "
        "quadratic BSDEs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *flags):
        p.add_argument("--config", required=True, help="config file (INI)")
        for flag in ("--out-dir", "--prefix", *flags):
            section, key = _FLAGS[flag]
            p.add_argument(flag, help=f"sets [{section}] {key}")

    p_cert = sub.add_parser("certify", help="compute the constant chain")
    add_common(p_cert)

    p_solve = sub.add_parser("solve", help="run a solver")
    add_common(p_solve, "--seed", "--paths", "--steps", "--windows")
    p_solve.add_argument(
        "--solver",
        default="global",
        choices=sorted(_SOLVERS),
        help="which solver to run (default: global)",
    )
    p_solve.add_argument(
        "--override-epsilon",
        action="store_const",
        const="true",
        help="allow windows wider than the certified width (recorded on each "
        "window's trace instead of failing)",
    )

    p_val = sub.add_parser("validate", help="run the acceptance criteria")
    p_val.add_argument(
        "--criteria",
        default=None,
        help="comma-separated criterion numbers (default: all)",
    )
    p_val.add_argument("--json", default=None, help="also write results to this JSON file")
    return parser


def _keys(args) -> dict:
    """The config keys the flags set, ``{(section, key): text or None}``."""
    return {sk: getattr(args, flag[2:].replace("-", "_"), None) for flag, sk in _FLAGS.items()}


def _cmd_certify(args) -> int:
    scenario, solver_cfg, options, text = load_config(args.config, _keys(args))
    cert = certify(scenario)
    manifest = manifest_for(args.config, text, solver_cfg, "certify")
    out_dir = Path(options.directory)
    txt_path, json_path = write_certificate_files(out_dir, options.prefix, cert, manifest)
    print(cert.report_text())
    print(f"wrote {txt_path} and {json_path}")
    return 0


def _cmd_solve(args) -> int:
    scenario, solver_cfg, options, text = load_config(args.config, _keys(args))
    if args.solver == "picard":  # one window, whatever n_windows plans
        solver_cfg = solver_cfg.updated(n_windows=None)
    run = _SOLVERS[args.solver]
    out_dir = Path(options.directory)
    # made before the solve, whose failure record goes there too
    (out_dir / options.prefix).parent.mkdir(parents=True, exist_ok=True)

    grid = build_grid(scenario.T, solver_cfg.n_steps)
    ensemble = simulate_brownian(grid, scenario.d, solver_cfg.n_paths, solver_cfg.seed)
    manifest = manifest_for(args.config, text, solver_cfg, args.solver)
    t0 = time.perf_counter()
    try:
        result = run(scenario, ensemble, solver_cfg)
    except MFBSDEError as exc:
        failure_path = out_dir / f"{options.prefix}_failure.json"
        write_failure_json(failure_path, exc, manifest)
        print(f"wrote {failure_path}")
        raise
    elapsed = time.perf_counter() - t0

    csv_path = out_dir / f"{options.prefix}_result.csv"
    json_path = out_dir / f"{options.prefix}_result.json"
    write_result_csv(csv_path, result, manifest)
    write_result_json(json_path, result, manifest)

    traces = result.trace if isinstance(result.trace, list) else [result.trace]
    print(f"solver={args.solver} scenario={scenario.name} paths={solver_cfg.n_paths} "
          f"steps={solver_cfg.n_steps} seed={solver_cfg.seed}")
    print("window spans: " + ", ".join(f"[{lo}, {hi}]" for lo, hi in result.windows))
    for label, cell in _WINDOW_LINES:
        print(f"{label}: " + ", ".join(cell(t) for t in traces))
    print(f"state mean at t=0: "
          + ", ".join(f"{v:.6f}" for v in result.m_y.values[0]))
    for key in sorted(result.flags):
        print(f"{key}: {result.flags[key]}")
    print(f"elapsed: {elapsed:.2f}s")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_validate(args) -> int:
    from . import acceptance

    ids = None
    if args.criteria is not None:
        try:
            ids = [int(part) for part in args.criteria.split(",") if part.strip()]
        except ValueError as exc:
            raise InvalidInput(f"bad --criteria list: {args.criteria!r}") from exc
        if not ids:
            raise InvalidInput(f"bad --criteria list: {args.criteria!r}")
        unknown = [i for i in ids if i not in acceptance.CRITERIA]
        if unknown:
            raise InvalidInput(f"unknown criteria: {unknown}")
    if args.json:
        # a report that cannot be written fails before any criterion runs
        report = Path(args.json)
        if report.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(report))
        if not report.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(report.parent))
    results = []
    for cid in sorted(set(ids or acceptance.CRITERIA)):
        res = acceptance.run_criterion(cid)
        print(res.line())
        results.append(res)
    if args.json:
        Path(args.json).write_text(
            json.dumps([r.as_dict() for r in results], indent=2, sort_keys=True) + "\n"
        )
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags and 0 on --help/--version
        return int(exc.code or 0)
    command = {"certify": _cmd_certify, "solve": _cmd_solve, "validate": _cmd_validate}
    try:
        # no numpy warning before the error: line; the language's, the
        # sweep's and the grids' checks catch every non-finite value
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command[args.command](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MFBSDEError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
