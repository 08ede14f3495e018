#!/usr/bin/env python3
"""Compare what two source trees write for the same solves.

Runs ``mfbsde certify`` and ``mfbsde solve`` under every solver selector
on every shipped config (``configs/*.cfg``), once with each tree's package
on ``PYTHONPATH``, and reports every difference in:

* the exit code and the ``error:`` lines on stderr;
* standard output, less its ``elapsed:`` and ``wrote ...`` lines;
* which output files were written;
* the result CSV and the certificate report, less their manifest line,
  with the first line that differs and the largest relative move
  ``max |a - b| / max(1, |a|)`` of the numeric cells of the lines that
  differ;
* the result JSON, less its ``manifest`` and every trace's ``wall_times``;
* the failure record and the certificate JSON, less the same.

The manifest is left out because its digest moves with anything it
hashes, and wall times and output paths because they are the host's.
``--solvers`` picks among ``certify`` and the solver selectors, by default
``certify`` and every selector of either tree (each tree's
``cli._SOLVERS``, read with that tree on ``PYTHONPATH``), so a selector
one tree lacks is run and reported; ``--solvers certify`` compares the
certificates alone.  ``--paths`` and ``--steps`` apply to the solves; a
certificate reads neither.  Exits 1 when any difference is found, else 0.
Run from the repository root, e.g. against a checkout of another commit:

    python3 tools/compare_outputs.py ../other/src src
    python3 tools/compare_outputs.py ../other/src src --paths 3000 --steps 12
    python3 tools/compare_outputs.py ../other/src src --solvers certify --configs my.cfg
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the result CSV's first line and the certificate report's last
_MANIFEST_LINE = re.compile(r"^.*manifest[_ ]sha256.*$", re.M)
# standard output's wall time and output paths
_HOST_LINE = re.compile(r"^(elapsed: |wrote )")
# what separates the cells of a CSV row or of a report line
_CELL_SEP = re.compile(r"[,\s]+")


def _strip(payload):
    """``payload`` less its manifest and every ``wall_times`` entry."""
    if isinstance(payload, dict):
        return {k: _strip(v) for k, v in payload.items() if k not in ("manifest", "wall_times")}
    if isinstance(payload, list):
        return [_strip(v) for v in payload]
    return payload


def _env(src) -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(src).resolve()))


def selectors(old_src, new_src) -> list[str]:
    """``certify`` and every solver selector of either tree, the old
    tree's first, each tree's ``cli._SOLVERS`` read in a subprocess with
    that tree on ``PYTHONPATH``."""
    code = "from mfbsde.cli import _SOLVERS; print(*_SOLVERS)"
    names = ["certify"]
    for src in (old_src, new_src):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(src),
                              capture_output=True, text=True, check=True)
        names += proc.stdout.split()
    return list(dict.fromkeys(names))


def _largest_move(pairs) -> float | None:
    """``max |x - y| / max(1, |x|)`` over the cells of the ``(old, new)``
    line pairs that differ and that both read as numbers, or None for none."""
    moves = []
    for line_a, line_b in pairs:
        for x, y in zip(_CELL_SEP.split(line_a), _CELL_SEP.split(line_b)):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            moves.append(abs(x - y) / max(1.0, abs(x)))
    return max(moves, default=None)


def run(src, config, selector: str, out_dir: Path, overrides=()) -> dict:
    """One ``mfbsde solve`` with the package under ``src``, or ``mfbsde
    certify`` for the selector ``certify``: its exit code, its ``error:``
    lines, its standard output, and each file it wrote, normalised for
    comparison."""
    command = ["certify"] if selector == "certify" else ["solve", "--solver", selector, *overrides]
    cmd = [sys.executable, "-m", "mfbsde.cli", *command, "--config", str(config),
           "--out-dir", str(out_dir), "--prefix", "run"]
    proc = subprocess.run(cmd, env=_env(src), capture_output=True, text=True)
    files = {}
    for path in sorted(out_dir.glob("run_*")):
        text = path.read_text()
        if path.suffix == ".json":
            files[path.name] = _strip(json.loads(text))
        else:
            # blanked in place, so that line numbers hold
            files[path.name] = _MANIFEST_LINE.sub("", text)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    stdout = [line for line in proc.stdout.splitlines() if not _HOST_LINE.match(line)]
    return {"exit": proc.returncode, "errors": errors, "stdout": stdout, "files": files}


def differences(old: dict, new: dict) -> list[str]:
    """What differs between two outcomes of :func:`run`, one line each."""
    out = []
    if old["exit"] != new["exit"]:
        out.append(f"exit code {old['exit']} -> {new['exit']}")
    if old["errors"] != new["errors"]:
        out.append(f"error lines {old['errors']} -> {new['errors']}")
    out += [f"stdout {line}" for line in difflib.ndiff(old["stdout"], new["stdout"])
            if line[0] in "+-"]
    if sorted(old["files"]) != sorted(new["files"]):
        out.append(f"files {sorted(old['files'])} -> {sorted(new['files'])}")
    for name in sorted(set(old["files"]) & set(new["files"])):
        a, b = old["files"][name], new["files"][name]
        if a == b:
            continue
        if isinstance(a, str):
            pairs = {i: (x, y) for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1)
                     if x != y}
            where = f"first at line {min(pairs)}" if pairs else "in its row count"
            move = _largest_move(pairs.values())
            if move is not None:
                where += f", largest relative move {move:.3g}"
            out.append(f"{name} differs {where}")
        else:
            keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            out.append(f"{name} differs in {', '.join(keys)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the old tree's package directory (holding mfbsde/)")
    parser.add_argument("new_src", help="the new tree's package directory")
    parser.add_argument("--configs", nargs="+", default=None,
                        help="configs to run (default: configs/*.cfg)")
    parser.add_argument("--solvers", default=None,
                        help="comma-separated selectors: certify or a solver "
                        "(default: certify and every selector of either tree)")
    parser.add_argument("--paths", type=int, default=None, help="override every config's paths")
    parser.add_argument("--steps", type=int, default=None, help="override every config's steps")
    args = parser.parse_args(argv)

    configs = [Path(c).resolve() for c in args.configs] if args.configs else sorted(
        (ROOT / "configs").glob("*.cfg"))
    overrides = []
    if args.paths is not None:
        overrides += ["--paths", str(args.paths)]
    if args.steps is not None:
        overrides += ["--steps", str(args.steps)]
    names = args.solvers.split(",") if args.solvers else selectors(args.old_src, args.new_src)
    found = 0
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            for selector in names:
                outcomes = []
                for side, src in (("old", args.old_src), ("new", args.new_src)):
                    out_dir = Path(tmp) / f"{config.stem}-{selector}-{side}"
                    outcomes.append(run(src, config, selector, out_dir, overrides))
                runs += 1
                diffs = differences(*outcomes)
                found += len(diffs)
                status = "DIFF" if diffs else "same"
                print(f"{status} {config.name} {selector} (exit {outcomes[1]['exit']})")
                for line in diffs:
                    print(f"  {line}")
    print(f"{runs} runs, {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
