"""The repository's tools: the output comparison between two trees."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself(capsys, tool):
    # one config at a tiny size: its certificate, and a selector that
    # solves and one that refuses the scenario (an error line and a failure
    # record); certify is a selector like the solvers, run once when named
    compare = tool("compare_outputs")
    src = str(ROOT / "src")
    argv = [src, src, "--configs", str(ROOT / "configs" / "ex22.cfg"),
            "--solvers", "certify,global,shift", "--paths", "40", "--steps", "4"]
    assert compare.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "same ex22.cfg certify (exit 0)", "same ex22.cfg global (exit 0)",
        "same ex22.cfg shift (exit 2)", "3 runs, 0 differences"]
    # certificates alone
    argv = [src, src, "--configs", str(ROOT / "configs" / "ex22.cfg"), "--solvers", "certify"]
    assert compare.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "same ex22.cfg certify (exit 0)", "1 runs, 0 differences"]
    # a changed row, error line, summary line or JSON field is a difference;
    # the manifest line is blanked
    old = {"exit": 0, "errors": [], "stdout": ["solver=global", "a: 1", "c: 3"],
           "files": {"run_result.csv": "\nt\n0.0\n", "run_result.json": {"m_y": [1.0], "t": [0]}}}
    new = {"exit": 1, "errors": ["error: x"], "stdout": ["solver=global", "a: 2", "b: 2", "c: 3"],
           "files": {"run_result.csv": "\nt\n0.5\n", "run_result.json": {"m_y": [2.0], "t": [0]}}}
    assert compare.differences(old, new) == [
        "exit code 0 -> 1", "error lines [] -> ['error: x']",
        "stdout - a: 1", "stdout + a: 2", "stdout + b: 2",
        "run_result.csv differs first at line 3, largest relative move 0.5",
        "run_result.json differs in m_y"]
    assert compare.differences(old, old) == []


# a tree whose command line knows only the selectors of ``_SOLVERS``: it
# writes nothing, and refuses any other selector as argparse does
_FAKE_CLI = """import sys
_SOLVERS = dict.fromkeys({names!r})
if __name__ == "__main__" and sys.argv[1] == "solve" and sys.argv[3] not in _SOLVERS:
    print("error: argument --solver: invalid choice", file=sys.stderr)
    sys.exit(2)
"""


def test_compare_outputs_runs_the_selectors_of_both_trees(capsys, tool, tmp_path):
    # a selector only one tree has is run on both and reported
    compare = tool("compare_outputs")
    trees = []
    for side, names in (("old", ["global", "gone"]), ("new", ["global", "fresh"])):
        package = tmp_path / side / "mfbsde"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(_FAKE_CLI.format(names=names))
        trees.append(str(package.parent))
    assert compare.selectors(*trees) == ["certify", "global", "gone", "fresh"]
    argv = [*trees, "--configs", str(ROOT / "configs" / "ex22.cfg")]
    assert compare.main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "same ex22.cfg certify (exit 0)", "same ex22.cfg global (exit 0)",
        "DIFF ex22.cfg gone (exit 2)", "  exit code 0 -> 2",
        "  error lines [] -> ['error: argument --solver: invalid choice']",
        "DIFF ex22.cfg fresh (exit 0)", "  exit code 2 -> 0",
        "  error lines ['error: argument --solver: invalid choice'] -> []",
        "4 runs, 4 differences"]
