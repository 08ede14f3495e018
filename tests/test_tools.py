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
        "run_result.csv differs first at line 3", "run_result.json differs in m_y"]
    assert compare.differences(old, old) == []
