"""Documentation tables that are kept by hand against the code they document."""

import re
from pathlib import Path

from mfbsde import dsl
from mfbsde.acceptance import CRITERIA
from mfbsde.cli import _SOLVERS
from mfbsde.config import _SOLVER_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
GRAMMAR = README.parent / "docs" / "grammar.md"


def _first_column(header: str) -> list[str]:
    """The back-quoted first cells of the README table under ``header``."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    cells = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        cells.append(re.match(r"\| `([^`]+)` \|", line).group(1))
    return cells


def test_selector_table_lists_the_cli_solvers():
    assert sorted(_first_column("| selector |")) == sorted(_SOLVERS)


def test_solver_key_table_lists_the_config_keys():
    assert sorted(_first_column("| `[solver]` key |")) == sorted(_SOLVER_KEYS)


def test_criteria_table_lists_the_acceptance_criteria():
    assert sorted(int(c) for c in _first_column("| criterion |")) == sorted(CRITERIA)


def test_grammar_function_table_lists_the_dsl_functions():
    lines = GRAMMAR.read_text().splitlines()
    start = lines.index("| name | arity | meaning |")
    arities = {}
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        names, arity = line.split("|")[1:3]
        for name in re.findall(r"`([^`]+)`", names):
            arities[name] = int(arity)
    assert arities == dsl.FUNCTIONS
