"""The reference implementations under tests/oracles/ stay independent of
the package: each imports only the standard library and other oracles, so
a fault in the package cannot reach the values it is checked against."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ORACLES = sorted((Path(__file__).parent / "oracles").glob("*.py"))
SIBLINGS = {f"oracles.{path.stem}" for path in ORACLES}


def outside_imports(source: str) -> list[str]:
    """The modules `source` imports that are neither in the standard
    library nor another oracle; a relative import counts as outside."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return [
        name for name in names
        if name not in SIBLINGS and name.split(".")[0] not in sys.stdlib_module_names
    ]


def test_the_check_flags_the_package_and_third_party_modules():
    source = (
        "import json, reciteqa\n"
        "from reciteqa.evalkit import normalize\n"
        "from hypothesis import given\n"
        "from . import helpers\n"
        "from oracles.em_f1_oracle import oracle_em\n"
    )
    assert outside_imports(source) == ["reciteqa", "reciteqa.evalkit", "hypothesis", "."]


@pytest.mark.parametrize("path", ORACLES, ids=lambda path: path.stem)
def test_an_oracle_imports_only_the_standard_library_and_other_oracles(path):
    assert outside_imports(path.read_text(encoding="utf-8")) == []


def test_the_oracles_are_found():
    # An empty glob would leave the parametrized check with nothing to check.
    assert {
        "bm25_oracle", "category_oracle", "curve_oracle", "em_f1_oracle", "normalize_oracle",
        "vote_threshold_oracle",
    } <= {path.stem for path in ORACLES}
