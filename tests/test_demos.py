"""The demos import only names the package still exports.

Running the demos takes too long for the unit suite, so this checks
their `from refgame import (...)` lines statically.
"""

import ast
from pathlib import Path

import pytest

import refgame

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "refgame"
        for alias in node.names
    ]
    assert names, f"{demo.name} imports nothing from refgame"
    missing = [name for name in names if not hasattr(refgame, name)]
    assert missing == [], f"{demo.name} imports names refgame lacks: {missing}"
