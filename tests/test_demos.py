"""The demos import only names the package still exports, and print
exactly what they printed when their expected output was recorded.

Each `tests/data/demos/<name>.out` holds a demo's stdout; a change that
alters a demo's output on purpose records the new output there.
"""

import ast
import runpy
from pathlib import Path

import pytest

import refgame

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_unchanged(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (EXPECTED / f"{demo.stem}.out").read_text()
