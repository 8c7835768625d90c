"""The benchmark looks program functions up by name: its traced run
wraps them (bench/spans.py, TARGETS) and its set-up loads and scores
each resource (bench/workloads.py, RESOURCES), and its workloads and
harness read names off refgame's modules. A rename or a dropped
import there breaks the benchmark without failing any program test, so
the names are checked here. The bench files are loaded, never changed."""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

import refgame
from refgame import association, lexicon

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{module.__name__}.{name}"
        for module, name, *_ in spans.TARGETS
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_every_resource_loader_and_metric_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their class's module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.RESOURCES
    missing = [
        name
        for _, _, loader, metric in workloads.RESOURCES
        for module, name in ((lexicon, loader), (association, metric))
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def _refgame_names(tree: ast.Module) -> dict:
    """The names a bench file binds to refgame or its modules, and the
    objects they stand for; a `from refgame.x import y` that does not
    resolve is bound to None."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import refgame.x` binds refgame; `import refgame.x as y` binds y to refgame.x
                if alias.name.split(".")[0] == "refgame":
                    module = alias.name if alias.asname else "refgame"
                    names[alias.asname or "refgame"] = importlib.import_module(module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "refgame":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None)
    return names


@pytest.mark.parametrize("file", ["workloads.py", "harness.py"])
def test_every_program_name_the_bench_reads_resolves(file):
    # every `module.name` the file reads off refgame or one of its
    # modules, such as oed.ModelSet or evaluation.model_agreement
    tree = ast.parse((BENCH / file).read_text(encoding="utf-8"))
    names = _refgame_names(tree)
    assert names, f"{file} imports nothing from refgame"
    missing = {name for name, value in names.items() if value is None}

    def resolve(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if isinstance(owner, types.ModuleType):
                if not hasattr(owner, node.attr):
                    missing.add(f"{owner.__name__}.{node.attr}")
                return getattr(owner, node.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            resolve(node)
    assert sorted(missing) == []
