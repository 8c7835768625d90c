"""The benchmark looks program functions up by name: its traced run
wraps them (bench/spans.py, TARGETS) and its set-up loads and scores
each resource (bench/workloads.py, RESOURCES). A rename or a dropped
import there breaks the benchmark without failing any program test, so
the names are checked here. The bench files are loaded, never changed."""

import importlib.util
import sys
from pathlib import Path

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
