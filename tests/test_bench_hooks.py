"""The benchmark's traced run wraps program functions by name
(bench/spans.py, TARGETS). A rename or a dropped import there breaks
traced runs without failing any program test, so the names are checked
here. bench/spans.py is loaded, never changed."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
