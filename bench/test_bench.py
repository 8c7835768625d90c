"""Tests of the benchmark itself.

    python3 -m pytest bench

They run on the small reference inputs, so they take seconds, not the
minutes a measured run takes.
"""

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402

DIGESTS = json.loads((BENCH / "digests.json").read_text())
IN_PROCESS = ("search-exp4", "search-exp1", "evaluate")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    work = tmp_path_factory.mktemp("reference")
    paths = synth.generate(work / "inputs", synth.REFERENCE_SEED, synth.REFERENCE_SETTINGS)
    return work, workloads.load_inputs(paths, work / "setup", records=True)


def _round(workload, reference, meter=None):
    work, inputs = reference
    return harness.run_round(workload, inputs, synth.REFERENCE_SEED, 0, work,
                             meter or speed.Speedometer(), size=workloads.REFERENCE_ROUND[workload])


def test_generator_is_deterministic(tmp_path):
    first = synth.generate(tmp_path / "a", 3, synth.REFERENCE_SETTINGS)
    again = synth.generate(tmp_path / "b", 3, synth.REFERENCE_SETTINGS)
    other = synth.generate(tmp_path / "c", 4, synth.REFERENCE_SETTINGS)
    assert all(first[n].read_bytes() == again[n].read_bytes() for n in synth.FILES)
    assert any(first[n].read_bytes() != other[n].read_bytes() for n in synth.FILES)


def test_generation_in_a_child_matches_in_process(tmp_path):
    child = harness._generate(tmp_path / "child", 5)
    here = synth.generate(tmp_path / "here", 5)
    assert all(child[n].read_bytes() == here[n].read_bytes() for n in synth.FILES)


def test_speed_reference_and_quiet_timer():
    assert gc.isenabled()
    speed.calibration()
    assert gc.isenabled()
    assert speed.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    meter = speed.Speedometer(ticking=False)
    result, seconds = meter.timer(lambda: sum(range(10_000_000)))
    assert result == sum(range(10_000_000)) and seconds > 0
    assert len(meter.samples) == 2


def test_generated_resources_mask_only_missing_evidence(reference):
    _, inputs = reference
    for metric in ("embedding-cosine", "topic-distance"):
        assert not inputs.tables[metric].zero_mask.any()
    for metric in ("bigram", "graph-relatedness"):
        assert 0 < inputs.tables[metric].zero_mask.mean() < 0.5


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_tracing_keeps_outputs_and_restores_names(workload, reference):
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in spans.TARGETS]
    plain = _round(workload, reference)
    tracer = spans.Tracer()
    with tracer.active("round"):
        traced = _round(workload, reference)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
    lexicon = reference[1].lexicon
    assert workloads.digest(workload, plain.output, lexicon) == DIGESTS[workload]
    assert workloads.digest(workload, traced.output, lexicon) == DIGESTS[workload]
    metrics = tracer.layer_metrics()
    expected_predicts = {"search-exp4": 12, "search-exp1": 72, "evaluate": 18}[workload]
    assert metrics["rsa.predicts_per_scenario"] == expected_predicts


def test_traced_pipeline_replay_matches_golden(tmp_path):
    tracer = spans.Tracer()
    with tracer.active("round"):
        rnd = harness.run_round("pipeline-cli", None, 0, 0, tmp_path, speed.Speedometer(),
                                in_process=True)
    for step, _ in workloads.PIPELINE_STEPS:
        assert workloads.check_pipeline_step(rnd.output, step) == []
    assert workloads.digest("pipeline-cli", rnd.output) == DIGESTS["pipeline-cli"]
    metrics = tracer.layer_metrics()
    assert metrics["cli.steps"] == 4
    assert (metrics["oed.keys_sampled"], metrics["oed.keys_unique"]) == (4000, 2272)


def test_search_check_catches_broken_lists(reference):
    candidates, kept = _round("search-exp4", reference).output
    assert workloads.check_search((candidates, kept)) == []
    reordered = [candidates[-1], *candidates[:-1]]
    assert any("descending" in p for p in workloads.check_search((reordered, kept)))
    repeated = kept + [dataclasses.replace(kept[-1], utility=0.0)]
    problems = workloads.check_search((candidates, repeated))
    assert any("fewer than two words" in p for p in problems)


def test_evaluate_check_catches_bad_scores(reference):
    responses, played, reports, *rest = _round("evaluate", reference).output
    assert workloads.check_evaluate((responses, played, reports, *rest), reference[1].tables) == []
    broken = [dataclasses.replace(reports[0], top_answers=(2,) * len(responses)), *reports[1:]]
    problems = workloads.check_evaluate((responses, played, broken, *rest), reference[1].tables)
    assert any("top answer" in p for p in problems)


def test_sampled_child_keeps_exit_status_and_output(tmp_path):
    meter = speed.Speedometer()
    ok, seconds = meter.run(["-m", "refgame", "--version"], tmp_path / "a.json",
                            env=workloads.child_env(), capture_output=True, text=True)
    bad, _ = meter.run(["-m", "refgame", "no-such-command"], tmp_path / "b.json",
                       env=workloads.child_env(), capture_output=True, text=True)
    assert (ok.returncode, ok.stdout.strip()) == (0, "refgame 0.1.0")
    assert bad.returncode == 2
    assert seconds > 0 and len(json.loads((tmp_path / "a.json").read_text())) >= 2


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-exp4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""
