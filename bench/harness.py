"""Measurement and checking for one benchmark run (see run.py)."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import refgame
import spans
import speed
import synth
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_work" / "results"

# fresh-process samples per run
SETUP_PROBES = 3
CLI_STARTS = 2
IMPORT_PROBES = 3
IMPORT_MODULES = {"refgame": "import.refgame_s", "scipy.stats": "import.scipy_stats_s",
                  "numpy": "import.numpy_s"}
# a small round before timing, checked but not measured
WARM_UP = {"iterations": 50, "records": 20, "scenarios": 10}


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _median(values) -> float:
    # 0.0 only when every round failed, and then the result is not correct
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# environment record

def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository of
    its own (git would otherwise report an enclosing repository)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    lines = result.stdout.split()
    if result.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "refgame").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurements taken from fresh processes

def setup_probe(workload, work: Path, index: int, ledger: Ledger, meter) -> float:
    """Seconds for a fresh interpreter to import refgame and load the inputs."""
    result, seconds = meter.run(
        [str(BENCH / "probe.py"), workload, str(work / "inputs"), str(work / f"probe{index}")],
        work / f"probe{index}.samples.json",
        env=workloads.child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    ledger.record([f"set-up probe: {result.stderr.strip()[-300:]}"] if result.returncode else [])
    return seconds


def cli_start(work: Path, ledger: Ledger, meter) -> float:
    """Seconds for a cold `refgame --version`."""
    result, seconds = meter.run(
        ["-m", "refgame", "--version"], work / "start.samples.json",
        cwd=work, env=workloads.child_env(), capture_output=True, text=True,
    )
    expected = f"refgame {refgame.__version__}"
    ledger.record([] if result.returncode == 0 and result.stdout.strip() == expected
                  else [f"--version: exit {result.returncode}, {result.stdout.strip()!r}"])
    return seconds


# "import time: self [us] | cumulative | module", nested modules indented
_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(work: Path, ledger: Ledger) -> dict[str, float]:
    """Cumulative import seconds per module from python -X importtime."""
    samples = {metric: [] for metric in IMPORT_MODULES.values()}
    for _ in range(IMPORT_PROBES):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import refgame"],
            cwd=work, env=workloads.child_env(), capture_output=True, text=True,
        )
        found = {}
        for match in _IMPORTTIME.finditer(result.stderr):
            module = match.group(2)
            if module in IMPORT_MODULES and module not in found:
                found[module] = int(match.group(1)) / 1e6
        problems = [] if result.returncode == 0 else [f"import probe: exit {result.returncode}"]
        problems += [f"import probe: no line for {m}" for m in IMPORT_MODULES if m not in found]
        ledger.record(problems)
        for module, seconds in found.items():
            samples[IMPORT_MODULES[module]].append(seconds)
    return {metric: _median(values) if values else 0.0 for metric, values in samples.items()}


def peak_rss_mb(who: int) -> float:
    """Largest resident set, in MiB, of this process (RUSAGE_SELF) or of
    any child it has waited for (RUSAGE_CHILDREN)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# rounds

def _seed_for(seed: int, index: int) -> int:
    return seed * 10_000 + index


def run_round(workload: str, inputs, seed: int, index: int, work: Path, meter,
              in_process: bool = False, size: dict | None = None):
    """One round of the workload, each part timed at the reference speed;
    size overrides the round's work. The pipeline runs as CLI processes,
    or in this process when in_process is set."""
    size = size or {}
    if workload == "pipeline-cli":
        def run_step(argv, work_dir):
            if in_process:
                return meter.timer(lambda: workloads.cli_in_process(argv, work_dir))
            result, seconds = meter.run(
                ["-m", "refgame", *argv], work_dir / "step.samples.json",
                cwd=work_dir, env=workloads.child_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            return result.returncode, seconds

        return workloads.pipeline_round(work / f"round{index}", run_step)
    if workload.startswith("search-"):
        iterations = size.get("iterations", workloads.SEARCH_ITERATIONS[workload])
        return workloads.search_round(inputs, workload, _seed_for(seed, index), iterations,
                                      meter.timer)
    return workloads.evaluate_round(
        inputs, index, size.get("records", workloads.EVAL_RECORDS),
        size.get("scenarios", workloads.EVAL_SCENARIOS), meter.timer,
    )


def check_round(workload: str, rnd, inputs, ledger: Ledger) -> None:
    """Record the round's operations: one per program call or CLI step."""
    if rnd.error:
        ledger.record([rnd.error])
    elif workload.startswith("search-"):
        ledger.record(workloads.check_search(rnd.output))
    elif workload == "evaluate":
        ledger.record(workloads.check_evaluate(rnd.output, inputs.tables))
    else:
        for step, _ in workloads.PIPELINE_STEPS:
            ledger.record(workloads.check_pipeline_step(rnd.output, step))


def reference_digest(workload: str, work: Path) -> str:
    """Digest of one round on the fixed reference inputs (in-process
    workloads; the pipeline's inputs are fixed already)."""
    paths = synth.generate(work / "reference", synth.REFERENCE_SEED, synth.REFERENCE_SETTINGS)
    inputs = workloads.load_inputs(paths, work / "reference-setup", records=workload == "evaluate")
    rnd = run_round(workload, inputs, synth.REFERENCE_SEED, 0, work, speed.Speedometer(),
                    size=workloads.REFERENCE_ROUND[workload])
    return rnd.error or workloads.digest(workload, rnd.output, inputs.lexicon)


def check_reference(workload: str, work: Path, ledger: Ledger, first_round) -> None:
    """Compare an output digest with the one recorded in digests.json."""
    expected = json.loads((BENCH / "digests.json").read_text())[workload]
    if workload == "pipeline-cli":
        got = workloads.digest(workload, first_round.output)
    else:
        got = reference_digest(workload, work)
    ledger.record([] if got == expected else [f"output digest {got} != recorded {expected}"])


def _rate(rounds, count_key: str, time_key: str) -> float:
    return _median([r.parts[count_key] / r.parts[time_key] for r in rounds if time_key in r.parts])


def _generate(directory: Path, seed: int) -> dict[str, Path]:
    """synth.generate(directory, seed) in a child process, so that its
    memory stays out of this process's peak."""
    subprocess.run([sys.executable, str(BENCH / "synth.py"), str(directory), str(seed)],
                   env=workloads.child_env(), check=True)
    return {name: directory / filename for name, filename in synth.FILES.items()}


def _prepare(workload: str, seed: int, work: Path, tracer=None):
    """Generate the inputs and load them in this process (traced when a
    tracer is given). The pipeline workload loads nothing here."""
    if workload == "pipeline-cli":
        return None, {"inputs": "tests/data/golden/inputs (fixed; the seed is not used)"}
    paths = _generate(work / "inputs", seed)
    records = workload == "evaluate"
    if tracer is None:
        inputs = workloads.load_inputs(paths, work / "setup", records)
    else:
        with tracer.active("setup"):
            inputs = workloads.load_inputs(paths, work / "setup", records)
    return inputs, dict(synth.SETTINGS)


def _speed_extras(meter) -> dict:
    typical = speed.trimmed_mean(meter.samples)
    return {"calibration_ms": 1e3 * typical, "speed_factor": speed.REFERENCE_S / typical}


def measure(workload: str, seed: int, seconds: float, work: Path, ledger: Ledger):
    """Untraced run: end-to-end metrics plus the extras printed for people."""
    meter = speed.Speedometer()
    inputs, generator = _prepare(workload, seed, work)
    rss_before_rounds = peak_rss_mb(resource.RUSAGE_SELF)
    if workload != "pipeline-cli":
        rnd = run_round(workload, inputs, seed, 0, work, meter, size=WARM_UP)
        check_round(workload, rnd, inputs, ledger)

    # Set-up probes (and, for the pipeline, cold starts) are taken
    # between rounds, so that their samples spread over the run like the
    # rounds' do.
    setup, starts = [], []
    probes = [lambda i=i: setup.append(setup_probe(workload, work, i, ledger, meter))
              for i in range(SETUP_PROBES)]
    if workload == "pipeline-cli":
        probes += [lambda: starts.append(cli_start(work, ledger, meter))] * CLI_STARTS

    rounds = []
    measured = 0.0
    while measured < seconds:
        start = time.perf_counter()
        rnd = run_round(workload, inputs, seed, len(rounds) + 1, work, meter)
        measured += time.perf_counter() - start
        check_round(workload, rnd, inputs, ledger)
        rounds.append(rnd)
        if probes:
            probes.pop(0)()
    for probe in probes:
        probe()
    check_reference(workload, work, ledger, rounds[0])

    if workload.startswith("search-"):
        rate = _rate(rounds, "sampled", "search_s")
    elif workload == "evaluate":
        rate = _rate(rounds, "scenarios", "simulate_s")
    else:
        rate = _rate(rounds, "sampled", "oed_s")
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median([r.wall_s for r in rounds if not r.error]),
        "scenarios_per_s": rate,
        # the processes that run the rounds: the CLI children on the
        # pipeline, this process on the others (whose inputs are
        # generated in a child, so generation does not count)
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN if workload == "pipeline-cli"
                                   else resource.RUSAGE_SELF),
    }
    extras = {"rounds": len(rounds), "harness_rss_before_rounds_mb": rss_before_rounds,
              **_speed_extras(meter)}
    if workload == "evaluate":
        extras["records_per_s"] = _rate(rounds, "records", "score_s")
        extras["gameplay_scenarios_per_s"] = rate
    if workload == "pipeline-cli":
        extras["cli_start_s"] = _median(starts)
    return metrics, extras, generator


def measure_traced(workload: str, seed: int, seconds: float, work: Path, ledger: Ledger):
    """Traced run: alternate plain and traced rounds; per-layer metrics
    come from the traced ones, overhead from the difference. The pipeline
    replays cli.main in this process for both kinds of round. Rounds are
    sampled for speed only before and after, so no calibration falls
    inside a span."""
    meter = speed.Speedometer(ticking=False)
    tracer = spans.Tracer()
    imports = import_times(work, ledger)
    inputs, generator = _prepare(workload, seed, work, tracer)
    in_process = workload == "pipeline-cli"

    rnd = run_round(workload, inputs, seed, 0, work, meter, in_process, size=WARM_UP)
    check_round(workload, rnd, inputs, ledger)

    plain, traced = [], []
    measured = 0.0
    index = 1
    while not plain or not traced or measured < seconds:
        start = time.perf_counter()
        if index % 2:
            rnd = run_round(workload, inputs, seed, index, work, meter, in_process)
            plain.append(rnd)
        else:
            with tracer.active(f"round{index}"):
                rnd = run_round(workload, inputs, seed, index, work, meter, in_process)
            traced.append(rnd)
        measured += time.perf_counter() - start
        check_round(workload, rnd, inputs, ledger)
        index += 1
    check_reference(workload, work, ledger, plain[0])

    metrics = dict(imports)
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = (
        _median([r.wall_s for r in traced if not r.error])
        - _median([r.wall_s for r in plain if not r.error])
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write(RESULTS / f"{workload}.spans.tsv")
    extras = {"rounds": len(plain) + len(traced), "spans": len(tracer.spans), **_speed_extras(meter)}
    return metrics, extras, generator


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    """Measure one workload, print the report and the JSON result line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    env_record = environment(seed)
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        measure_fn = measure_traced if trace else measure
        values, extras, generator = measure_fn(workload, seed, seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extras["failed_frac"] = ledger.failed / ledger.attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {"workload": workload, "seconds": seconds, "trace": int(trace),
              "environment": env_record, "generator": generator, "extras": extras,
              "problems": ledger.problems[:20], "result": result}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"# workload {workload}  seed {seed}  trace {int(trace)}")
    print("# environment " + json.dumps(env_record, sort_keys=True))
    print("# generator " + json.dumps(generator, sort_keys=True))
    for problem in ledger.problems[:20]:
        print(f"# FAILED {problem}")
    for metric, entry in metrics.items():
        print(f"{metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in extras.items():
        print(f"{key:32s} {value:>16.6g}")
    print(json.dumps(result))
    return 0
