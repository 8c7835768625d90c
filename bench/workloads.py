"""Workload set-up, rounds and output checks.

A round is a fixed unit of work. A run repeats rounds with fresh
sub-seeds until its measuring time is up and reports medians, so every
round of a workload has the same size whatever the run length.

Calls into the program go through module attributes looked up at call
time (``oed.monte_carlo_search``, not an imported name), so that the
traced run can wrap them in place.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from refgame import association, cli, evaluation, lexicon, oed, rsa
from refgame.errors import DataError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden"

# metric, resource file, lexicon loader, association function
RESOURCES = (
    ("bigram", "counts", "load_counts", "bigram_association"),
    ("embedding-cosine", "embeddings", "load_embeddings", "cosine_association"),
    ("graph-relatedness", "relatedness", "load_relatedness", "relatedness_association"),
    ("topic-distance", "topics", "load_topics", "topic_association"),
)
METRIC_NAMES = tuple(r[0] for r in RESOURCES)

TOP_K = 500
# Search iterations per round: about one second each at paper scale.
SEARCH_ITERATIONS = {"search-exp4": 800, "search-exp1": 200}
SEARCH_PRESET = {"search-exp4": "exp4", "search-exp1": "exp1"}

# Evaluation round: records scored by every spec, gameplay scenarios.
EVAL_RECORDS = 100
EVAL_SCENARIOS = 250
# records and scenarios per round whose distributions are re-checked
CHECK_SAMPLE = 10
SCORE_SPECS = tuple(
    f"{metric}:{depth}"
    for metric in METRIC_NAMES
    for depth in ("literal", "pragmatic:1.0", "pragmatic:5.0")
)
AGREEMENT_PAIRS = (
    ("bigram:literal", "bigram:pragmatic:1.0"),
    ("bigram:literal", "embedding-cosine:literal"),
    ("graph-relatedness:literal", "topic-distance:literal"),
)
GAMEPLAY_SPEAKER = "bigram:pragmatic:1.0"
GAMEPLAY_LISTENER = "bigram:literal"

# Rounds on the reference inputs (synth.REFERENCE_SETTINGS) whose output
# digests are recorded in digests.json.
REFERENCE_ROUND = {
    "search-exp4": {"iterations": 200},
    "search-exp1": {"iterations": 60},
    "evaluate": {"records": 30, "scenarios": 20},
}

# The golden pipeline, with relative paths so the manifests match.
PIPELINE_INPUTS = ("lexicon.txt", "counts.tsv", "embeddings.txt", "relatedness.tsv", "topics.txt")
PIPELINE_ITERATIONS = 4000
PIPELINE_STEPS = (
    ("ingest", ["ingest", "counts", "counts.tsv", "--lexicon", "lexicon.txt",
                "--output", "raw_bigram.tsv"]),
    ("normalize", ["normalize", "raw_bigram.tsv", "--output", "norm_bigram.tsv"]),
    ("oed", ["oed", "--matrix", "norm_bigram.tsv", "--preset", "exp4",
             "--iterations", str(PIPELINE_ITERATIONS), "--seed", "7", "--top", "25",
             "--filter", "--output", "candidates.jsonl"]),
    ("simulate", ["simulate", "--matrix", "norm_bigram.tsv", "--scenarios", "candidates.jsonl",
                  "--speaker", "bigram:pragmatic:1.0", "--listener", "bigram:literal",
                  "--output", "simulation.tsv"]),
)
STEP_OUTPUTS = {
    "ingest": "raw_bigram.tsv",
    "normalize": "norm_bigram.tsv",
    "oed": "candidates.jsonl",
    "simulate": "simulation.tsv",
}


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's src first on
    PYTHONPATH and no REFGAME_THREADS."""
    env = dict(os.environ)
    env.pop("REFGAME_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Inputs:
    lexicon: object
    tables: dict
    responses: list = field(default_factory=list)
    scenarios: list = field(default_factory=list)


def load_inputs(paths: dict, out_dir: Path, records: bool) -> Inputs:
    """Ingest and normalize every resource the way the CLI does (raw and
    normalized matrices go through their files), then load records."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lex = lexicon.load_lexicon(paths["lexicon"])
    tables = {}
    for metric, resource, loader, metric_fn in RESOURCES:
        table = getattr(lexicon, loader)(paths[resource], lex)
        raw = getattr(association, metric_fn)(table)
        raw_path = out_dir / f"raw_{metric}.tsv"
        association.save_association(raw, raw_path)
        norm = association.quantile_normalize(association.load_association(raw_path))
        norm_path = out_dir / f"norm_{metric}.tsv"
        association.save_normalized(norm, norm_path)
        tables[metric] = association.load_normalized(norm_path)
    inputs = Inputs(lex, tables)
    if records:
        inputs.responses = evaluation.load_responses(paths["responses"], lex)
        with open(paths["scenarios"]) as handle:
            inputs.scenarios = [rsa.scenario_from_record(json.loads(line), lex) for line in handle]
    return inputs


def load_pipeline_inputs() -> None:
    """The pipeline workload's inputs are the golden fixture files."""
    lex = lexicon.load_lexicon(GOLDEN / "inputs" / "lexicon.txt")
    lexicon.load_counts(GOLDEN / "inputs" / "counts.tsv", lex)


# ---------------------------------------------------------------------------
# rounds

@dataclass
class Round:
    """One unit of work: its seconds, timed parts, counts and output."""

    wall_s: float
    parts: dict
    output: object = None
    error: str | None = None


def _model_sets(preset: str):
    specs = cli.PRESETS[preset]["models"]
    return (
        oed.ModelSet(tuple(rsa.parse_model_spec(s, rsa.SPEAKER) for s in specs)),
        oed.ModelSet(tuple(rsa.parse_model_spec(s, rsa.LISTENER) for s in specs)),
    )


def search_round(inputs: Inputs, workload: str, seed: int, iterations: int, timer) -> Round:
    """Search then filter; timer(fn) -> (result, seconds) times each."""
    preset = cli.PRESETS[SEARCH_PRESET[workload]]
    settings = oed.SearchSettings(
        nouns=preset["nouns"], adjectives=preset["adjectives"], mode=preset["mode"],
        iterations=iterations, seed=seed, top_k=TOP_K,
    )
    models = _model_sets(SEARCH_PRESET[workload])
    try:
        candidates, search_s = timer(lambda: oed.monte_carlo_search(inputs.tables, models, settings))
        kept, filter_s = timer(lambda: oed.filter_candidates(candidates))
    except DataError as exc:
        return Round(0.0, {}, error=f"search seed {seed}: {exc}")
    parts = {"search_s": search_s, "filter_s": filter_s, "sampled": iterations}
    return Round(search_s + filter_s, parts, (candidates, kept))


def _cycle(items: list, start: int, count: int) -> list:
    return [items[(start + i) % len(items)] for i in range(count)]


def evaluate_round(inputs: Inputs, index: int, records: int, scenarios: int, timer) -> Round:
    """Score, play and compare; timer(fn) -> (result, seconds) times each."""
    responses = _cycle(inputs.responses, index * records, records)
    played = _cycle(inputs.scenarios, index * scenarios, scenarios)
    by_role = {}
    for record in responses:
        by_role.setdefault(record.configuration.role, []).append(record)
    tables = inputs.tables

    def compare():
        agreement = [
            evaluation.model_agreement(a, b, tables, [r.configuration for r in by_role[role]])
            for role in sorted(by_role)
            for a, b in AGREEMENT_PAIRS
        ]
        correlations = [
            evaluation.metric_rank_correlation(tables[a], tables[b])
            for a, b in combinations(METRIC_NAMES, 2)
        ]
        ttest = evaluation.confidence_ttest(
            [c for r in by_role.get(rsa.SPEAKER, []) for c in r.confidences],
            [c for r in by_role.get(rsa.LISTENER, []) for c in r.confidences],
        )
        return agreement, correlations, ttest

    try:
        reports, score_s = timer(
            lambda: [evaluation.score_responses(tables, spec, responses) for spec in SCORE_SPECS]
        )
        gameplay, simulate_s = timer(lambda: evaluation.simulate_gameplay(
            tables, played, GAMEPLAY_SPEAKER, GAMEPLAY_LISTENER
        ))
        (agreement, correlations, ttest), compare_s = timer(compare)
    except DataError as exc:
        return Round(0.0, {}, error=f"evaluate round {index}: {exc}")
    parts = {
        "score_s": score_s,
        "simulate_s": simulate_s,
        "compare_s": compare_s,
        "records": len(SCORE_SPECS) * len(responses),
        "scenarios": len(played),
    }
    output = (responses, played, reports, gameplay, agreement, correlations, ttest)
    return Round(score_s + simulate_s + compare_s, parts, output)


def cli_in_process(argv, work_dir: Path) -> int:
    """`refgame ARGV` run in this process from work_dir."""
    previous = os.getcwd()
    os.chdir(work_dir)
    try:
        return cli.main(list(argv))
    finally:
        os.chdir(previous)


def pipeline_round(work_dir: Path, run_step) -> Round:
    """Run the golden pipeline in a fresh directory. run_step(argv,
    work_dir) runs one CLI step and returns (exit status, seconds)."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    for name in PIPELINE_INPUTS:
        shutil.copyfile(GOLDEN / "inputs" / name, work_dir / name)
    parts = {}
    codes = {}
    for step, argv in PIPELINE_STEPS:
        codes[step], parts[f"{step}_s"] = run_step(argv, work_dir)
        if codes[step] != 0:
            break
    wall = sum(parts.values())
    parts["sampled"] = PIPELINE_ITERATIONS
    outputs = {}
    for name in STEP_OUTPUTS.values():
        for filename in (name, name + ".manifest.json"):
            path = work_dir / filename
            outputs[filename] = path.read_bytes() if path.exists() else None
    return Round(wall, parts, (codes, outputs))


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right

def _descending_finite(candidates, label: str) -> list[str]:
    utilities = [c.utility for c in candidates]
    problems = []
    if not all(np.isfinite(u) and u >= 0 for u in utilities):
        problems.append(f"{label}: utility not finite and non-negative")
    if any(a < b for a, b in zip(utilities, utilities[1:])):
        problems.append(f"{label}: utilities not descending")
    return problems


def _word_set(candidate) -> frozenset:
    return frozenset(
        [("n", n) for n in candidate.scenario.nouns]
        + [("a", a) for a in candidate.scenario.adjectives]
    )


def _near_duplicates(sets) -> bool:
    """True when two same-shape word sets differ by fewer than two words,
    that is, share a leave-one-out subset."""
    seen = {}
    for i, words in enumerate(sets):
        for word in words:
            if seen.setdefault(words - {word}, i) != i:
                return True
    return False


def check_search(output) -> list[str]:
    candidates, kept = output
    problems = _descending_finite(candidates, "candidates") + _descending_finite(kept, "kept")
    if not 0 < len(candidates) <= TOP_K:
        problems.append(f"{len(candidates)} candidates for top {TOP_K}")
    keys = [(c.scenario, c.utility) for c in candidates]
    if len(set(c.scenario for c in candidates)) != len(candidates):
        problems.append("duplicate scenario among candidates")
    position = 0
    for candidate in kept:
        while position < len(keys) and keys[position] != (candidate.scenario, candidate.utility):
            position += 1
        if position == len(keys):
            problems.append("kept list is not a subsequence of the candidates")
            break
        position += 1
    sets = [_word_set(c) for c in kept]
    if _near_duplicates(sets):
        problems.append("kept scenarios differ by fewer than two words")
    occurrences = {}
    for words in sets:
        for word in words:
            occurrences[word] = occurrences.get(word, 0) + 1
    if occurrences and max(occurrences.values()) > 20:
        problems.append("a word occurs more than 20 times among kept scenarios")
    return problems


def _check_distribution(dist, label: str) -> list[str]:
    probs = np.asarray(dist.probs, dtype=float)
    if not np.isfinite(probs).all() or (probs < 0).any():
        return [f"{label}: probabilities not finite and non-negative"]
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        return [f"{label}: probabilities sum to {float(probs.sum())!r}"]
    return []


def check_evaluate(output, tables) -> list[str]:
    responses, played, reports, gameplay, agreement, correlations, ttest = output
    problems = []
    for report in reports:
        if len(report.top_answers) != len(responses):
            problems.append(f"{report.model.spec_string()}: wrong record count")
        if any(t not in (0, 1) for t in report.top_answers):
            problems.append(f"{report.model.spec_string()}: top answer not 0 or 1")
        if not all(-1 - 1e-12 <= r <= 1 + 1e-12 for r in report.rank_correlations):
            problems.append(f"{report.model.spec_string()}: rank correlation outside [-1, 1]")
    if len(gameplay.successes) != len(played):
        problems.append("gameplay scenario count differs")
    if not all(0 <= s <= 1 + 1e-12 for row in gameplay.successes for s in row):
        problems.append("gameplay success outside [0, 1]")
    for top, rank in agreement:
        if not (0 <= top <= 1 and -1 - 1e-12 <= rank <= 1 + 1e-12):
            problems.append("model agreement outside its range")
    if not all(-1 - 1e-12 <= c <= 1 + 1e-12 for c in correlations):
        problems.append("metric rank correlation outside [-1, 1]")
    if not 0 <= ttest[1] <= 1:
        problems.append("t-test p-value outside [0, 1]")
    # the distributions behind the scores sum to 1
    for record in responses[:CHECK_SAMPLE]:
        config = record.configuration
        for spec_text in SCORE_SPECS:
            spec = rsa.parse_model_spec(spec_text, config.role)
            problems += _check_distribution(
                rsa.predict(tables[spec.metric], config, spec), spec_text
            )
    speaker = rsa.parse_model_spec(GAMEPLAY_SPEAKER, rsa.SPEAKER)
    listener = rsa.parse_model_spec(GAMEPLAY_LISTENER, rsa.LISTENER)
    for scenario in played[:CHECK_SAMPLE]:
        for pair in scenario.pairs:
            config = rsa.Configuration(scenario, rsa.SPEAKER, pair)
            problems += _check_distribution(rsa.predict(tables["bigram"], config, speaker), "speaker")
        for clue in range(scenario.m):
            config = rsa.Configuration(scenario, rsa.LISTENER, clue)
            problems += _check_distribution(rsa.predict(tables["bigram"], config, listener), "listener")
    return problems


def check_pipeline_step(output, step: str) -> list[str]:
    """Compare one step's output and manifest byte for byte with the
    golden expected files."""
    codes, outputs = output
    if step not in codes:
        return [f"{step}: not run"]
    if codes[step] != 0:
        return [f"{step}: exit status {codes[step]}"]
    problems = []
    for filename in (STEP_OUTPUTS[step], STEP_OUTPUTS[step] + ".manifest.json"):
        if outputs[filename] != (GOLDEN / "expected" / filename).read_bytes():
            problems.append(f"{step}: {filename} differs from the golden file")
    return problems


# ---------------------------------------------------------------------------
# output digests

def _candidate_lines(candidates, lex) -> list[str]:
    return [json.dumps(oed.candidate_to_record(c, lex), sort_keys=True) for c in candidates]


def digest(workload: str, output, lex=None) -> str:
    """SHA-256 of a round's output in a canonical text form."""
    h = hashlib.sha256()
    if workload.startswith("search-"):
        candidates, kept = output
        for block in (candidates, kept):
            h.update(("\n".join(_candidate_lines(block, lex)) + "\n\n").encode())
    elif workload == "evaluate":
        _, _, reports, gameplay, agreement, correlations, ttest = output
        payload = {
            "scores": [
                [r.model.spec_string(), list(r.top_answers), [repr(x) for x in r.rank_correlations],
                 repr(r.top_mean), repr(r.top_sem), repr(r.rank_mean), repr(r.rank_sem)]
                for r in reports
            ],
            "gameplay": [[repr(s) for s in row] for row in gameplay.successes]
            + [[repr(gameplay.mean), repr(gameplay.sem)]],
            "agreement": [[repr(a), repr(b)] for a, b in agreement],
            "correlations": [repr(c) for c in correlations],
            "ttest": [repr(float(x)) for x in ttest],
        }
        h.update(json.dumps(payload, sort_keys=True).encode())
    else:
        _, outputs = output
        for filename in sorted(outputs):
            h.update(filename.encode() + b"\0" + (outputs[filename] or b"") + b"\0")
    return h.hexdigest()
