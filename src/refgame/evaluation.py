"""Scoring model predictions against responses, and analytic gameplay.

Two per-trial scores: tie-tolerant top-answer match (did the modal
response land in the model's argmax set) and Spearman rank correlation
between predicted probabilities and response counts. Aggregation is
mean plus standard error. Gameplay success for a speaker-listener pair
is computed analytically by summing over clue choices instead of
sampling.

Ranks are computed in numpy (association.average_ranks); scipy serves
only the Student t tail (t.sf) of confidence_ttest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
# the module path keeps scipy.stats visible to `python -X importtime`;
# `from scipy import stats` loads it through scipy's lazy attribute hook
from scipy.stats import t as student_t

from .association import NormalizedAssociation, Tables, average_ranks
from .errors import DataError, prefix_errors
from .rsa import (
    LISTENER,
    SPEAKER,
    Configuration,
    ModelSpec,
    PredictionDistribution,
    Scenario,
    answer_support,
    clue_from_word,
    clue_word,
    configuration_from_record,
    configuration_record,
    is_integer,
    pair_from_words,
    pair_words,
    parse_model_spec,
    predict,
    scenario_record,
)


@dataclass(frozen=True, eq=True)
class ResponseRecord:
    """Observed answers for one configuration: per-answer counts plus the
    responders' 1..5 confidence ratings."""

    configuration: Configuration
    counts: dict
    confidences: tuple[int, ...] = ()

    def __post_init__(self):
        support = answer_support(self.configuration)
        counts = dict(self.counts)
        for answer, count in counts.items():
            if answer not in support:
                raise DataError(f"answer {answer!r} not a valid answer here")
            if not is_integer(count) or count < 0:
                raise DataError(f"bad count {count!r} for answer {answer!r}")
        if sum(counts.values()) < 1:
            raise DataError("response record has no responses")
        for confidence in self.confidences:
            if not is_integer(confidence) or not 1 <= confidence <= 5:
                raise DataError(f"confidence {confidence!r} outside the 1..5 scale")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "confidences", tuple(int(c) for c in self.confidences))

    @property
    def total(self) -> int:
        return int(sum(self.counts.values()))

    def count_vector(self) -> np.ndarray:
        support = answer_support(self.configuration)
        return np.array([self.counts.get(answer, 0) for answer in support], dtype=float)

    def modal_answers(self) -> tuple:
        vector = self.count_vector()
        top = vector.max()
        support = answer_support(self.configuration)
        return tuple(a for a, c in zip(support, vector) if c == top)


def top_answer(prediction: PredictionDistribution, record: ResponseRecord) -> int:
    """1 if the modal response intersects the model's argmax set (ties
    within TIE_TOL count), else 0."""
    support = answer_support(record.configuration)
    if tuple(prediction.support) != support:
        raise DataError("prediction support does not match the configuration")
    predicted = set(prediction.argmax_answers())
    observed = set(record.modal_answers())
    return int(bool(predicted & observed))


def spearman(x, y) -> float:
    """Spearman correlation via descending average ranks.

    Either vector constant yields 0 by convention (no ranking signal,
    not an error). A NaN is an error; +-inf ranks as the extreme it is.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("rank correlation needs two equal-length vectors")
    if x.size < 2:
        raise DataError("rank correlation needs at least two entries")
    for which, values in (("first", x), ("second", y)):
        if np.isnan(values).any():
            raise DataError(f"rank correlation: the {which} vector holds NaN")
    # average ranks of 1..n always have mean (n + 1) / 2 exactly
    mean_rank = (x.size + 1) / 2
    rank_x = average_ranks(-x) - mean_rank
    rank_y = average_ranks(-y) - mean_rank
    ss_x = rank_x @ rank_x
    ss_y = rank_y @ rank_y
    if ss_x == 0 or ss_y == 0:
        return 0.0
    return float((rank_x @ rank_y) / np.sqrt(ss_x * ss_y))


def rank_correlation(prediction: PredictionDistribution, record: ResponseRecord) -> float:
    support = answer_support(record.configuration)
    if tuple(prediction.support) != support:
        raise DataError("prediction support does not match the configuration")
    return spearman(prediction.probs, record.count_vector())


def _reject_non_finite(values: np.ndarray, message: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise DataError(f"{message} non-finite {values[bad][0]}")


def aggregate(scores) -> tuple[float, float]:
    """Mean and standard error (ddof=1). All-equal scores give SEM
    exactly 0.0; a NaN or infinite score is an error."""
    scores = np.asarray(list(scores), dtype=float)
    if scores.size < 2:
        raise DataError("aggregation needs at least two scores")
    _reject_non_finite(scores, "aggregation: the scores hold")
    mean = float(scores.mean())
    if (scores == scores[0]).all():
        return mean, 0.0
    sem = float(scores.std(ddof=1) / np.sqrt(scores.size))
    return mean, sem


@dataclass(frozen=True)
class ScoreReport:
    """Per-trial scores for one model over a response set, aggregated."""

    model: ModelSpec
    top_answers: tuple[int, ...]
    rank_correlations: tuple[float, ...]
    top_mean: float
    top_sem: float
    rank_mean: float
    rank_sem: float


def score_responses(tables, model, records) -> ScoreReport:
    """Score a model against every response record.

    `model` is a ModelSpec or a "metric:depth[:alpha]" string; a string
    is bound to each record's role, so one string can score a mixed-role
    response file. `tables` maps metric ids to normalized matrices.
    """
    records = list(records)
    if not records:
        raise DataError("no response records")
    tables = Tables.of(tables)
    specs = [parse_model_spec(model, record.configuration.role) for record in records]
    tops = []
    ranks = []
    for spec, record in zip(specs, records):
        prediction = predict(tables[spec.metric], record.configuration, spec)
        tops.append(top_answer(prediction, record))
        ranks.append(rank_correlation(prediction, record))
    top_mean, top_sem = aggregate(tops)
    rank_mean, rank_sem = aggregate(ranks)
    return ScoreReport(
        specs[0], tuple(tops), tuple(ranks), top_mean, top_sem, rank_mean, rank_sem
    )


# ---------------------------------------------------------------------------
# analytic gameplay

def average_success(
    scenario: Scenario,
    target: tuple[int, int],
    speaker_dist: PredictionDistribution,
    listener_dists: Mapping,
) -> float:
    """Probability the listener recovers the target when the speaker
    samples a clue: sum over clues of P(clue) * P(target | clue)."""
    if target not in scenario.pairs:
        raise DataError(f"target {target!r} is not a pair of this scenario")
    if tuple(speaker_dist.support) != tuple(range(scenario.m)):
        raise DataError("speaker distribution does not cover the scenario's adjectives")
    total = 0.0
    for answer, p_clue in zip(speaker_dist.support, speaker_dist.probs):
        if p_clue == 0:
            continue
        if answer not in listener_dists:
            raise DataError(f"no listener distribution for clue {answer!r} with positive mass")
        listener = listener_dists[answer]
        if tuple(listener.support) != scenario.pairs:
            raise DataError("listener distribution does not cover the scenario's pairs")
        total += float(p_clue) * listener.prob(target)
    return float(total)


@dataclass(frozen=True)
class GameplayReport:
    """Pair success for every (scenario, target pair), with per-scenario
    means and the overall mean plus SEM."""

    scenarios: tuple[Scenario, ...]
    successes: tuple[tuple[float, ...], ...]
    scenario_means: tuple[float, ...]
    mean: float
    sem: float


def simulate_gameplay(tables, scenarios, speaker_spec, listener_spec) -> GameplayReport:
    """Play every target pair of every scenario analytically.

    Model specs are ModelSpec values or "metric:depth[:alpha]" strings.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise DataError("no scenarios to play")
    speaker_spec = parse_model_spec(speaker_spec, SPEAKER)
    listener_spec = parse_model_spec(listener_spec, LISTENER)
    tables = Tables.of(tables)
    speaker_norm = tables[speaker_spec.metric]
    listener_norm = tables[listener_spec.metric]
    all_successes = []
    scenario_means = []
    flat = []
    for scenario in scenarios:
        listener_dists = {
            a: predict(listener_norm, Configuration(scenario, LISTENER, a), listener_spec)
            for a in range(scenario.m)
        }
        row = []
        for pair in scenario.pairs:
            speaker_dist = predict(
                speaker_norm, Configuration(scenario, SPEAKER, pair), speaker_spec
            )
            row.append(average_success(scenario, pair, speaker_dist, listener_dists))
        all_successes.append(tuple(row))
        scenario_means.append(float(np.mean(row)))
        flat.extend(row)
    mean, sem = aggregate(flat)
    return GameplayReport(scenarios, tuple(all_successes), tuple(scenario_means), mean, sem)


# ---------------------------------------------------------------------------
# model and metric comparison

def metric_rank_correlation(a: NormalizedAssociation, b: NormalizedAssociation) -> float:
    """Spearman correlation between two metrics' normalized cells."""
    if a.lexicon.nouns != b.lexicon.nouns or a.lexicon.adjectives != b.lexicon.adjectives:
        raise DataError("matrices disagree on the lexicon")
    return spearman(a.values.ravel(), b.values.ravel())


def model_agreement(spec_a, spec_b, tables, configurations) -> tuple[float, float]:
    """How often two models pick the same top answer, and the mean rank
    correlation of their distributions, over configurations.

    Specs are ModelSpec values or strings bound to the configurations'
    shared role.
    """
    configurations = list(configurations)
    if not configurations:
        raise DataError("no configurations given")
    roles = {config.role for config in configurations}
    if len(roles) > 1:
        raise DataError("configurations mix roles")
    role = configurations[0].role
    spec_a = parse_model_spec(spec_a, role)
    spec_b = parse_model_spec(spec_b, role)
    tables = Tables.of(tables)
    norm_a = tables[spec_a.metric]
    norm_b = tables[spec_b.metric]
    matches = []
    correlations = []
    for config in configurations:
        dist_a = predict(norm_a, config, spec_a)
        dist_b = predict(norm_b, config, spec_b)
        tops_a = set(dist_a.argmax_answers())
        tops_b = set(dist_b.argmax_answers())
        matches.append(int(bool(tops_a & tops_b)))
        correlations.append(spearman(dist_a.probs, dist_b.probs))
    return float(np.mean(matches)), float(np.mean(correlations))


def confidence_ttest(group_a, group_b) -> tuple[float, float]:
    """Welch's t-test (two-sided) on two confidence samples.

    Both groups zero-variance: equal means give (0.0, 1.0), unequal
    means give (signed infinity, 0.0). A NaN or infinite value is an error.
    """
    a = np.asarray(list(group_a), dtype=float)
    b = np.asarray(list(group_b), dtype=float)
    if a.size < 2 or b.size < 2:
        raise DataError("each group needs at least two values")
    _reject_non_finite(a, "t-test: the first group holds")
    _reject_non_finite(b, "t-test: the second group holds")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    mean_a = float(a.mean())
    mean_b = float(b.mean())
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return 0.0, 1.0
        return float(np.sign(mean_a - mean_b)) * float("inf"), 0.0
    se_sq = var_a / a.size + var_b / b.size
    t = (mean_a - mean_b) / float(np.sqrt(se_sq))
    df = se_sq**2 / (
        (var_a / a.size) ** 2 / (a.size - 1) + (var_b / b.size) ** 2 / (b.size - 1)
    )
    p = 2.0 * float(student_t.sf(abs(t), df))
    return t, p


# ---------------------------------------------------------------------------
# response files (JSONL)

def response_to_record(response: ResponseRecord, lexicon) -> dict:
    config = response.configuration
    words = pair_words if config.role == LISTENER else clue_word
    answers = [[words(config.scenario, a, lexicon), n] for a, n in response.counts.items()]
    answers.sort(key=lambda item: json.dumps(item[0]))
    return {
        "configuration": configuration_record(config, lexicon),
        "answers": answers,
        "confidences": list(response.confidences),
    }


def response_from_record(record: dict, lexicon) -> ResponseRecord:
    try:
        config = configuration_from_record(record["configuration"], lexicon)
        answer_items = record["answers"]
        confidences = record.get("confidences", [])
    except (KeyError, TypeError):
        raise DataError(f"malformed response record {record!r}") from None
    if not isinstance(answer_items, list) or not isinstance(confidences, list):
        raise DataError(f"malformed response record {record!r}")
    counts = {}
    for item in answer_items:
        try:
            answer_words, count = item
        except (TypeError, ValueError):
            raise DataError(f"malformed answer entry {item!r}") from None
        if config.role == LISTENER:
            answer: object = pair_from_words(config.scenario, answer_words, lexicon, "answer noun")
        else:
            answer = clue_from_word(config.scenario, answer_words, lexicon, "answer adjective")
        if answer in counts:
            raise DataError(f"duplicate answer entry {answer_words!r}")
        counts[answer] = count
    return ResponseRecord(config, counts, tuple(confidences))


def save_responses(responses, lexicon, path: str | Path) -> None:
    lines = [
        json.dumps(response_to_record(r, lexicon), sort_keys=True) for r in responses
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_jsonl(path: str | Path, parse, empty: str) -> list:
    """parse(record) for each non-blank line of a JSONL file.

    Malformed JSON and a DataError from parse both name path:lineno;
    a file with no records raises "path: <empty>".
    """
    items = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        with prefix_errors(f"{path}:{lineno}"):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise DataError("malformed JSON") from None
            items.append(parse(record))
    if not items:
        raise DataError(f"{path}: {empty}")
    return items


def load_responses(path: str | Path, lexicon) -> list[ResponseRecord]:
    return read_jsonl(
        path, lambda record: response_from_record(record, lexicon), "no response records"
    )


# ---------------------------------------------------------------------------
# report rendering

def _render(header, rows, fmt: str, title: str | None = None) -> str:
    """Text and number cells under a header, after an optional '# title' line. tsv: header
    as a '# ' comment, numbers by repr; table: columns aligned, numbers to 3 decimals."""
    if fmt not in ("tsv", "table"):
        raise DataError(f"unknown format {fmt!r}")

    def text(cell) -> str:
        if isinstance(cell, str):
            return cell
        return repr(float(cell)) if fmt == "tsv" else f"{cell:.3f}"

    cells = [[text(cell) for cell in row] for row in rows]
    lines = [] if title is None else [f"# {title}"]
    if fmt == "tsv":
        lines.append("# " + "\t".join(header))
        lines += ["\t".join(row) for row in cells]
    else:
        table = [list(header)] + cells
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def render_score_reports(reports, fmt: str = "tsv") -> str:
    """Render ScoreReports as TSV or an aligned table."""
    rows = [
        (r.model.spec_string(), r.top_mean, r.top_sem, r.rank_mean, r.rank_sem) for r in reports
    ]
    return _render(("model", "top_mean", "top_sem", "rank_mean", "rank_sem"), rows, fmt)


def render_matrix(labels, matrix, fmt: str = "tsv", title: str | None = None) -> str:
    """Render a square comparison matrix with row/column labels."""
    rows = [[label, *row] for label, row in zip(labels, matrix)]
    return _render(["", *labels], rows, fmt, title)


def render_gameplay(report: GameplayReport, lexicon, fmt: str = "tsv") -> str:
    """Render per-scenario mean success and the overall mean and SEM."""
    words = [scenario_record(scenario, lexicon) for scenario in report.scenarios]
    rows = [
        [" ".join(w["nouns"]), " ".join(w["adjectives"]), mean]
        for w, mean in zip(words, report.scenario_means)
    ]
    if fmt == "tsv":
        rows.append(["# overall", f"mean={report.mean!r}", f"sem={report.sem!r}"])
    else:
        rows.append(["overall", "", f"{report.mean:.3f} (SEM {report.sem:.3f})"])
    return _render(("nouns", "adjectives", "mean_success"), rows, fmt)
