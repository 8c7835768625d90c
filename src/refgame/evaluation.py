"""Scoring model predictions against responses, and analytic gameplay.

Two per-trial scores: top-answer match (does a modal response land in
the model's argmax set, both sets read by rsa._top_mask's tie) and
Spearman rank correlation between predicted probabilities and response
counts, aggregated as mean plus standard error. Gameplay success is
computed analytically by summing over clue choices instead of sampling.
Response files place answer words in their scenario by rsa.word_positions.

Scoring, model agreement and gameplay hand rsa._run_batches one shape
key per record, configuration or scenario; it runs batches of up to
rsa._CHUNK items of one shape from anywhere in the list, with the bits
and first error of a loop over them. Scoring and agreement make one
rsa.predict_stack call per model and one row-wise Spearman pass a batch;
agreement_measure caches each model's stack and row ranks for all pairs.
Gameplay predicts each clue and pair while rsa._primed has its scenario
out, and sums a batch's pair successes in one array pass.

Ranks are centred in numpy by association._centered_ranks, row by row;
a normalized matrix ranks its cells once, for metric_rank_correlation.
Every path correlates ranks in _rank_correlation, which needs two
entries a row; only spearman, which takes outside vectors, checks for
NaN, as batch rows hold none. scipy serves only the Student t tail
(t.sf) of confidence_ttest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np
# the module path keeps scipy.stats visible to `python -X importtime`;
# `from scipy import stats` loads it through scipy's lazy attribute hook
from scipy.stats import t as student_t

from . import rsa
from .association import NormalizedAssociation, Tables, _centered_ranks
from .errors import DataError, float_array, prefix_errors, read_text
from .rsa import (
    LISTENER,
    SPEAKER,
    Configuration,
    ModelSpec,
    Scenario,
    _primed,
    _top_mask,
    answer_support,
    config_columns,
    configuration_from_record,
    is_integer,
    parse_model_spec,
    predict,
    predict_stack,
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
        # not a field, so equality and repr do not see it; count_vector() returns a copy
        self.__dict__["_count_vector"] = vector = np.array([counts.get(a, 0) for a in support], dtype=float)
        vector.flags.writeable = False

    def count_vector(self) -> np.ndarray:
        return self._count_vector.copy()


def _rank_correlation(rank_x: np.ndarray, rank_y: np.ndarray) -> np.ndarray:
    """Spearman correlation of each row of two _centered_ranks arrays,
    rows of at least two entries; a row with either side constant gives
    0. Each row's sums of products are the BLAS dot that a 1-d `@` takes,
    reached through matmul of (N, 1, n) by (N, n, 1). Only spearman checks
    for NaN: predict_stack raises on a NaN chain row (NaN in every entry
    or none), counts are ResponseRecord's checked integers, and a
    normalized matrix holds finite cells."""
    if rank_x.shape[-1] < 2:
        raise DataError("rank correlation needs at least two entries")

    def dot(a, b):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]

    ss_x = dot(rank_x, rank_x)
    ss_y = dot(rank_y, rank_y)
    live = (ss_x != 0) & (ss_y != 0)
    correlations = np.zeros(len(rank_x))
    correlations[live] = dot(rank_x[live], rank_y[live]) / np.sqrt(ss_x[live] * ss_y[live])
    return correlations


def spearman(x, y) -> float:
    """Spearman correlation via descending average ranks.

    Either vector constant yields 0 by convention (no ranking signal,
    not an error). A NaN is an error; +-inf ranks as the extreme it is.
    """
    x = float_array(x, "rank correlation: the first vector")
    y = float_array(y, "rank correlation: the second vector")
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("rank correlation needs two equal-length vectors")
    if x.size < 2:
        raise DataError("rank correlation needs at least two entries")
    for which, values in (("first", x), ("second", y)):
        if np.isnan(values).any():
            raise DataError(f"rank correlation: the {which} vector holds NaN")
    return float(_rank_correlation(_centered_ranks(x[None]), _centered_ranks(y[None]))[0])


def _reject_non_finite(values: np.ndarray, message: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise DataError(f"{message} non-finite {values[bad][0]}")


def aggregate(scores) -> tuple[float, float]:
    """Mean and standard error (ddof=1). One score has SEM nan, as ddof=1
    is undefined there; two or more all-equal scores give SEM exactly
    0.0; a NaN or infinite score is an error."""
    scores = float_array(list(scores), "aggregation")
    if scores.size < 1:
        raise DataError("aggregation needs at least one score")
    _reject_non_finite(scores, "aggregation: the scores hold")
    mean = float(scores.mean())
    if scores.size == 1:
        return mean, float("nan")
    if (scores == scores[0]).all():
        return mean, 0.0
    return mean, float(scores.std(ddof=1) / np.sqrt(scores.size))


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
    Up to rsa._CHUNK records that share role, k and m are predicted and
    ranked together, with the bits of one record at a time. An error names
    the model, and the 1-based record that fails first.
    """
    records = list(records)
    if not records:
        raise DataError("no response records")
    tables = Tables.of(tables)
    configurations = [record.configuration for record in records]
    roles = dict.fromkeys(config.role for config in configurations)
    specs = {role: parse_model_spec(model, role) for role in roles}
    first_spec = specs[configurations[0].role]
    label = f"model {first_spec.spec_string()}"

    def compute(positions):
        spec = specs[configurations[positions[0]].role]
        probs = predict_stack(tables, [spec], *config_columns([configurations[p] for p in positions]))[:, 0]
        counts = np.array([records[p]._count_vector for p in positions])
        correlations = _rank_correlation(_centered_ranks(probs), _centered_ranks(counts))
        return (_top_mask(probs) & _top_mask(counts)).any(axis=1), correlations

    shapes = ((config.role, config.scenario.k, config.scenario.m) for config in configurations)
    tops, ranks = rsa._run_batches(shapes, compute, lambda p: f"{label}: record {p + 1}")
    # one float object per nonzero value (Spearman over a few answers takes a few); zeros keep their sign
    distinct: dict = {}
    tops = tuple(tops.astype(int).tolist())
    ranks = tuple(distinct.setdefault(r, r) if r else r for r in ranks.tolist())
    with prefix_errors(label):
        top_mean, top_sem = aggregate(tops)
        rank_mean, rank_sem = aggregate(ranks)
    return ScoreReport(first_spec, tops, ranks, top_mean, top_sem, rank_mean, rank_sem)


# ---------------------------------------------------------------------------
# analytic gameplay

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
    A pair's success is the probability the listener recovers it when
    the speaker samples a clue: sum over clues of P(clue) * P(pair | clue).
    Batches of up to rsa._CHUNK scenarios of one shape, from anywhere in the
    list, are primed, predicted a clue and a pair at a time and summed in one
    array pass, under rsa._run_batches' failure rule. Its clue and pair
    configurations are Configuration._trusted, unchecked.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise DataError("no scenarios to play")
    speaker_spec = parse_model_spec(speaker_spec, SPEAKER)
    listener_spec = parse_model_spec(listener_spec, LISTENER)
    tables = Tables.of(tables)
    speaker_norm = tables[speaker_spec.metric]
    listener_norm = tables[listener_spec.metric]
    trusted = Configuration._trusted

    def play(positions):
        batch = [scenarios[p] for p in positions]
        listener, speaker = [], []
        model = listener_spec  # the listener reads chains first; only a lone scenario's error is named
        try:
            for scenario in _primed(tables, batch, (speaker_spec, listener_spec)):
                for a in range(scenario.m):
                    listener.append(predict(listener_norm, trusted(scenario, LISTENER, a), listener_spec).probs)
                model = speaker_spec
                for pair in scenario.pairs:
                    speaker.append(predict(speaker_norm, trusted(scenario, SPEAKER, pair), speaker_spec).probs)
        except DataError as exc:
            raise DataError(f"{model.role} model {model.spec_string()}: {exc}") from None
        # (scenarios, pairs, clues), summed over clues in order; an unsampled clue adds 0.0: no listener row is NaN
        listener = np.reshape(listener, (len(batch), batch[0].m, -1))
        speaker = np.reshape(speaker, (len(batch), -1, batch[0].m))
        success = np.cumsum(speaker * listener.swapaxes(1, 2), axis=2)[:, :, -1]
        return np.fromiter(map(tuple, success.tolist()), object, len(batch)), success.mean(axis=1)

    shapes = ((scenario.k, scenario.m) for scenario in scenarios)
    successes, scenario_means = rsa._run_batches(shapes, play, lambda p: f"gameplay: scenario {p + 1}")
    with prefix_errors("gameplay"):
        mean, sem = aggregate(chain.from_iterable(successes))
    return GameplayReport(scenarios, tuple(successes), tuple(scenario_means.tolist()), mean, sem)


# ---------------------------------------------------------------------------
# model and metric comparison

def metric_rank_correlation(a: NormalizedAssociation, b: NormalizedAssociation) -> float:
    """Spearman correlation between two metrics' normalized cells, from cached ranks."""
    if a.lexicon != b.lexicon:
        raise DataError("matrices disagree on the lexicon")
    return float(_rank_correlation(a._ranks, b._ranks)[0])


def model_agreement(spec_a, spec_b, tables, configurations) -> tuple[float, float]:
    """How often two models pick the same top answer, and the mean rank
    correlation of their distributions, over configurations.

    Specs are ModelSpec values or strings bound to the configurations'
    shared role. Up to rsa._CHUNK configurations that share k and m are
    predicted and ranked together, with the bits of one configuration at a
    time. An error names both models, the 1-based configuration that fails
    first and the model that failed on it.
    """
    return agreement_measure((spec_a, spec_b), tables, configurations)(0, 1)


def agreement_measure(specs, tables, configurations):
    """A measure(i, j) that gives model_agreement(specs[i], specs[j],
    tables, configurations), errors included, cutting its batches on each
    call. One cache holds each model's prediction stack for a batch and its
    centered row ranks, so each is built once however many pairs it serves."""
    configurations = list(configurations)
    if not configurations:
        raise DataError("no configurations given")
    if len({config.role for config in configurations}) > 1:
        raise DataError("configurations mix roles")
    specs = [parse_model_spec(spec, configurations[0].role) for spec in specs]
    tables = Tables.of(tables)
    shapes = [(config.scenario.k, config.scenario.m) for config in configurations]

    @cache
    def predicted(index, positions):
        spec = specs[index]
        with prefix_errors(f"model {spec.spec_string()}"):
            probs = predict_stack(tables, [spec], *config_columns([configurations[p] for p in positions]))[:, 0]
        return probs, _centered_ranks(probs)

    def measure(i, j):
        def compute(positions):
            (a, ranks_a), (b, ranks_b) = predicted(i, tuple(positions)), predicted(j, tuple(positions))
            return (_top_mask(a) & _top_mask(b)).any(axis=1), _rank_correlation(ranks_a, ranks_b)

        where = f"{specs[i].spec_string()} vs {specs[j].spec_string()}: configuration"
        matches, correlations = rsa._run_batches(shapes, compute, lambda p: f"{where} {p + 1}")
        return float(np.mean(matches)), float(np.mean(correlations))

    return measure


def confidence_ttest(group_a, group_b) -> tuple[float, float]:
    """Welch's t-test (two-sided) on two confidence samples.

    Both groups zero-variance: equal means give (0.0, 1.0), unequal
    means give (signed infinity, 0.0). A NaN or infinite value is an error.
    """
    a = float_array(list(group_a), "t-test: the first group")
    b = float_array(list(group_b), "t-test: the second group")
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
            answer: object = rsa.word_positions(config.scenario, answer_words, lexicon, "noun", "answer noun")
        else:
            (answer,) = rsa.word_positions(config.scenario, [answer_words], lexicon, "adjective", "answer adjective")
        if answer in counts:
            raise DataError(f"duplicate answer entry {answer_words!r}")
        counts[answer] = count
    return ResponseRecord(config, counts, tuple(confidences))


def read_jsonl(path: str | Path, parse, empty: str) -> list:
    """parse(record) for each non-blank line of a JSONL file.

    Malformed JSON and a DataError from parse both name path:lineno;
    a file with no records raises "path: <empty>".
    """
    items = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
