"""Scoring against response data, gameplay simulation, report rendering."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame import (
    AssociationMatrix,
    Configuration,
    DataError,
    GameplayReport,
    Lexicon,
    ModelSpec,
    NormalizedAssociation,
    PredictionDistribution,
    ResponseRecord,
    Scenario,
    aggregate,
    answer_support,
    confidence_ttest,
    load_responses,
    metric_rank_correlation,
    model_agreement,
    parse_model_spec,
    predict,
    quantile_normalize,
    render_gameplay,
    render_matrix,
    render_score_reports,
    response_from_record,
    score_responses,
    simulate_gameplay,
    spearman,
)
from refgame import evaluation

from conftest import (
    make_lexicon,
    oracle_modal_answers,
    random_normalized,
    write_responses_file,
)


def exact_spearman(x, y):
    """Brute-force Spearman with average ranks in exact rational arithmetic."""
    def ranks(values):
        out = []
        for v in values:
            greater = sum(1 for w in values if w > v)
            equal = sum(1 for w in values if w == v)
            # descending average rank, 1-based
            out.append(Fraction(2 * greater + equal + 1, 2))
        return out

    rx, ry = ranks(x), ranks(y)
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return float(cov) / math.sqrt(float(vx) * float(vy))


def listener_record(counts, confidences=()):
    scenario = Scenario((0, 1, 2), (0, 1))
    config = Configuration(scenario, "listener", 0)
    mapping = dict(zip(answer_support(config), counts))
    return ResponseRecord(config, mapping, confidences)


# ---------------------------------------------------------------------------
# response records

def test_response_record_validation():
    scenario = Scenario((0, 1, 2), (0, 1))
    config = Configuration(scenario, "listener", 0)
    record = ResponseRecord(config, {(0, 1): 3, (1, 2): 1})
    assert np.array_equal(record.count_vector(), [3, 0, 1])
    with pytest.raises(DataError, match="not a valid answer here"):
        ResponseRecord(config, {(0, 3): 2})
    with pytest.raises(DataError, match="no responses"):
        ResponseRecord(config, {})
    with pytest.raises(DataError, match="bad count"):
        ResponseRecord(config, {(0, 1): -1})
    with pytest.raises(DataError, match="1..5"):
        ResponseRecord(config, {(0, 1): 2}, confidences=(6,))


def test_count_vector_is_built_once_and_read_only():
    record = listener_record((3, 0, 1))
    stored = record._count_vector
    assert not stored.flags.writeable and stored.tolist() == [3.0, 0.0, 1.0]
    fresh = record.count_vector()
    assert fresh.flags.writeable and not np.shares_memory(fresh, stored)
    fresh[0] = 9.0
    assert record.count_vector().tolist() == [3.0, 0.0, 1.0]
    # not a field: equality, repr and astuple see the three fields only
    assert record == listener_record((3, 0, 1)) and "_count_vector" not in repr(record)
    assert len(dataclasses.astuple(record)) == 3


def test_score_responses_reads_the_stored_count_vectors(rng, monkeypatch):
    norm = random_normalized(rng, 4, 4, metric="bigram")
    records = [listener_record((3, 0, 1)), listener_record((0, 2, 2))]
    expected = score_responses({"bigram": norm}, "bigram:literal", records)
    monkeypatch.setattr(ResponseRecord, "count_vector", lambda self: pytest.fail("count_vector called"))
    assert score_responses({"bigram": norm}, "bigram:literal", records) == expected


def test_equal_rank_correlations_share_one_float(rng):
    # a report keeps one float object per nonzero correlation value, each
    # with the bits of spearman on its own record
    norm = random_normalized(rng, 5, 5, metric="bigram")
    records = [listener_record(counts) for counts in [(3, 0, 1), (1, 0, 3), (2, 2, 2), (0, 1, 3)] * 5]
    report = score_responses({"bigram": norm}, "bigram:literal", records)
    for record, got in zip(records, report.rank_correlations):
        expected = spearman(predict(norm, record.configuration, parse_model_spec("bigram:literal", "listener")).probs,
                            record.count_vector())
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    nonzero = [r for r in report.rank_correlations if r]
    assert 0 < len({id(r) for r in nonzero}) == len(set(nonzero)) < len(nonzero)


def test_modal_answers_tie():
    record = listener_record((2, 2, 1))
    assert oracle_modal_answers(record) == ((0, 1), (0, 2))
    # both modal answers count: a top answer on either matches, on (1, 2) it misses
    counts = [(2, 2, 1), (2, 2, 1)]
    assert listener_scores([1.0, 0.5, 0.25], counts).top_answers == (1, 1)
    assert listener_scores([1.0, 0.25, 0.5], counts).top_answers == (1, 1)
    assert listener_scores([0.25, 1.0, 0.5], counts).top_answers == (0, 0)


# ---------------------------------------------------------------------------
# oracles: the per-record and per-pair helpers that score_responses and
# simulate_gameplay fold in, as they were

def oracle_top_answer(prediction, record) -> int:
    """1 if the modal response intersects the model's argmax set (ties
    within TIE_TOL count), else 0."""
    support = answer_support(record.configuration)
    if tuple(prediction.support) != support:
        raise DataError("prediction support does not match the configuration")
    predicted = set(prediction.argmax_answers())
    observed = set(oracle_modal_answers(record))
    return int(bool(predicted & observed))


def oracle_rank_correlation(prediction, record) -> float:
    support = answer_support(record.configuration)
    if tuple(prediction.support) != support:
        raise DataError("prediction support does not match the configuration")
    return spearman(prediction.probs, record.count_vector())


def oracle_average_success(scenario, target, speaker_dist, listener_dists) -> float:
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
        total += float(p_clue) * float(listener.probs[listener.support.index(target)])
    return float(total)


# ---------------------------------------------------------------------------
# top answer

def listener_scores(clue_column, counts_list):
    """score_responses of the literal listener on clue 0 of a 3-noun
    scenario whose clue column holds clue_column, one record per counts."""
    values = np.column_stack([clue_column, np.ones(3)])
    norm = NormalizedAssociation("bigram", make_lexicon(3, 2), values, np.zeros((3, 2), bool))
    records = [listener_record(counts) for counts in counts_list]
    return score_responses(norm, "bigram:literal", records)


def test_top_answer_match_and_miss():
    # the literal listener ranks the pairs (0,1) > (0,2) > (1,2)
    report = listener_scores([1.0, 0.5, 0.25], [(5, 1, 0), (0, 1, 5)])
    assert report.top_answers == (1, 0)


def test_top_answer_tie_rule():
    # pairs (0,1) and (0,2) differ by less than TIE_TOL: both are top
    # answers, so a modal answer on either is a match
    counts = [(3, 1, 0), (1, 3, 0), (0, 0, 3)]
    assert listener_scores([1.0, 0.5, 0.5 - 1e-14], counts).top_answers == (1, 1, 0)
    # a gap wider than TIE_TOL leaves (0,1) the only top answer
    assert listener_scores([1.0, 0.5, 0.5 - 1e-9], counts).top_answers == (1, 0, 0)


# ---------------------------------------------------------------------------
# Spearman

def test_spearman_hand_case():
    # x = (0.5, 0.3, 0.2) ranks (1,2,3); y = (2,2,0) ranks (1.5,1.5,3)
    value = spearman([0.5, 0.3, 0.2], [2.0, 2.0, 0.0])
    assert value == pytest.approx(1.5 / math.sqrt(3), abs=1e-12)


def test_spearman_perfect_and_reversed():
    assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1.0, 2.0, 3.0], [5.0, 1.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_constant_is_zero():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0


def test_spearman_size_error():
    with pytest.raises(DataError, match="at least two"):
        spearman([1.0], [2.0])


def test_spearman_rejects_nan_and_ranks_inf():
    with pytest.raises(DataError, match="^rank correlation: the first vector holds NaN$"):
        spearman([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="^rank correlation: the second vector holds NaN$"):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0, math.nan])
    assert spearman([math.inf, 1.0, 2.0], [1.0, 2.0, 3.0]) == -0.5
    assert spearman([-math.inf, 1.0, 2.0], [1.0, 2.0, 3.0]) == 1.0


def test_spearman_matches_exact_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        assert spearman(x, y) == pytest.approx(exact_spearman(x, y), abs=1e-12)


def test_spearman_monotone_invariance(rng):
    x = rng.random(8)
    y = rng.random(8)
    base = spearman(x, y)
    assert spearman(x ** 3, y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, 5 * y + 2) == pytest.approx(base, abs=1e-12)


def test_rank_correlation_on_record():
    # the listener ranks the pairs 1, 2, 3; counts (2, 2, 0) rank them 1.5, 1.5, 3
    report = listener_scores([1.0, 0.5, 0.25], [(2, 2, 0), (1, 2, 3)])
    assert report.rank_correlations[0] == pytest.approx(1.5 / math.sqrt(3), abs=1e-12)
    assert report.rank_correlations[1] == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_mean_and_sem():
    mean, sem = aggregate([0.0, 1.0])
    assert mean == 0.5
    assert sem == pytest.approx(0.5, abs=1e-15)
    mean, sem = aggregate([0.7, 0.7, 0.7])
    assert mean == pytest.approx(0.7, abs=1e-15)
    assert sem == 0.0


def test_aggregate_matches_formula(rng):
    scores = rng.random(20)
    mean, sem = aggregate(scores)
    assert mean == pytest.approx(float(np.mean(scores)), abs=1e-15)
    assert sem == pytest.approx(float(np.std(scores, ddof=1)) / math.sqrt(20), abs=1e-15)


def test_aggregate_of_one_score_has_nan_sem():
    # the mean of one score is defined; its ddof=1 standard error is not
    mean, sem = aggregate([0.5])
    assert mean == 0.5 and math.isnan(sem)
    assert aggregate([0.5, 0.5]) == (0.5, 0.0)
    with pytest.raises(DataError, match="^aggregation needs at least one score$"):
        aggregate([])


def test_aggregate_and_ttest_reject_non_numbers_as_data_errors():
    text = "could not convert string to float: 'a'"
    with pytest.raises(DataError, match=f"^aggregation: {text}$"):
        aggregate(["a", "b"])
    with pytest.raises(DataError, match=f"^t-test: the first group: {text}$"):
        confidence_ttest(["a", "b"], [1, 2])
    with pytest.raises(DataError, match=f"^t-test: the second group: {text}$"):
        confidence_ttest([1, 2], ["a", "b"])


@pytest.mark.parametrize("scores, value", [
    ([math.nan, 1.0], "nan"), ([math.inf, 1.0], "inf"), ([0.5, 0.2, -math.inf], "-inf"),
], ids=["nan", "inf", "minus-inf"])
def test_aggregate_rejects_non_finite(scores, value):
    with pytest.raises(DataError) as info:
        aggregate(scores)
    assert str(info.value) == f"aggregation: the scores hold non-finite {value}"


# ---------------------------------------------------------------------------
# scoring pipelines

def test_score_responses_perfect_model(rng):
    # responses drawn as the argmax of the model itself: top score 1
    norm = random_normalized(rng, 5, 4, metric="bigram")
    tables = {"bigram": norm}
    spec = ModelSpec("bigram", "listener", "literal")
    records = []
    for clue in range(3):
        config = Configuration(Scenario((0, 1, 2), (0, 1, 2)), "listener", clue)
        dist = predict(tables["bigram"], config, spec)
        best = dist.argmax_answers()[0]
        records.append(ResponseRecord(config, {best: 10}))
    report = score_responses(tables, spec, records)
    assert report.top_mean == 1.0
    assert report.top_answers == (1.0, 1.0, 1.0)
    assert report.model == spec


def test_score_responses_accepts_spec_string(rng):
    norm = random_normalized(rng, 4, 4, metric="bigram")
    config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    records = [ResponseRecord(config, {(0, 1): 4}),
               ResponseRecord(config, {(0, 2): 1})]
    report = score_responses({"bigram": norm}, "bigram:pragmatic:1.0", records)
    assert report.model.spec_string() == "bigram:pragmatic:1.0"
    assert len(report.rank_correlations) == 2


def test_score_responses_role_bound_per_record(rng):
    norm = random_normalized(rng, 4, 4, metric="bigram")
    speaker_config = Configuration(Scenario((0, 1, 2), (0, 1)), "speaker", (0, 1))
    listener_config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    records = [ResponseRecord(speaker_config, {0: 3, 1: 1}),
               ResponseRecord(listener_config, {(0, 1): 2})]
    report = score_responses({"bigram": norm}, "bigram:literal", records)
    assert len(report.top_answers) == 2


# ---------------------------------------------------------------------------
# gameplay success

def small_scenario():
    return Scenario((0, 1, 2), (0, 1))


def play_hand_case(monkeypatch, speakers, listeners):
    """simulate_gameplay's pair successes on small_scenario() with the
    agents replaced by hand-made distributions: speakers maps a pair to
    its clue probabilities (uniform if absent), listeners a clue to its
    pair probabilities."""
    scenario = small_scenario()

    def hand_predict(norm, config, spec):
        if config.role == "speaker":
            probs = speakers.get(config.index, [0.5, 0.5])
        else:
            probs = listeners[config.index]
        return PredictionDistribution(answer_support(config), np.array(probs))

    monkeypatch.setattr(evaluation, "predict", hand_predict)
    flat = quantile_normalize(AssociationMatrix("bigram", make_lexicon(3, 2), np.ones((3, 2))))
    report = simulate_gameplay(flat, [scenario], "bigram:literal", "bigram:literal")
    return dict(zip(scenario.pairs, report.successes[0]))


def test_average_success_deterministic_match(monkeypatch):
    listeners = {0: [1.0, 0.0, 0.0], 1: [0.0, 1.0, 0.0]}
    successes = play_hand_case(monkeypatch, {(0, 1): [1.0, 0.0]}, listeners)
    assert successes[(0, 1)] == 1.0


def test_average_success_uniform_listener_is_chance(monkeypatch):
    uniform = [1 / 3] * 3
    for probs in ([1.0, 0.0], [0.3, 0.7], [0.5, 0.5]):
        successes = play_hand_case(monkeypatch, {(0, 2): probs}, {0: uniform, 1: uniform})
        assert successes[(0, 2)] == pytest.approx(1 / 3, abs=1e-12)


def test_average_success_hand_case(monkeypatch):
    # speaker (0.5, 0.5); listener for clue0 puts 0.8 on target, clue1 puts 0.2
    listeners = {0: [0.8, 0.1, 0.1], 1: [0.2, 0.4, 0.4]}
    successes = play_hand_case(monkeypatch, {(0, 1): [0.5, 0.5]}, listeners)
    assert successes[(0, 1)] == pytest.approx(0.5, abs=1e-15)


def test_average_success_validation(rng):
    tables = {"bigram": random_normalized(rng, 3, 2)}
    with pytest.raises(DataError, match="^no scenarios to play$"):
        simulate_gameplay(tables, [], "bigram:literal", "bigram:literal")
    # one scenario of two nouns is one pair: its success is the mean, with SEM nan
    report = simulate_gameplay(tables, [Scenario((0, 1), (0, 1))], "bigram:literal", "bigram:literal")
    assert report.mean == report.successes[0][0] == 1.0 and math.isnan(report.sem)


def test_simulate_gameplay_uniform_models(rng):
    # a constant matrix makes every agent uniform: success = 1/C(k,2)
    lexicon = make_lexicon(4, 3)
    flat = AssociationMatrix("bigram", lexicon, np.ones((4, 3)))
    norm = quantile_normalize(flat)
    scenarios = [Scenario((0, 1, 2), (0, 1)), Scenario((1, 2, 3), (0, 2))]
    report = simulate_gameplay({"bigram": norm}, scenarios,
                               "bigram:literal", "bigram:literal")
    assert report.mean == pytest.approx(1 / 3, abs=1e-12)
    for row in report.successes:
        for value in row:
            assert value == pytest.approx(1 / 3, abs=1e-12)
    # one row of C(3,2) = 3 pair successes per scenario
    assert len(report.successes) == 2
    assert all(len(row) == 3 for row in report.successes)
    assert len(report.scenario_means) == 2


def test_simulate_gameplay_matches_manual_composition(rng):
    norm = random_normalized(rng, 5, 4, metric="bigram")
    tables = {"bigram": norm}
    scenario = Scenario((0, 2, 4), (1, 3))
    report = simulate_gameplay(tables, [scenario], "bigram:pragmatic:1.0", "bigram:literal")
    speaker_spec = parse_model_spec("bigram:pragmatic:1.0", "speaker")
    listener_spec = parse_model_spec("bigram:literal", "listener")
    listeners = {
        a: predict(norm, Configuration(scenario, "listener", a), listener_spec)
        for a in range(scenario.m)
    }
    for pair, got in zip(scenario.pairs, report.successes[0]):
        speaker = predict(norm, Configuration(scenario, "speaker", pair), speaker_spec)
        assert got == oracle_average_success(scenario, pair, speaker, listeners)
    assert report.mean == float(np.mean(report.successes[0]))


# ---------------------------------------------------------------------------
# scoring and gameplay against the oracles, bit for bit

DEPTHS = ("literal", "pragmatic:0.3", "pragmatic:1.0", "pragmatic:5.0", "pragmatic:30.0")


@st.composite
def tied_tables(draw):
    """Two metrics over one 3-8 x 2-8 lexicon and a generator for the
    items played on them. Raw scores come from {0, 1, 2}, so cells tie
    and TIE_TOL decides top answers; about 30% of cells are masked."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lexicon = make_lexicon(draw(st.integers(3, 8)), draw(st.integers(2, 8)))
    tables = {}
    for metric in ("bigram", "embedding-cosine"):
        raw = rng.integers(0, 3, size=lexicon.shape).astype(float)
        mask = rng.random(size=lexicon.shape) < 0.3
        tables[metric] = quantile_normalize(AssociationMatrix(metric, lexicon, raw, mask))
    return tables, rng


MODELS = st.sampled_from([f"{m}:{d}" for m in ("bigram", "embedding-cosine") for d in DEPTHS])


def random_scenario(rng, lexicon, min_nouns):
    n_nouns, n_adjs = lexicon.shape
    k = int(rng.integers(min_nouns, min(n_nouns, 5) + 1))
    m = int(rng.integers(2, n_adjs + 1))
    return Scenario(
        tuple(rng.choice(n_nouns, k, replace=False)), tuple(rng.choice(n_adjs, m, replace=False))
    )


def random_response(rng, lexicon):
    """A record on a random 3+-noun configuration with tie-prone counts."""
    scenario = random_scenario(rng, lexicon, 3)
    if rng.random() < 0.5:
        config = Configuration(scenario, "listener", int(rng.integers(scenario.m)))
    else:
        pair = scenario.pairs[int(rng.integers(len(scenario.pairs)))]
        config = Configuration(scenario, "speaker", pair)
    support = answer_support(config)
    counts = rng.integers(0, 3, size=len(support))
    counts[int(rng.integers(counts.size))] += 1
    return ResponseRecord(config, dict(zip(support, counts.tolist())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_tables(), MODELS, st.integers(2, 5))
def test_score_responses_equals_oracles(drawn, model, n_records):
    tables, rng = drawn
    records = [random_response(rng, tables["bigram"].lexicon) for _ in range(n_records)]
    tops, ranks = [], []
    for position, record in enumerate(records, start=1):
        spec = parse_model_spec(model, record.configuration.role)
        try:
            prediction = predict(tables[spec.metric], record.configuration, spec)
        except DataError as exc:
            message = f"model {spec.spec_string()}: record {position}: {exc}"
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                score_responses(tables, model, records)
            return
        tops.append(oracle_top_answer(prediction, record))
        ranks.append(oracle_rank_correlation(prediction, record))
    report = score_responses(tables, model, records)
    assert report.top_answers == tuple(tops)
    assert report.rank_correlations == tuple(ranks)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_tables(), MODELS, MODELS, st.integers(2, 3))
def test_simulate_gameplay_equals_oracle(drawn, speaker, listener, n_scenarios):
    tables, rng = drawn
    scenarios = [random_scenario(rng, tables["bigram"].lexicon, 2) for _ in range(n_scenarios)]
    speaker_spec = parse_model_spec(speaker, "speaker")
    listener_spec = parse_model_spec(listener, "listener")
    speaker_norm = tables[speaker_spec.metric]
    listener_norm = tables[listener_spec.metric]
    successes = []
    for number, scenario in enumerate(scenarios, start=1):
        where = f"gameplay: scenario {number}: listener model {listener_spec.spec_string()}"
        try:
            listeners = {
                a: predict(listener_norm, Configuration(scenario, "listener", a), listener_spec)
                for a in range(scenario.m)
            }
            where = f"gameplay: scenario {number}: speaker model {speaker_spec.spec_string()}"
            row = []
            for pair in scenario.pairs:
                config = Configuration(scenario, "speaker", pair)
                speaker_dist = predict(speaker_norm, config, speaker_spec)
                row.append(oracle_average_success(scenario, pair, speaker_dist, listeners))
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(f'{where}: {exc}')}$"):
                simulate_gameplay(tables, scenarios, speaker, listener)
            return
        successes.append(tuple(row))
    assert simulate_gameplay(tables, scenarios, speaker, listener).successes == tuple(successes)


# ---------------------------------------------------------------------------
# model comparison

def test_metric_rank_correlation_self_and_reverse(rng):
    norm = random_normalized(rng, 5, 5, metric="a")
    assert metric_rank_correlation(norm, norm) == pytest.approx(1.0, abs=1e-12)


def test_metric_rank_correlation_lexicon_check(rng):
    a = random_normalized(rng, 4, 4, metric="a")
    b = random_normalized(rng, 5, 4, metric="b")
    with pytest.raises(DataError, match="lexicon"):
        metric_rank_correlation(a, b)
    # one section in reverse order: a lexicon of the same shape and words is still another lexicon
    nouns, adjectives = a.lexicon.nouns, a.lexicon.adjectives
    for other in (Lexicon(nouns[::-1], adjectives), Lexicon(nouns, adjectives[::-1])):
        b = NormalizedAssociation("b", other, a.values, a.zero_mask)
        with pytest.raises(DataError, match="^matrices disagree on the lexicon$"):
            metric_rank_correlation(a, b)


@st.composite
def normalized_pairs(draw):
    """Two matrices over one lexicon of at least two cells, tied or
    continuous raw scores, up to all cells at the floor, or one matrix
    given twice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lexicon = make_lexicon(draw(st.integers(1, 12)), draw(st.integers(2, 12)))
    tables = []
    for metric in ("a", "b"):
        if draw(st.booleans()):
            raw = rng.integers(0, 3, size=lexicon.shape).astype(float)
        else:
            raw = rng.normal(size=lexicon.shape)
        mask = rng.random(size=lexicon.shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
        tables.append(quantile_normalize(AssociationMatrix(metric, lexicon, raw, mask)))
    if draw(st.booleans()):
        tables[1] = tables[0]
    return tables


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(normalized_pairs())
def test_metric_rank_correlation_equals_spearman_of_cells(tables):
    a, b = tables
    expected = spearman(a.values.ravel(), b.values.ravel())
    assert metric_rank_correlation(a, b) == expected
    # again from the cached ranks, and in the other order
    assert metric_rank_correlation(a, b) == expected
    assert metric_rank_correlation(b, a) == spearman(b.values.ravel(), a.values.ravel())


def test_matrix_ranks_are_cached_and_read_only(rng):
    norm = random_normalized(rng, 6, 5, mask_frac=0.3)
    ranks = norm._ranks
    assert ranks is norm._ranks
    assert ranks.shape == (1, 30)
    with pytest.raises(ValueError):
        ranks[0, 0] = 0.0


def test_metric_rank_correlation_needs_two_cells():
    norm = quantile_normalize(AssociationMatrix("a", make_lexicon(1, 1), [[0.5]]))
    with pytest.raises(DataError, match="^rank correlation needs at least two entries$"):
        metric_rank_correlation(norm, norm)


def test_model_agreement_self_is_perfect(rng):
    norm = random_normalized(rng, 5, 4, metric="bigram")
    tables = {"bigram": norm}
    configs = [
        Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0),
        Configuration(Scenario((1, 2, 3), (1, 2)), "listener", 1),
        Configuration(Scenario((0, 2, 4), (0, 2)), "listener", 0),
    ]
    top, rank = model_agreement("bigram:literal", "bigram:literal", tables, configs)
    assert top == 1.0
    assert rank == pytest.approx(1.0, abs=1e-12)


def test_model_agreement_role_mixing_rejected(rng):
    norm = random_normalized(rng, 4, 4, metric="bigram")
    configs = [Configuration(Scenario((0, 1), (0, 1)), "listener", 0),
               Configuration(Scenario((0, 1), (0, 1)), "speaker", (0, 1))]
    with pytest.raises(DataError, match="mix roles"):
        model_agreement("bigram:literal", "bigram:literal", {"bigram": norm}, configs)


def test_model_of_the_wrong_role_names_both_roles(rng):
    tables = {"bigram": random_normalized(rng, 4, 3, metric="bigram")}
    scenario = Scenario((0, 1, 2), (0, 1))
    config = Configuration(scenario, "listener", 0)
    speaker = ModelSpec("bigram", "speaker", "literal")
    listener = ModelSpec("bigram", "listener", "literal")
    message = "^speaker model bigram:literal given for the listener role$"
    with pytest.raises(DataError, match=message):
        score_responses(tables, speaker, [ResponseRecord(config, {(0, 1): 2})])
    with pytest.raises(DataError, match=message):
        model_agreement(listener, speaker, tables, [config])
    with pytest.raises(DataError, match=message):
        simulate_gameplay(tables, [scenario], speaker, speaker)


def test_mixed_lexicons_rejected(rng):
    # same words, nouns in reverse order: index-level mixing would be silent
    bigram = random_normalized(rng, 4, 3, metric="bigram")
    lexicon = bigram.lexicon
    reversed_lexicon = Lexicon(lexicon.nouns[::-1], lexicon.adjectives)
    cosine = NormalizedAssociation(
        "embedding-cosine", reversed_lexicon, bigram.values[::-1], bigram.zero_mask[::-1]
    )
    tables = {"bigram": bigram, "embedding-cosine": cosine}
    scenario = Scenario((0, 1, 2), (0, 1))
    config = Configuration(scenario, "listener", 0)
    with pytest.raises(DataError, match="matrices disagree on the lexicon"):
        simulate_gameplay(tables, [scenario], "bigram:literal", "embedding-cosine:literal")
    with pytest.raises(DataError, match="matrices disagree on the lexicon"):
        model_agreement("bigram:literal", "embedding-cosine:literal", tables, [config])
    with pytest.raises(DataError, match="matrices disagree on the lexicon"):
        score_responses(tables, "bigram:literal", [ResponseRecord(config, {(0, 1): 2})])


# ---------------------------------------------------------------------------
# Welch t-test

def test_ttest_identical_groups():
    assert confidence_ttest([3.0, 3.0], [3.0, 3.0]) == (0.0, 1.0)


def test_ttest_zero_variance_different_means():
    t, p = confidence_ttest([5.0, 5.0], [1.0, 1.0])
    assert t == math.inf and p == 0.0
    t, p = confidence_ttest([1.0, 1.0], [5.0, 5.0])
    assert t == -math.inf and p == 0.0


def test_ttest_hand_case():
    # groups {2,3,4} and {4,5,6}: t = -sqrt(6), df = 4
    t, p = confidence_ttest([2.0, 3.0, 4.0], [4.0, 5.0, 6.0])
    assert t == pytest.approx(-math.sqrt(6), abs=1e-12)
    expected_p = 2 * scipy.stats.t.sf(math.sqrt(6), 4)
    assert p == pytest.approx(expected_p, abs=1e-12)


def test_ttest_matches_scipy(rng):
    for _ in range(50):
        a = rng.normal(3, 1, size=int(rng.integers(3, 12)))
        b = rng.normal(3.5, 2, size=int(rng.integers(3, 12)))
        t, p = confidence_ttest(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_ttest_validation():
    with pytest.raises(DataError, match="at least two"):
        confidence_ttest([1.0], [2.0, 3.0])


@pytest.mark.parametrize("a, b, message", [
    ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0], "the first group holds non-finite nan"),
    ([1.0, 2.0, 3.0], [2.0, math.inf], "the second group holds non-finite inf"),
    ([math.inf, math.inf], [1.0, 1.0], "the first group holds non-finite inf"),
], ids=["first-nan", "second-inf", "zero-variance-inf"])
def test_ttest_rejects_non_finite(a, b, message):
    with pytest.raises(DataError) as info:
        confidence_ttest(a, b)
    assert str(info.value) == f"t-test: {message}"


# ---------------------------------------------------------------------------
# response serialization

def test_response_roundtrip(tmp_path, rng):
    lexicon = make_lexicon(4, 3)
    scenario = Scenario((0, 1, 3), (0, 2))
    records = [
        ResponseRecord(Configuration(scenario, "listener", 0),
                       {(0, 1): 3, (1, 2): 1}, confidences=(4, 5, 3, 2)),
        ResponseRecord(Configuration(scenario, "speaker", (0, 2)), {0: 2, 1: 5}),
    ]
    path = tmp_path / "responses.jsonl"
    write_responses_file(path, records, lexicon)
    loaded = load_responses(path, lexicon)
    assert loaded == records
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["configuration"]["clue"] == "adj0"
    assert first["confidences"] == [4, 5, 3, 2]


def test_response_record_mapping_errors():
    lexicon = make_lexicon(3, 2)
    record = {"configuration": {"scenario": {"nouns": ["noun0", "noun1"],
                                             "adjectives": ["adj0"]},
                                "role": "listener", "clue": "adj0"},
              "answers": [[["noun0", "noun2"], 2]]}
    with pytest.raises(DataError, match="not in scenario"):
        response_from_record(record, lexicon)


def test_response_to_record_sorted_answers(tmp_path):
    # the test writer sorts answers, so response fixtures are byte-stable
    lexicon = make_lexicon(4, 2)
    scenario = Scenario((0, 1, 2), (0,))
    record = ResponseRecord(Configuration(scenario, "listener", 0),
                            {(1, 2): 1, (0, 1): 2})
    path = tmp_path / "responses.jsonl"
    write_responses_file(path, [record], lexicon)
    data = json.loads(path.read_text())
    assert data["answers"] == [[["noun0", "noun1"], 2], [["noun1", "noun2"], 1]]


# ---------------------------------------------------------------------------
# rendering

def test_render_score_reports_tsv(rng):
    norm = random_normalized(rng, 4, 4, metric="bigram")
    config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    records = [ResponseRecord(config, {(0, 1): 4}), ResponseRecord(config, {(0, 2): 2})]
    report = score_responses({"bigram": norm}, "bigram:literal", records)
    text = render_score_reports([report], "tsv")
    lines = text.strip().split("\n")
    assert lines[0] == "# model\ttop_mean\ttop_sem\trank_mean\trank_sem"
    fields = lines[1].split("\t")
    assert fields[0] == "bigram:literal"
    assert float(fields[1]) == report.top_mean


def test_render_score_reports_table(rng):
    norm = random_normalized(rng, 4, 4, metric="bigram")
    config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    records = [ResponseRecord(config, {(0, 1): 4}), ResponseRecord(config, {(1, 2): 2})]
    report = score_responses({"bigram": norm}, "bigram:literal", records)
    text = render_score_reports([report], "table")
    assert "model" in text and "bigram:literal" in text
    with pytest.raises(DataError, match="unknown format"):
        render_score_reports([report], "markdown")


def test_render_matrix_tsv():
    text = render_matrix(["a", "b"], np.array([[1.0, 0.5], [0.5, 1.0]]), "tsv")
    lines = text.strip().split("\n")
    assert lines[0] == "# \ta\tb"
    assert lines[1].startswith("a\t")
    assert lines[1].split("\t")[1] == repr(1.0)


def test_render_gameplay_formats():
    lexicon = Lexicon(("heart", "phone", "mirror"), ("dying", "empty"))
    scenarios = (Scenario((0, 2), (1,)), Scenario((1, 2), (0, 1)))
    report = GameplayReport(scenarios, ((0.5,), (0.25,)), (0.5, 0.25), 0.375, 0.125)
    assert render_gameplay(report, lexicon) == (
        "# nouns\tadjectives\tmean_success\n"
        "heart mirror\tempty\t0.5\n"
        "phone mirror\tdying empty\t0.25\n"
        "# overall\tmean=0.375\tsem=0.125\n"
    )
    assert render_gameplay(report, lexicon, "table") == (
        "nouns         adjectives   mean_success\n"
        "heart mirror  empty        0.500\n"
        "phone mirror  dying empty  0.250\n"
        "overall                    0.375 (SEM 0.125)\n"
    )
    with pytest.raises(DataError, match="unknown format"):
        render_gameplay(report, lexicon, "markdown")
