"""Scoring against response data, gameplay simulation, report rendering."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from refgame import (
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
    average_success,
    confidence_ttest,
    load_responses,
    metric_rank_correlation,
    model_agreement,
    predict,
    rank_correlation,
    render_gameplay,
    render_matrix,
    render_score_reports,
    response_from_record,
    response_to_record,
    save_responses,
    score_responses,
    simulate_gameplay,
    spearman,
    top_answer,
)

from conftest import make_lexicon, random_normalized


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
    assert record.total == 4
    assert np.array_equal(record.count_vector(), [3, 0, 1])
    assert record.modal_answers() == ((0, 1),)
    with pytest.raises(DataError, match="not a valid answer here"):
        ResponseRecord(config, {(0, 3): 2})
    with pytest.raises(DataError, match="no responses"):
        ResponseRecord(config, {})
    with pytest.raises(DataError, match="bad count"):
        ResponseRecord(config, {(0, 1): -1})
    with pytest.raises(DataError, match="1..5"):
        ResponseRecord(config, {(0, 1): 2}, confidences=(6,))


def test_modal_answers_tie():
    record = listener_record((2, 2, 1))
    assert record.modal_answers() == ((0, 1), (0, 2))


# ---------------------------------------------------------------------------
# top answer

def test_top_answer_match_and_miss():
    record = listener_record((5, 1, 0))
    support = answer_support(record.configuration)
    hit = PredictionDistribution(support, np.array([0.6, 0.3, 0.1]))
    miss = PredictionDistribution(support, np.array([0.1, 0.3, 0.6]))
    assert top_answer(hit, record) == 1.0
    assert top_answer(miss, record) == 0.0


def test_top_answer_tie_rule():
    # prediction ties (0.4, 0.4, 0.2); modal answer is the first pair: overlap
    record = listener_record((3, 1, 0))
    support = answer_support(record.configuration)
    tied = PredictionDistribution(support, np.array([0.4, 0.4, 0.2]))
    assert top_answer(tied, record) == 1.0
    # modal set {pair1}, prediction argmax {pair0}: no overlap
    record2 = listener_record((1, 3, 0))
    assert top_answer(tied, record2) == 1.0
    record3 = listener_record((0, 0, 3))
    assert top_answer(tied, record3) == 0.0


def test_top_answer_support_mismatch():
    record = listener_record((1, 1, 1))
    other = PredictionDistribution(((0, 1), (0, 2)), np.array([0.5, 0.5]))
    with pytest.raises(DataError, match="support does not match"):
        top_answer(other, record)


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
    record = listener_record((2, 2, 0))
    support = answer_support(record.configuration)
    pred = PredictionDistribution(support, np.array([0.5, 0.3, 0.2]))
    assert rank_correlation(pred, record) == pytest.approx(1.5 / math.sqrt(3), abs=1e-12)


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


def test_aggregate_needs_two():
    with pytest.raises(DataError, match="at least two"):
        aggregate([0.5])


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


def test_average_success_deterministic_match():
    scenario = small_scenario()
    target = (0, 1)
    speaker = PredictionDistribution((0, 1), np.array([1.0, 0.0]))
    listeners = {
        0: PredictionDistribution(scenario.pairs, np.array([1.0, 0.0, 0.0])),
        1: PredictionDistribution(scenario.pairs, np.array([0.0, 1.0, 0.0])),
    }
    assert average_success(scenario, target, speaker, listeners) == 1.0


def test_average_success_uniform_listener_is_chance():
    scenario = small_scenario()
    uniform = PredictionDistribution(scenario.pairs, np.full(3, 1 / 3))
    listeners = {0: uniform, 1: uniform}
    for probs in ([1.0, 0.0], [0.3, 0.7], [0.5, 0.5]):
        speaker = PredictionDistribution((0, 1), np.array(probs))
        value = average_success(scenario, (0, 2), speaker, listeners)
        assert value == pytest.approx(1 / 3, abs=1e-12)


def test_average_success_hand_case():
    # speaker (0.5, 0.5); listener for clue0 puts 0.8 on target, clue1 puts 0.2
    scenario = small_scenario()
    target = (0, 1)
    speaker = PredictionDistribution((0, 1), np.array([0.5, 0.5]))
    listeners = {
        0: PredictionDistribution(scenario.pairs, np.array([0.8, 0.1, 0.1])),
        1: PredictionDistribution(scenario.pairs, np.array([0.2, 0.4, 0.4])),
    }
    assert average_success(scenario, target, speaker, listeners) == pytest.approx(0.5, abs=1e-15)


def test_average_success_validation():
    scenario = small_scenario()
    speaker = PredictionDistribution((0, 1), np.array([0.5, 0.5]))
    uniform = PredictionDistribution(scenario.pairs, np.full(3, 1 / 3))
    with pytest.raises(DataError, match="target"):
        average_success(scenario, (0, 3), speaker, {0: uniform, 1: uniform})
    with pytest.raises(DataError, match="no listener distribution"):
        average_success(scenario, (0, 1), speaker, {0: uniform})
    bad_support = PredictionDistribution(((0, 1), (0, 2)), np.array([0.5, 0.5]))
    with pytest.raises(DataError, match="does not cover"):
        average_success(scenario, (0, 1), speaker, {0: bad_support, 1: bad_support})


def test_simulate_gameplay_uniform_models(rng):
    # a constant matrix makes every agent uniform: success = 1/C(k,2)
    lexicon = make_lexicon(4, 3)
    from refgame import AssociationMatrix, quantile_normalize

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
    from refgame import predict, parse_model_spec

    speaker_spec = parse_model_spec("bigram:pragmatic:1.0", "speaker")
    listener_spec = parse_model_spec("bigram:literal", "listener")
    listeners = {
        a: predict(norm, Configuration(scenario, "listener", a), listener_spec)
        for a in range(scenario.m)
    }
    for pair, got in zip(scenario.pairs, report.successes[0]):
        speaker = predict(norm, Configuration(scenario, "speaker", pair), speaker_spec)
        want = average_success(scenario, pair, speaker, listeners)
        assert got == pytest.approx(want, abs=1e-15)
    assert report.mean == pytest.approx(float(np.mean(report.successes[0])), abs=1e-15)


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
    save_responses(records, lexicon, path)
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


def test_response_to_record_sorted_answers():
    lexicon = make_lexicon(4, 2)
    scenario = Scenario((0, 1, 2), (0,))
    record = ResponseRecord(Configuration(scenario, "listener", 0),
                            {(1, 2): 1, (0, 1): 2})
    data = response_to_record(record, lexicon)
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
