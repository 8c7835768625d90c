"""The search hot path against its plain-loop oracles, bit for bit.

model_information_bits, filter_candidates, scenario_scores, the response
stack of scenario_joint_utility, separate-mode search and simulate_gameplay
are array rewrites of the loops kept here, and predict's memo of chains is
checked against predict on memo-less copies of each matrix and against the
one-column chain of conftest. Every comparison is ==, never approx: the
golden fixtures pin the search output to the last bit.
"""

import math
import random
import re
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame import (
    Configuration,
    DataError,
    DesignCandidate,
    GameplayReport,
    ModelSet,
    NormalizedAssociation,
    PredictionDistribution,
    Scenario,
    SearchSettings,
    aggregate,
    filter_candidates,
    load_normalized,
    model_information_bits,
    monte_carlo_search,
    parse_model_spec,
    predict,
    scenario_scores,
    simulate_gameplay,
)
from refgame import cli, evaluation, oed, rsa
from refgame.association import Tables
from refgame.errors import prefix_errors

from conftest import oracle_chain, random_normalized, with_empty_noun

GOLDEN_NORM = Path(__file__).parent / "data" / "golden" / "expected" / "norm_bigram.tsv"


# ---------------------------------------------------------------------------
# oracles: the per-answer loop, the frozenset filter, the np.ix_ build and
# the per-scenario gameplay loop

def loop_information_bits(prediction_probs) -> float:
    probs = np.asarray(prediction_probs, dtype=float)
    if probs.ndim != 2:
        raise DataError("prediction matrix must be 2-d")
    n_models = probs.shape[0]
    if n_models < 2:
        warnings.warn("fewer than two models: utility is identically 0", stacklevel=2)
        return 0.0
    mixture = probs.mean(axis=0)
    total = 0.0
    for y in np.nonzero(mixture > 0)[0]:
        posterior = probs[:, y] / (n_models * mixture[y])
        live = posterior > 0
        total += mixture[y] * float(np.sum(posterior[live] * np.log2(posterior[live] * n_models)))
    return max(total, 0.0)


def masked_information_bits(prediction_probs) -> float:
    """model_information_bits as one 2-d pass that drops dead answers with
    probs[:, live]; that copy holds each answer's column contiguous, so the
    sum over models is numpy's pairwise sum from 8 models on."""
    probs = np.asarray(prediction_probs, dtype=float)
    n_models = probs.shape[0]
    mixture = probs.mean(axis=0)
    live = mixture > 0
    if not live.any():
        return 0.0
    mixture = mixture[live]
    posterior = probs[:, live] / (n_models * mixture)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(posterior > 0, posterior * np.log2(posterior * n_models), 0.0)
    total = np.cumsum(mixture * np.add.reduce(terms, axis=0))[-1]
    return max(total, 0.0)


def stacked_loop_information_bits(prediction_probs):
    """loop_information_bits on a 2-d matrix, or on each matrix of a 3-d stack."""
    probs = np.asarray(prediction_probs, dtype=float)
    if probs.ndim == 3:
        return [loop_information_bits(matrix) for matrix in probs]
    return loop_information_bits(probs)


def _word_set(candidate) -> frozenset:
    return frozenset(
        [("n", n) for n in candidate.scenario.nouns]
        + [("a", a) for a in candidate.scenario.adjectives]
    )


def frozenset_filter(candidates, min_word_difference=2, max_word_occurrence=20):
    kept, kept_sets, occurrences = [], [], {}
    for candidate in candidates:
        words = _word_set(candidate)
        if any(
            max(len(words - other), len(other - words)) < min_word_difference
            for other in kept_sets
        ):
            continue
        if any(occurrences.get(w, 0) >= max_word_occurrence for w in words):
            continue
        kept.append(candidate)
        kept_sets.append(words)
        for w in words:
            occurrences[w] = occurrences.get(w, 0) + 1
    return kept


def ix_scenario_scores(norm, scenario) -> np.ndarray:
    sub = norm.values[np.ix_(scenario.nouns, scenario.adjectives)]
    idx = np.array(scenario.pairs)
    return sub[idx[:, 0]] * sub[idx[:, 1]]


def oracle_predict(norm, config, spec) -> PredictionDistribution:
    """predict with no memo: every call builds its scores in the np.ix_
    form, runs the one-column chain and checks the distribution."""
    if spec.role != config.role:
        raise DataError(f"model role '{spec.role}' != configuration role '{config.role}'")
    scores = ix_scenario_scores(norm, config.scenario)
    if config.role == rsa.LISTENER:
        probs = oracle_chain(scores, config.index, spec.alpha, "clue")
    else:
        probs = oracle_chain(scores.T, config.scenario.pairs.index(config.index), spec.alpha, "target")
    return PredictionDistribution(rsa.answer_support(config), probs)


def loop_simulate_gameplay(tables, scenarios, speaker_spec, listener_spec) -> GameplayReport:
    """simulate_gameplay one scenario at a time, with no batch and no memo:
    plain predict on checked Configurations and memo-less copies of the
    matrices, its predictions copied into a pair of arrays, each pair's
    success summed over clues and the scenario's mean taken before the
    next scenario is played."""
    scenarios = tuple(scenarios)
    if not scenarios:
        raise DataError("no scenarios to play")
    speaker_spec = parse_model_spec(speaker_spec, rsa.SPEAKER)
    listener_spec = parse_model_spec(listener_spec, rsa.LISTENER)
    tables = Tables.of(tables)
    speaker_norm = memo_less(tables[speaker_spec.metric])
    listener_norm = memo_less(tables[listener_spec.metric])
    all_successes = []
    scenario_means = []
    flat = []
    for number, scenario in enumerate(scenarios, start=1):
        pairs = scenario.pairs
        listener = np.empty((scenario.m, len(pairs)))
        speaker = np.empty((len(pairs), scenario.m))
        try:
            model = listener_spec
            for a, row in enumerate(listener):
                row[:] = predict(listener_norm, Configuration(scenario, rsa.LISTENER, a), model).probs
            model = speaker_spec
            for pair, row in zip(pairs, speaker):
                row[:] = predict(speaker_norm, Configuration(scenario, rsa.SPEAKER, pair), model).probs
        except DataError as exc:
            where = f"gameplay: scenario {number}: {model.role} model {model.spec_string()}"
            raise DataError(f"{where}: {exc}") from None
        # pairs x clues, summed over clues in order; an unsampled clue adds an exact 0.0
        success = np.cumsum(np.where(speaker > 0, speaker * listener.T, 0.0), axis=1)[:, -1]
        row = success.tolist()
        all_successes.append(tuple(row))
        scenario_means.append(float(success.mean()))
        flat.extend(row)
    with prefix_errors("gameplay"):
        mean, sem = aggregate(flat)
    return GameplayReport(scenarios, tuple(all_successes), tuple(scenario_means), mean, sem)


def memo_less(norm) -> NormalizedAssociation:
    """A fresh copy of norm, so its score memo is empty."""
    return NormalizedAssociation(norm.metric, norm.lexicon, norm.values, norm.zero_mask)


def oracle_row(norm, config, spec) -> np.ndarray:
    """oracle_predict's probabilities; where its float chain underflows, which
    it fails as a zero line, those of predict on the configuration alone,
    which then takes rsa's log chain (and fails a zero line the same way);
    config's scenario is a fresh one, so no memo holds it."""
    try:
        return oracle_predict(norm, config, spec).probs
    except DataError:
        return predict(norm, config, spec).probs


def oracle_separate_search(tables, models, search) -> list:
    """monte_carlo_search in a separate mode, key by key, as the search was
    before it scored chunks: the distinct keys of _loop_keys in first-seen
    order, each a checked Configuration scored by loop_information_bits on
    its oracle rows, the first failing key named; then a stable sort."""
    tables = Tables.of(tables)
    k, m, role = search.nouns, search.adjectives, search.role
    rows = oed._loop_keys(np.random.default_rng(search.seed), *tables.lexicon.shape, search, search.iterations)
    found = []
    for key in dict.fromkeys(map(tuple, rows.tolist())):
        scenario = Scenario(key[:k], key[k : k + m])
        config = Configuration(scenario, role, scenario.pairs[key[-1]] if role == rsa.SPEAKER else key[-1])
        try:
            probs = [oracle_row(tables[spec.metric], config, spec) for spec in models.models]
        except DataError as exc:
            words = rsa.scenario_record(scenario, tables.lexicon)
            where = f"scenario {' '.join(words['nouns'])} / {' '.join(words['adjectives'])}"
            raise DataError(f"{where}: {exc}") from None
        found.append(DesignCandidate(scenario, role, config.index, loop_information_bits(probs)))
    return sorted(found, key=lambda candidate: -candidate.utility)[: search.top_k]


def candidate_bits(candidates) -> list:
    """Each candidate's fields, its utility as hex so that -0.0 differs from 0.0."""
    return [(c.scenario, c.role, c.index, float(c.utility).hex()) for c in candidates]


# ---------------------------------------------------------------------------
# mutual information

@st.composite
def prediction_matrices(draw):
    """Rows of answer distributions with zero cells and dead answers,
    optionally sharpened by a power as a pragmatic chain does."""
    n_models = draw(st.integers(2, 6))
    n_answers = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    weights = np.array(
        draw(st.lists(st.lists(cell, min_size=n_answers, max_size=n_answers),
                      min_size=n_models, max_size=n_models))
    )
    dead = np.array(draw(st.lists(st.booleans(), min_size=n_answers, max_size=n_answers)))
    if dead.all():
        dead[draw(st.integers(0, n_answers - 1))] = False
    weights[:, dead] = 0.0
    live_columns = np.flatnonzero(~dead)
    for row in weights:
        if not row.any():
            row[live_columns[0]] = 1.0
    alpha = draw(st.sampled_from([1.0, 5.0, 30.0]))
    # scale each row to a maximum of 1 first so the power cannot empty it
    powered = (weights / weights.max(axis=1, keepdims=True)) ** alpha
    return powered / powered.sum(axis=1, keepdims=True)


@settings(max_examples=250, deadline=None)
@given(prediction_matrices())
def test_information_bits_equal_loop(probs):
    assert model_information_bits(probs) == loop_information_bits(probs)


@settings(max_examples=100, deadline=None)
@given(prediction_matrices())
def test_information_bits_equal_loop_on_identical_rows(probs):
    # identical rows: every term is rounding noise around 0, clamped
    same = np.repeat(probs[:1], probs.shape[0], axis=0)
    assert model_information_bits(same) == loop_information_bits(same)


def test_information_bits_all_dead_answers():
    zeros = np.zeros((3, 4))
    assert model_information_bits(zeros) == loop_information_bits(zeros) == 0.0


@st.composite
def prediction_stacks(draw):
    """Stacks of same-shape prediction matrices, 2-4 models by 1-10
    answers: answer columns dead in some matrices, matrices dead in every
    column, and matrices of identical rows, which clamp to 0."""
    n_models = draw(st.integers(2, 4))
    n_answers = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["mixed", "identical", "all dead"]))
        if kind == "all dead":
            stack.append(np.zeros((n_models, n_answers)))
            continue
        weights = rng.random((n_models, n_answers)) * (rng.random((n_models, n_answers)) < 0.7)
        weights[:, rng.random(n_answers) < 0.3] = 0.0
        weights[weights.sum(axis=1) == 0, int(rng.integers(n_answers))] = 1.0
        # scale each row to a maximum of 1 first so the power cannot empty it
        weights = (weights / weights.max(axis=1, keepdims=True)) ** draw(st.sampled_from([1.0, 5.0, 30.0]))
        probs = weights / weights.sum(axis=1, keepdims=True)
        stack.append(np.repeat(probs[:1], n_models, axis=0) if kind == "identical" else probs)
    return np.array(stack)


@settings(max_examples=300, deadline=None)
@given(prediction_stacks())
def test_stacked_information_bits_equal_loop(stack):
    bits = model_information_bits(stack)
    assert bits.shape == (len(stack),)
    assert bits.tolist() == [loop_information_bits(matrix) for matrix in stack]
    # each matrix alone gives the same bits, the sign of a zero included
    alone = np.array([model_information_bits(matrix) for matrix in stack])
    assert bits.tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 20), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_information_bits_equal_masked_pass_for_many_models(n_models, n_answers, seed):
    # the loop oracle sums only live posteriors, so from 8 models on its
    # pairwise sums may group terms differently; the masked pass is the
    # bit-level reference there
    rng = np.random.default_rng(seed)
    weights = rng.random((5, n_models, n_answers)) ** rng.choice([1.0, 30.0])
    weights[:, :, rng.random(n_answers) < 0.4] = 0.0
    weights[:, :, 0] += weights.sum(axis=2) == 0
    weights[1] = weights[1, :1]
    weights[2] = 0.0
    totals = weights.sum(axis=2, keepdims=True)
    stack = np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0)
    expected = np.array([masked_information_bits(matrix) for matrix in stack], dtype=float)
    assert model_information_bits(stack).tobytes() == expected.tobytes()


def test_stacked_information_bits_clamp_identical_rows_to_zero():
    rows = np.array([[0.2, 0.3, 0.5]] * 3)
    bits = model_information_bits(np.array([rows, np.zeros((3, 3))]))
    assert bits.tolist() == [loop_information_bits(rows), 0.0] == [0.0, 0.0]


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 2, 2, 2))])
def test_information_bits_rejects_non_matrix_like_loop(bad):
    for fn in (model_information_bits, stacked_loop_information_bits):
        with pytest.raises(DataError, match="2-d"):
            fn(bad)


def test_information_bits_one_model_warns_like_loop():
    for fn in (model_information_bits, loop_information_bits):
        with pytest.warns(UserWarning, match="fewer than two models"):
            assert fn(np.array([[0.25, 0.75]])) == 0.0
    with pytest.warns(UserWarning, match="fewer than two models"):
        assert model_information_bits(np.full((3, 1, 2), 0.5)).tolist() == [0.0] * 3


@pytest.mark.parametrize("bad, message", [
    ([[np.nan, 1.0], [0.5, 0.5]], "NaN probability"),
    ([[-0.5, 1.5], [0.5, 0.5]], "negative probability"),
    ([[0.5, np.nan]], "NaN probability"),
    (np.zeros((2, 0)), "empty distribution"),
])
def test_information_bits_reject_bad_distributions(bad, message):
    bad = np.asarray(bad, dtype=float)
    for probs in (bad, np.stack([np.full_like(bad, 0.5), bad])):
        with pytest.raises(DataError, match=f"^{message}$"):
            model_information_bits(probs)


def test_information_bits_of_an_empty_stack_is_empty():
    assert model_information_bits(np.zeros((0, 2, 3))).shape == (0,)


@st.composite
def joint_responses(draw):
    """A k x m scenario and the answer distributions of a speaker and a
    listener model set (1-9 models, sizes equal or not) for each of its
    configurations: answers dead in every model, configurations dead in
    every answer, and identical rows, whose totals clamp to 0."""
    k, m = draw(st.integers(2, 5)), draw(st.integers(1, 9))
    n_speakers = draw(st.integers(1, 9))
    n_listeners = draw(st.one_of(st.just(n_speakers), st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def role_stack(configurations, n_models, answers):
        weights = rng.random((configurations, n_models, answers)) ** rng.choice([1.0, 30.0])
        weights *= rng.random(weights.shape) < 0.7
        weights[:, :, rng.random(answers) < 0.3] = 0.0
        weights[:, :, 0] += weights.sum(axis=2) == 0
        for matrix in weights:
            kind = rng.choice(["mixed", "identical", "all dead"])
            if kind == "identical":
                matrix[:] = matrix[0]
            elif kind == "all dead":
                matrix[:] = 0.0
        totals = weights.sum(axis=2, keepdims=True)
        return np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0)

    n_pairs = len(rsa.noun_pairs(k))
    return k, m, role_stack(n_pairs, n_speakers, m), role_stack(m, n_listeners, n_pairs)


@settings(max_examples=300, deadline=None)
@given(joint_responses())
def test_one_pass_joint_utility_equals_per_role_loops(drawn):
    # scenario_joint_utility scores both roles in one zero-padded pass when
    # the model sets are one size, and in two otherwise; either way each
    # configuration keeps the bits, the sign of a zero included, of the
    # per-role oracle
    k, m, speaker, listener = drawn
    scenario = Scenario(tuple(range(k)), tuple(range(m)))
    tables = {"bigram": random_normalized(np.random.default_rng(0), k, m)}
    model_sets = [
        # alpha n + 1 names the drawn rows of model n
        ModelSet(tuple(rsa.ModelSpec("bigram", role, "pragmatic", n + 1.0) for n in range(len(stack[0]))))
        for role, stack in ((rsa.SPEAKER, speaker), (rsa.LISTENER, listener))
    ]

    def drawn_predict(norm, config, spec):
        if config.role == rsa.SPEAKER:
            row = speaker[scenario.pairs.index(config.index)]
        else:
            row = listener[config.index]
        return PredictionDistribution._checked(rsa.answer_support(config), row[int(spec.alpha) - 1])

    geometric = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oed, "predict", drawn_predict)
        patch.setattr(oed, "_geometric_mean", lambda values: geometric.append(list(values)) or 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            oed.scenario_joint_utility(tables, scenario, *model_sets)
    (got,) = geometric
    one_model = min(len(speaker[0]), len(listener[0])) < 2
    assert any("fewer than two models" in str(w.message) for w in caught) is one_model
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the loop sums only live posteriors, so from 8 models on its pairwise
        # sums may group terms differently; the masked pass is the reference there
        expected = [
            bits
            for stack in (speaker, listener)
            for bits in (
                [masked_information_bits(matrix) for matrix in stack]
                if len(stack[0]) >= 8 else stacked_loop_information_bits(stack)
            )
        ]
        per_role = [*model_information_bits(speaker), *model_information_bits(listener)]
    assert np.array(got, float).tobytes() == np.array(expected, float).tobytes()
    assert np.array(got, float).tobytes() == np.array(per_role, float).tobytes()


def _row_by_row(tables, scenario, models, indices, out):
    """out filled as scenario_joint_utility fills a role's block, but with
    one checked Configuration per index and one predict per row."""
    for responses, index in zip(out, indices):
        config = Configuration(scenario, models.role, index)
        for row, spec in enumerate(models.models):
            responses[row] = predict(tables[spec.metric], config, spec).probs
    return out


@pytest.mark.parametrize("n_speakers, n_listeners", [(2, 2), (4, 4), (3, 1), (2, 4)])
def test_joint_responses_equal_one_predict_per_row(monkeypatch, n_speakers, n_listeners):
    # The arrays scenario_joint_utility scores, its one zero-padded stack for
    # model sets of one size and each role's view of it otherwise, hold the
    # bytes of the row-by-row fill, on scenarios out of _primed, run once per
    # one-shape batch, and on lone ones; response_probability's rows do too.
    rng = np.random.default_rng(31)
    tables = Tables.of({m: random_normalized(rng, 9, 8, m, mask_frac=0.3) for m in ("a", "b")})
    depths = ("literal", "pragmatic:1.0", "pragmatic:5.0", "pragmatic:0.3")

    def model_set(role, n):
        return ModelSet(tuple(parse_model_spec(f"{'ab'[i % 2]}:{depths[i]}", role) for i in range(n)))

    speakers, listeners = model_set(rsa.SPEAKER, n_speakers), model_set(rsa.LISTENER, n_listeners)
    scenarios = [
        Scenario(tuple(rng.choice(9, k, replace=False).tolist()), tuple(rng.choice(8, m, replace=False).tolist()))
        for k, m in ((2, 1), (3, 3), (3, 3), (5, 8), (4, 2))
    ]
    seen = []
    real_bits = oed.model_information_bits
    monkeypatch.setattr(oed, "model_information_bits", lambda stack: seen.append(stack.copy()) or real_bits(stack))
    primed = primed_batches(tables, scenarios, speakers.models + listeners.models)
    for scenario in [*scenarios, *primed]:
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a one-model set warns
            oed.scenario_joint_utility(tables, scenario, speakers, listeners)
        pairs, m = scenario.pairs, scenario.m
        stack = np.zeros((len(pairs) + m, max(n_speakers, n_listeners), max(len(pairs), m)))
        _row_by_row(tables, scenario, speakers, pairs, stack[: len(pairs), :n_speakers, :m])
        _row_by_row(tables, scenario, listeners, range(m), stack[len(pairs):, :n_listeners, : len(pairs)])
        if n_speakers == n_listeners:
            expected = [stack]
        else:
            expected = [stack[: len(pairs), :n_speakers], stack[len(pairs):, :n_listeners]]
        assert [(s.shape, s.tobytes()) for s in seen] == [(e.shape, e.tobytes()) for e in expected]
        for models, indices in ((speakers, pairs), (listeners, range(m))):
            for index in indices:
                config = Configuration(scenario, models.role, index)
                got = oed.response_probability(tables, config, models)
                row = _row_by_row(tables, scenario, models, [index], np.empty((1, *got.shape)))[0]
                assert got.tobytes() == row.tobytes()


@pytest.mark.parametrize("alpha", ["1.0", "5.0"])
def test_gameplay_on_trusted_configurations_equals_scenario_loop(alpha):
    # gameplay's unchecked clue and pair configurations play the bits of the
    # loop's checked ones, with the pragmatic agent on either side
    rng = np.random.default_rng(47)
    tables = {metric: random_normalized(rng, 30, 20, metric, mask_frac=0.3) for metric in ("a", "b")}
    scenarios = [
        Scenario(tuple(rng.choice(30, k, replace=False).tolist()), tuple(rng.choice(20, m, replace=False).tolist()))
        for k, m in [(5, 8)] * 40 + [(3, 3)] * 20 + [(2, 1)] * 3 + [(5, 8)] * 5
    ]
    fields = ("scenarios", "successes", "scenario_means", "mean", "sem")
    for speaker, listener in ((f"a:pragmatic:{alpha}", "b:literal"), ("a:literal", f"b:pragmatic:{alpha}")):
        got = simulate_gameplay(tables, scenarios, speaker, listener)
        expected = loop_simulate_gameplay(tables, scenarios, speaker, listener)
        assert [getattr(got, name) for name in fields] == [getattr(expected, name) for name in fields]


# ---------------------------------------------------------------------------
# diversity filter

@st.composite
def candidate_lists(draw):
    """Utility-descending candidates of mixed noun and adjective counts
    over small word pools, so that words repeat and overlap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.integers(5, 10))
    candidates = []
    utility = 1.0
    for _ in range(draw(st.integers(0, 60))):
        nouns = rng.choice(pool, size=int(rng.integers(2, 6)), replace=False)
        adjs = rng.choice(pool, size=int(rng.integers(1, 6)), replace=False)
        candidates.append(
            DesignCandidate(Scenario(tuple(nouns.tolist()), tuple(adjs.tolist())), None, None, utility)
        )
        utility -= float(rng.choice([0.0, 0.01]))
    return candidates


@settings(max_examples=300, deadline=None)
@given(candidate_lists(), st.integers(0, 12), st.integers(1, 6))
def test_filter_equals_frozenset_loop(candidates, min_diff, cap):
    kept = filter_candidates(candidates, min_word_difference=min_diff, max_word_occurrence=cap)
    expected = frozenset_filter(candidates, min_diff, cap)
    assert len(kept) == len(expected)
    assert all(a is b for a, b in zip(kept, expected))


def test_filter_empty_input():
    assert filter_candidates([]) == [] == frozenset_filter([])


def test_filter_keeps_more_than_initial_capacity():
    # 40 disjoint candidates, all kept: no bound limits how many boards are kept
    candidates = [
        DesignCandidate(Scenario((2 * i, 2 * i + 1), (i,)), None, None, 1.0) for i in range(40)
    ]
    kept = filter_candidates(candidates)
    assert kept == frozenset_filter(candidates) == candidates


def test_filter_disjoint_boards_differ_by_their_size():
    # boards that share no word differ by max(n, s) = 6 words
    boards = [
        DesignCandidate(Scenario((3 * i, 3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 1, 3 * i + 2)),
                        None, None, 1.0 - i / 10)
        for i in range(3)
    ]
    assert filter_candidates(boards, min_word_difference=6) == boards
    assert filter_candidates(boards, min_word_difference=7) == boards[:1]
    assert frozenset_filter(boards, 6) == boards and frozenset_filter(boards, 7) == boards[:1]


# ---------------------------------------------------------------------------
# scenario scores

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scenario_scores_equal_ix_form(data):
    norm = random_normalized(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), 9, 8)
    nouns = data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=6, unique=True))
    adjs = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    scenario = Scenario(tuple(nouns), tuple(adjs))
    scores = scenario_scores(norm, scenario)
    expected = ix_scenario_scores(norm, scenario)
    assert scores.shape == expected.shape and scores.dtype == expected.dtype
    assert (scores == expected).all()


def test_scenario_scores_range_texts_unchanged(rng):
    norm = random_normalized(rng, 4, 3)
    noun_text = "scenario noun index out of range for this matrix"
    adjective_text = "scenario adjective index out of range for this matrix"
    with pytest.raises(DataError, match=f"^{re.escape(noun_text)}$"):
        scenario_scores(norm, Scenario((0, 4), (0,)))
    with pytest.raises(DataError, match=f"^{re.escape(adjective_text)}$"):
        scenario_scores(norm, Scenario((0, 1), (3,)))


# ---------------------------------------------------------------------------
# the whole search, on the golden matrix

def _exp4_models():
    specs = ("bigram:literal", "bigram:pragmatic:1.0")
    return (
        ModelSet(tuple(parse_model_spec(s, rsa.SPEAKER) for s in specs)),
        ModelSet(tuple(parse_model_spec(s, rsa.LISTENER) for s in specs)),
    )


def test_golden_search_equals_oracle_path(monkeypatch):
    norm = load_normalized(GOLDEN_NORM)
    search = SearchSettings(3, 3, "joint", iterations=600, seed=7, top_k=3136)
    fast = monte_carlo_search(norm, _exp4_models(), search)
    calls = []

    def counted_loop(prediction_probs):
        calls.append(1)
        return stacked_loop_information_bits(prediction_probs)

    monkeypatch.setattr(oed, "model_information_bits", counted_loop)
    monkeypatch.setattr(oed, "predict", oracle_predict)
    slow = monte_carlo_search(norm, _exp4_models(), search)
    assert calls  # the oracle ran in place of the stacked pass
    assert [(c.scenario, c.utility) for c in fast] == [(c.scenario, c.utility) for c in slow]
    assert filter_candidates(fast) == frozenset_filter(slow)


def test_hot_path_raises_no_runtime_warning():
    zero_cells = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    norm = load_normalized(GOLDEN_NORM)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(model_information_bits(zero_cells))
        candidates = monte_carlo_search(
            norm, _exp4_models(), SearchSettings(3, 3, "joint", iterations=300, seed=3, top_k=50)
        )
    assert candidates


# ---------------------------------------------------------------------------
# predict's memo: one score build and one chain per model and scenario

def test_predict_memo_equals_memo_less_predict():
    rng = np.random.default_rng(11)
    norms = [random_normalized(rng, 7, 6, metric=m, mask_frac=0.3) for m in ("a", "b", "c")]
    scenarios = [
        Scenario(tuple(rng.choice(7, size=k, replace=False).tolist()),
                 tuple(rng.choice(6, size=m, replace=False).tolist()))
        for k, m in ((2, 1), (3, 3), (3, 3), (4, 2), (5, 6))
    ]
    calls = []
    for norm in norms:
        for scenario in scenarios:
            for alpha in ("literal", "pragmatic:0.5", "pragmatic:1.0", "pragmatic:7.0"):
                for pair in scenario.pairs:
                    calls.append((norm, Configuration(scenario, rsa.SPEAKER, pair), alpha))
                for clue in range(scenario.m):
                    calls.append((norm, Configuration(scenario, rsa.LISTENER, clue), alpha))
    # runs of one scenario hit the memo; a shuffle makes most calls miss it
    for order in (calls, random.Random(5).sample(calls, len(calls))):
        for norm, config, alpha in order:
            spec = parse_model_spec(f"{norm.metric}:{alpha}", config.role)
            got = predict(norm, config, spec)
            for expected in (predict(memo_less(norm), config, spec), oracle_predict(norm, config, spec)):
                assert got.support == expected.support
                assert got.probs.tobytes() == expected.probs.tobytes()


def primed_batches(tables, scenarios, specs):
    """The scenarios out of rsa._primed, run once on each one-shape batch
    that rsa._run_batches cuts for gameplay, in turn: up to rsa._CHUNK
    scenarios of one (k, m), in list order, shapes in first-seen order."""
    groups: dict = {}
    for scenario in scenarios:
        groups.setdefault((scenario.k, scenario.m), []).append(scenario)
    for group in groups.values():
        for start in range(0, len(group), rsa._CHUNK):
            yield from rsa._primed(tables, group[start : start + rsa._CHUNK], specs)


def prime(tables, scenarios, specs) -> list:
    """Run primed_batches through scenarios, which leaves the last one out."""
    return list(primed_batches(tables, scenarios, specs))


def memos(norm, scenarios, specs) -> list:
    """norm's memo while each scenario is out of primed_batches."""
    found = []
    for scenario in primed_batches({norm.metric: norm}, scenarios, specs):
        found.append(norm.__dict__["_scenario_memo"])
        assert found[-1][0] is scenario
    return found


def test_predict_memo_holds_read_only_chains(rng):
    norm = random_normalized(rng, 5, 4)
    scenario = Scenario((0, 2, 4), (1, 3))
    literal = parse_model_spec("bigram:literal", "listener")
    speaker = parse_model_spec("bigram:pragmatic:2.0", "speaker")
    config = Configuration(scenario, rsa.LISTENER, 1)
    expected = oracle_predict(norm, config, literal)
    # a lone prediction is a read-only row of its own chain, and writes no memo
    dist = predict(norm, config, literal)
    predict(norm, Configuration(scenario, rsa.SPEAKER, (0, 2)), speaker)
    assert "_scenario_memo" not in norm.__dict__
    assert dist.support == scenario.pairs
    assert not dist.probs.flags.writeable and dist.probs.base is not None
    with pytest.raises(ValueError, match="read-only"):
        dist.probs[0] = 1.0
    assert dist.probs.tobytes() == expected.probs.tobytes()
    # scenario_scores still returns a fresh, writable array
    assert scenario_scores(norm, scenario).flags.writeable
    # while a scenario is out, the memo is it, its row of its batch's stack
    # and that batch's read-only chains, one per (role, alpha); _primed runs
    # once per batch, each of one shape
    other, wide = Scenario((1, 3, 4), (0, 1)), Scenario((0, 1, 2, 3), (0, 2, 3))
    found = []
    for batch in ([scenario, other], [wide], [scenario]):
        for out in rsa._primed({"bigram": norm}, batch, [literal, speaker]):
            memo = norm.__dict__["_scenario_memo"]
            found.append(memo)
            if out.k == 3:
                primed = predict(norm, config if out is scenario else Configuration(out, rsa.LISTENER, 1), literal)
                assert np.shares_memory(primed.probs, memo[2]["listener", None][0])
                assert not primed.probs.flags.writeable
                assert norm.__dict__["_scenario_memo"] is memo
    assert [(memo[0], memo[1]) for memo in found] == [(scenario, 0), (other, 1), (wide, 0), (scenario, 0)]
    chains, wide_chains, last_chains = found[0][2], found[2][2], found[3][2]
    assert found[1][2] is chains
    assert len({id(chains), id(wide_chains), id(last_chains)}) == 3
    for chunk_chains, (k, m), rows in ((chains, (3, 2), 2), (wide_chains, (4, 3), 1), (last_chains, (3, 2), 1)):
        assert list(chunk_chains) == [("listener", None), ("speaker", 2.0)]
        for (role, _), (probs, support, position) in chunk_chains.items():
            assert len(probs) == rows and not probs.flags.writeable
            assert (support, position) == rsa._answers(role, k, m)
    primed = predict(norm, config, literal)
    assert np.shares_memory(primed.probs, last_chains["listener", None][0])
    assert primed.support is last_chains["listener", None][1]
    assert primed.probs.tobytes() == expected.probs.tobytes()


def nan_at(cell):
    """rsa._score_stack on the matrix's values with a NaN at cell, so that
    its own check fails on every stack holding a scenario that reads it."""
    real = rsa._score_stack

    def score_stack(norm, nouns, adjectives):
        values = norm.values.copy()
        values[cell] = np.nan
        return real(SimpleNamespace(lexicon=norm.lexicon, values=values), nouns, adjectives)

    return score_stack


def test_predict_memo_stores_no_failed_scores(rng, monkeypatch):
    norm = random_normalized(rng, 5, 4)
    spec = parse_model_spec("bigram:literal", "listener")
    good = Configuration(Scenario((0, 1), (0,)), rsa.LISTENER, 0)
    bad = Configuration(Scenario((2, 3), (1,)), rsa.LISTENER, 0)
    monkeypatch.setattr(rsa, "_score_stack", nan_at((2, 1)))
    messages = []
    for _ in range(2):
        with pytest.raises(DataError) as info:
            predict(norm, bad, spec)
        messages.append(str(info.value))
    assert messages == ["scores must be finite and non-negative"] * 2
    assert "_scenario_memo" not in norm.__dict__
    prime({"bigram": norm}, [good.scenario], [spec])
    memo = norm.__dict__["_scenario_memo"]
    predict(norm, good, spec)
    for _ in range(2):
        with pytest.raises(DataError, match="^scores must be finite and non-negative$"):
            predict(norm, bad, spec)
    assert norm.__dict__["_scenario_memo"] is memo and memo[0] is good.scenario


def test_predict_memo_nan_row_raises_on_each_read_and_failed_chain_is_stored(rng, monkeypatch):
    norm = random_normalized(rng, 5, 4)
    scenario = Scenario((0, 1, 2), (0, 1, 2))
    real = rsa._score_stack

    def first_clue_empty(norm, nouns, adjectives):
        scores = real(norm, nouns, adjectives)
        scores[:, :, 0] = 0.0
        return scores

    monkeypatch.setattr(rsa, "_score_stack", first_clue_empty)
    scores = first_clue_empty(norm, np.array([scenario.nouns]), np.array([scenario.adjectives]))[0]
    literal = parse_model_spec("bigram:literal", "listener")

    def read_literal():
        for _ in range(2):
            with pytest.raises(DataError, match="^zero normalizer$"):
                predict(norm, Configuration(scenario, rsa.LISTENER, 0), literal)
            for clue in (1, 2):
                got = predict(norm, Configuration(scenario, rsa.LISTENER, clue), literal)
                assert got.probs.tobytes() == oracle_chain(scores, clue, None, "clue").tobytes()

    read_literal()
    assert "_scenario_memo" not in norm.__dict__
    prime({"bigram": norm}, [scenario], [literal])
    memo = norm.__dict__["_scenario_memo"]
    read_literal()
    assert list(memo[2]) == [("listener", None)]
    probs = memo[2]["listener", None][0]
    assert np.isnan(probs).all(axis=2).tolist() == [[True, False, False]] and not probs.flags.writeable
    assert not np.isnan(probs[0, 1:]).any()
    # the empty column fails the pragmatic chain as a whole, on every read,
    # and leaves the primed literal chain in place
    pragmatic = parse_model_spec("bigram:pragmatic:1.0", "listener")

    def read_pragmatic():
        for clue in (0, 1, 2, 1):
            with pytest.raises(DataError, match="^zero normalizer$"):
                predict(norm, Configuration(scenario, rsa.LISTENER, clue), pragmatic)

    read_pragmatic()
    assert norm.__dict__["_scenario_memo"] is memo and list(memo[2]) == [("listener", None)]
    # primed with the pragmatic spec, the chunk stores the failed chain,
    # NaN in every row, next to the literal one
    (memo,) = memos(norm, [scenario], [literal, pragmatic])
    assert list(memo[2]) == [("listener", None), ("listener", 1.0)]
    assert np.isnan(memo[2]["listener", 1.0][0]).all()
    read_literal()
    read_pragmatic()
    assert norm.__dict__["_scenario_memo"] is memo


def test_unprimable_batch_leaves_no_entry(rng, monkeypatch):
    norm = random_normalized(rng, 5, 4)
    tables = {"bigram": norm}
    literal = parse_model_spec("bigram:literal", "listener")
    good = [Scenario((0, 1), (0, 1)), Scenario((2, 3), (1, 2))]
    assert [list(memo[2]) for memo in memos(norm, good, [literal])] == [[("listener", None)]] * 2
    memo = norm.__dict__["_scenario_memo"]
    # an index past the matrix fails its batch's score stack: _primed raises
    # _score_stack's error before any scenario is out, the memo of the batch
    # before it stays, and predict gives the oracle's bytes or error
    outside = Scenario((0, 1, 5), (0, 1))
    with pytest.raises(DataError, match="^scenario noun index out of range for this matrix$"):
        prime(tables, [outside], [literal])
    assert norm.__dict__["_scenario_memo"] is memo
    for scenario in (*good, outside):
        config = Configuration(scenario, rsa.LISTENER, 0)
        if scenario is outside:
            with pytest.raises(DataError, match="^scenario noun index out of range for this matrix$"):
                predict(norm, config, literal)
        else:
            expected = oracle_predict(norm, config, literal).probs
            assert predict(norm, config, literal).probs.tobytes() == expected.tobytes()
    # so do scores that fail their check, here in the last scenario; fresh
    # scenarios, as the memo still holds the last one's healthy chains
    fresh = [Scenario(scenario.nouns, scenario.adjectives) for scenario in good]
    with monkeypatch.context() as patch:
        patch.setattr(rsa, "_score_stack", nan_at((2, 1)))
        with pytest.raises(DataError, match="^scores must be finite and non-negative$"):
            prime(tables, fresh, [literal])
        assert norm.__dict__["_scenario_memo"] is memo
        config = Configuration(fresh[0], rsa.LISTENER, 0)
        assert predict(norm, config, literal).probs.tobytes() == oracle_predict(norm, config, literal).probs.tobytes()
        with pytest.raises(DataError, match="^scores must be finite and non-negative$"):
            predict(norm, Configuration(fresh[1], rsa.LISTENER, 0), literal)
    # a pragmatic chain that fails on its stack fails only its own
    # scenario's rows: the batch keeps its chains for every other scenario
    floored = with_empty_noun(norm, 4)
    fails, passes = Scenario((1, 2, 3, 4), (0, 1)), Scenario((0, 1, 2, 3), (0, 1))
    pragmatic = parse_model_spec("bigram:pragmatic:30", "listener")
    batch = [good[0], passes, fails]
    assert all(memo[2] for memo in memos(floored, batch, [literal]))
    found = memos(floored, batch, [literal, pragmatic])
    assert [list(memo[2]) for memo in found] == [[("listener", None), ("listener", 30.0)]] * 3
    assert found[1][2] is found[2][2]
    failed = np.isnan(found[2][2]["listener", 30.0][0]).all(axis=2)
    assert failed.tolist() == [[False, False], [True, True]]
    for scenario in primed_batches({"bigram": floored}, batch, [literal, pragmatic]):
        config = Configuration(scenario, rsa.LISTENER, 1)
        memo = floored.__dict__["_scenario_memo"]
        for spec in (literal, pragmatic):
            if scenario == fails and spec is pragmatic:
                with pytest.raises(DataError, match="^zero normalizer$"):
                    predict(floored, config, spec)
                continue
            got = predict(floored, config, spec).probs
            assert np.shares_memory(got, memo[2][spec.role, spec.alpha][0])
            assert got.tobytes() == oracle_predict(floored, config, spec).probs.tobytes()


def test_memo_is_bounded(rng, monkeypatch):
    # the memo holds the chains of one chunk, and a direct predict writes nothing
    sizes = []

    def sized(fn):
        def call(norm, config, spec):
            scenario, row, chains = norm.__dict__["_scenario_memo"]
            assert scenario is config.scenario and row < rsa._CHUNK
            sizes.append(max(len(chain[0]) for chain in chains.values()))
            return fn(norm, config, spec)
        return call

    for module in (oed, evaluation):
        monkeypatch.setattr(module, "predict", sized(module.predict))
    norm = load_normalized(GOLDEN_NORM)
    found = monte_carlo_search(
        norm, _exp4_models(), SearchSettings(3, 3, "joint", iterations=600, seed=7, top_k=3136)
    )
    assert len(found) > rsa._CHUNK
    assert max(sizes) == rsa._CHUNK and sizes[-1] == len(found) % rsa._CHUNK
    table = random_normalized(rng, 12, 12)
    scenarios = [
        Scenario(tuple(rng.choice(12, size=3, replace=False).tolist()),
                 tuple(rng.choice(12, size=3, replace=False).tolist()))
        for _ in range(600)
    ]
    sizes.clear()
    simulate_gameplay(table, scenarios, "bigram:pragmatic:1.0", "bigram:literal")
    assert max(sizes) == rsa._CHUNK and sizes[-1] == len(scenarios) % rsa._CHUNK
    # a direct predict leaves the memo as it was, or absent
    config = Configuration(Scenario((0, 1, 2, 3), (0,)), rsa.LISTENER, 0)
    for matrix in (norm, memo_less(norm)):
        memo = matrix.__dict__.get("_scenario_memo")
        predict(matrix, config, parse_model_spec("bigram:literal", rsa.LISTENER))
        assert matrix.__dict__.get("_scenario_memo") is memo
    assert "_scenario_memo" not in matrix.__dict__


@pytest.mark.parametrize("chunk", [1, 7])
def test_memo_is_only_a_cache(monkeypatch, chunk):
    # predict gives the oracle's bytes on the scenario _primed has out, on
    # an equal but distinct scenario, on a scenario of an earlier chunk and
    # on scenarios of a drained _primed, and the misses cache nothing
    monkeypatch.setattr(rsa, "_CHUNK", chunk)
    seen = []

    def check(norm, config, spec):
        expected = oracle_predict(norm, config, spec)
        got = predict(norm, config, spec)
        assert got.support == expected.support and got.probs.tobytes() == expected.probs.tobytes()

    def checked(norm, config, spec):
        memo = norm.__dict__["_scenario_memo"]
        assert memo[0] is config.scenario
        if not seen or seen[-1] is not config.scenario:
            seen.append(config.scenario)
        check(norm, config, spec)
        twin = Scenario(config.scenario.nouns, config.scenario.adjectives)
        earlier = seen[max(len(seen) - 1 - chunk, 0)]
        for scenario in (twin, earlier):
            check(norm, Configuration(scenario, config.role, config.index), spec)
        assert norm.__dict__["_scenario_memo"] is memo
        return predict(norm, config, spec)

    norm = load_normalized(GOLDEN_NORM)
    search = SearchSettings(3, 3, "joint", iterations=40, seed=7)
    plain = monte_carlo_search(norm, _exp4_models(), search)
    rng = np.random.default_rng(3)
    table = random_normalized(rng, 9, 9)
    scenarios = [
        Scenario(tuple(rng.choice(9, size=4, replace=False).tolist()),
                 tuple(rng.choice(9, size=3, replace=False).tolist()))
        for _ in range(20)
    ]
    play = (table, scenarios, "bigram:pragmatic:2.0", "bigram:pragmatic:1.0")
    played = simulate_gameplay(*play)
    with monkeypatch.context() as patch:
        for module in (oed, evaluation):
            patch.setattr(module, "predict", checked)
        assert monte_carlo_search(norm, _exp4_models(), search) == plain
        assert len(seen) > chunk
        seen.clear()
        assert simulate_gameplay(*play) == played
        assert len(seen) == len(scenarios)
    specs = [parse_model_spec(s, role) for s in ("bigram:literal", "bigram:pragmatic:2.0") for role in rsa.ROLES]
    for scenario in prime({"bigram": table}, scenarios, specs):
        for spec in specs:
            for index in scenario.pairs if spec.role == rsa.SPEAKER else range(scenario.m):
                check(table, Configuration(scenario, spec.role, index), spec)


@pytest.mark.parametrize("workload, predicts, chains", [
    ("exp4", 12, 4),
    ("exp1", 72, 8),
    ("exp2-speaker", 0, 4),
    ("exp2-listener", 0, 4),
    ("gameplay", 18, 2),
    ("gameplay-mixed", None, 2),
])
def test_chain_runs_per_scenario(monkeypatch, workload, predicts, chains):
    # Each predict reads a row of a primed chain: one chain run per matrix,
    # model and role for every batch of up to _CHUNK scenarios of one shape,
    # from anywhere in the list, so a batch of one runs them per scenario,
    # under the predict calls the benchmark pins per scenario; gameplay makes
    # one per clue and per pair. Mixed gameplay alternates two shapes, and
    # each shape's scenarios still make one batch. A separate mode makes no
    # predict call and writes no memo: one predict_stack per chunk of keys,
    # which builds one score stack per matrix and runs the chain once per
    # matrix and (role, alpha), here once per model, as the exp2 models
    # read four matrices.
    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(rsa, "_chains", counted("chain", rsa._chains))
    for module in (oed, evaluation):
        monkeypatch.setattr(module, "predict", counted("predict", module.predict))
    for chunk in (256, 3, 1):
        monkeypatch.setattr(rsa, "_CHUNK", chunk)
        counts = {"predict": 0, "chain": 0}
        rng = np.random.default_rng(8)
        if workload.startswith("gameplay"):
            scenarios = [Scenario(tuple(range(i, i + 5)), tuple(range(i, i + 8))) for i in range(4)]
            if workload == "gameplay-mixed":
                scenarios = [s for i, big in enumerate(scenarios) for s in (big, Scenario((i, i + 1, i + 2), (i, i + 1)))]
            shapes = [(scenario.k, scenario.m) for scenario in scenarios]
            simulate_gameplay(random_normalized(rng, 12, 12), scenarios, "bigram:pragmatic:1.0", "bigram:literal")
            assert counts["predict"] == sum(scenario.m + len(scenario.pairs) for scenario in scenarios)
        else:
            preset = cli.PRESETS[workload]
            sets = {role: ModelSet(tuple(parse_model_spec(s, role) for s in preset["models"])) for role in rsa.ROLES}
            tables = {
                spec.metric: random_normalized(rng, 12, 10, metric=spec.metric) for spec in sets[rsa.SPEAKER].models
            }
            search = SearchSettings(preset["nouns"], preset["adjectives"], preset["mode"], iterations=40, seed=2)
            models = (sets[rsa.SPEAKER], sets[rsa.LISTENER]) if search.role is None else sets[search.role]
            # top_k is past the iterations, so every distinct key comes back
            shapes = [(preset["nouns"], preset["adjectives"])] * len(monte_carlo_search(tables, models, search))
            assert any("_scenario_memo" in norm.__dict__ for norm in tables.values()) is (search.role is None)
        assert len(shapes) >= 4
        if predicts is not None:
            assert counts["predict"] == predicts * len(shapes)
        assert counts["chain"] == chains * sum(math.ceil(count / chunk) for count in Counter(shapes).values())


@pytest.mark.parametrize("mode", ["separate-speaker", "separate-listener"])
def test_separate_search_builds_one_score_stack_per_chunk(monkeypatch, mode):
    # Models that share a matrix share its score stack: one _score_stack
    # call per chunk of keys, not one per model. The key array's columns
    # are the stack's index arrays and chain rows, so no key builds a
    # Configuration, and only each returned candidate builds a Scenario.
    counts = {}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(rsa, "_score_stack", counted("scores", rsa._score_stack))
    for cls, name in ((Configuration, "configuration"), (Scenario, "scenario")):
        monkeypatch.setattr(cls, "__post_init__", counted(name, cls.__post_init__))
        monkeypatch.setattr(cls, "_trusted", classmethod(counted(name, cls._trusted.__func__)))
    models = dict(zip(("separate-speaker", "separate-listener"), _exp4_models()))[mode]
    table = random_normalized(np.random.default_rng(9), 12, 10)
    for chunk, top_k in ((256, 5), (7, 40)):
        monkeypatch.setattr(rsa, "_CHUNK", chunk)
        search = SearchSettings(3, 3, mode, iterations=300, seed=4, top_k=top_k)
        n_keys = len(oed._first_seen(oed._search_keys(12, 10, search)))
        counts.update(scores=0, configuration=0, scenario=0)
        assert len(monte_carlo_search(table, models, search)) == top_k
        assert counts == {"scores": math.ceil(n_keys / chunk), "configuration": 0, "scenario": top_k}


@pytest.mark.parametrize("workload, stacks", [("exp4", 1), ("exp1", 4), ("gameplay", 1)])
def test_primed_batches_build_one_score_stack_per_matrix(monkeypatch, workload, stacks):
    # _primed's one _stack_chains call groups the specs by matrix: exp4's
    # two bigram models serve both roles from one score stack, exp1's four
    # metrics build four, and gameplay's speaker and listener on one matrix
    # share one, per batch of up to _CHUNK scenarios. Every predict reads
    # the memo, so no scenario builds a stack of its own.
    counts = {"scores": 0}

    def counted(*args):
        counts["scores"] += 1
        return real(*args)

    real = rsa._score_stack
    monkeypatch.setattr(rsa, "_score_stack", counted)
    for chunk in (256, 7):
        monkeypatch.setattr(rsa, "_CHUNK", chunk)
        counts["scores"] = 0
        rng = np.random.default_rng(10)
        if workload == "gameplay":
            scenarios = [Scenario(tuple(range(i, i + 3)), tuple(range(i, i + 4))) for i in range(9)]
            simulate_gameplay(random_normalized(rng, 12, 12), scenarios, "bigram:pragmatic:1.0", "bigram:literal")
            batches = math.ceil(len(scenarios) / chunk)
        else:
            preset = cli.PRESETS[workload]
            sets = tuple(ModelSet(tuple(parse_model_spec(s, role) for s in preset["models"])) for role in rsa.ROLES)
            tables = {spec.metric: random_normalized(rng, 12, 10, metric=spec.metric) for spec in sets[0].models}
            search = SearchSettings(preset["nouns"], preset["adjectives"], preset["mode"], iterations=40, seed=2)
            # top_k is past the iterations, so every distinct key comes back
            batches = math.ceil(len(monte_carlo_search(tables, sets, search)) / chunk)
        assert batches >= (2 if chunk == 7 else 1)
        assert counts["scores"] == stacks * batches


def test_zero_normalizer_in_search_keeps_scenario_words(monkeypatch):
    # the first sampled scenario with noun 5 fails the pragmatic chain; at
    # alpha 1 the oracle path's plain chain cannot underflow first
    norm = with_empty_noun(random_normalized(np.random.default_rng(0), 8, 6, mask_frac=0.4), 5)
    specs = ("bigram:literal", "bigram:pragmatic:1")
    models = tuple(
        ModelSet(tuple(parse_model_spec(s, role) for s in specs)) for role in (rsa.SPEAKER, rsa.LISTENER)
    )
    search = SearchSettings(3, 3, "joint", iterations=200, seed=1)
    messages = []
    for patched in (False, False, True):
        if patched:
            monkeypatch.setattr(oed, "predict", oracle_predict)
            monkeypatch.setattr(oed, "model_information_bits", stacked_loop_information_bits)
        with pytest.raises(DataError) as info:
            monte_carlo_search(norm, models, search)
        messages.append(str(info.value))
    assert re.fullmatch(r"scenario noun\d noun\d noun\d / adj\d adj\d adj\d: zero normalizer", messages[0])
    assert messages == [messages[0]] * 3


# ---------------------------------------------------------------------------
# chunked priming: the chunk size changes no result and no error


def _run(fn):
    try:
        return fn()
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_chunk_size_changes_no_result(data):
    # Floor-heavy matrices make some stacked pragmatic chains fail as a
    # whole, which leaves their chunk to each scenario's own run; chunk
    # None primes nothing, so every predict takes that run. The chunk is
    # also the run of keys a separate-mode search scores at once.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = float(rng.choice([0.0, 0.3, 0.5, 0.7]))
    tables = {metric: random_normalized(rng, 9, 10, metric, mask_frac=mask) for metric in ("a", "b")}
    k, m = data.draw(st.integers(3, 5)), data.draw(st.integers(3, 8))
    alphas = rng.choice([0.3, 1.0, 5.0, 30.0, 100.0], size=2).tolist()
    names = ("a:literal", f"a:pragmatic:{alphas[0]}", f"b:pragmatic:{alphas[1]}")
    speakers, listeners = (
        ModelSet(tuple(parse_model_spec(name, role) for name in names)) for role in (rsa.SPEAKER, rsa.LISTENER)
    )
    seed = int(rng.integers(1000))
    scenarios = [
        Scenario(tuple(rng.choice(9, size=int(rng.integers(3, 6)), replace=False).tolist()),
                 tuple(rng.choice(10, size=int(rng.integers(3, 9)), replace=False).tolist()))
        for _ in range(int(rng.integers(1, 21)))
    ]
    play = rng.choice(names, size=2).tolist()

    def search(mode, models):
        found = monte_carlo_search(tables, models, SearchSettings(k, m, mode, iterations=50, seed=seed))
        return [(c.scenario, c.role, c.index, c.utility) for c in found]

    def outcomes():
        return [
            _run(lambda: search("joint", (speakers, listeners))),
            _run(lambda: search("separate-speaker", speakers)),
            _run(lambda: search("separate-listener", listeners)),
            _run(lambda: simulate_gameplay(tables, scenarios, *play).successes),
        ]

    results = []
    for chunk in (None, 1, 7, 256):
        with pytest.MonkeyPatch.context() as patch:
            if chunk is None:
                for module in (oed, evaluation):
                    patch.setattr(module, "_primed", lambda tables, scenarios, specs: scenarios)
            else:
                patch.setattr(rsa, "_CHUNK", chunk)
            for norm in tables.values():
                norm.__dict__.pop("_scenario_memo", None)
            results.append(outcomes())
    assert results[1:] == results[:1] * 3


# (k, m) shapes of 1 to 136 pairs: 8 and more take numpy's unrolled pairwise
# sum in each scenario's mean, and more than 128 its recursive split
GAMEPLAY_SHAPES = [(2, 1), (2, 3), (3, 2), (4, 4), (5, 8), (6, 3), (9, 2), (17, 2)]
DEPTHS = ["literal", "pragmatic:0.3", "pragmatic:1.0", "pragmatic:5.0", "pragmatic:30.0", "pragmatic:100.0"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_chunked_gameplay_equals_scenario_loop(data):
    # Every output bit and every error text of the per-scenario loop, on
    # tables with up to 70% floor cells (alpha 100 underflows chains on
    # them), on lists of consecutive runs of mixed shapes, and with a
    # scenario out of range for the matrix amid a run.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.7]))
    n_nouns, n_adjs = 18, 9
    tables = {metric: random_normalized(rng, n_nouns, n_adjs, metric, mask_frac=mask) for metric in ("a", "b")}
    scenarios = []
    for k, m in data.draw(st.lists(st.sampled_from(GAMEPLAY_SHAPES), min_size=1, max_size=4)):
        scenarios += [
            Scenario(tuple(rng.choice(n_nouns, k, replace=False).tolist()),
                     tuple(rng.choice(n_adjs, m, replace=False).tolist()))
            for _ in range(data.draw(st.integers(1, 6)))
        ]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(scenarios) - 1))
        nouns, adjectives = scenarios[at].nouns, scenarios[at].adjectives
        scenarios.insert(at + 1, Scenario((n_nouns,) + nouns[1:], adjectives) if data.draw(st.booleans())
                         else Scenario(nouns, (n_adjs,) + adjectives[1:]))
    speaker, listener = [f"{data.draw(st.sampled_from('ab'))}:{data.draw(st.sampled_from(DEPTHS))}" for _ in range(2)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rsa, "_CHUNK", data.draw(st.sampled_from([1, 3, 256])))
        expected = _run(lambda: loop_simulate_gameplay(tables, scenarios, speaker, listener))
        got = _run(lambda: simulate_gameplay(tables, scenarios, speaker, listener))
    if isinstance(expected, str):
        assert got == expected
    else:
        fields = ("successes", "scenario_means", "mean")
        assert [getattr(got, name) for name in fields] == [getattr(expected, name) for name in fields]
        # one pair in all has SEM nan on both sides
        assert np.array_equal(got.sem, expected.sem, equal_nan=True)


def test_gameplay_error_names_the_failing_scenario_amid_a_chunk():
    # the second scenario of a run of three is out of range for the matrix,
    # so the chunk's score stack fails and each scenario runs alone; in
    # shapes A B A B with scenarios 2 and 3 out of range, shape A's batch,
    # which holds scenario 3, runs and fails first, yet scenario 2 is named
    table = random_normalized(np.random.default_rng(5), 6, 6)
    message = "gameplay: scenario 2: listener model bigram:literal: scenario noun index out of range for this matrix"
    cases = [
        [Scenario((0, 1, 2), (0, 1)), Scenario((0, 1, 6), (0, 1)), Scenario((3, 4, 5), (2, 3))],
        [Scenario((0, 1, 2), (0, 1)), Scenario((0, 1, 2, 6), (0,)), Scenario((3, 4, 6), (2, 3)),
         Scenario((2, 3, 4, 5), (1,))],
    ]
    for scenarios in cases:
        for play in (simulate_gameplay, loop_simulate_gameplay):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                play(table, scenarios, "bigram:literal", "bigram:literal")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_separate_search_chunks_equal_per_key_oracle(data):
    # Every chunk size gives the per-key oracle's candidates, the sign of a
    # zero utility included, or its error text, on tables with up to 70%
    # floor cells (alpha 30 and 100 underflow chains on them) and sets of
    # two to four literal and pragmatic models.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.7]))
    tables = {metric: random_normalized(rng, 9, 10, metric, mask_frac=mask) for metric in ("a", "b")}
    mode = data.draw(st.sampled_from(["separate-speaker", "separate-listener"]))
    search = SearchSettings(
        data.draw(st.integers(2, 5)), data.draw(st.integers(1, 8)), mode,
        iterations=data.draw(st.integers(1, 80)), seed=data.draw(st.integers(0, 1000)),
        top_k=data.draw(st.integers(1, 90)),
    )
    depths = data.draw(st.lists(st.sampled_from(DEPTHS), min_size=2, max_size=4))
    models = ModelSet(tuple(parse_model_spec(f"{'ab'[i % 2]}:{d}", search.role) for i, d in enumerate(depths)))
    expected = _run(lambda: candidate_bits(oracle_separate_search(tables, models, search)))
    for chunk in (1, 7, 256):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rsa, "_CHUNK", chunk)
            assert _run(lambda: candidate_bits(monte_carlo_search(tables, models, search))) == expected


def _failing_key_search(failure, mode="separate-listener"):
    """A search (separate-listener, or joint on _exp4_models) on a 12 x 10
    table in which some keys fail, by an empty noun 5 under a pragmatic
    model or by a NaN cell (noun 5, adjective 2) that fails _score_stack's
    check, and the first failing key's position among the distinct keys
    and its scenario's words."""
    table = random_normalized(np.random.default_rng(6), 12, 10)
    if failure == "empty noun":
        table = with_empty_noun(table, 5)
    specs = ("bigram:literal", "bigram:pragmatic:1.0")
    models = ModelSet(tuple(parse_model_spec(s, rsa.LISTENER) for s in specs))
    if mode == "joint":
        models = _exp4_models()
    search = SearchSettings(3, 3, mode, iterations=100, seed=3)
    rows = oed._loop_keys(np.random.default_rng(search.seed), 12, 10, search, search.iterations).tolist()
    keys = list(dict.fromkeys(map(tuple, rows)))
    first = next(i for i, key in enumerate(keys) if 5 in key[:3] and (failure == "empty noun" or 2 in key[3:6]))
    nouns = " ".join(f"noun{i}" for i in keys[first][:3])
    adjectives = " ".join(f"adj{i}" for i in keys[first][3:6])
    return {"bigram": table}, models, search, first, f"scenario {nouns} / {adjectives}"


@pytest.mark.parametrize("failure, reason", [
    ("empty noun", "zero normalizer"),
    ("NaN cell", "scores must be finite and non-negative"),
])
def test_separate_search_names_the_first_failing_key_amid_a_chunk(monkeypatch, failure, reason):
    # A chunk whose predict_stack fails, on a chain's zero normalizer or on
    # _score_stack's check, is re-run key by key: the error names the first
    # key, in first-seen order, that fails alone, whatever the chunk size.
    tables, models, search, first, words = _failing_key_search(failure)
    assert first % 7 and first < 256  # amid a chunk of 7 and of 256
    if failure == "NaN cell":
        monkeypatch.setattr(rsa, "_score_stack", nan_at((5, 2)))
    else:
        assert _run(lambda: oracle_separate_search(tables, models, search)) == f"DataError: {words}: {reason}"
    for chunk in (7, 256):
        monkeypatch.setattr(rsa, "_CHUNK", chunk)
        with pytest.raises(DataError) as info:
            monte_carlo_search(tables, models, search)
        assert str(info.value) == f"{words}: {reason}"


def test_joint_search_names_the_first_failing_key_amid_a_chunk(monkeypatch):
    # Joint mode re-runs a failing batch key by key through the same
    # rsa._run_batches: a scenario holding the empty noun fails its speaker
    # chain, and the first such key in first-seen order is named.
    tables, models, search, first, words = _failing_key_search("empty noun", "joint")
    assert first % 7 and first < 256  # amid a chunk of 7 and of 256
    for chunk in (7, 256):
        monkeypatch.setattr(rsa, "_CHUNK", chunk)
        with pytest.raises(DataError) as info:
            monte_carlo_search(tables, models, search)
        assert str(info.value) == f"{words}: zero normalizer"


@pytest.mark.parametrize("chunk", [1, 3, rsa._CHUNK])
def test_chunks_are_runs_of_one_shape(monkeypatch, chunk):
    # gameplay cuts the scenarios of each shape, from anywhere in the list,
    # into batches of up to _CHUNK: one chain run per batch, matrix and
    # (role, alpha), every prediction with the oracle's bytes, and the
    # results of a run that primes nothing
    monkeypatch.setattr(rsa, "_CHUNK", chunk)
    rng = np.random.default_rng(21)
    table = random_normalized(rng, 12, 12)

    def drawn(k, m, count):
        return [
            Scenario(tuple(rng.choice(12, size=k, replace=False).tolist()),
                     tuple(rng.choice(12, size=m, replace=False).tolist()))
            for _ in range(count)
        ]

    # shapes A A B B A, two scenarios a letter: 6 of shape A and 4 of B
    counts_by_shape = (6, 4)
    scenarios = [*drawn(3, 4, 4), *drawn(4, 2, 4), *drawn(3, 4, 2)]
    play = (table, scenarios, "bigram:pragmatic:2.0", "bigram:literal")
    norm = load_normalized(GOLDEN_NORM)
    search = SearchSettings(3, 3, "joint", iterations=40, seed=7)
    counts = {"chain": 0, "scenario": 0, "checked": 0}

    def outcomes():
        played = simulate_gameplay(*play)
        chains, counts["chain"] = counts["chain"], 0
        found = monte_carlo_search(norm, _exp4_models(), search)
        return played, found, chains

    with monkeypatch.context() as patch:
        for module in (oed, evaluation):
            patch.setattr(module, "_primed", lambda tables, scenarios, specs: scenarios)
        played, found, _ = outcomes()

    def chains(scores, alpha):
        counts["chain"] += 1
        return real_chains(scores, alpha)

    def checked(norm, config, spec):
        counts["checked"] += 1
        got = predict(norm, config, spec)
        expected = oracle_predict(norm, config, spec)
        assert got.support == expected.support and got.probs.tobytes() == expected.probs.tobytes()
        return got

    def utility(*args):
        counts["scenario"] += 1
        return real_utility(*args)

    real_chains, real_utility = rsa._chains, oed.scenario_joint_utility
    monkeypatch.setattr(rsa, "_chains", chains)
    monkeypatch.setattr(oed, "scenario_joint_utility", utility)
    for module in (oed, evaluation):
        monkeypatch.setattr(module, "predict", checked)
    assert outcomes() == (played, found, 2 * sum(math.ceil(count / chunk) for count in counts_by_shape))
    assert counts["chain"] == 4 * math.ceil(counts["scenario"] / chunk)
    plays = sum(scenario.m + len(scenario.pairs) for scenario in scenarios)
    assert counts["scenario"] >= 4 and counts["checked"] == plays + 12 * counts["scenario"]
