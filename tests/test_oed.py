"""Information utilities, Monte Carlo design search, filters."""

import dataclasses
import heapq
import math
import re
import zlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from refgame import (
    Configuration,
    DataError,
    DesignCandidate,
    ModelSet,
    ModelSpec,
    Scenario,
    SearchSettings,
    filter_candidates,
    model_information_bits,
    monte_carlo_search,
    predict,
    response_probability,
    scenario_joint_utility,
    simulate_gameplay,
)
from refgame import oed
from refgame.association import Tables
from refgame.oed import _geometric_mean, candidate_to_record, check_filter_bounds

from conftest import random_normalized


def joint_mi_bits(probs):
    """Independent check: I(M;Y) from the joint distribution directly."""
    probs = np.asarray(probs, dtype=float)
    n_models = probs.shape[0]
    p_model = 1.0 / n_models
    p_answer = probs.mean(axis=0)
    total = 0.0
    for i in range(n_models):
        for y in range(probs.shape[1]):
            joint = p_model * probs[i, y]
            if joint > 0:
                total += joint * math.log2(joint / (p_model * p_answer[y]))
    return total


def listener_set(*metrics, depth="literal", alpha=None):
    return ModelSet(tuple(ModelSpec(m, "listener", depth, alpha) for m in metrics))


# ---------------------------------------------------------------------------
# response probability

def test_response_probability_stacks_models(rng):
    tables = {
        "a": random_normalized(rng, 5, 5, metric="a"),
        "b": random_normalized(rng, 5, 5, metric="b"),
    }
    config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    models = listener_set("a", "b")
    probs = response_probability(tables, config, models)
    assert probs.shape == (2, 3)
    for row, model in zip(probs, models.models):
        assert np.array_equal(row, predict(tables[model.metric], config, model).probs)


def test_response_probability_identical_models(rng):
    tables = {"a": random_normalized(rng, 4, 4, metric="a")}
    config = Configuration(Scenario((0, 1), (0,)), "listener", 0)
    models = listener_set("a", "a")
    probs = response_probability(tables, config, models)
    assert np.array_equal(probs[0], probs[1])


@pytest.mark.parametrize("role, index", [("speaker", (1, 3)), ("listener", 2)])
def test_response_probability_rows_are_predicts_on_a_shared_matrix(rng, role, index):
    # every model reads one matrix, so every row comes from its one score
    # stack, and each is that model's predict row, bit for bit
    tables = {"a": random_normalized(rng, 6, 5, metric="a", mask_frac=0.3)}
    config = Configuration(Scenario((0, 2, 3, 5), (0, 1, 4)), role, index)
    models = ModelSet((ModelSpec("a", role, "literal"),) + tuple(
        ModelSpec("a", role, "pragmatic", alpha) for alpha in (0.3, 5.0, 30.0)
    ))
    probs = response_probability(tables, config, models)
    assert probs.shape == (4, 3 if role == "speaker" else 6)
    for row, model in zip(probs, models.models):
        assert row.tobytes() == predict(tables["a"], config, model).probs.tobytes()


def test_response_probability_role_mismatch(rng):
    tables = {"a": random_normalized(rng, 4, 4, metric="a")}
    config = Configuration(Scenario((0, 1), (0,)), "speaker", (0, 1))
    with pytest.raises(DataError, match="role"):
        response_probability(tables, config, listener_set("a"))


def test_model_set_validation():
    with pytest.raises(DataError, match="empty"):
        ModelSet(())
    with pytest.raises(DataError, match="mixes roles"):
        ModelSet((ModelSpec("a", "listener", "literal"), ModelSpec("a", "speaker", "literal")))


# ---------------------------------------------------------------------------
# information utility

def test_information_disjoint_deterministic_is_one_bit():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert model_information_bits(probs) == 1.0


def test_information_identical_models_zero():
    row = np.array([0.3, 0.5, 0.2])
    assert model_information_bits(np.stack([row, row])) == 0.0
    assert model_information_bits(np.stack([row, row, row])) <= 1e-12


def test_information_single_model_warns():
    with pytest.warns(UserWarning, match="fewer than two"):
        assert model_information_bits(np.array([[0.5, 0.5]])) == 0.0


@pytest.mark.parametrize("bad, message", [
    ("abc", "could not convert string to float: 'abc'"),
    ([[0.5, 0.5], [1.0]], "setting an array element with a sequence"),
], ids=["text", "ragged"])
def test_information_bits_reject_non_numbers_as_data_errors(bad, message):
    with pytest.raises(DataError, match=f"^prediction matrix: {re.escape(message)}"):
        model_information_bits(bad)


def test_information_three_model_mixture_hand_case():
    # three deterministic models over three answers: mixture is uniform,
    # each answer pins down the model, so the utility is log2(3)
    probs = np.eye(3)
    assert model_information_bits(probs) == pytest.approx(math.log2(3), abs=1e-12)


def test_information_matches_joint_formula(rng):
    for _ in range(200):
        n_models = int(rng.integers(2, 5))
        n_answers = int(rng.integers(2, 7))
        probs = rng.random(size=(n_models, n_answers))
        probs /= probs.sum(axis=1, keepdims=True)
        assert model_information_bits(probs) == pytest.approx(
            joint_mi_bits(probs), abs=1e-12
        )


def test_information_bounds_randomized(rng):
    for _ in range(200):
        n_models = int(rng.integers(2, 6))
        n_answers = int(rng.integers(2, 8))
        probs = rng.random(size=(n_models, n_answers))
        probs /= probs.sum(axis=1, keepdims=True)
        utility = model_information_bits(probs)
        assert 0.0 <= utility <= math.log2(n_models) + 1e-12


def test_information_invariant_to_answer_permutation(rng):
    probs = rng.random(size=(3, 5))
    probs /= probs.sum(axis=1, keepdims=True)
    perm = rng.permutation(5)
    assert model_information_bits(probs) == pytest.approx(
        model_information_bits(probs[:, perm]), abs=1e-12
    )


def configuration_utility(tables, config, models):
    """Expected information (bits) one answer to config carries about
    which model generated it: the utility the search scores."""
    return model_information_bits(response_probability(tables, config, models))


def test_configuration_utility_stacks_predictions(rng):
    tables = {
        "a": random_normalized(rng, 5, 5, metric="a"),
        "b": random_normalized(rng, 5, 5, metric="b"),
    }
    config = Configuration(Scenario((0, 2, 4), (1, 3)), "listener", 1)
    models = listener_set("a", "b")
    expected = np.stack([predict(tables[m.metric], config, m).probs for m in models.models])
    assert (response_probability(tables, config, models) == expected).all()


def test_configuration_utility_single_model_warns(rng):
    # one model carries no information: the search scores every key 0
    tables = {"a": random_normalized(rng, 3, 3, metric="a")}
    settings = SearchSettings(2, 1, "separate-listener", iterations=5, top_k=3)
    with pytest.warns(UserWarning, match="fewer than two"):
        found = monte_carlo_search(tables, listener_set("a"), settings)
    assert found and all(c.utility == 0.0 for c in found)


# ---------------------------------------------------------------------------
# geometric mean and joint utility

def test_geometric_mean_values():
    assert _geometric_mean([1.0, 4.0]) == 2.0
    assert _geometric_mean([3.0]) == 3.0
    assert _geometric_mean([2.0, 0.0, 5.0]) == 0.0
    assert _geometric_mean([1e-200, 1e-200, 1e-200]) == pytest.approx(1e-200, rel=1e-12)


def test_joint_utility_identical_models_zero(rng):
    tables = {"a": random_normalized(rng, 5, 5, metric="a")}
    speaker = ModelSet((ModelSpec("a", "speaker", "literal"), ModelSpec("a", "speaker", "literal")))
    listener = listener_set("a", "a")
    assert scenario_joint_utility(tables, Scenario((0, 1, 2), (0, 1, 2)), speaker, listener) == 0.0


def test_joint_utility_is_geometric_mean_of_configs(rng):
    tables = {
        "a": random_normalized(rng, 6, 6, metric="a"),
        "b": random_normalized(rng, 6, 6, metric="b"),
    }
    scenario = Scenario((0, 2, 4), (1, 3, 5))
    speaker = ModelSet(tuple(ModelSpec(m, "speaker", "literal") for m in ("a", "b")))
    listener = listener_set("a", "b")
    parts = [
        configuration_utility(tables, Configuration(scenario, "speaker", pair), speaker)
        for pair in scenario.pairs
    ]
    parts += [
        configuration_utility(tables, Configuration(scenario, "listener", a), listener)
        for a in range(scenario.m)
    ]
    expected = _geometric_mean(parts)
    assert scenario_joint_utility(tables, scenario, speaker, listener) == pytest.approx(
        expected, abs=1e-15
    )


def test_one_model_set_missing_metric_raises(rng):
    tables = {"a": random_normalized(rng, 3, 3, metric="a")}
    scenario = Scenario((0, 1), (0,))
    speaker = ModelSet((ModelSpec("zzz", "speaker", "literal"),))
    with pytest.raises(DataError, match="no matrix supplied for metric 'zzz'"):
        configuration_utility(tables, Configuration(scenario, "listener", 0), listener_set("zzz"))
    with pytest.raises(DataError, match="no matrix supplied for metric 'zzz'"):
        scenario_joint_utility(tables, scenario, speaker, listener_set("zzz"))


def test_joint_utility_role_validation(rng):
    tables = {"a": random_normalized(rng, 4, 4, metric="a")}
    listener = listener_set("a", "a")
    with pytest.raises(DataError, match="speaker_models"):
        scenario_joint_utility(tables, Scenario((0, 1), (0,)), listener, listener)


# ---------------------------------------------------------------------------
# Monte Carlo search

def enumerate_separate(tables, models, n_nouns, n_adjs, k, m, role):
    """Brute force over every (scenario, index) configuration."""
    results = []
    for nouns in combinations(range(n_nouns), k):
        for adjs in combinations(range(n_adjs), m):
            scenario = Scenario(nouns, adjs)
            if role == "listener":
                indices = list(range(m))
            else:
                indices = list(scenario.pairs)
            for index in indices:
                config = Configuration(scenario, role, index)
                results.append((nouns, adjs, index, configuration_utility(tables, config, models)))
    return results


def test_search_matches_enumeration_small_space(rng):
    # pragmatic listeners: every scenario word shifts the distribution, so
    # utilities are distinct and the top-k ordering is unambiguous
    tables = {
        "a": random_normalized(rng, 5, 4, metric="a"),
        "b": random_normalized(rng, 5, 4, metric="b"),
    }
    models = listener_set("a", "b", depth="pragmatic", alpha=1.0)
    settings = SearchSettings(nouns=3, adjectives=3, mode="separate-listener",
                              iterations=4000, seed=7, top_k=10)
    found = monte_carlo_search(tables, models, settings)
    exact = enumerate_separate(tables, models, 5, 4, 3, 3, "listener")
    exact.sort(key=lambda r: -r[3])
    assert exact[9][3] - exact[10][3] > 1e-9  # no tie at the cut
    assert len(found) == 10
    for candidate, (nouns, adjs, index, utility) in zip(found, exact[:10]):
        assert candidate.scenario.nouns == nouns
        assert candidate.scenario.adjectives == adjs
        assert candidate.index == index
        assert candidate.utility == pytest.approx(utility, abs=1e-9)


def test_search_literal_listener_tie_classes(rng):
    # literal listeners ignore non-clue adjectives, producing exact utility
    # ties; the search must still report the right utilities and keys
    tables = {
        "a": random_normalized(rng, 5, 4, metric="a"),
        "b": random_normalized(rng, 5, 4, metric="b"),
    }
    models = listener_set("a", "b")
    settings = SearchSettings(nouns=3, adjectives=3, mode="separate-listener",
                              iterations=4000, seed=7, top_k=10)
    found = monte_carlo_search(tables, models, settings)
    exact = enumerate_separate(tables, models, 5, 4, 3, 3, "listener")
    exact.sort(key=lambda r: -r[3])
    by_key = {(n, a, i): u for n, a, i, u in exact}
    for candidate, (_, _, _, utility) in zip(found, exact[:10]):
        assert candidate.utility == pytest.approx(utility, abs=1e-9)
        key = (candidate.scenario.nouns, candidate.scenario.adjectives, candidate.index)
        assert candidate.utility == pytest.approx(by_key[key], abs=1e-12)


def test_search_joint_matches_enumeration(rng):
    tables = {
        "a": random_normalized(rng, 4, 3, metric="a"),
        "b": random_normalized(rng, 4, 3, metric="b"),
    }
    speaker = ModelSet(tuple(ModelSpec(m, "speaker", "literal") for m in ("a", "b")))
    listener = listener_set("a", "b")
    settings = SearchSettings(nouns=3, adjectives=2, mode="joint",
                              iterations=1500, seed=3, top_k=12)
    found = monte_carlo_search(tables, (speaker, listener), settings)
    exact = []
    for nouns in combinations(range(4), 3):
        for adjs in combinations(range(3), 2):
            scenario = Scenario(nouns, adjs)
            exact.append((nouns, adjs, scenario_joint_utility(tables, scenario, speaker, listener)))
    exact.sort(key=lambda r: -r[2])
    assert len(found) == 12  # the full space
    for candidate, (nouns, adjs, utility) in zip(found, exact):
        assert candidate.scenario.nouns == nouns
        assert candidate.scenario.adjectives == adjs
        assert candidate.role is None and candidate.index is None
        assert candidate.utility == pytest.approx(utility, abs=1e-12)


def test_search_deterministic(rng):
    tables = {
        "a": random_normalized(rng, 6, 6, metric="a"),
        "b": random_normalized(rng, 6, 6, metric="b"),
    }
    models = ModelSet(tuple(ModelSpec(m, "speaker", "literal") for m in ("a", "b")))
    settings = SearchSettings(nouns=3, adjectives=2, mode="separate-speaker",
                              iterations=500, seed=42, top_k=30)
    first = monte_carlo_search(tables, models, settings)
    second = monte_carlo_search(tables, models, settings)
    assert first == second


def test_search_utilities_non_increasing(rng):
    tables = {
        "a": random_normalized(rng, 6, 5, metric="a"),
        "b": random_normalized(rng, 6, 5, metric="b"),
    }
    models = listener_set("a", "b")
    settings = SearchSettings(nouns=3, adjectives=2, mode="separate-listener",
                              iterations=300, seed=5, top_k=50)
    found = monte_carlo_search(tables, models, settings)
    for earlier, later in zip(found, found[1:]):
        assert earlier.utility >= later.utility


@pytest.mark.parametrize("mode, role", [
    ("separate-speaker", "speaker"),
    ("separate-listener", "listener"),
    ("joint", None),
])
def test_search_settings_role(mode, role):
    assert SearchSettings(3, 2, mode).role == role


def test_search_validation(rng):
    tables = {"a": random_normalized(rng, 3, 3, metric="a")}
    models = listener_set("a", "a")
    with pytest.raises(DataError, match="lexicon has 3"):
        monte_carlo_search(tables, models, SearchSettings(4, 2, "separate-listener"))
    with pytest.raises(DataError, match="unknown search mode"):
        SearchSettings(3, 2, "both")
    with pytest.raises(DataError, match="joint mode"):
        monte_carlo_search(tables, models, SearchSettings(3, 2, "joint", iterations=5))
    with pytest.raises(DataError, match="needs speaker"):
        monte_carlo_search(tables, models, SearchSettings(3, 2, "separate-speaker", iterations=5))
    mixed = {"a": tables["a"], "b": random_normalized(rng, 4, 3, metric="b")}
    with pytest.raises(DataError, match="disagree on the lexicon"):
        monte_carlo_search(mixed, listener_set("a", "b"),
                           SearchSettings(3, 2, "separate-listener", iterations=5))
    with pytest.raises(DataError, match="no matrices supplied"):
        monte_carlo_search({}, models, SearchSettings(3, 2, "separate-listener", iterations=5))


def test_tables_reject_a_matrix_under_another_metric(rng):
    # a matrix keyed by the wrong metric would be scored as that metric
    embedding = random_normalized(rng, 4, 3, metric="embedding")
    with pytest.raises(DataError, match="^matrix for metric 'bigram' holds metric 'embedding'$"):
        Tables.of({"bigram": embedding})
    with pytest.raises(DataError, match="holds metric 'embedding'"):
        simulate_gameplay({"bigram": embedding}, [Scenario((0, 1, 2), (0, 1))],
                          "bigram:literal", "bigram:literal")
    assert Tables.of({"embedding": embedding}) == Tables.of(embedding) == {"embedding": embedding}


def test_non_tables_and_non_candidates_are_data_errors(rng):
    models = listener_set("a", "b")
    settings = SearchSettings(3, 2, "separate-listener", iterations=5)
    for tables in (None, [1, 2], {"a": 1}):
        with pytest.raises(DataError, match="^expected normalized matrices by metric, got "):
            Tables.of(tables)
        with pytest.raises(DataError, match="^expected normalized matrices by metric, got "):
            monte_carlo_search(tables, models, settings)
    for candidates in (None, [1, 2], 3, [cand((0, 1), (0,), 0.5), None]):
        with pytest.raises(DataError, match="^candidates must be an iterable of DesignCandidates$"):
            filter_candidates(candidates)


@pytest.mark.parametrize("field, value", [
    ("nouns", 2.5), ("adjectives", 2.0), ("iterations", 2.5), ("iterations", True),
    ("seed", 1.5), ("seed", "1"), ("top_k", 1.5), ("top_k", None),
])
def test_search_settings_reject_non_integer_counts(field, value):
    fields = {"nouns": 3, "adjectives": 2, "mode": "joint", field: value}
    with pytest.raises(DataError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        SearchSettings(**fields)


def test_search_settings_reject_negative_seed():
    with pytest.raises(DataError, match="^seed must be non-negative, got -1$"):
        SearchSettings(3, 2, "joint", seed=-1)


def test_search_settings_accept_numpy_integers():
    settings = SearchSettings(np.int64(3), np.int32(2), "joint", iterations=np.int64(5), seed=np.int64(0))
    assert settings.nouns == 3 and settings.iterations == 5


@pytest.mark.parametrize("mode", ["separate-listener", "joint"])
def test_search_rejects_missing_metric_before_sampling(rng, mode):
    # the metric check runs before any key is drawn
    tables = {"a": random_normalized(rng, 4, 3, metric="a")}
    models = ModelSet((ModelSpec("b", "listener", "literal"),))
    if mode == "joint":
        models = (ModelSet((ModelSpec("a", "speaker", "literal"),)), models)
    with pytest.raises(DataError, match="no matrix supplied for metric 'b'"):
        monte_carlo_search(tables, models, SearchSettings(3, 2, mode, iterations=5))


@pytest.mark.parametrize("mode", ["separate-listener", "joint"])
def test_search_error_names_scenario(rng, monkeypatch, mode):
    def boom(*args):
        raise DataError("boom")

    # a separate mode predicts a block of configurations at once, joint mode one at a time
    monkeypatch.setattr(oed, "predict_stack" if mode == "separate-listener" else "predict", boom)
    tables = {"a": random_normalized(rng, 2, 1, metric="a")}
    models = listener_set("a", "a")
    if mode == "joint":
        models = (ModelSet((ModelSpec("a", "speaker", "literal"),) * 2), models)
    with pytest.raises(DataError) as info:
        monte_carlo_search(tables, models, SearchSettings(2, 1, mode, iterations=1))
    assert str(info.value) == "scenario noun0 noun1 / adj0: boom"


# ---------------------------------------------------------------------------
# key sampling: blocks of integers draws against the per-iteration loop


def same_keys(found, expected) -> bool:
    """Two key arrays are one: uint32, one shape, equal rows."""
    return found.dtype == expected.dtype == np.uint32 and np.array_equal(found, expected)


def generator_position(rng):
    """What a generator's next draws depend on: the PCG64 state and the
    buffered 32-bit half, if one is held."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"] and state["uinteger"]


@st.composite
def key_shapes(draw):
    n_nouns = draw(st.integers(2, 40))
    n_adjs = draw(st.integers(1, 30))
    k = draw(st.integers(2, n_nouns))
    m = draw(st.integers(1, n_adjs))
    return n_nouns, n_adjs, k, m


@hypothesis_settings(max_examples=300, deadline=None)
@given(
    shape=key_shapes(),
    mode=st.sampled_from(["separate-speaker", "separate-listener", "joint"]),
    seed=st.integers(0, 2**63),
    block=st.sampled_from([1, 7, oed._KEY_BLOCK]),
    halves_before=st.integers(0, 3),
    count=st.integers(0, 60),
)
@example(shape=(6, 4, 6, 2), mode="separate-speaker", seed=0, block=7, halves_before=1, count=40)  # k == n_nouns
@example(shape=(9, 5, 3, 5), mode="separate-listener", seed=1, block=7, halves_before=0, count=40)  # m == n_adjs
@example(shape=(9, 5, 2, 1), mode="separate-speaker", seed=2, block=1, halves_before=1, count=20)  # k == 2, m == 1
@example(shape=(2, 1, 2, 1), mode="joint", seed=3, block=7, halves_before=0, count=30)  # one possible key
# the presets' shapes on a 300x150 lexicon, past what key_shapes draws
@example(shape=(300, 150, 3, 3), mode="joint", seed=4, block=7, halves_before=1, count=500)  # exp4
@example(shape=(300, 150, 5, 8), mode="joint", seed=5, block=oed._KEY_BLOCK, halves_before=1, count=500)  # exp1
@example(shape=(300, 150, 3, 4), mode="separate-speaker", seed=6, block=7, halves_before=1, count=500)  # exp2
@example(shape=(300, 150, 3, 4), mode="separate-listener", seed=7, block=oed._KEY_BLOCK, halves_before=1, count=500)  # exp2
def test_block_keys_equal_loop_keys(shape, mode, seed, block, halves_before, count):
    n_nouns, n_adjs, k, m = shape
    settings = SearchSettings(k, m, mode, iterations=max(count, 1), seed=seed)
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (block_rng, loop_rng):
        rng.integers(7, size=halves_before)  # one 32-bit half each: may leave one buffered
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oed, "_KEY_BLOCK", block)
        emulated = oed._block_keys(block_rng, n_nouns, n_adjs, settings, count)
    assert same_keys(emulated, oed._loop_keys(loop_rng, n_nouns, n_adjs, settings, count))
    assert generator_position(block_rng) == generator_position(loop_rng)


@pytest.mark.parametrize("seed", [2222, 10382])
def test_lemire_rejection_draws_as_the_loop_does(seed):
    # At these seeds one draw of the 3-of-300 nouns, 3-of-150 adjectives
    # joint search (at iteration 827 or 639) is rejected by Lemire's method
    # and drawn again, so a replay that ignores rejection diverges there.
    settings = SearchSettings(3, 3, "joint", iterations=1000, seed=seed)
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    keys = oed._block_keys(block_rng, 300, 150, settings, 1000)
    assert same_keys(keys, oed._loop_keys(loop_rng, 300, 150, settings, 1000))
    assert generator_position(block_rng) == generator_position(loop_rng)


def test_search_keys_guard_falls_back_on_choices_tail_shuffle():
    # choice(n, size, replace=False) shuffles the tail of range(n) instead
    # of running Floyd's algorithm when n > 10,000 and size > n // 50
    settings = SearchSettings(201, 2, "joint", iterations=20, seed=3)
    loop_keys = oed._loop_keys(np.random.default_rng(3), 10_001, 5, settings, 20)
    block_keys = oed._block_keys(np.random.default_rng(3), 10_001, 5, settings, 20)
    assert not np.array_equal(block_keys, loop_keys)
    assert same_keys(oed._search_keys(10_001, 5, settings), loop_keys)


def test_search_keys_guard_falls_back_on_a_wrong_emulated_key(rng, monkeypatch):
    tables = {"a": random_normalized(rng, 7, 5, metric="a"), "b": random_normalized(rng, 7, 5, metric="b")}
    models = listener_set("a", "b")
    settings = SearchSettings(3, 2, "separate-listener", iterations=400, seed=11, top_k=40)
    expected = monte_carlo_search(tables, models, settings)
    block_keys, calls = oed._block_keys, []

    def one_wrong_key(rng, n_nouns, n_adjs, settings, count):
        calls.append(count)
        keys = block_keys(rng, n_nouns, n_adjs, settings, count)
        keys[3, -1] = 1 - keys[3, -1]  # the other of two clues
        return keys

    monkeypatch.setattr(oed, "_block_keys", one_wrong_key)
    loop_keys = oed._loop_keys(np.random.default_rng(11), 7, 5, settings, 400)
    assert same_keys(oed._search_keys(7, 5, settings), loop_keys)
    assert calls == [8]  # the guard's keys only
    assert monte_carlo_search(tables, models, settings) == expected


@pytest.mark.parametrize("mode", ["separate-speaker", "separate-listener", "joint"])
def test_search_equals_search_on_loop_keys(rng, monkeypatch, mode):
    tables = {"a": random_normalized(rng, 9, 6, metric="a"), "b": random_normalized(rng, 9, 6, metric="b")}
    role = {"separate-speaker": "speaker"}.get(mode, "listener")
    models = ModelSet(tuple(ModelSpec(m, role, "literal") for m in ("a", "b")))
    if mode == "joint":
        models = (ModelSet(tuple(ModelSpec(m, "speaker", "literal") for m in ("a", "b"))), models)
    settings = SearchSettings(3, 2, mode, iterations=700, seed=5, top_k=1000)
    found = monte_carlo_search(tables, models, settings)
    monkeypatch.setattr(oed, "_block_keys", oed._loop_keys)
    assert monte_carlo_search(tables, models, settings) == found


# ---------------------------------------------------------------------------
# the search against the loop it replaced: tuple keys, a first-seen dict, a heap


def oracle_search(tables, models, settings):
    """monte_carlo_search as a loop: dict.fromkeys over _loop_keys' keys as
    tuples, each key scored alone, then heapq.nsmallest."""
    tables = Tables.of(tables)
    k, m, role = settings.nouns, settings.adjectives, settings.role
    rng = np.random.default_rng(settings.seed)
    rows = oed._loop_keys(rng, *tables.lexicon.shape, settings, settings.iterations).tolist()
    keys = dict.fromkeys((tuple(row[:k]), tuple(row[k : k + m]), tuple(row[k + m :])) for row in rows)

    def scored(nouns, adjectives, draw):
        scenario = Scenario(nouns, adjectives)
        if role is None:
            return scenario_joint_utility(tables, scenario, *models), scenario, None
        index = list(combinations(range(k), 2))[draw[0]] if role == "speaker" else draw[0]
        probs = response_probability(tables, Configuration(scenario, role, index), models)
        return oed.model_information_bits(probs), scenario, index

    best = heapq.nsmallest(settings.top_k, (scored(*key) for key in keys), key=lambda item: -item[0])
    return [DesignCandidate(scenario, role, index, utility) for utility, scenario, index in best]


def assert_same_candidates(found, expected):
    assert found == expected
    assert all(type(candidate.utility) is float for candidate in found)
    bits = [np.float64(candidate.utility).view(np.uint64) for candidate in expected]
    assert [np.float64(candidate.utility).view(np.uint64) for candidate in found] == bits


MODEL_INFORMATION_BITS = oed.model_information_bits


def signed_zeros(probs):
    """model_information_bits, with a utility of 0 made -0.0 for about half
    of the answer matrices (by a checksum of their bytes): on a 2-d matrix,
    or on each matrix of a 3-d stack."""
    if np.ndim(probs) == 3:
        return np.array([signed_zeros(matrix) for matrix in probs])
    utility = MODEL_INFORMATION_BITS(probs)
    if utility == 0 and zlib.crc32(np.asarray(probs).tobytes()) % 2:
        return -0.0
    return utility


@hypothesis_settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 1, 2, 1), (3, 2, 2, 1), (4, 3, 3, 2), (5, 4, 3, 2), (6, 5, 4, 3)]),
    mode=st.sampled_from(["separate-speaker", "separate-listener", "joint"]),
    iterations=st.integers(1, 80),
    seed=st.integers(0, 2**32),
    top_k_offset=st.integers(-3, 3),
    identical=st.booleans(),
    minus_zero=st.booleans(),
)
@example(shape=(2, 1, 2, 1), mode="joint", iterations=40, seed=0, top_k_offset=0, identical=False,
         minus_zero=False)
@example(shape=(4, 3, 3, 2), mode="separate-listener", iterations=80, seed=1, top_k_offset=-3, identical=True,
         minus_zero=True)
@example(shape=(4, 3, 3, 2), mode="separate-speaker", iterations=80, seed=2, top_k_offset=3, identical=True,
         minus_zero=True)
def test_search_equals_the_tuple_key_heap_search(
    shape, mode, iterations, seed, top_k_offset, identical, minus_zero
):
    # tiny lexicons repeat most keys; identical models tie every utility at 0
    n_nouns, n_adjs, k, m = shape
    rng = np.random.default_rng(seed)
    tables = {name: random_normalized(rng, n_nouns, n_adjs, metric=name) for name in ("a", "b")}
    second = ("a", "literal", None) if identical else ("b", "pragmatic", 2.0)

    def model_set(role):
        return ModelSet((ModelSpec("a", role, "literal"), ModelSpec(second[0], role, *second[1:])))

    settings = SearchSettings(k, m, mode, iterations=iterations, seed=seed)
    models = (model_set("speaker"), model_set("listener")) if mode == "joint" else model_set(settings.role)
    rows = oed._loop_keys(np.random.default_rng(seed), n_nouns, n_adjs, settings, iterations)
    unique = len(dict.fromkeys(map(tuple, rows.tolist())))
    settings = dataclasses.replace(settings, top_k=max(1, unique + top_k_offset))
    with pytest.MonkeyPatch.context() as patch:
        if minus_zero and mode != "joint":  # a joint utility of 0 is the geometric mean's 0.0
            patch.setattr(oed, "model_information_bits", signed_zeros)
        found = monte_carlo_search(tables, models, settings)
        expected = oracle_search(tables, models, settings)
    assert len(found) == min(settings.top_k, unique)
    assert_same_candidates(found, expected)


def test_search_ties_minus_zero_with_zero_in_first_seen_order(rng, monkeypatch):
    tables = {"a": random_normalized(rng, 6, 4, metric="a")}
    models = listener_set("a", "a")  # every utility is 0
    settings = SearchSettings(3, 2, "separate-listener", iterations=60, seed=4, top_k=1000)
    monkeypatch.setattr(oed, "model_information_bits", signed_zeros)
    found = monte_carlo_search(tables, models, settings)
    signs = {math.copysign(1, candidate.utility) for candidate in found}
    assert signs == {1.0, -1.0}
    assert_same_candidates(found, oracle_search(tables, models, settings))


@hypothesis_settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 60),
    columns=st.integers(1, 4),
    values=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_first_seen_keeps_each_distinct_row_where_it_first_appears(rows, columns, values, seed):
    keys = np.random.default_rng(seed).integers(0, values, size=(rows, columns), dtype=np.uint32)
    unique = oed._first_seen(keys)
    assert unique.dtype == np.uint32 and unique.shape[1] == columns
    assert list(map(tuple, unique.tolist())) == list(dict.fromkeys(map(tuple, keys.tolist())))


def test_guard_fallback_keys_go_through_the_array_path(rng, monkeypatch):
    tables = {name: random_normalized(rng, 7, 5, metric=name) for name in ("a", "b")}
    models = ModelSet((ModelSpec("a", "speaker", "literal"), ModelSpec("b", "speaker", "literal")))
    settings = SearchSettings(3, 2, "separate-speaker", iterations=300, seed=8, top_k=25)
    loop_keys, calls = oed._loop_keys, []

    def wrong_block_keys(rng, n_nouns, n_adjs, settings, count):
        return loop_keys(rng, n_nouns, n_adjs, settings, count)[::-1].copy()

    def recorded_loop_keys(rng, n_nouns, n_adjs, settings, count):
        calls.append(count)
        return loop_keys(rng, n_nouns, n_adjs, settings, count)

    monkeypatch.setattr(oed, "_block_keys", wrong_block_keys)
    monkeypatch.setattr(oed, "_loop_keys", recorded_loop_keys)
    found = monte_carlo_search(tables, models, settings)
    assert calls == [8, 300]  # the guard's keys, then every key from the loop
    assert_same_candidates(found, oracle_search(tables, models, settings))


# ---------------------------------------------------------------------------
# filters

def cand(nouns, adjs, utility, role=None, index=None):
    return DesignCandidate(Scenario(nouns, adjs), role, index, utility)


def test_filter_rejects_near_duplicates():
    # second candidate shares all but one word with the first
    first = cand((0, 1, 2), (0, 1, 2), 0.9)
    near = cand((0, 1, 2), (0, 1, 3), 0.8)
    far = cand((3, 4, 5), (4, 5, 6), 0.7)
    kept = filter_candidates([first, near, far])
    assert kept == [first, far]


def test_filter_difference_counts_per_side():
    # same nouns, two of three adjectives swapped: difference 2, kept
    first = cand((0, 1, 2), (0, 1, 2), 0.9)
    swapped = cand((0, 1, 2), (0, 3, 4), 0.8)
    assert filter_candidates([first, swapped]) == [first, swapped]


def test_filter_word_occurrence_cap():
    candidates = [
        cand((0, 1), (i, i + 10), 1.0 - i * 0.01) for i in range(5)
    ]
    kept = filter_candidates(candidates, min_word_difference=2, max_word_occurrence=3)
    # noun 0 and noun 1 appear in every candidate; cap of 3 stops the fourth
    assert len(kept) == 3


@pytest.mark.parametrize("bounds, name", [
    ((2.0, 20), "min_word_difference"),
    ((True, 20), "min_word_difference"),
    ((2, 20.5), "max_word_occurrence"),
    ((2, None), "max_word_occurrence"),
])
def test_filter_rejects_non_integer_bounds(bounds, name):
    with pytest.raises(DataError, match=f"^{name} must be an integer, got"):
        filter_candidates([cand((0, 1), (0,), 0.5)], *bounds)
    with pytest.raises(DataError, match=f"^{name} must be an integer, got"):
        check_filter_bounds(*bounds)


def test_filter_requires_sorted_input():
    a = cand((0, 1), (0,), 0.5)
    b = cand((2, 3), (1,), 0.9)
    with pytest.raises(DataError, match="sorted"):
        filter_candidates([a, b])


def test_filter_noun_adjective_no_collision():
    # noun 0 and adjective 0 are different words; only one shared word here
    a = cand((0, 1), (0, 1), 0.9)
    b = cand((0, 2), (2, 3), 0.8)
    kept = filter_candidates([a, b], min_word_difference=2)
    assert kept == [a, b]


def test_filter_properties_randomized(rng):
    for trial in range(30):
        candidates = []
        utility = 1.0
        for _ in range(40):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            nouns = tuple(rng.choice(8, size=k, replace=False).tolist())
            adjs = tuple(rng.choice(8, size=m, replace=False).tolist())
            candidates.append(cand(nouns, adjs, utility))
            utility -= float(rng.random()) * 0.01
        min_diff = int(rng.integers(1, 4))
        cap = int(rng.integers(1, 6))
        kept = filter_candidates(candidates, min_word_difference=min_diff, max_word_occurrence=cap)

        def words(c):
            return frozenset(
                [("n", n) for n in c.scenario.nouns] + [("a", a) for a in c.scenario.adjectives]
            )

        # pairwise difference property
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                wi, wj = words(kept[i]), words(kept[j])
                assert max(len(wi - wj), len(wj - wi)) >= min_diff
        # occurrence cap property
        occurrences = {}
        for c in kept:
            for w in words(c):
                occurrences[w] = occurrences.get(w, 0) + 1
        assert all(v <= cap for v in occurrences.values())
        # greedy descending subsequence: kept is a subsequence of input
        it = iter(candidates)
        assert all(c in it for c in kept)
        # and greedy: each skipped candidate violates a constraint against kept prefix
        kept_pos = 0
        prefix_sets = []
        prefix_occ = {}
        for c in candidates:
            if kept_pos < len(kept) and c is kept[kept_pos]:
                prefix_sets.append(words(c))
                for w in words(c):
                    prefix_occ[w] = prefix_occ.get(w, 0) + 1
                kept_pos += 1
            else:
                ws = words(c)
                diff_violation = any(
                    max(len(ws - other), len(other - ws)) < min_diff for other in prefix_sets
                )
                cap_violation = any(prefix_occ.get(w, 0) >= cap for w in ws)
                assert diff_violation or cap_violation


# ---------------------------------------------------------------------------
# candidate records

def test_candidate_to_record(rng):
    lexicon = random_normalized(rng, 5, 5).lexicon
    scenario = {"nouns": ["noun0", "noun2", "noun4"], "adjectives": ["adj1", "adj3"]}
    record = candidate_to_record(cand((0, 2, 4), (1, 3), 0.5), lexicon)
    assert record == {"scenario": scenario, "utility": 0.5}

    speaker = cand((0, 2, 4), (1, 3), 0.25, role="speaker", index=(0, 2))
    assert candidate_to_record(speaker, lexicon) == {
        "scenario": scenario, "role": "speaker", "target_pair": ["noun0", "noun4"], "utility": 0.25,
    }

    listener = cand((0, 2, 4), (1, 3), 0.75, role="listener", index=1)
    assert candidate_to_record(listener, lexicon) == {
        "scenario": scenario, "role": "listener", "clue": "adj3", "utility": 0.75,
    }


def test_design_candidate_rejects_negative_utility():
    with pytest.raises(DataError, match="non-negative"):
        cand((0, 1), (0,), -0.5)


@pytest.mark.parametrize("utility", ["abc", None, True, np.bool_(True), math.inf, math.nan, "0.5"])
def test_design_candidate_rejects_non_number_utility(utility):
    with pytest.raises(DataError, match=re.escape(f"got {utility!r}")):
        cand((0, 1), (0,), utility)


@pytest.mark.parametrize("utility", [0, 0.0, 1.5, np.float64(0.25), np.int64(2)])
def test_design_candidate_accepts_real_utility(utility):
    assert cand((0, 1), (0,), utility).utility == utility
