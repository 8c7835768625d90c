"""The search hot path against its plain-loop oracles, bit for bit.

model_information_bits, filter_candidates and scenario_scores are
array rewrites of the loops kept here. Every comparison is ==, never
approx: the golden fixtures pin the search output to the last bit.
"""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame import (
    DataError,
    DesignCandidate,
    ModelSet,
    Scenario,
    SearchSettings,
    filter_candidates,
    load_normalized,
    model_information_bits,
    monte_carlo_search,
    parse_model_spec,
    scenario_scores,
)
from refgame import oed, rsa

from conftest import random_normalized

GOLDEN_NORM = Path(__file__).parent / "data" / "golden" / "expected" / "norm_bigram.tsv"


# ---------------------------------------------------------------------------
# oracles: the per-answer loop, the frozenset filter and the np.ix_ build

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


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 2, 2))])
def test_information_bits_rejects_non_matrix_like_loop(bad):
    for fn in (model_information_bits, loop_information_bits):
        with pytest.raises(DataError, match="2-d"):
            fn(bad)


def test_information_bits_one_model_warns_like_loop():
    for fn in (model_information_bits, loop_information_bits):
        with pytest.warns(UserWarning, match="fewer than two models"):
            assert fn(np.array([[0.25, 0.75]])) == 0.0


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
@given(candidate_lists(), st.integers(0, 6), st.integers(1, 6))
def test_filter_equals_frozenset_loop(candidates, min_diff, cap):
    kept = filter_candidates(candidates, min_word_difference=min_diff, max_word_occurrence=cap)
    expected = frozenset_filter(candidates, min_diff, cap)
    assert len(kept) == len(expected)
    assert all(a is b for a, b in zip(kept, expected))


def test_filter_empty_input():
    assert filter_candidates([]) == [] == frozenset_filter([])


def test_filter_keeps_more_than_initial_capacity():
    # 40 disjoint candidates, all kept: the kept-word matrix must grow
    candidates = [
        DesignCandidate(Scenario((2 * i, 2 * i + 1), (i,)), None, None, 1.0) for i in range(40)
    ]
    kept = filter_candidates(candidates)
    assert kept == frozenset_filter(candidates) == candidates


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
    monkeypatch.setattr(oed, "model_information_bits", loop_information_bits)
    monkeypatch.setattr(rsa, "scenario_scores", ix_scenario_scores)
    slow = monte_carlo_search(norm, _exp4_models(), search)
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
