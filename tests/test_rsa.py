"""Literal and pragmatic agents, scenario machinery, model specs."""

import copy
import dataclasses
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from refgame import (
    ZERO_FLOOR,
    Configuration,
    DataError,
    ModelSpec,
    PredictionDistribution,
    ResponseRecord,
    Scenario,
    answer_support,
    listener_probs,
    model_agreement,
    noun_pairs,
    parse_model_spec,
    predict,
    scenario_scores,
    score_responses,
    simulate_gameplay,
    speaker_probs,
)
from refgame import rsa

from conftest import exact_chains, oracle_chain, oracle_stack_chain, random_normalized

ALPHAS = st.sampled_from([None, 0.3, 1.0, 5.0, 30.0, 100.0])


def fraction_listener_chain(scores, clue):
    """Exact alpha=1 pragmatic listener, in rational arithmetic."""
    rows = len(scores)
    cols = len(scores[0])
    s = [[Fraction(x) for x in row] for row in scores]
    col_sums = [sum(s[i][j] for i in range(rows)) for j in range(cols)]
    l0 = [[s[i][j] / col_sums[j] for j in range(cols)] for i in range(rows)]
    row_sums = [sum(row) for row in l0]
    s1 = [[l0[i][j] / row_sums[i] for j in range(cols)] for i in range(rows)]
    col = [s1[i][clue] for i in range(rows)]
    total = sum(col)
    return [x / total for x in col]


def fraction_speaker_chain(scores, target):
    """Exact alpha=1 pragmatic speaker, in rational arithmetic."""
    rows = len(scores)
    cols = len(scores[0])
    s = [[Fraction(x) for x in row] for row in scores]
    row_sums = [sum(row) for row in s]
    s0 = [[s[i][j] / row_sums[i] for j in range(cols)] for i in range(rows)]
    col_sums = [sum(s0[i][j] for i in range(rows)) for j in range(cols)]
    l1 = [[s0[i][j] / col_sums[j] for j in range(cols)] for i in range(rows)]
    row = l1[target]
    total = sum(row)
    return [x / total for x in row]


WORKED = [[Fraction(9, 10), Fraction(1, 2)], [Fraction(1, 10), Fraction(1, 2)]]


def test_worked_listener_chain_exact_fractions():
    probs = fraction_listener_chain(WORKED, 0)
    assert probs == [Fraction(27, 34), Fraction(7, 34)]


def test_worked_speaker_chain_exact_fractions():
    probs = fraction_speaker_chain(WORKED, 0)
    assert probs == [Fraction(45, 62), Fraction(17, 62)]


def test_listener_probs_matches_fraction_oracle():
    scores = np.array([[0.9, 0.5], [0.1, 0.5]])
    got = listener_probs(scores, 0, alpha=1.0)
    expected = [float(x) for x in fraction_listener_chain([[0.9, 0.5], [0.1, 0.5]], 0)]
    assert np.allclose(got, expected, atol=1e-12)
    assert got[0] == pytest.approx(0.79412, abs=1e-5)
    assert got[1] == pytest.approx(0.20588, abs=1e-5)


def test_speaker_probs_matches_fraction_oracle():
    scores = np.array([[0.9, 0.5], [0.1, 0.5]])
    got = speaker_probs(scores, 0, alpha=1.0)
    expected = [float(x) for x in fraction_speaker_chain([[0.9, 0.5], [0.1, 0.5]], 0)]
    assert np.allclose(got, expected, atol=1e-12)


def test_fraction_oracle_on_random_matrices(rng):
    # alpha = 1 lets the rational oracle cover arbitrary chains
    for _ in range(25):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        scores = rng.integers(1, 20, size=(rows, cols))
        clue = int(rng.integers(cols))
        target = int(rng.integers(rows))
        as_fractions = [[int(x) for x in row] for row in scores]
        assert np.allclose(
            listener_probs(scores.astype(float), clue, alpha=1.0),
            [float(x) for x in fraction_listener_chain(as_fractions, clue)],
            atol=1e-12,
        )
        assert np.allclose(
            speaker_probs(scores.astype(float), target, alpha=1.0),
            [float(x) for x in fraction_speaker_chain(as_fractions, target)],
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# literal agents

def test_literal_listener_normalizes_column():
    scores = np.array([[1.0, 9.0], [1.0, 9.0], [2.0, 9.0]])
    assert np.allclose(listener_probs(scores, 0), [0.25, 0.25, 0.5], atol=1e-15)


def test_literal_speaker_normalizes_row():
    scores = np.array([[0.2, 0.3, 0.5]])
    assert np.allclose(speaker_probs(scores, 0), [0.2, 0.3, 0.5], atol=1e-15)


def test_single_utterance_speaker_is_deterministic():
    scores = np.array([[0.4], [0.9]])
    assert speaker_probs(scores, 0).tolist() == [1.0]
    assert np.allclose(speaker_probs(scores, 1, alpha=2.0), [1.0], atol=1e-15)


def test_two_referent_listener_literal():
    scores = np.array([[0.8, 0.1], [0.2, 0.1]])
    assert np.allclose(listener_probs(scores, 0), [0.8, 0.2], atol=1e-15)


def test_uniform_scores_give_uniform_agents():
    scores = np.full((4, 3), 0.6)
    for alpha in (None, 0.1, 1.0, 5.0):
        l = listener_probs(scores, 1, alpha=alpha)
        s = speaker_probs(scores, 2, alpha=alpha)
        assert np.allclose(l, 1 / 4, atol=1e-12)
        assert np.allclose(s, 1 / 3, atol=1e-12)


def test_scaling_invariance_exact():
    # literal and pragmatic chains are invariant to global positive scaling
    scores = np.array([[0.9, 0.5, 0.2], [0.1, 0.5, 0.7]])
    for c in (0.001, 0.5, 7.0):
        for alpha in (None, 0.1, 1.0, 5.0):
            assert np.allclose(
                listener_probs(scores, 1, alpha=alpha),
                listener_probs(c * scores, 1, alpha=alpha),
                atol=1e-12,
            )
            assert np.allclose(
                speaker_probs(scores, 0, alpha=alpha),
                speaker_probs(c * scores, 0, alpha=alpha),
                atol=1e-12,
            )


def test_chain_cores_validate():
    with pytest.raises(DataError, match="out of range"):
        listener_probs(np.ones((2, 2)), 2)
    with pytest.raises(DataError, match="out of range"):
        speaker_probs(np.ones((2, 2)), -1)
    with pytest.raises(DataError, match="alpha"):
        listener_probs(np.ones((2, 2)), 0, alpha=0.0)
    # the text ModelSpec gives for an alpha outside (0, inf) or not a real number
    for alpha in (float("nan"), float("inf"), "abc", [1], True, np.bool_(True), "2"):
        message = f"^alpha must be positive, got {re.escape(repr(alpha))}$"
        for chain in (listener_probs, speaker_probs):
            with pytest.raises(DataError, match=message):
                chain([[1, 0.5], [0.2, 1]], 0, alpha)
            with pytest.raises(DataError, match=message):
                ModelSpec("bigram", rsa.LISTENER, rsa.PRAGMATIC, alpha)
    with pytest.raises(DataError, match="zero normalizer"):
        listener_probs(np.array([[0.0, 1.0], [0.0, 1.0]]), 0)
    with pytest.raises(DataError, match="non-negative"):
        speaker_probs(np.array([[1.0, -0.5]]), 0)
    for index in (True, 1.5, "1", None, np.float64(1.0)):
        for chain, label in ((listener_probs, "clue"), (speaker_probs, "target")):
            with pytest.raises(DataError, match=f"^{label} index must be an integer, got {re.escape(repr(index))}$"):
                chain(np.ones((2, 2)), index)
    assert listener_probs(np.ones((2, 2)), np.int64(1)).tolist() == [0.5, 0.5]


def test_overflowing_totals_are_rescaled():
    # each total here overflows to inf; the chain on the scores over their
    # maximum is the distribution those scores define
    cases = (
        (listener_probs, [[1e308], [1e308]], None),
        (speaker_probs, [[1e308, 1e308]], None),
        (listener_probs, [[1e308, 1.0], [1e308, 1.0]], 1.0),
        (speaker_probs, [[1e308, 1e308], [1.0, 1.0]], 1.0),
        (listener_probs, [[1e308, 2.0], [1.7e308, 1.0], [1.0, 1.0]], None),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for chain, scores, alpha in cases:
            scores = np.array(scores)
            got = chain(scores, 0, alpha)
            assert got.tolist() == chain(scores / scores.max(), 0, alpha).tolist()
            assert got.sum() == pytest.approx(1.0, abs=1e-15)
        # a column whose total is finite keeps its bits
        scores = np.array([[1e308, 0.3], [1e308, 0.7], [1.0, 0.1]])
        assert listener_probs(scores, 1).tobytes() == listener_probs(scores[:, 1:], 0).tobytes()
        # each matrix of a stack is rescaled by its own maximum
        probs = rsa._chains(np.array([[[1e308], [1e308]], [[1.0], [3.0]]]), None)
        assert probs.tolist() == [[[0.5, 0.5]], [[0.25, 0.75]]]
        # a zero column fails its own row, and only that row, with no warning
        probs = rsa._chains(np.array([[[1e308, 0.0], [1e308, 0.0]], [[1.0, 0.0], [3.0, 2.0]]]), None)
        assert np.isnan(probs[0, 1]).all() and not np.isnan(np.delete(probs.reshape(4, 2), 1, 0)).any()
        assert probs[[0, 1, 1], [0, 0, 1]].tolist() == [[0.5, 0.5], [0.25, 0.75], [0.0, 1.0]]
        # and a pragmatic chain that meets a zero column is NaN in that matrix only
        probs = rsa._chains(np.array([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [3.0, 1.0]]]), 1.0)
        assert np.isnan(probs[0]).all() and not np.isnan(probs[1]).any()


def _outcome(call):
    try:
        return call()
    except DataError as exc:
        return str(exc)


@st.composite
def chain_scores(draw):
    """A score matrix of 1-40 referents by 1-30 utterances, from random
    or tied cells, 30% of them at 1e-14, sometimes with empty columns."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = rng.choice([0.125, 0.5, 1.0], size=shape)
    else:
        scores = rng.random(shape)
    scores[rng.random(shape) < 0.3] = 1e-14
    scores[:, rng.random(shape[1]) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    return scores


def _same_outcome(got, expected):
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _matches_exact(got, exact) -> bool:
    """A row where the float oracle underflows: the exact chain's error,
    or its distribution within 1e-12."""
    if isinstance(got, str) or isinstance(exact, str):
        return got == exact
    return np.abs(got - exact).max() <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scores=chain_scores(), alpha=ALPHAS, transpose=st.booleans())
def test_chain_core_equals_one_column_oracle(scores, alpha, transpose):
    # the speaker runs on the .T view, so both memory orders are covered;
    # where the float oracle meets a zero total, the exact chain is the oracle
    label = "target" if transpose else "clue"
    if transpose:
        scores = scores.T
    expected = [_outcome(lambda: oracle_chain(scores, c, alpha, label)) for c in range(scores.shape[1])]
    probs = rsa._chains(scores, alpha)
    got = [_outcome(lambda: rsa._row(probs, c, label)) for c in range(scores.shape[1])]
    exact = exact_chains(scores, alpha) if any(isinstance(e, str) for e in expected) else expected
    for found, oracle, exact_row in zip(got, expected, exact):
        assert _matches_exact(found, exact_row) if isinstance(oracle, str) else _same_outcome(found, oracle)
    # each row is failed, NaN in every entry, or a distribution that
    # predict trusts without a second check
    failed = np.isnan(probs)
    assert (failed.all(axis=1) == failed.any(axis=1)).all()
    live = probs[~failed.any(axis=1)]
    assert (live >= 0).all()
    assert (np.abs(live.sum(axis=1) - 1.0) <= 1e-9).all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), alpha=ALPHAS, transpose=st.booleans())
def test_stacked_chain_core_equals_stack_oracle(data, alpha, transpose):
    first = data.draw(chain_scores())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = np.array([first] + [rng.permutation(first.ravel()).reshape(first.shape)
                                for _ in range(data.draw(st.integers(0, 3)))])
    if transpose:
        stack = stack.swapaxes(1, 2)
    index = rng.integers(stack.shape[2], size=len(stack))
    expected = _outcome(lambda: oracle_stack_chain(stack, index, alpha, "clue"))

    def gathered():
        # predict_stack's read of the stacked chains
        got = rsa._chains(stack, alpha)[np.arange(len(stack)), index]
        if np.isnan(got[:, 0]).any():
            raise DataError("zero normalizer")
        return got

    got = _outcome(gathered)
    if isinstance(expected, str):
        # the float oracle meets a zero total in some matrix: the stack
        # fails only if the exact chain does, and each row that the
        # one-column oracle cannot give is the exact chain's
        exact = [exact_chains(matrix, alpha)[column] for matrix, column in zip(stack, index)]
        if any(isinstance(row, str) for row in exact):
            assert _same_outcome(got, "zero normalizer")
        else:
            for matrix, column, found, exact_row in zip(stack, index, got, exact):
                oracle = _outcome(lambda: oracle_chain(matrix, column, alpha, "clue"))
                assert _matches_exact(found, exact_row) if isinstance(oracle, str) else _same_outcome(found, oracle)
    else:
        assert _same_outcome(got, expected)
    # each matrix's chain alone has the bits of its row of the stack
    if not isinstance(got, str):
        for matrix, column, row in zip(stack, index, got):
            assert rsa._row(rsa._chains(matrix, alpha), column, "clue").tobytes() == row.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scores=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 50), st.integers(1, 40)),
        elements=st.one_of(st.just(ZERO_FLOOR**2), st.floats(ZERO_FLOOR**2, 1.0)),
    ),
    alpha=st.sampled_from([None, 0.3, 1.0, 5.0, 30.0]),
    target=st.integers(0, 49),
)
@example(scores=np.array([[ZERO_FLOOR**2, 1.0]] * 3), alpha=30.0, target=0)
def test_speaker_is_listener_on_transpose(scores, alpha, target):
    # Masked noun pairs score ZERO_FLOOR**2; at large alpha they can drive a
    # normalizer to zero, and then both sides must fail the same way.
    target %= scores.shape[0]
    speaker = _outcome(lambda: speaker_probs(scores, target, alpha))
    listener = _outcome(lambda: listener_probs(scores.T, target, alpha))
    if isinstance(speaker, str) or isinstance(listener, str):
        assert speaker == listener
    else:
        assert np.array_equal(speaker, listener)


SUBNORMAL = 3e-310  # below np.finfo(float).tiny, about 2.2e-308


@st.composite
def floor_heavy_scores(draw):
    """A 1-10 by 1-8 score matrix whose cells are mostly at the floors
    ZERO_FLOOR**2, ZERO_FLOOR and, sometimes, the subnormal SUBNORMAL,
    the rest in (ZERO_FLOOR**2, 1]: no line sums to zero, yet a plain
    chain can underflow on it or divide by a subnormal total."""
    shape = (draw(st.integers(1, 10)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.uniform(ZERO_FLOOR**2, 1.0, shape)
    floors = rng.random(shape) < draw(st.sampled_from([0.3, 0.5, 0.7]))
    levels = [ZERO_FLOOR**2, ZERO_FLOOR] + [SUBNORMAL] * draw(st.booleans())
    scores[floors] = rng.choice(levels, size=floors.sum())
    return scores


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scores=floor_heavy_scores(), alpha=st.sampled_from([None, 0.1, 1.0, 10.0, 30.0, 100.0, 1000.0]),
       data=st.data())
def test_chain_on_floor_cells_is_the_exact_chain(scores, alpha, data):
    # literal or pragmatic, every row is a distribution within 1e-12 of
    # the exact chain; a row the plain chain (the oracle) gives from
    # normal totals keeps its bits; relabelling the referents and
    # utterances permutes the output the same way
    probs = rsa._chains(scores, alpha)
    assert np.isfinite(probs).all() and (probs >= 0).all()
    assert (np.abs(probs.sum(axis=1) - 1.0) <= 1e-9).all()
    for column, (row, exact) in enumerate(zip(probs, exact_chains(scores, alpha))):
        assert np.abs(row - exact).max() <= 1e-12
        plain = _outcome(lambda: oracle_chain(scores, column, alpha, "clue"))
        assert isinstance(plain, str) or row.tobytes() == plain.tobytes()
    referents = data.draw(st.permutations(range(scores.shape[0])))
    utterances = data.draw(st.permutations(range(scores.shape[1])))
    relabelled = rsa._chains(scores[referents][:, utterances], alpha)
    assert np.abs(relabelled - probs[utterances][:, referents]).max() <= 1e-12


# matrices whose plain chains underflow, each with one of its shape whose
# chain has no positive cell below the smallest normal float at that alpha
UNDERFLOWS = [[1, 1], [1, 0.5], [1e-14, 1e-14]]
PLAIN = [[1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("scores, plain, clue, alpha", [
    (UNDERFLOWS, PLAIN, 0, 30.0),
    (UNDERFLOWS, PLAIN, 0, 100.0),
    (UNDERFLOWS, PLAIN, 0, 1000.0),
    # no row of the middle step underflows, only the last step's column
    ([[1, 0.5, 1e-3], [1e-3, 0.5, 1]], [[1, 0, 1], [0, 1, 0]], 1, 2000.0),
    # a middle-step row total is subnormal, not zero: 3.0e-316 and 3.2e-316
    ([[7e-4, 6e-4, 1e-5], [1, 1, 1]], [[1, 1, 1], [1, 0.5, 1]], 1, 100.0),
    ([[7e-4, 6.5e-4], [1 - 7e-4, 1 - 6.5e-4]], [[1, 0.5], [0.5, 1]], 1, 100.0),
    # every total is normal, but referent 1's cell of clue 0 underflows at
    # the power step: the plain chain gives (1, 0) for the exact (0, 1)
    ([[0.55, 0.37, 1], [0.45, 0.63, 1e-4]], [[1, 0, 1], [0, 1, 0]], 0, 1000.0),
    # a literal column whose total is subnormal
    ([[SUBNORMAL, 1], [SUBNORMAL, 1]], [[1, 1], [0.5, 1]], 0, None),
])
def test_chain_that_underflowed_matches_the_exact_chain(scores, plain, clue, alpha):
    scores, plain = np.array(scores), np.array(plain)
    with pytest.raises(DataError, match="^zero normalizer$"):
        oracle_chain(scores, clue, alpha, "clue")
    got = listener_probs(scores, clue, alpha)
    assert np.abs(got - exact_chains(scores, alpha)[clue]).max() <= 1e-12
    assert speaker_probs(scores.T, clue, alpha).tobytes() == got.tobytes()
    # in a stack, only the rows that underflow are recomputed
    stack = rsa._chains(np.array([plain, scores, plain[::-1]]), alpha)
    for matrix, chain in zip((plain, scores, plain[::-1]), stack):
        assert chain.tobytes() == rsa._chains(matrix, alpha).tobytes()
        for column, row in enumerate(chain):
            expected = _outcome(lambda: oracle_chain(matrix, column, alpha, "clue"))
            assert (matrix is scores and isinstance(expected, str)) or row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", [None, 1.0, 30.0, 100.0, 1000.0])
def test_a_zero_line_still_fails_the_chain(alpha):
    # an empty column fails every pragmatic row; an empty row fails every
    # pragmatic row, while the literal chain reads each column alone
    for scores, literal in (([[0, 1], [0, 2]], [True, False]), ([[0, 0], [1, 2]], [False, False])):
        probs = rsa._chains(np.array(scores, float), alpha)
        failed = np.isnan(probs).all(axis=1).tolist()
        assert failed == (literal if alpha is None else [True, True])
        for clue, fails in enumerate(failed):
            if fails:
                with pytest.raises(DataError, match="^zero normalizer$"):
                    listener_probs(scores, clue, alpha)


# ---------------------------------------------------------------------------
# scenarios and configurations

def test_scenario_validation():
    with pytest.raises(DataError, match="two nouns"):
        Scenario((0,), (0,))
    with pytest.raises(DataError, match="one adjective"):
        Scenario((0, 1), ())
    with pytest.raises(DataError, match="duplicate noun"):
        Scenario((0, 0), (1,))
    with pytest.raises(DataError, match="duplicate adjective"):
        Scenario((0, 1), (2, 2))
    for nouns, adjectives in (((0, -1), (0,)), ((0, 1), (2, -3)), ((-2, 1), (-1,))):
        with pytest.raises(DataError, match="^negative index in scenario$"):
            Scenario(nouns, adjectives)
    scenario = Scenario((3, 1, 2), (0, 4))
    assert scenario.k == 3 and scenario.m == 2
    assert scenario.pairs == ((0, 1), (0, 2), (1, 2))


class _Count(int):
    pass


@pytest.mark.parametrize("value, expected", [
    (0, True), (-3, True), (2**70, True), (_Count(4), True),
    (np.int64(1), True), (np.int8(-2), True), (np.uint64(7), True),
    (True, False), (False, False), (np.bool_(True), False),
    (1.0, False), (np.float64(1.0), False), ("1", False), (None, False), (Fraction(1), False),
])
def test_is_integer_truth_table(value, expected):
    assert rsa.is_integer(value) is expected


def test_indices_must_be_integers():
    # truncating 0.7 to 0 or True to 1 would play a different trial than asked
    for nouns, adjectives in (((0.7, 1.2), (0,)), ((0, 1), (True,)), ((0, "1"), (0,))):
        with pytest.raises(DataError, match="scenario indices must be integers"):
            Scenario(nouns, adjectives)
    scenario = Scenario((0, 1, 2), (0, 1))
    for index in ((0.9, 2.5), (0, 2.0), (False, 1)):
        with pytest.raises(DataError, match="pair of integers"):
            Configuration(scenario, "speaker", index)
    for index in (True, 1.0, "1"):
        with pytest.raises(DataError, match="must be an integer"):
            Configuration(scenario, "listener", index)
    indices = np.array([2, 0, 1], dtype=np.int64)
    assert Scenario(indices, indices[:2]) == Scenario((2, 0, 1), (2, 0))
    assert Configuration(scenario, "speaker", tuple(indices[:2])).index == (0, 2)
    assert Configuration(scenario, "listener", np.int32(1)).index == 1


def test_noun_pairs_lexicographic():
    assert noun_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(noun_pairs(5)) == 10


def test_configuration_validation():
    scenario = Scenario((0, 1, 2), (0, 1))
    config = Configuration(scenario, "speaker", (2, 0))
    assert config.index == (0, 2)  # normalized to i < j
    with pytest.raises(DataError, match="out of range"):
        Configuration(scenario, "speaker", (0, 3))
    with pytest.raises(DataError, match="pair"):
        Configuration(scenario, "speaker", 1)
    with pytest.raises(DataError, match="out of range"):
        Configuration(scenario, "listener", 2)
    with pytest.raises(DataError, match="unknown role"):
        Configuration(scenario, "judge", 0)
    assert answer_support(Configuration(scenario, "listener", 0)) == scenario.pairs
    assert answer_support(config) == (0, 1)


# a plain int clue or an (i, j) int pair with i < j skips the normalizing
# checks; every other index takes them, with their texts
@pytest.mark.parametrize("role, index, expected", [
    ("listener", 1, 1),
    ("listener", np.int64(2), 2),
    ("listener", _Count(1), 1),
    ("speaker", (0, 2), (0, 2)),
    ("speaker", (2, 0), (0, 2)),
    ("speaker", [1, 2], (1, 2)),
    ("speaker", (np.int64(2), 1), (1, 2)),
    ("speaker", np.array([0, 1]), (0, 1)),
    ("listener", True, "clue index must be an integer, got True"),
    ("listener", np.bool_(False), "clue index must be an integer, got np.False_"),
    ("listener", 1.0, "clue index must be an integer, got 1.0"),
    ("listener", (0, 1), "clue index must be an integer, got (0, 1)"),
    ("listener", 3, "clue index 3 out of range for m=3"),
    ("listener", -1, "clue index -1 out of range for m=3"),
    ("listener", np.int64(7), "clue index 7 out of range for m=3"),
    ("speaker", (True, 1), "speaker index must be a pair of integers, got (True, 1)"),
    ("speaker", (0, 1.0), "speaker index must be a pair of integers, got (0, 1.0)"),
    ("speaker", (0, 1, 2), "speaker index must be a pair of integers, got (0, 1, 2)"),
    ("speaker", 1, "speaker index must be a pair of integers, got 1"),
    ("speaker", "01", "speaker index must be a pair of integers, got '01'"),
    ("speaker", None, "speaker index must be a pair of integers, got None"),
    ("speaker", (1, 1), "pair (1, 1) out of range for k=4"),
    ("speaker", (0, 4), "pair (0, 4) out of range for k=4"),
    ("speaker", (4, 0), "pair (0, 4) out of range for k=4"),
    ("speaker", (-1, 2), "pair (-1, 2) out of range for k=4"),
    ("judge", 0, "unknown role 'judge'"),
    ("judge", (0, 1), "unknown role 'judge'"),
    ("Listener", 0, "unknown role 'Listener'"),
    (None, (0, 1), "unknown role None"),
])
def test_configuration_index_texts_and_normal_form(role, index, expected):
    scenario = Scenario((5, 6, 7, 8), (0, 1, 2))
    if isinstance(expected, str):
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            Configuration(scenario, role, index)
        return
    config = Configuration(scenario, role, index)
    assert config.index == expected
    assert type(config.index) is type(expected)
    if role == "speaker":
        assert all(type(i) is int for i in config.index)


def test_scenario_hash_is_the_field_hash_and_survives_copies():
    scenario = Scenario((3, 1, 2), np.array([0, 4]))
    assert hash(scenario) == hash(((3, 1, 2), (0, 4)))
    for other in (
        copy.copy(scenario),
        copy.deepcopy(scenario),
        pickle.loads(pickle.dumps(scenario)),
        dataclasses.replace(scenario),
        Scenario((3, 1, 2), (0, 4)),
    ):
        assert other == scenario and hash(other) == hash(scenario)
        assert {other: 1}[scenario] == 1
    moved = dataclasses.replace(scenario, nouns=(3, 1, 5))
    assert moved != scenario and hash(moved) == hash(((3, 1, 5), (0, 4)))
    assert repr(scenario) == "Scenario(nouns=(3, 1, 2), adjectives=(0, 4))"
    assert dataclasses.astuple(scenario) == ((3, 1, 2), (0, 4))


def test_trusted_scenario_is_the_checked_scenario():
    trusted = Scenario._trusted((1, 4, 7), (0, 2))
    checked = Scenario((1, 4, 7), (0, 2))
    assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
    for other in (pickle.loads(pickle.dumps(trusted)), copy.copy(trusted), dataclasses.replace(trusted)):
        assert other == checked and hash(other) == hash(checked) and repr(other) == repr(checked)
        assert {other: 1}[checked] == 1
    moved = dataclasses.replace(trusted, adjectives=(0, 3))
    assert moved == Scenario((1, 4, 7), (0, 3)) and hash(moved) == hash(((1, 4, 7), (0, 3)))
    with pytest.raises(DataError, match="duplicate noun"):
        dataclasses.replace(trusted, nouns=(1, 1, 7))  # replace builds a checked scenario


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_trusted_configuration_is_the_checked_configuration(k, m, seed):
    # every clue from range(m) and every pair from noun_pairs(k) is in normal
    # form, so the unchecked build equals the checked one, hash and repr too
    rng = np.random.default_rng(seed)
    scenario = Scenario(tuple(rng.choice(40, k, replace=False).tolist()),
                        tuple(rng.choice(40, m, replace=False).tolist()))
    for role, indices in (("listener", range(m)), ("speaker", noun_pairs(k))):
        for index in indices:
            trusted = Configuration._trusted(scenario, role, index)
            checked = Configuration(scenario, role, index)
            assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
            assert type(trusted.index) is type(checked.index)
            assert {trusted: 1}[checked] == 1


def test_non_sequences_and_ragged_scores_are_data_errors():
    with pytest.raises(DataError, match=r"^scenario indices must be integers, got None and \(1,\)$"):
        Scenario(None, (1,))
    with pytest.raises(DataError, match="^scenario indices must be integers, got 3 and 1$"):
        Scenario(3, 1)
    with pytest.raises(DataError, match="^score matrix: setting an array element with a sequence"):
        listener_probs([[1, 1], [1]], 0)
    with pytest.raises(DataError, match="^score matrix: could not convert string to float: 'x'$"):
        speaker_probs([["x", 1], [1, 1]], 0)


def test_scenario_scores_products(rng):
    norm = random_normalized(rng, 6, 5)
    scenario = Scenario((4, 0, 2), (1, 3))
    scores = scenario_scores(norm, scenario)
    assert scores.shape == (3, 2)
    v = norm.values
    # pair (0,1) of positions = nouns 4 and 0
    assert scores[0, 0] == pytest.approx(v[4, 1] * v[0, 1], abs=1e-15)
    assert scores[2, 1] == pytest.approx(v[0, 3] * v[2, 3], abs=1e-15)


def test_scenario_scores_range_check(rng):
    norm = random_normalized(rng, 3, 3)
    with pytest.raises(DataError, match="out of range"):
        scenario_scores(norm, Scenario((0, 5), (0,)))


# ---------------------------------------------------------------------------
# model specs

def test_parse_model_spec():
    spec = parse_model_spec("bigram:literal", "listener")
    assert spec == ModelSpec("bigram", "listener", "literal")
    spec = parse_model_spec("embedding-cosine:pragmatic:5.0", "speaker")
    assert spec.alpha == 5.0
    assert spec.spec_string() == "embedding-cosine:pragmatic:5.0"
    assert parse_model_spec(spec.spec_string(), "speaker") == spec
    assert parse_model_spec(spec, "speaker") is spec
    role_error = r"^speaker model embedding-cosine:pragmatic:5\.0 given for the listener role$"
    with pytest.raises(DataError, match=role_error):
        parse_model_spec(spec, "listener")


def test_parse_model_spec_errors():
    with pytest.raises(DataError, match="malformed"):
        parse_model_spec("bigram", "listener")
    with pytest.raises(DataError, match="unknown depth"):
        parse_model_spec("bigram:deep", "listener")
    with pytest.raises(DataError, match="alpha"):
        parse_model_spec("bigram:pragmatic", "listener")
    with pytest.raises(DataError, match="malformed alpha"):
        parse_model_spec("bigram:pragmatic:fast", "listener")
    with pytest.raises(DataError, match="positive"):
        parse_model_spec("bigram:pragmatic:0", "listener")
    with pytest.raises(DataError, match="positive"):
        parse_model_spec("bigram:pragmatic:-1", "listener")


@pytest.mark.parametrize("spec", [None, 5, ["bigram", "literal"]])
def test_parse_model_spec_rejects_a_spec_that_is_not_a_string(spec):
    # the callers that take a spec string pass anything else through to here
    message = f"^{re.escape(f'malformed model spec {spec!r}')}$"
    with pytest.raises(DataError, match=message):
        parse_model_spec(spec, "listener")
    tables = {"bigram": random_normalized(np.random.default_rng(0), 4, 3)}
    config = Configuration(Scenario((0, 1), (0,)), "listener", 0)
    with pytest.raises(DataError, match=message):
        simulate_gameplay(tables, [config.scenario] * 2, spec, "bigram:literal")
    with pytest.raises(DataError, match=message):
        score_responses(tables, spec, [ResponseRecord(config, {(0, 1): 1})])
    with pytest.raises(DataError, match=message):
        model_agreement(spec, "bigram:literal", tables, [config])


def test_model_spec_literal_drops_alpha():
    spec = ModelSpec("bigram", "listener", "literal", 3.0)
    assert spec.alpha is None
    assert spec.spec_string() == "bigram:literal"


# ---------------------------------------------------------------------------
# prediction distributions

def test_prediction_distribution_validation():
    with pytest.raises(DataError, match="sum"):
        PredictionDistribution((0, 1), np.array([0.5, 0.6]))
    with pytest.raises(DataError, match="negative"):
        PredictionDistribution((0, 1), np.array([1.5, -0.5]))
    with pytest.raises(DataError, match="length"):
        PredictionDistribution((0, 1, 2), np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "probs, message",
    [([np.nan, np.nan], "NaN probability"),
     ([np.nan, 1.0], "NaN probability"),
     ([1.5, np.nan, -0.5], "NaN probability"),
     ([1.25, -0.25], "negative probability")],
)
def test_prediction_distribution_rejects_nan(probs, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        PredictionDistribution(tuple(range(len(probs))), np.array(probs))


def test_argmax_answers_tie_tolerance():
    dist = PredictionDistribution((0, 1, 2), np.array([0.4, 0.4 - 1e-13, 0.2 + 1e-13]))
    assert dist.argmax_answers() == (0, 1)


# ---------------------------------------------------------------------------
# scenario-level agents and dispatch

def test_predict_dispatch_and_role_mismatch(rng):
    norm = random_normalized(rng, 5, 4)
    scenario = Scenario((0, 1, 2), (0, 1, 2))
    listener_config = Configuration(scenario, "listener", 1)
    speaker_config = Configuration(scenario, "speaker", (0, 2))
    scores = scenario_scores(norm, scenario)

    lit = predict(norm, listener_config, ModelSpec("bigram", "listener", "literal"))
    assert lit.support == scenario.pairs
    assert np.array_equal(lit.probs, listener_probs(scores, 1))
    prag = predict(norm, speaker_config, ModelSpec("bigram", "speaker", "pragmatic", 2.0))
    assert prag.support == (0, 1, 2)
    assert np.array_equal(prag.probs, speaker_probs(scores, 1, alpha=2.0))

    with pytest.raises(DataError, match="role"):
        predict(norm, listener_config, ModelSpec("bigram", "speaker", "literal"))
    with pytest.raises(DataError, match="model role 'listener' != configuration role 'speaker'"):
        predict(norm, speaker_config, ModelSpec("bigram", "listener", "literal"))
    with pytest.raises(DataError, match="model role 'speaker' != configuration role 'listener'"):
        predict(norm, listener_config, ModelSpec("bigram", "speaker", "pragmatic", 1.0))


def test_agents_consistent_with_cores(rng):
    norm = random_normalized(rng, 6, 6)
    scenario = Scenario((5, 1, 3, 0), (2, 4))
    scores = scenario_scores(norm, scenario)
    config = Configuration(scenario, "listener", 1)
    assert np.array_equal(
        predict(norm, config, ModelSpec("bigram", "listener", "literal")).probs,
        listener_probs(scores, 1),
    )
    assert np.array_equal(
        predict(norm, config, ModelSpec("bigram", "listener", "pragmatic", 5.0)).probs,
        listener_probs(scores, 1, alpha=5.0),
    )
    target = (1, 3)
    config = Configuration(scenario, "speaker", target)
    row = scenario.pairs.index(target)
    assert np.array_equal(
        predict(norm, config, ModelSpec("bigram", "speaker", "literal")).probs,
        speaker_probs(scores, row),
    )
    assert np.array_equal(
        predict(norm, config, ModelSpec("bigram", "speaker", "pragmatic", 0.1)).probs,
        speaker_probs(scores, row, alpha=0.1),
    )


def test_distributions_sum_to_one_randomized(rng):
    for _ in range(50):
        norm = random_normalized(rng, 6, 6, mask_frac=0.2)
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        nouns = tuple(rng.choice(6, size=k, replace=False).tolist())
        adjs = tuple(rng.choice(6, size=m, replace=False).tolist())
        scenario = Scenario(nouns, adjs)
        alpha = float(rng.choice([0.1, 1.0, 5.0]))
        clue = int(rng.integers(m))
        listener = ModelSpec("bigram", "listener", "pragmatic", alpha)
        dist = predict(norm, Configuration(scenario, "listener", clue), listener)
        assert abs(dist.probs.sum() - 1.0) < 1e-9
        assert (dist.probs >= 0).all()
        pair = scenario.pairs[int(rng.integers(len(scenario.pairs)))]
        speaker = ModelSpec("bigram", "speaker", "pragmatic", alpha)
        dist = predict(norm, Configuration(scenario, "speaker", pair), speaker)
        assert abs(dist.probs.sum() - 1.0) < 1e-9
        assert (dist.probs >= 0).all()


# ---------------------------------------------------------------------------
# records

def test_scenario_record_roundtrip(rng):
    from refgame.rsa import scenario_from_record, scenario_record

    norm = random_normalized(rng, 5, 5)
    scenario = Scenario((4, 0, 2), (1, 3))
    record = scenario_record(scenario, norm.lexicon)
    assert record == {"nouns": ["noun4", "noun0", "noun2"], "adjectives": ["adj1", "adj3"]}
    assert scenario_from_record(record, norm.lexicon) == scenario


def test_configuration_record_roundtrip(rng):
    from refgame.rsa import configuration_from_record, configuration_record

    norm = random_normalized(rng, 5, 5)
    scenario = Scenario((4, 0, 2), (1, 3))
    speaker = Configuration(scenario, "speaker", (0, 2))
    record = configuration_record(speaker, norm.lexicon)
    assert record["target_pair"] == ["noun4", "noun2"]
    assert configuration_from_record(record, norm.lexicon) == speaker

    listener = Configuration(scenario, "listener", 1)
    record = configuration_record(listener, norm.lexicon)
    assert record["clue"] == "adj3"
    assert configuration_from_record(record, norm.lexicon) == listener


def test_configuration_record_errors(rng):
    from refgame.rsa import configuration_from_record

    norm = random_normalized(rng, 3, 3)
    base = {"scenario": {"nouns": ["noun0", "noun1"], "adjectives": ["adj0"]}}
    with pytest.raises(DataError, match="unknown role"):
        configuration_from_record({**base, "role": "judge", "clue": "adj0"}, norm.lexicon)
    with pytest.raises(DataError, match="lacks clue"):
        configuration_from_record({**base, "role": "listener"}, norm.lexicon)
    with pytest.raises(DataError, match="not in scenario"):
        configuration_from_record(
            {**base, "role": "listener", "clue": "adj2"}, norm.lexicon
        )
    with pytest.raises(DataError, match="absent"):
        configuration_from_record(
            {**base, "role": "speaker", "target_pair": ["noun0", "missing"]}, norm.lexicon
        )
    with pytest.raises(DataError, match="target noun 'noun2' not in scenario"):
        configuration_from_record(
            {**base, "role": "speaker", "target_pair": ["noun0", "noun2"]}, norm.lexicon
        )
    with pytest.raises(DataError, match="expected a list of nouns"):
        configuration_from_record({**base, "role": "speaker", "target_pair": "noun0"}, norm.lexicon)
    with pytest.raises(DataError, match=r"adjective \['adj0'\] is not a string"):
        configuration_from_record({**base, "role": "listener", "clue": ["adj0"]}, norm.lexicon)
