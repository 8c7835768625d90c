"""Scoring and agreement in shape groups against per-record oracles, bit for bit.

score_responses and model_agreement predict all configurations of one
role and (k, m) shape with one rsa.predict_stack call, and rank the rows
together. The per-record loops they replaced are kept here as oracles:
predict on one configuration, the top-answer rule on argmax sets, and
the 1-d bodies of average_ranks and spearman as they were. Every
comparison is ==, never approx.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from refgame import (
    AssociationMatrix,
    Configuration,
    DataError,
    ResponseRecord,
    Scenario,
    answer_support,
    model_agreement,
    parse_model_spec,
    predict,
    quantile_normalize,
    score_responses,
    simulate_gameplay,
    spearman,
)
from refgame import association, evaluation, rsa
from refgame.association import average_ranks
from refgame.cli import _symmetric
from refgame.rsa import config_columns, predict_stack

from conftest import make_lexicon, oracle_modal_answers, random_normalized


# ---------------------------------------------------------------------------
# oracles: the 1-d rank pass, the spearman body and the per-record loops

def oracle_average_ranks(values: np.ndarray) -> np.ndarray:
    n = values.size
    order = values.argsort(kind="stable")
    ordered = values[order]
    edge = np.ones(n + 1, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    edges = edge.nonzero()[0]
    ranks = np.empty(n)
    ranks[order] = ((edges[:-1] + edges[1:] + 1) / 2).repeat(edges[1:] - edges[:-1])
    return ranks


def oracle_spearman(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("rank correlation needs two equal-length vectors")
    if x.size < 2:
        raise DataError("rank correlation needs at least two entries")
    for which, values in (("first", x), ("second", y)):
        if np.isnan(values).any():
            raise DataError(f"rank correlation: the {which} vector holds NaN")
    mean_rank = (x.size + 1) / 2
    rank_x = oracle_average_ranks(-x) - mean_rank
    rank_y = oracle_average_ranks(-y) - mean_rank
    ss_x = rank_x @ rank_x
    ss_y = rank_y @ rank_y
    if ss_x == 0 or ss_y == 0:
        return 0.0
    return float((rank_x @ rank_y) / np.sqrt(ss_x * ss_y))


def oracle_top_match(prediction, answers) -> int:
    return int(bool(set(prediction.argmax_answers()) & set(answers)))


def oracle_scores(tables, model, records):
    """score_responses' per-record loop: (top answers, rank correlations)."""
    specs = [parse_model_spec(model, record.configuration.role) for record in records]
    label = f"model {specs[0].spec_string()}"
    tops, ranks = [], []
    for position, (spec, record) in enumerate(zip(specs, records), start=1):
        try:
            prediction = predict(tables[spec.metric], record.configuration, spec)
            tops.append(oracle_top_match(prediction, oracle_modal_answers(record)))
            ranks.append(oracle_spearman(prediction.probs, record.count_vector()))
        except DataError as exc:
            raise DataError(f"{label}: record {position}: {exc}") from None
    return tuple(tops), tuple(ranks)


def oracle_agreement(model_a, model_b, tables, configurations):
    """model_agreement's per-configuration loop, model a before model b."""
    role = configurations[0].role
    specs = (parse_model_spec(model_a, role), parse_model_spec(model_b, role))
    where = f"{specs[0].spec_string()} vs {specs[1].spec_string()}: configuration"
    matches, correlations = [], []
    for position, config in enumerate(configurations, start=1):
        dists = []
        for spec in specs:
            try:
                dists.append(predict(tables[spec.metric], config, spec))
            except DataError as exc:
                raise DataError(
                    f"{where} {position}: model {spec.spec_string()}: {exc}"
                ) from None
        a, b = dists
        matches.append(oracle_top_match(a, b.argmax_answers()))
        try:
            correlations.append(oracle_spearman(a.probs, b.probs))
        except DataError as exc:
            raise DataError(f"{where} {position}: {exc}") from None
    return float(np.mean(matches)), float(np.mean(correlations))


# ---------------------------------------------------------------------------
# inputs: k 2-6 (up to 15 pairs), m 1-9, a few shapes per list so that
# groups hold several configurations

DEPTHS = ("literal", "pragmatic:0.3", "pragmatic:1.0", "pragmatic:5.0", "pragmatic:30.0")
MODELS = st.sampled_from([f"{m}:{d}" for m in ("bigram", "embedding-cosine") for d in DEPTHS])


@st.composite
def tables_and_rng(draw):
    """Two metrics over one lexicon of 6-10 nouns and 9-12 adjectives,
    about 30% of cells at the floor, and a generator for the items. Raw
    scores are either from {0, 1, 2}, so cells tie, or continuous."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lexicon = make_lexicon(draw(st.integers(6, 10)), draw(st.integers(9, 12)))
    tied = draw(st.booleans())
    tables = {}
    for metric in ("bigram", "embedding-cosine"):
        if tied:
            raw = rng.integers(0, 3, size=lexicon.shape).astype(float)
        else:
            raw = rng.normal(size=lexicon.shape)
        mask = rng.random(size=lexicon.shape) < 0.3
        tables[metric] = quantile_normalize(AssociationMatrix(metric, lexicon, raw, mask))
    return tables, rng


def random_configurations(rng, lexicon, count, roles, one_answer):
    """count configurations over 1-3 (role, k, m) shapes. Unless
    one_answer, no shape leaves a single answer (a 2-noun listener or a
    1-adjective speaker), which spearman refuses."""
    n_nouns, n_adjs = lexicon.shape
    shapes = []
    for _ in range(int(rng.integers(1, 4))):
        role = roles[int(rng.integers(len(roles)))]
        low_k = 3 if role == "listener" and not one_answer else 2
        low_m = 2 if role == "speaker" and not one_answer else 1
        shapes.append((role, int(rng.integers(low_k, 7)), int(rng.integers(low_m, 10))))
    configurations = []
    for _ in range(count):
        role, k, m = shapes[int(rng.integers(len(shapes)))]
        scenario = Scenario(
            tuple(rng.choice(n_nouns, k, replace=False).tolist()),
            tuple(rng.choice(n_adjs, m, replace=False).tolist()),
        )
        if role == "listener":
            index = int(rng.integers(m))
        else:
            index = scenario.pairs[int(rng.integers(len(scenario.pairs)))]
        configurations.append(Configuration(scenario, role, index))
    return configurations


def random_record(rng, config):
    """Tie-prone counts with at least one response."""
    support = answer_support(config)
    counts = rng.integers(0, 3, size=len(support))
    counts[int(rng.integers(counts.size))] += 1
    return ResponseRecord(config, dict(zip(support, counts.tolist())))


def assert_same_error(exc, call):
    with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
        call()


# ---------------------------------------------------------------------------
# the stacked chain and the row ranks

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables_and_rng(), st.lists(MODELS, min_size=1, max_size=4), st.sampled_from(["listener", "speaker"]),
       st.integers(1, 40))
def test_predict_stack_rows_equal_predict(drawn, models, role, count):
    # one to four models, repeats and shared matrices allowed: row [n, s]
    # is predict's row for configuration n and model s
    tables, rng = drawn
    configurations = random_configurations(rng, tables["bigram"].lexicon, count, [role], True)
    specs = [parse_model_spec(model, role) for model in models]
    for shape in sorted({(c.scenario.k, c.scenario.m) for c in configurations}):
        group = [c for c in configurations if (c.scenario.k, c.scenario.m) == shape]
        try:
            expected = [[predict(tables[spec.metric], config, spec).probs for spec in specs] for config in group]
        except DataError:
            with pytest.raises(DataError):
                predict_stack(tables, specs, *config_columns(group))
            continue
        assert np.array_equal(predict_stack(tables, specs, *config_columns(group)), np.array(expected))


def test_predict_stack_single_errors_are_predicts(monkeypatch):
    # every third scenario has an empty pair; some index a noun past the matrix
    norm = random_normalized(np.random.default_rng(0), 8, 6, mask_frac=0.4)
    tables = {"bigram": norm}
    rng = np.random.default_rng(1)
    scenarios = [
        Scenario(tuple(rng.choice(9, 3, replace=False).tolist()), tuple(rng.choice(6, 3, replace=False).tolist()))
        for _ in range(60)
    ]
    empty_first_pair(monkeypatch, scenarios[::3])
    spec = parse_model_spec("bigram:pragmatic:100", "listener")
    seen = set()
    for scenario in scenarios:
        config = Configuration(scenario, "listener", int(rng.integers(3)))
        try:
            predict(norm, config, spec)
        except DataError as exc:
            seen.add(str(exc))
            assert_same_error(exc, lambda: predict_stack(tables, [spec], *config_columns([config])))
            continue
        expected = predict(norm, config, spec).probs
        assert np.array_equal(predict_stack(tables, [spec], *config_columns([config]))[0, 0], expected)
    assert seen == {"zero normalizer", "scenario noun index out of range for this matrix"}


TIED = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 1e-7, np.inf, -np.inf])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
        elements=st.one_of(TIED, st.floats(allow_nan=False)),
    )
)
def test_row_ranks_equal_ranks_of_each_row(values):
    ranks = average_ranks(values)
    assert ranks.shape == values.shape and ranks.dtype == np.float64
    for row, ranked in zip(values, ranks):
        assert np.array_equal(ranked, oracle_average_ranks(row))
        assert np.array_equal(ranked, average_ranks(row))


@pytest.mark.parametrize("size", [45_000, 400_003])
def test_spearman_equals_old_body_at_matrix_sizes(size):
    # 300 x 150 cells, and a size where the sums of squared ranks pass 2**53 / 4
    rng = np.random.default_rng(size)
    continuous = rng.normal(size=size)
    tied = rng.integers(0, 500, size=size).astype(float)
    for x, y in ((continuous, tied), (tied, continuous[::-1].copy()), (tied, tied[::-1].copy())):
        assert spearman(x, y) == oracle_spearman(x, y)


# ---------------------------------------------------------------------------
# score_responses and model_agreement against the loops

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables_and_rng(), MODELS, st.integers(2, 14), st.integers(0, 4))
def test_score_responses_equals_per_record_oracle(drawn, model, count, one_answer):
    # one example in five may hold single-answer shapes, which make spearman fail
    tables, rng = drawn
    configurations = random_configurations(
        rng, tables["bigram"].lexicon, count, ["listener", "speaker"], one_answer == 0
    )
    records = [random_record(rng, config) for config in configurations]
    try:
        expected = oracle_scores(tables, model, records)
    except DataError as exc:
        assert_same_error(exc, lambda: score_responses(tables, model, records))
        return
    report = score_responses(tables, model, records)
    assert (report.top_answers, report.rank_correlations) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    tables_and_rng(), MODELS, MODELS, st.sampled_from(["listener", "speaker"]),
    st.integers(1, 14), st.integers(0, 4),
)
def test_model_agreement_equals_per_configuration_oracle(
    drawn, model_a, model_b, role, count, one_answer
):
    tables, rng = drawn
    configurations = random_configurations(
        rng, tables["bigram"].lexicon, count, [role], one_answer == 0
    )
    try:
        expected = oracle_agreement(model_a, model_b, tables, configurations)
    except DataError as exc:
        assert_same_error(exc, lambda: model_agreement(model_a, model_b, tables, configurations))
        return
    assert model_agreement(model_a, model_b, tables, configurations) == expected


def oracle_agreement_matrix(specs, tables, configurations):
    """compare's loop as it was: model_agreement's loop on each unordered
    pair, the diagonal included, in row-major order over i <= j."""
    matrix = [[None] * len(specs) for _ in specs]
    for i, a in enumerate(specs):
        for j in range(i, len(specs)):
            matrix[i][j] = matrix[j][i] = oracle_agreement(a, specs[j], tables, configurations)
    return matrix


def measured_matrix(specs, tables, configurations):
    measure = evaluation.agreement_measure(specs, tables, configurations)
    return _symmetric(range(len(specs)), measure)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    tables_and_rng(), st.lists(MODELS, min_size=1, max_size=4),
    st.sampled_from(["listener", "speaker"]), st.integers(1, 14), st.integers(0, 4),
)
def test_agreement_measure_equals_pairwise_oracle(drawn, models, role, count, one_answer):
    tables, rng = drawn
    configurations = random_configurations(
        rng, tables["bigram"].lexicon, count, [role], one_answer == 0
    )
    try:
        expected = oracle_agreement_matrix(models, tables, configurations)
    except DataError as exc:
        assert_same_error(exc, lambda: measured_matrix(models, tables, configurations))
        return
    assert measured_matrix(models, tables, configurations) == expected


def test_score_error_names_the_lowest_failing_record():
    # records 3 and 4 fail, in groups first met at records 2 and 1
    tables = {"bigram": random_normalized(np.random.default_rng(3), 6, 6)}
    listener = [
        Configuration(Scenario(nouns, (0, 1)), "listener", 0) for nouns in ((0, 1, 2), (0, 1, 7))
    ]
    speaker = [
        Configuration(Scenario((0, 1, 2), adjectives), "speaker", (0, 1))
        for adjectives in ((0, 1, 2), (0, 1, 9))
    ]
    configurations = [listener[0], speaker[0], speaker[1], listener[1]]
    rng = np.random.default_rng(5)
    records = [random_record(rng, config) for config in configurations]
    message = "model bigram:literal: record 3: scenario adjective index out of range for this matrix"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        oracle_scores(tables, "bigram:literal", records)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        score_responses(tables, "bigram:literal", records)
    records[2] = random_record(np.random.default_rng(9), speaker[0])
    message = "model bigram:literal: record 4: scenario noun index out of range for this matrix"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        score_responses(tables, "bigram:literal", records)


def batch_only(runs):
    """A run that records its positions and fails on a batch of two or
    more that holds position 2, and on no position alone."""

    def run(positions):
        runs.append(list(positions))
        if len(positions) > 1 and 2 in positions:
            raise DataError("batch only")
        return [0.5] * len(positions)

    return run


def test_run_batches_raises_the_batch_error_when_no_position_fails_alone():
    # one shape key: one batch [0, 1, 2]
    runs = []
    with pytest.raises(DataError, match="^batch only$"):
        rsa._run_batches(["a"] * 3, batch_only(runs), lambda position: f"record {position + 1}")
    assert runs == [[0, 1, 2], [0], [1], [2]]


def test_run_batches_runs_no_passed_batch_again():
    # batches [0, 1] and [2, 3]; the second fails: only it and the batches after it run alone
    runs = []
    with pytest.raises(DataError, match="^batch only$"):
        rsa._run_batches(["a", "a", "b", "b"], batch_only(runs), lambda position: f"record {position + 1}")
    assert runs == [[0, 1], [2, 3], [2], [3]]


def test_run_batches_names_the_lowest_position_that_fails_alone():
    # shape keys interleave positions in batches [0, 2], [1, 5] and [3, 4]; position 3
    # fails, in the batch after the first failing one, and position 5 fails earlier
    runs = []

    def run(positions):
        runs.append(list(positions))
        if {3, 5} & set(positions):
            raise DataError("bad item")
        return [0.5] * len(positions)

    with pytest.raises(DataError, match="^record 4: bad item$"):
        rsa._run_batches(["a", "b", "a", "c", "c", "b"], run, lambda position: f"record {position + 1}")
    assert runs == [[0, 2], [1, 5], [1], [3]]


@pytest.mark.parametrize("chunk, batches", [
    (256, [[0, 2, 5], [1, 4], [3]]),
    (2, [[0, 2], [5], [1, 4], [3]]),
])
def test_by_shape_batches_each_key_from_anywhere_in_first_seen_order(monkeypatch, chunk, batches):
    # positions that share a shape key, wherever they lie, make batches of
    # up to _CHUNK (read at call time), each ascending, keys in first-seen order;
    # each batch's entries come back in position order
    monkeypatch.setattr(rsa, "_CHUNK", chunk)
    shapes = [(3, 3), (5, 8), (3, 3), (2, 1), (5, 8), (3, 3)]
    runs = []

    def run(positions):
        runs.append(list(positions))
        return (np.array(positions) * 10,)

    (joined,) = rsa._run_batches(iter(shapes), run, str)
    assert runs == batches
    assert joined.tolist() == [0, 10, 20, 30, 40, 50]


# ---------------------------------------------------------------------------
# errors that name the model and the item

def floor_heavy_lexicon():
    """8 x 6, 40% of cells at the floor: before the chain took an
    underflowing row through logs, a pragmatic alpha-30 or alpha-100
    chain met a zero normalizer on some of its scenarios."""
    return {"bigram": random_normalized(np.random.default_rng(0), 8, 6, mask_frac=0.4)}


def empty_first_pair(monkeypatch, scenarios):
    """Patch rsa._score_stack so that the first pair of each of these
    scenarios scores 0 on every clue, which no normalized matrix gives.
    On such a scenario every chain but the literal listener's meets a
    zero normalizer: the pragmatic ones in every row."""
    empty = {(scenario.nouns, scenario.adjectives) for scenario in scenarios}
    real = rsa._score_stack

    def score_stack(norm, nouns, adjectives):
        scores = real(norm, nouns, adjectives)
        for row, key in enumerate(zip(map(tuple, nouns.tolist()), map(tuple, adjectives.tolist()))):
            if key in empty:
                scores[row, 0] = 0.0
        return scores

    monkeypatch.setattr(rsa, "_score_stack", score_stack)


def random_scenarios(rng, count):
    return [
        Scenario(
            tuple(rng.choice(8, 3, replace=False).tolist()),
            tuple(rng.choice(6, 3, replace=False).tolist()),
        )
        for _ in range(count)
    ]


def listener_configurations(rng, count):
    return [Configuration(scenario, "listener", int(rng.integers(3))) for scenario in random_scenarios(rng, count)]


def test_model_agreement_error_names_models_and_configuration(monkeypatch):
    configurations = listener_configurations(np.random.default_rng(1), 20)
    empty_first_pair(monkeypatch, [configurations[5].scenario])
    message = (
        "bigram:literal vs bigram:pragmatic:100.0: configuration 6: "
        "model bigram:pragmatic:100.0: zero normalizer"
    )
    for call in (model_agreement, oracle_agreement):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            call("bigram:literal", "bigram:pragmatic:100", floor_heavy_lexicon(), configurations)


def test_floor_heavy_agreement_is_the_per_configuration_loop():
    # the plain chains underflowed on configurations 6 and 2 of these
    tables = floor_heavy_lexicon()
    configurations = listener_configurations(np.random.default_rng(1), 20)
    for models in (("bigram:literal", "bigram:pragmatic:100"), ("bigram:pragmatic:30", "bigram:pragmatic:1000")):
        assert model_agreement(*models, tables, configurations) == oracle_agreement(*models, tables, configurations)


@pytest.mark.parametrize("models, message", [
    (["bigram:pragmatic:100", "bigram:literal"],
     "bigram:pragmatic:100.0 vs bigram:pragmatic:100.0: configuration 6: "
     "model bigram:pragmatic:100.0: zero normalizer"),
    (["bigram:literal", "bigram:pragmatic:1", "bigram:pragmatic:100", "bigram:pragmatic:1000"],
     "bigram:literal vs bigram:pragmatic:1.0: configuration 6: "
     "model bigram:pragmatic:1.0: zero normalizer"),
])
def test_agreement_measure_error_is_the_row_major_loops_first(monkeypatch, models, message):
    # each model is predicted once per group, yet the error names the
    # pair a row-major loop over i <= j fails on first
    configurations = listener_configurations(np.random.default_rng(1), 20)
    empty_first_pair(monkeypatch, [configurations[5].scenario])
    for call in (oracle_agreement_matrix, measured_matrix):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            call(models, floor_heavy_lexicon(), configurations)


# ---------------------------------------------------------------------------
# batches of up to rsa._CHUNK: a group of one shape cut into several batches

def batched_scores(tables, model, records):
    report = score_responses(tables, model, records)
    return report.top_answers, report.rank_correlations


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    tables_and_rng(), st.lists(MODELS, min_size=1, max_size=3),
    st.sampled_from(["listener", "speaker"]), st.integers(8, 24), st.integers(0, 4), st.sampled_from([1, 7]),
)
def test_score_and_compare_past_one_chunk_equal_the_oracles(drawn, models, role, count, one_answer, chunk):
    # groups of up to 24 configurations cut into batches of 1 or 7
    tables, rng = drawn
    configurations = random_configurations(rng, tables["bigram"].lexicon, count, [role], one_answer == 0)
    records = [random_record(rng, config) for config in configurations]
    pair = (models[0], models[-1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rsa, "_CHUNK", chunk)
        calls = (
            (lambda: oracle_scores(tables, models[0], records),
             lambda: batched_scores(tables, models[0], records)),
            (lambda: oracle_agreement(*pair, tables, configurations),
             lambda: model_agreement(*pair, tables, configurations)),
            (lambda: oracle_agreement_matrix(models, tables, configurations),
             lambda: measured_matrix(models, tables, configurations)),
        )
        for oracle, batched in calls:
            try:
                expected = oracle()
            except DataError as exc:
                assert_same_error(exc, batched)
                continue
            assert repr(batched()) == repr(expected)  # repr tells -0.0 from 0.0


@pytest.mark.parametrize("chunk", [1, 7])
def test_error_texts_hold_past_one_chunk(chunk):
    # the first failing record or configuration sits in the first of 3 or 20 batches
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rsa, "_CHUNK", chunk)
        test_score_error_names_the_lowest_failing_record()
    for models, message in [
        (["bigram:pragmatic:100", "bigram:literal"],
         "bigram:pragmatic:100.0 vs bigram:pragmatic:100.0: configuration 6: "
         "model bigram:pragmatic:100.0: zero normalizer"),
        (["bigram:literal", "bigram:pragmatic:1", "bigram:pragmatic:100", "bigram:pragmatic:1000"],
         "bigram:literal vs bigram:pragmatic:1.0: configuration 6: "
         "model bigram:pragmatic:1.0: zero normalizer"),
    ]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rsa, "_CHUNK", chunk)
            test_agreement_measure_error_is_the_row_major_loops_first(patch, models, message)


def test_batches_of_seven_make_three_stacks_per_model(monkeypatch):
    # 20 configurations of one shape: ceil(20 / 7) batches, one predict_stack per model and batch
    monkeypatch.setattr(rsa, "_CHUNK", 7)
    calls = []

    def counted(tables, specs, *columns):
        calls.append(len(columns[0]))
        return predict_stack(tables, specs, *columns)

    monkeypatch.setattr(evaluation, "predict_stack", counted)
    tables = {"bigram": random_normalized(np.random.default_rng(4), 8, 6)}
    configurations = listener_configurations(np.random.default_rng(1), 20)
    rng = np.random.default_rng(2)
    score_responses(tables, "bigram:literal", [random_record(rng, config) for config in configurations])
    assert calls == [7, 7, 6]
    calls.clear()
    models = ["bigram:literal", "bigram:pragmatic:1", "bigram:pragmatic:5"]
    measured_matrix(models, tables, configurations)
    assert sorted(calls) == [6] * 3 + [7] * 6


@pytest.mark.parametrize("speaker, listener, empty, message", [
    ("bigram:pragmatic:100", "bigram:literal", 0,
     "gameplay: scenario 1: speaker model bigram:pragmatic:100.0: zero normalizer"),
    ("bigram:literal", "bigram:pragmatic:100", 3,
     "gameplay: scenario 4: listener model bigram:pragmatic:100.0: zero normalizer"),
])
def test_gameplay_error_names_scenario_and_model(monkeypatch, speaker, listener, empty, message):
    scenarios = random_scenarios(np.random.default_rng(2), 30)
    empty_first_pair(monkeypatch, [scenarios[empty]])
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        simulate_gameplay(floor_heavy_lexicon(), scenarios, speaker, listener)


@pytest.mark.parametrize("speaker, listener", [
    ("bigram:pragmatic:100", "bigram:literal"),
    ("bigram:literal", "bigram:pragmatic:100"),
    ("bigram:pragmatic:1000", "bigram:pragmatic:30"),
])
def test_floor_heavy_gameplay_plays_each_scenario_as_alone(speaker, listener):
    # the plain chains underflowed at scenario 1, 4 and 1 of these
    tables = floor_heavy_lexicon()
    scenarios = random_scenarios(np.random.default_rng(2), 30)
    report = simulate_gameplay(tables, scenarios, speaker, listener)
    alone = [simulate_gameplay(tables, [scenario], speaker, listener).successes[0] for scenario in scenarios]
    assert report.successes == tuple(alone)
    assert all(0.0 <= success <= 1.0 for row in report.successes for success in row)


def test_gameplay_predicts_per_scenario(monkeypatch):
    # one listener predict per clue and one speaker predict per pair: 8 + 10 for 5 x 8
    calls = []

    def counted(*args):
        calls.append(args)
        return predict(*args)

    monkeypatch.setattr(evaluation, "predict", counted)
    norm = random_normalized(np.random.default_rng(4), 12, 10)
    scenarios = [Scenario(tuple(range(i, i + 5)), tuple(range(i, i + 8))) for i in range(3)]
    simulate_gameplay(norm, scenarios, "bigram:pragmatic:1.0", "bigram:literal")
    assert len(calls) == 18 * len(scenarios)


def per_pair_rank_matrix(specs, tables, configurations):
    """agreement_measure as it was before it kept ranks: one stack per
    model, then both stacks ranked and correlated for every pair."""
    specs = [parse_model_spec(spec, configurations[0].role) for spec in specs]
    stacks = [predict_stack(tables, [spec], *config_columns(configurations))[:, 0] for spec in specs]

    def measure(i, j):
        a, b = stacks[i], stacks[j]
        matches = (evaluation._top_mask(a) & evaluation._top_mask(b)).any(axis=1)
        ranks = evaluation._rank_correlation(evaluation._centered_ranks(a), evaluation._centered_ranks(b))
        return float(np.mean(matches)), float(np.mean(ranks))

    return _symmetric(range(len(specs)), measure)


def test_agreement_measure_ranks_each_stack_once(monkeypatch):
    # 4 literal models over one 3 x 3 listener group: 4 row-rank passes, not 20
    rng = np.random.default_rng(6)
    tables = {m: random_normalized(rng, 8, 8, metric=m) for m in ("a", "b", "c", "d")}
    models = [f"{m}:literal" for m in tables]
    configurations = [
        Configuration(scenario, "listener", int(rng.integers(3)))
        for scenario in random_scenarios(rng, 12)
    ]
    calls = []

    def counted(values):
        calls.append(values.shape)
        return average_ranks(values)

    monkeypatch.setattr(association, "average_ranks", counted)
    expected = per_pair_rank_matrix(models, tables, configurations)
    assert len(calls) == 20
    calls.clear()
    assert measured_matrix(models, tables, configurations) == expected
    assert calls == [(12, 3)] * 4
