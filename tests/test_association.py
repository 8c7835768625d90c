"""Association metrics and quantile normalization."""

import re

import numpy as np
import pytest

from refgame import (
    AssociationMatrix,
    Configuration,
    CooccurrenceCounts,
    DataError,
    EmbeddingTable,
    Lexicon,
    ModelSpec,
    NormalizedAssociation,
    RelatednessTable,
    Scenario,
    TopicTable,
    ZERO_FLOOR,
    bigram_association,
    cosine_association,
    load_association,
    load_normalized,
    predict,
    quantile_normalize,
    relatedness_association,
    save_association,
    save_normalized,
    sparsity_report,
    spearman,
    topic_association,
)

from refgame.association import Tables
from conftest import make_lexicon, random_normalized


def counts_of(array, lexicon=None):
    array = np.asarray(array)
    if lexicon is None:
        lexicon = make_lexicon(*array.shape)
    return CooccurrenceCounts(lexicon, array)


# ---------------------------------------------------------------------------
# bigram

def test_bigram_uniform_counts_all_ones():
    assoc = bigram_association(counts_of(np.full((3, 4), 7)))
    assert np.array_equal(assoc.raw, np.ones((3, 4)))
    assert not assoc.zero_mask.any()


def test_bigram_hand_values():
    # z = [[8,2],[2,8]]: P(a0|n0) = 0.8, P(a0) = 0.5, lift = 1.6
    assoc = bigram_association(counts_of([[8, 2], [2, 8]]))
    expected = np.array([[1.6, 0.4], [0.4, 1.6]])
    assert np.allclose(assoc.raw, expected, atol=1e-15)


def test_bigram_rank_one_counts_all_ones(rng):
    # counts = outer(u, v) makes P(a|n) independent of n, so lift is 1
    for _ in range(20):
        u = rng.integers(1, 9, size=5)
        v = rng.integers(1, 9, size=6)
        assoc = bigram_association(counts_of(np.outer(u, v)))
        assert np.allclose(assoc.raw, 1.0, atol=1e-12)


def test_bigram_zero_row_rejected():
    with pytest.raises(DataError, match="noun 'noun1' has no observations"):
        bigram_association(counts_of([[1, 2], [0, 0]]))


def test_bigram_zero_column_masked_and_scored_zero():
    assoc = bigram_association(counts_of([[3, 0], [5, 0]]))
    assert assoc.raw[0, 1] == 0.0 and assoc.raw[1, 1] == 0.0
    assert assoc.zero_mask[:, 1].all()
    assert not assoc.zero_mask[:, 0].any()
    assert np.isfinite(assoc.raw).all()


def test_bigram_mask_is_zero_cells():
    z = np.array([[4, 0, 1], [2, 3, 0]])
    assoc = bigram_association(counts_of(z))
    assert np.array_equal(assoc.zero_mask, z == 0)


# ---------------------------------------------------------------------------
# cosine

def test_cosine_identical_and_orthogonal():
    lex = make_lexicon(2, 2)
    vectors = {
        "noun0": np.array([1.0, 0.0]),
        "noun1": np.array([1.0, 1.0]),
        "adj0": np.array([2.0, 0.0]),
        "adj1": np.array([0.0, 3.0]),
    }
    assoc = cosine_association(EmbeddingTable(lex, vectors))
    assert assoc.raw[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert assoc.raw[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert assoc.raw[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert not assoc.zero_mask.any()


def test_cosine_range_and_scale_invariance(rng):
    lex = make_lexicon(4, 5)
    vectors = {w: rng.normal(size=7) for w in lex.nouns + lex.adjectives}
    assoc = cosine_association(EmbeddingTable(lex, vectors))
    assert (assoc.raw <= 1 + 1e-12).all() and (assoc.raw >= -1 - 1e-12).all()
    scaled = {w: 3.7 * v for w, v in vectors.items()}
    assoc2 = cosine_association(EmbeddingTable(lex, scaled))
    assert np.allclose(assoc.raw, assoc2.raw, atol=1e-12)


# ---------------------------------------------------------------------------
# relatedness

def test_relatedness_passthrough_and_mask():
    lex = make_lexicon(2, 2)
    scores = np.array([[0.5, 0.0], [0.1, 0.9]])
    assoc = relatedness_association(RelatednessTable(lex, scores))
    assert np.array_equal(assoc.raw, scores)
    assert np.array_equal(assoc.zero_mask, scores == 0)


# ---------------------------------------------------------------------------
# topics

def test_topic_identical_strongest():
    lex = make_lexicon(2, 1)
    d = {
        "noun0": np.array([0.5, 0.5]),
        "noun1": np.array([1.0, 0.0]),
        "adj0": np.array([0.5, 0.5]),
    }
    assoc = topic_association(TopicTable(lex, d))
    assert assoc.raw[0, 0] == 0.0
    # distance sqrt(0.5) for noun1, negated
    assert assoc.raw[1, 0] == pytest.approx(-np.sqrt(0.5), abs=1e-12)
    assert assoc.raw[0, 0] > assoc.raw[1, 0]
    assert not assoc.zero_mask.any()


def test_topic_orthogonal_distance():
    lex = make_lexicon(1, 1)
    d = {"noun0": np.array([1.0, 0.0]), "adj0": np.array([0.0, 1.0])}
    assoc = topic_association(TopicTable(lex, d))
    assert assoc.raw[0, 0] == pytest.approx(-np.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# quantile normalization

def test_quantile_single_cell():
    lex = make_lexicon(1, 1)
    norm = quantile_normalize(AssociationMatrix("m", lex, [[3.2]], [[False]]))
    assert norm.values[0, 0] == 1.0


def test_quantile_hand_example():
    # raw [[5,1],[3,2]]: ranks 4,1,3,2 over M=4 cells
    lex = make_lexicon(2, 2)
    norm = quantile_normalize(AssociationMatrix("m", lex, [[5.0, 1.0], [3.0, 2.0]], np.zeros((2, 2), bool)))
    assert np.array_equal(norm.values, [[1.0, 0.25], [0.75, 0.5]])


def test_quantile_ties_average():
    # raw [[1,1],[2,3]]: tied pair gets rank 1.5
    lex = make_lexicon(2, 2)
    norm = quantile_normalize(AssociationMatrix("m", lex, [[1.0, 1.0], [2.0, 3.0]], np.zeros((2, 2), bool)))
    assert np.array_equal(norm.values, [[0.375, 0.375], [0.75, 1.0]])


def test_quantile_distinct_values_hit_uniform_grid(rng):
    for _ in range(20):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        raw = rng.permutation(rng.normal(size=shape[0] * shape[1])).reshape(shape)
        lex = make_lexicon(*shape)
        norm = quantile_normalize(AssociationMatrix("m", lex, raw, np.zeros(shape, bool)))
        m = shape[0] * shape[1]
        assert set(norm.values.ravel()) == {(i + 1) / m for i in range(m)}


def test_quantile_rank_preserving(rng):
    for _ in range(30):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        raw = rng.integers(0, 5, size=shape).astype(float)  # plenty of ties
        lex = make_lexicon(*shape)
        norm = quantile_normalize(AssociationMatrix("m", lex, raw, np.zeros(shape, bool)))
        flat_raw = raw.ravel()
        flat_norm = norm.values.ravel()
        for i in range(flat_raw.size):
            for j in range(flat_raw.size):
                if flat_raw[i] < flat_raw[j]:
                    assert flat_norm[i] < flat_norm[j]
                elif flat_raw[i] == flat_raw[j]:
                    assert flat_norm[i] == flat_norm[j]


def test_quantile_invariant_under_increasing_transforms(rng):
    raw = rng.normal(size=(5, 6))
    lex = make_lexicon(5, 6)
    mask = np.zeros((5, 6), bool)
    base = quantile_normalize(AssociationMatrix("m", lex, raw, mask))
    for transform in (lambda x: 3 * x + 10, lambda x: x**3, np.arctan):
        other = quantile_normalize(AssociationMatrix("m", lex, transform(raw), mask))
        assert np.array_equal(base.values, other.values)


def test_quantile_masked_cells_floored(rng):
    raw = rng.normal(size=(4, 4))
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = mask[2, 3] = True
    lex = make_lexicon(4, 4)
    norm = quantile_normalize(AssociationMatrix("m", lex, raw, mask))
    assert norm.values[0, 0] == ZERO_FLOOR
    assert norm.values[2, 3] == ZERO_FLOOR
    assert (norm.values[~mask] > 0).all() and (norm.values[~mask] <= 1).all()


def test_normalized_validation():
    lex = make_lexicon(1, 2)
    with pytest.raises(DataError, match=r"\(0, 1\]"):
        NormalizedAssociation("m", lex, [[0.0, 0.5]], [[False, False]])
    with pytest.raises(DataError, match=r"\(0, 1\]"):
        NormalizedAssociation("m", lex, [[1.5, 0.5]], [[False, False]])
    with pytest.raises(DataError, match="masked cells"):
        NormalizedAssociation("m", lex, [[0.5, 0.5]], [[True, False]])
    # masked cell at exactly the floor is fine
    NormalizedAssociation("m", lex, [[ZERO_FLOOR, 0.5]], [[True, False]])


# ---------------------------------------------------------------------------
# sparsity report

def test_sparsity_no_mask(rng):
    norm = random_normalized(rng, 4, 4)
    configs = [Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)]
    assert sparsity_report(norm, configs) == 0.0


def test_sparsity_all_masked():
    lex = make_lexicon(2, 2)
    norm = NormalizedAssociation("m", lex, np.full((2, 2), ZERO_FLOOR), np.ones((2, 2), bool))
    configs = [Configuration(Scenario((0, 1), (0, 1)), "speaker", (0, 1))]
    assert sparsity_report(norm, configs) == 1.0


def test_sparsity_counting_oracle(rng):
    # listener configs, one per adjective column, reference every cell once
    n, m = 4, 5
    lex = make_lexicon(n, m)
    mask = rng.random(size=(n, m)) < 0.3
    values = np.full((n, m), 0.5)
    values[mask] = ZERO_FLOOR
    norm = NormalizedAssociation("m", lex, values, mask)
    scenario = Scenario(tuple(range(n)), tuple(range(m)))
    configs = [Configuration(scenario, "listener", a) for a in range(m)]
    assert sparsity_report(norm, configs) == pytest.approx(mask.mean(), abs=1e-15)


def test_sparsity_speaker_cells():
    # speaker config references 2 * m cells: the two targets under each adjective
    lex = make_lexicon(3, 2)
    mask = np.array([[True, False], [False, False], [False, True]])
    values = np.where(mask, ZERO_FLOOR, 0.5)
    norm = NormalizedAssociation("m", lex, values, mask)
    scenario = Scenario((0, 1, 2), (0, 1))
    config = Configuration(scenario, "speaker", (0, 1))
    # cells: (0,a0) masked, (1,a0) clear, (0,a1) clear, (1,a1) clear -> 1/4
    assert sparsity_report(norm, [config]) == 0.25


def test_sparsity_multiplicity():
    # the same configuration twice doubles both numerator and denominator
    lex = make_lexicon(2, 1)
    mask = np.array([[True], [False]])
    values = np.where(mask, ZERO_FLOOR, 0.5)
    norm = NormalizedAssociation("m", lex, values, mask)
    config = Configuration(Scenario((0, 1), (0,)), "listener", 0)
    assert sparsity_report(norm, [config]) == sparsity_report(norm, [config, config]) == 0.5


def test_sparsity_empty_error(rng):
    norm = random_normalized(rng, 2, 2)
    with pytest.raises(DataError, match="no configurations"):
        sparsity_report(norm, [])


def test_non_matrices_are_data_errors():
    config = Configuration(Scenario((0, 1), (0,)), "listener", 0)
    with pytest.raises(DataError, match="^expected an association matrix, got NoneType$"):
        quantile_normalize(None)
    with pytest.raises(DataError, match="^expected a normalized matrix, got NoneType$"):
        sparsity_report(None, [config])


def test_sparsity_index_out_of_range_error(rng):
    # predict's error for a scenario past the matrix, raised before any
    # cell is counted, for indices the configuration does not reference too
    norm = random_normalized(rng, 4, 3)
    cases = (
        (Configuration(Scenario((0, 9), (0,)), "listener", 0), "noun"),
        (Configuration(Scenario((0, 1, 9), (0,)), "speaker", (0, 1)), "noun"),
        (Configuration(Scenario((0, 1), (0, 3)), "listener", 0), "adjective"),
        (Configuration(Scenario((0, 9), (0, 3)), "speaker", (0, 1)), "noun"),
    )
    for config, kind in cases:
        message = f"^scenario {kind} index out of range for this matrix$"
        with pytest.raises(DataError, match=message):
            sparsity_report(norm, [Configuration(Scenario((0, 1), (0,)), "listener", 0), config])
        with pytest.raises(DataError, match=message):
            predict(norm, config, ModelSpec("bigram", config.role, "literal"))


# ---------------------------------------------------------------------------
# serialization

def test_association_roundtrip(tmp_path, rng):
    lex = make_lexicon(3, 4)
    raw = rng.normal(size=(3, 4))
    mask = rng.random(size=(3, 4)) < 0.25
    assoc = AssociationMatrix("bigram", lex, raw, mask)
    save_association(assoc, tmp_path / "raw.tsv")
    again = load_association(tmp_path / "raw.tsv")
    assert again.metric == "bigram"
    assert again.lexicon == lex
    assert np.array_equal(again.raw, assoc.raw)
    assert np.array_equal(again.zero_mask, assoc.zero_mask)


def test_normalized_roundtrip(tmp_path, rng):
    norm = random_normalized(rng, 4, 3, metric="topic-distance", mask_frac=0.2)
    save_normalized(norm, tmp_path / "norm.tsv")
    again = load_normalized(tmp_path / "norm.tsv")
    assert again.metric == norm.metric
    assert np.array_equal(again.values, norm.values)
    assert np.array_equal(again.zero_mask, norm.zero_mask)


def test_stage_mismatch_rejected(tmp_path, rng):
    norm = random_normalized(rng, 2, 2)
    save_normalized(norm, tmp_path / "norm.tsv")
    with pytest.raises(DataError, match="stage"):
        load_association(tmp_path / "norm.tsv")


def test_load_normalized_rejects_out_of_range(tmp_path):
    (tmp_path / "bad.tsv").write_text(
        "# metric: bigram\n# stage: normalized\n# zero-mask: \n\tadj0\nnoun0\t1.5\n"
    )
    with pytest.raises(DataError, match=r"\(0, 1\]"):
        load_normalized(tmp_path / "bad.tsv")


def test_missing_metric_line_rejected(tmp_path):
    (tmp_path / "bad.tsv").write_text("\tadj0\nnoun0\t0.5\n")
    with pytest.raises(DataError, match="metric"):
        load_normalized(tmp_path / "bad.tsv")


def test_malformed_mask_rejected(tmp_path):
    (tmp_path / "bad.tsv").write_text(
        "# metric: m\n# stage: normalized\n# zero-mask: 0;1\n\tadj0\nnoun0\t0.5\n"
    )
    with pytest.raises(DataError, match="zero-mask"):
        load_normalized(tmp_path / "bad.tsv")


def test_non_numeric_cell_names_noun_and_adjective(tmp_path):
    (tmp_path / "bad.tsv").write_text(
        "# metric: m\n# stage: normalized\n# zero-mask: \n\tadj0\tadj1\nnoun0\t0.5\tx\n"
    )
    with pytest.raises(DataError, match=r"non-numeric cell 'x' at \('noun0', 'adj1'\)"):
        load_normalized(tmp_path / "bad.tsv")


def test_a_missing_metric_names_the_metrics_supplied(rng):
    tables = Tables.of(random_normalized(rng, 3, 2, "bigrma"))
    with pytest.raises(DataError, match="^no matrix supplied for metric 'bigram'; the matrices hold 'bigrma'$"):
        tables["bigram"]


RAGGED = "setting an array element with a sequence"
LEXICON_2X2 = make_lexicon(2, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: AssociationMatrix("b", LEXICON_2X2, "abc"),
     "association score: could not convert string to float: 'abc'"),
    (lambda: AssociationMatrix("b", LEXICON_2X2, [[1, 2], [3]]), f"association score: {RAGGED}"),
    (lambda: AssociationMatrix("b", LEXICON_2X2, np.ones((2, 2)), [[True], [True, False]]), f"zero-mask: {RAGGED}"),
    (lambda: NormalizedAssociation("b", LEXICON_2X2, "x", np.zeros((2, 2), bool)),
     "normalized score: could not convert string to float: 'x'"),
    (lambda: RelatednessTable(LEXICON_2X2, "x"), "relatedness score: could not convert string to float: 'x'"),
    (lambda: CooccurrenceCounts(LEXICON_2X2, [[1, 2], [3]]), f"count table: {RAGGED}"),
    (lambda: spearman("ab", "cd"), "rank correlation: the first vector: could not convert string to float: 'ab'"),
    (lambda: spearman([1, 2], [1, [2, 3]]), f"rank correlation: the second vector: {RAGGED}"),
], ids=["string-raw", "ragged-raw", "ragged-mask", "string-normalized", "string-relatedness",
        "ragged-counts", "string-spearman", "ragged-spearman"])
def test_wrong_typed_arrays_raise_data_errors(build, message):
    # numpy's own text, after what the values are
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        build()
