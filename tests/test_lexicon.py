"""Vocabulary and resource-file ingestion."""

import re

import numpy as np
import pytest

from refgame import (
    ZERO_FLOOR,
    CooccurrenceCounts,
    DataError,
    EmbeddingTable,
    Lexicon,
    RelatednessTable,
    TopicTable,
    load_association,
    load_counts,
    load_embeddings,
    load_lexicon,
    load_normalized,
    load_relatedness,
    load_topics,
    write_labeled_matrix,
)

from conftest import (
    make_lexicon,
    write_counts_file,
    write_lexicon_file,
    write_matrix_file,
    write_vector_file,
)


def test_load_lexicon_sections_and_order(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text(
        "# word list\n"
        "[nouns]\n"
        "history\n"
        "performance  # inline comment\n"
        "Wedding\n"
        "\n"
        "[adjectives]\n"
        "dying\n"
        "violent\n"
    )
    lex = load_lexicon(path)
    assert lex.nouns == ("history", "performance", "wedding")
    assert lex.adjectives == ("dying", "violent")
    assert lex.shape == (3, 2)
    assert lex.noun_index["wedding"] == 2
    assert lex.adjective_index["dying"] == 0


def test_load_lexicon_duplicate_across_sections(tmp_path):
    path = tmp_path / "lex.txt"
    write_lexicon_file(path, ["light", "key"], ["light"])
    with pytest.raises(DataError, match="duplicate across sections"):
        load_lexicon(path)


def test_load_lexicon_duplicate_within_section(tmp_path):
    path = tmp_path / "lex.txt"
    write_lexicon_file(path, ["key", "key"], ["bright"])
    with pytest.raises(DataError, match="duplicated"):
        load_lexicon(path)


def test_load_lexicon_empty_section(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("[nouns]\n[adjectives]\nbright\n")
    with pytest.raises(DataError, match="empty"):
        load_lexicon(path)


def test_load_lexicon_unknown_header(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("[verbs]\nrun\n")
    with pytest.raises(DataError, match="unknown section"):
        load_lexicon(path)


def test_load_lexicon_word_before_section(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("stray\n[nouns]\nkey\n[adjectives]\nbright\n")
    with pytest.raises(DataError, match="before any section"):
        load_lexicon(path)


def test_load_lexicon_multiword_line(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("[nouns]\ntwo words\n[adjectives]\nbright\n")
    with pytest.raises(DataError, match="one word"):
        load_lexicon(path)


def test_lexicon_roundtrip(tmp_path):
    lex = make_lexicon(5, 7)
    write_lexicon_file(tmp_path / "lex.txt", lex.nouns, lex.adjectives)
    assert load_lexicon(tmp_path / "lex.txt") == lex


@pytest.mark.parametrize("nouns, adjectives, message", [
    # a '#' word would read back as a comment, an upper-case one lowercased
    (("#a", "b"), ("x", "y"), "invalid word '#a' in 'nouns'"),
    (("Apple", "b"), ("x", "Y"), "invalid word 'Apple' in 'nouns'"),
    (("a", "b"), ("x", "Y"), "invalid word 'Y' in 'adjectives'"),
])
def test_lexicon_words_are_as_a_file_carries_them(nouns, adjectives, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        Lexicon(nouns, adjectives)


def test_matrix_label_starting_with_hash_is_an_invalid_word(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("# metric: bigram\n# stage: raw\n\tx\t#y\na\t1.0\t2.0\nb\t3.0\t4.0\n")
    message = f"{path}: invalid word '#y' in 'adjectives'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_association(path)


# ---------------------------------------------------------------------------
# counts

def test_load_counts_basic(tmp_path):
    lex = Lexicon(("key", "lock"), ("bright", "heavy"))
    path = tmp_path / "counts.tsv"
    write_counts_file(path, ["key", "lock"], ["bright", "heavy"], [[8, 2], [2, 8]])
    counts = load_counts(path, lex)
    assert counts.z.tolist() == [[8, 2], [2, 8]]
    assert counts.z.dtype == np.int64


def test_load_counts_permutation_invariant(tmp_path):
    # rows and columns may come in any order; alignment is by label
    lex = Lexicon(("key", "lock", "door"), ("bright", "heavy"))
    base = tmp_path / "a.tsv"
    shuffled = tmp_path / "b.tsv"
    write_counts_file(base, ["key", "lock", "door"], ["bright", "heavy"], [[1, 2], [3, 4], [5, 6]])
    write_counts_file(shuffled, ["door", "key", "lock"], ["heavy", "bright"], [[6, 5], [2, 1], [4, 3]])
    assert np.array_equal(load_counts(base, lex).z, load_counts(shuffled, lex).z)


def test_load_counts_missing_adjective(tmp_path):
    lex = Lexicon(("key",), ("bright", "empty"))
    path = tmp_path / "counts.tsv"
    write_counts_file(path, ["key"], ["bright"], [[3]])
    with pytest.raises(DataError, match="adjective 'empty' absent"):
        load_counts(path, lex)


def test_load_counts_missing_noun(tmp_path):
    lex = Lexicon(("key", "lock"), ("bright",))
    path = tmp_path / "counts.tsv"
    write_counts_file(path, ["key"], ["bright"], [[3]])
    with pytest.raises(DataError, match="noun 'lock' absent"):
        load_counts(path, lex)


def test_load_counts_extra_words_warn(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "counts.tsv"
    write_counts_file(path, ["key", "spare"], ["bright", "other"], [[3, 9], [1, 1]])
    with pytest.warns(UserWarning, match="ignoring 2"):
        counts = load_counts(path, lex)
    assert counts.z.tolist() == [[3]]


def test_load_counts_rejects_negative_and_noninteger(tmp_path):
    lex = Lexicon(("key",), ("bright", "heavy"))
    path = tmp_path / "counts.tsv"
    path.write_text("\tbright\theavy\nkey\t-1\t2\n")
    with pytest.raises(DataError, match=r"negative count.*'key'.*'bright'"):
        load_counts(path, lex)
    path.write_text("\tbright\theavy\nkey\t1.5\t2\n")
    with pytest.raises(DataError, match=r"non-integer count.*1\.5"):
        load_counts(path, lex)


def test_load_counts_duplicate_label(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "counts.tsv"
    write_counts_file(path, ["key", "key"], ["bright"], [[1], [2]])
    with pytest.raises(DataError, match="duplicate row label"):
        load_counts(path, lex)


def test_load_counts_ragged_row(tmp_path):
    lex = Lexicon(("key",), ("bright", "heavy"))
    path = tmp_path / "counts.tsv"
    path.write_text("\tbright\theavy\nkey\t1\n")
    with pytest.raises(DataError, match="expected 3 fields"):
        load_counts(path, lex)


def test_counts_type_validation():
    lex = make_lexicon(2, 2)
    with pytest.raises(DataError, match="negative"):
        CooccurrenceCounts(lex, np.array([[1, 2], [3, -1]]))
    with pytest.raises(DataError, match="integer"):
        CooccurrenceCounts(lex, np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(DataError, match="shape"):
        CooccurrenceCounts(lex, np.zeros((2, 3), dtype=int))
    # uint64 2**63 used to wrap to a negative int64 count
    big = np.array([[1, 2], [2**63, 4]], dtype=np.uint64)
    overflow = r"^count overflow 9223372036854775808 at \('noun1', 'adj0'\)$"
    with pytest.raises(DataError, match=overflow):
        CooccurrenceCounts(lex, big)
    assert CooccurrenceCounts(lex, big // 2**62).z.tolist() == [[0, 0], [2, 0]]


def test_counts_roundtrip(tmp_path, rng):
    lex = make_lexicon(4, 6)
    z = rng.integers(0, 50, size=(4, 6))
    write_counts_file(tmp_path / "c.tsv", lex.nouns, lex.adjectives, z)
    assert np.array_equal(load_counts(tmp_path / "c.tsv", lex).z, z)


# ---------------------------------------------------------------------------
# embeddings

def test_load_embeddings_basic(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "vec.txt"
    write_vector_file(path, [("key", [1.0, 0.0]), ("bright", [0.5, 0.5])])
    table = load_embeddings(path, lex)
    assert table.vectors["bright"].shape == (2,)
    assert np.array_equal(table.vectors["key"], [1.0, 0.0])


def test_load_embeddings_dimension_mismatch(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "vec.txt"
    path.write_text("key 1.0 0.0\nbright 0.5\n")
    with pytest.raises(DataError, match="expected 2"):
        load_embeddings(path, lex)


def test_load_embeddings_missing_word(tmp_path):
    lex = Lexicon(("key", "lock"), ("bright",))
    path = tmp_path / "vec.txt"
    write_vector_file(path, [("key", [1.0]), ("bright", [0.5])])
    with pytest.raises(DataError, match="word 'lock' absent"):
        load_embeddings(path, lex)


@pytest.mark.parametrize("loader", [load_embeddings, load_topics])
def test_vector_file_names_first_absent_word_in_lexicon_order(tmp_path, loader):
    path = tmp_path / "vec.txt"
    write_vector_file(path, [("spare", [1.0]), ("heavy", [1.0]), ("key", [1.0])])
    with pytest.raises(DataError) as info:
        loader(path, Lexicon(("key", "lock"), ("bright", "heavy")))
    assert str(info.value) == f"{path}: word 'lock' absent"


def test_load_embeddings_zero_vector(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "vec.txt"
    write_vector_file(path, [("key", [0.0, 0.0]), ("bright", [0.5, 0.5])])
    with pytest.raises(DataError, match="zero vector for 'key'"):
        load_embeddings(path, lex)


def test_load_embeddings_extra_word_warn(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "vec.txt"
    write_vector_file(path, [("key", [1.0]), ("bright", [0.5]), ("spare", [0.1])])
    with pytest.warns(UserWarning, match="ignoring 1"):
        table = load_embeddings(path, lex)
    assert "spare" not in table.vectors


def test_embeddings_roundtrip(tmp_path, rng):
    lex = make_lexicon(3, 4)
    vectors = {w: rng.normal(size=5) for w in lex.nouns + lex.adjectives}
    write_vector_file(tmp_path / "vec.txt", vectors.items())
    again = load_embeddings(tmp_path / "vec.txt", lex)
    for word in lex.nouns + lex.adjectives:
        assert np.array_equal(again.vectors[word], vectors[word])


@pytest.mark.parametrize("table, what", [
    (EmbeddingTable, "vector"), (TopicTable, "topic distribution"),
], ids=["embedding", "topic"])
@pytest.mark.parametrize("key_vector, bright_vector, bad_word, shape", [
    ([1.0, 0.0], [1.0, 0.0, 0.0], "bright", (3,)),
    ([1.0, 0.0], [1.0], "bright", (1,)),
    ([], [], "key", (0,)),
    ([[1.0, 0.0]], [[1.0, 0.0]], "key", (1, 2)),
], ids=["longer", "shorter", "empty", "two-dimensional"])
def test_vector_table_rejects_another_length(table, what, key_vector, bright_vector, bad_word, shape):
    lex = Lexicon(("key",), ("bright",))
    with pytest.raises(DataError) as info:
        table(lex, {"key": key_vector, "bright": bright_vector})
    assert str(info.value) == f"{what} for '{bad_word}' has shape {shape}"


# ---------------------------------------------------------------------------
# relatedness

def test_load_relatedness_basic(tmp_path):
    lex = Lexicon(("key",), ("bright", "heavy"))
    path = tmp_path / "rel.tsv"
    write_matrix_file(path, ["key"], ["bright", "heavy"], [[0.4, 0.0]])
    table = load_relatedness(path, lex)
    assert table.scores.tolist() == [[0.4, 0.0]]


def test_load_relatedness_non_numeric_names_cell(tmp_path):
    lex = Lexicon(("key",), ("bright", "heavy"))
    path = tmp_path / "rel.tsv"
    path.write_text("\tbright\theavy\nkey\t0.4\thigh\n")
    with pytest.raises(DataError, match=r"non-numeric score 'high' at \('key', 'heavy'\)"):
        load_relatedness(path, lex)


def test_relatedness_rejects_negative():
    lex = make_lexicon(1, 2)
    with pytest.raises(DataError, match="negative"):
        RelatednessTable(lex, np.array([[0.5, -0.1]]))


def test_relatedness_roundtrip(tmp_path, rng):
    lex = make_lexicon(4, 3)
    scores = rng.random(size=(4, 3))
    write_matrix_file(tmp_path / "rel.tsv", lex.nouns, lex.adjectives, scores)
    assert np.array_equal(load_relatedness(tmp_path / "rel.tsv", lex).scores, scores)


# ---------------------------------------------------------------------------
# topics

def test_load_topics_renormalizes_near_one(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "topics.txt"
    # off by 2e-7: inside the renormalization tolerance
    write_vector_file(path, [("key", [0.5 + 1e-7, 0.5 + 1e-7]), ("bright", [1.0, 0.0])])
    table = load_topics(path, lex)
    assert abs(table.distributions["key"].sum() - 1.0) < 1e-12
    assert table.distributions["key"].shape == (2,)


def test_load_topics_rejects_bad_sum(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "topics.txt"
    write_vector_file(path, [("key", [0.6, 0.3]), ("bright", [1.0, 0.0])])
    with pytest.raises(DataError, match="sums to 0.9"):
        load_topics(path, lex)


def test_load_topics_rejects_negative(tmp_path):
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "topics.txt"
    write_vector_file(path, [("key", [1.2, -0.2]), ("bright", [1.0, 0.0])])
    with pytest.raises(DataError, match="negative topic mass"):
        load_topics(path, lex)


def test_topic_table_rejects_non_finite():
    lex = Lexicon(("key",), ("bright",))
    with pytest.raises(DataError, match="^non-finite topic distribution for 'key'$"):
        TopicTable(lex, {"key": [np.nan, 0.5], "bright": [1.0, 0.0]})


def test_topics_roundtrip(tmp_path, rng):
    lex = make_lexicon(3, 3)
    distributions = {}
    for word in lex.nouns + lex.adjectives:
        v = rng.random(size=4)
        distributions[word] = v / v.sum()
    table = TopicTable(lex, distributions)
    write_vector_file(tmp_path / "topics.txt", table.distributions.items())
    again = load_topics(tmp_path / "topics.txt", lex)
    for word in lex.nouns + lex.adjectives:
        assert np.array_equal(again.distributions[word], table.distributions[word])


def test_topics_roundtrip_idempotent_after_renormalization(tmp_path):
    # a row that needed renormalizing must survive save/load unchanged
    lex = Lexicon(("key",), ("bright",))
    path = tmp_path / "topics.txt"
    write_vector_file(path, [("key", [0.3 + 1e-7, 0.7]), ("bright", [1.0, 0.0])])
    table = load_topics(path, lex)
    write_vector_file(tmp_path / "again.txt", table.distributions.items())
    again = load_topics(tmp_path / "again.txt", lex)
    assert np.array_equal(again.distributions["key"], table.distributions["key"])


# ---------------------------------------------------------------------------
# loader faults: the type finds the fault, the loader names the file

def matrix_text(stage, cells, metric="bigram", mask=""):
    header = f"# metric: {metric}\n# stage: {stage}\n# zero-mask: {mask}\n"
    return header + f"\tbright\theavy\nkey\t{cells}\n"


@pytest.mark.parametrize("loader, text, message", [
    (load_relatedness, "\tbright\theavy\nkey\t0.4\t-0.2\n",
     "negative relatedness score -0.2 at ('key', 'heavy')"),
    (load_relatedness, "\tbright\theavy\nkey\tnan\t0.4\n",
     "non-finite relatedness score nan at ('key', 'bright')"),
    (load_normalized, matrix_text("normalized", "0.5\t1.5"),
     "normalized scores must lie in (0, 1], got 1.5 at ('key', 'heavy')"),
    (load_normalized, matrix_text("normalized", "nan\t0.5"),
     "non-finite normalized score nan at ('key', 'bright')"),
    (load_normalized, matrix_text("normalized", "0.5\t0.5", mask="0,1"),
     "masked cells must equal 1e-07, got 0.5 at ('key', 'heavy')"),
    (load_association, matrix_text("raw", "inf\t0.5"),
     "non-finite association score inf at ('key', 'bright')"),
    (load_association, matrix_text("raw", "0.5\t0.5", metric=""), "empty metric id"),
    (load_embeddings, "key 0.0 0.0\nbright 0.5 0.5\nheavy 1.0 0.0\n", "zero vector for 'key'"),
    (load_topics, "key 1.2 -0.2\nbright 1.0 0.0\nheavy 0.0 1.0\n", "negative topic mass for 'key'"),
    (load_topics, "key 0.6 0.3\nbright 1.0 0.0\nheavy 0.0 1.0\n",
     "distribution for 'key' sums to 0.9"),
    (load_counts, "\tbright\theavy\nkey\t3\t-1\n", "negative count -1 at ('key', 'heavy')"),
], ids=[
    "relatedness-negative", "relatedness-nan", "normalized-above-one", "normalized-nan",
    "normalized-mask-off-floor", "raw-inf", "raw-empty-metric", "embedding-zero",
    "topic-negative", "topic-sum", "count-negative",
])
def test_loader_fault_names_file_and_cell(tmp_path, loader, text, message):
    path = tmp_path / "table.txt"
    path.write_text(text)
    lexicon = Lexicon(("key",), ("bright", "heavy"))
    args = (path,) if loader in (load_association, load_normalized) else (path, lexicon)
    with pytest.raises(DataError) as info:
        loader(*args)
    assert str(info.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# table immutability

def test_tables_are_read_only(rng):
    lex = make_lexicon(2, 2)
    counts = CooccurrenceCounts(lex, np.ones((2, 2), dtype=int))
    with pytest.raises(ValueError):
        counts.z[0, 0] = 5
    table = RelatednessTable(lex, np.ones((2, 2)))
    with pytest.raises(ValueError):
        table.scores[0, 0] = 5.0


# ---------------------------------------------------------------------------
# first-fault rules: the cell named is the first bad one in lexicon order

# lexicon order is (key, bright), (key, heavy), (lock, bright), (lock, heavy);
# these files list lock before key and heavy before bright, so each one's
# first bad cell in file order is (lock, heavy), the last in lexicon order
SHUFFLED = "\theavy\tbright\nlock\t{lock_heavy}\t1\nkey\t1\t{key_bright}\n"


@pytest.mark.parametrize("loader, key_bright, lock_heavy, message", [
    (load_counts, "two", "1.5", "non-integer count 'two' at ('key', 'bright')"),
    (load_counts, str(-2**63), "1.5", "count overflow -9223372036854775808 at ('key', 'bright')"),
    (load_counts, "1.5", str(2**64), "non-integer count '1.5' at ('key', 'bright')"),
    (load_relatedness, "high", "low", "non-numeric score 'high' at ('key', 'bright')"),
], ids=["counts", "counts-overflow-first", "counts-non-integer-first", "relatedness"])
def test_first_bad_cell_in_lexicon_order_is_named(tmp_path, loader, key_bright, lock_heavy, message):
    path = tmp_path / "table.tsv"
    path.write_text(SHUFFLED.format(key_bright=key_bright, lock_heavy=lock_heavy))
    with pytest.raises(DataError) as info:
        loader(path, Lexicon(("key", "lock"), ("bright", "heavy")))
    assert str(info.value) == f"{path}: {message}"


def test_normalized_matrix_names_first_bad_cell_row_by_row(tmp_path):
    # (key, heavy) comes before (lock, bright) row by row, after it column by column
    path = tmp_path / "norm.tsv"
    path.write_text(
        "# metric: bigram\n# stage: normalized\n# zero-mask: \n"
        "\tbright\theavy\nkey\t0.5\thigh\nlock\tlow\t0.5\n"
    )
    with pytest.raises(DataError) as info:
        load_normalized(path)
    assert str(info.value) == f"{path}: non-numeric cell 'high' at ('key', 'heavy')"


@pytest.mark.parametrize("rows, columns, message", [
    (["lock", "key", "lock", "key"], ["bright", "heavy", "bright"], "duplicate row label 'key'"),
    (["key", "lock"], ["heavy", "bright", "heavy", "bright"], "duplicate column label 'bright'"),
    (["key", "key"], ["heavy"], "duplicate row label 'key'"),
    (["key"], ["bright", "heavy", "heavy"], "duplicate column label 'heavy'"),
], ids=["rows-before-columns", "columns", "before-absent-adjective", "before-absent-noun"])
def test_duplicate_label_named_alphabetically_first(tmp_path, rows, columns, message):
    path = tmp_path / "counts.tsv"
    write_counts_file(path, rows, columns, [[1] * len(columns)] * len(rows))
    with pytest.raises(DataError) as info:
        load_counts(path, Lexicon(("key", "lock"), ("bright", "heavy")))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("count, message", [
    (2**63, "count overflow 9223372036854775808"),
    (-10**20, "count overflow -100000000000000000000"),
    (-2**63, "count overflow -9223372036854775808"),
    (1 - 2**63, "negative count -9223372036854775807"),
])
def test_count_overflow_names_the_cell(tmp_path, count, message):
    path = tmp_path / "counts.tsv"
    path.write_text(f"\tbright\theavy\nkey\t{2**63 - 1}\t{count}\n")
    with pytest.raises(DataError) as info:
        load_counts(path, Lexicon(("key",), ("bright", "heavy")))
    assert str(info.value) == f"{path}: {message} at ('key', 'heavy')"


@pytest.mark.parametrize("loader, text", [
    (load_counts, "\tbright\tspare\nkey\t1\t2\n"),
    (load_relatedness, "\tbright\nkey\t0.5\nspare\t0.5\n"),
    (load_embeddings, "key 1.0\nbright 0.5\nspare 0.1\n"),
    (load_topics, "key 1.0\nbright 1.0\nspare 1.0\n"),
], ids=["counts", "relatedness", "embeddings", "topics"])
def test_extra_word_warning_points_at_the_loader_call(tmp_path, loader, text):
    path = tmp_path / "table.txt"
    path.write_text(text)
    with pytest.warns(UserWarning, match="ignoring 1 word") as record:
        loader(path, Lexicon(("key",), ("bright",)))
    assert [w.filename for w in record] == [__file__]


def test_written_cells_are_repr_of_float(tmp_path):
    lex = Lexicon(("key", "lock"), ("bright", "heavy", "soft"))
    floats = np.array([[-0.0, 5e-324, ZERO_FLOOR], [1 / 3, 1.7976931348623157e308, 2.5]])
    ints = np.array([[0, -3, 2**62], [7, 2**53 + 1, 1]])
    for matrix in (floats, ints):
        path = tmp_path / "matrix.tsv"
        write_labeled_matrix(path, lex, matrix, comments=["# metric: m"])
        expected = ["# metric: m", "\tbright\theavy\tsoft"] + [
            noun + "\t" + "\t".join(repr(float(v)) for v in row)
            for noun, row in zip(lex.nouns, matrix)
        ]
        assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("load", [load_lexicon, load_counts, load_embeddings], ids=lambda f: f.__name__)
def test_a_file_that_is_not_utf8_names_its_line(tmp_path, load):
    # "café" in Latin-1 on line 3: the path and line, not a UnicodeDecodeError
    path = tmp_path / "latin1.txt"
    path.write_bytes("[nouns]\nheart\ncafé\n".encode("latin-1"))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: not UTF-8$"):
        load(path) if load is load_lexicon else load(path, make_lexicon(2, 2))
