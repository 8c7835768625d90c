"""Error branches and skipped lines that no other test runs.

One case each, through the public call or in-process through cli.main,
asserting the exact text: every failure is a DataError (or a CLI exit
code with an "error:" line) that names its cause.
"""

import json
import re

import numpy as np
import pytest

from refgame import (
    DataError,
    DesignCandidate,
    EmbeddingTable,
    Lexicon,
    ModelSet,
    ModelSpec,
    NormalizedAssociation,
    PredictionDistribution,
    Scenario,
    SearchSettings,
    listener_probs,
    load_association,
    load_embeddings,
    load_normalized,
    load_relatedness,
    load_responses,
    model_agreement,
    monte_carlo_search,
    parse_model_spec,
    response_from_record,
    save_normalized,
    scenario_joint_utility,
    score_responses,
    spearman,
)
from refgame import cli
from refgame.evaluation import agreement_measure, read_jsonl
from refgame.rsa import configuration_from_record

from conftest import make_lexicon, random_normalized

SCENARIO = {"nouns": ["noun0", "noun1", "noun2"], "adjectives": ["adj0", "adj1"]}
LISTENER = {"scenario": SCENARIO, "role": "listener", "clue": "adj1"}


def raises(message):
    return pytest.raises(DataError, match=f"^{re.escape(message)}$")


@pytest.fixture
def lexicon():
    return make_lexicon(4, 3)


@pytest.fixture
def norm(lexicon):
    return random_normalized(np.random.default_rng(5), 4, 3)


def models(role, *specs):
    return ModelSet(tuple(parse_model_spec(spec, role) for spec in specs))


# ---------------------------------------------------------------------------
# association, rsa and oed values

def test_normalized_matrix_needs_a_metric(norm):
    with raises("empty metric id"):
        NormalizedAssociation("", norm.lexicon, norm.values, norm.zero_mask)


def test_model_spec_needs_a_metric_and_a_known_role():
    with raises("empty metric id"):
        ModelSpec("", "speaker", "literal")
    with raises("unknown role 'judge'"):
        ModelSpec("bigram", "judge", "literal")


def test_prediction_distribution_is_not_empty():
    with raises("empty distribution"):
        PredictionDistribution((), [])


@pytest.mark.parametrize("scores", [[[]], [1.0, 2.0], [[[1.0]]]])
def test_score_matrix_is_nonempty_and_2d(scores):
    with raises("score matrix must be nonempty and 2-d"):
        listener_probs(scores, 0)


def test_configuration_record_is_complete(lexicon):
    with raises("malformed configuration record {'role': 'speaker'}"):
        configuration_from_record({"role": "speaker"}, lexicon)
    with raises("speaker configuration record lacks target_pair"):
        configuration_from_record({"scenario": SCENARIO, "role": "speaker"}, lexicon)


def test_search_settings_need_an_adjective():
    with raises("need at least one adjective per scenario"):
        SearchSettings(3, 0, "joint")


def test_joint_design_has_no_single_configuration():
    candidate = DesignCandidate(Scenario((0, 1), (0,)), None, None, 0.5)
    assert candidate.configuration is None


def test_joint_utility_needs_listener_models(norm):
    speakers = models("speaker", "bigram:literal")
    with raises("listener_models must hold listener models"):
        scenario_joint_utility(norm, Scenario((0, 1), (0,)), speakers, speakers)


def test_search_checks_the_lexicon_and_the_model_sets(norm):
    speakers = models("speaker", "bigram:literal", "bigram:pragmatic:1")
    listeners = models("listener", "bigram:literal", "bigram:pragmatic:1")
    with raises("scenario wants 4 adjectives, lexicon has 3"):
        monte_carlo_search(norm, (speakers, listeners), SearchSettings(2, 4, "joint", iterations=5))
    joint = SearchSettings(2, 2, "joint", iterations=5)
    with raises("joint mode needs a speaker set and a listener set, in that order"):
        monte_carlo_search(norm, (listeners, speakers), joint)
    with raises("separate mode needs a single model set"):
        monte_carlo_search(norm, (speakers, listeners), SearchSettings(2, 2, "separate-speaker", iterations=5))


# ---------------------------------------------------------------------------
# evaluation

def test_spearman_needs_two_equal_length_vectors():
    for x, y in (([1, 2], [1, 2, 3]), ([[1, 2]], [[1, 2]])):
        with raises("rank correlation needs two equal-length vectors"):
            spearman(x, y)


def test_scoring_and_agreement_need_items(norm):
    with raises("no response records"):
        score_responses(norm, "bigram:literal", [])
    with raises("no configurations given"):
        agreement_measure(["bigram:literal"], norm, [])
    with raises("no configurations given"):
        model_agreement("bigram:literal", "bigram:literal", norm, [])


@pytest.mark.parametrize("record, message", [
    ({"answers": []}, "malformed response record {'answers': []}"),
    ({"configuration": LISTENER, "answers": 3},
     f"malformed response record {({'configuration': LISTENER, 'answers': 3})!r}"),
    ({"configuration": LISTENER, "answers": [5]}, "malformed answer entry 5"),
    ({"configuration": LISTENER, "answers": [[["noun0", "noun1"], 1], [["noun1", "noun0"], 2]]},
     "duplicate answer entry ['noun1', 'noun0']"),
])
def test_malformed_response_records(lexicon, record, message):
    with raises(message):
        response_from_record(record, lexicon)


def test_response_file_lines(tmp_path, lexicon):
    path = tmp_path / "responses.jsonl"
    good = '{"configuration": {"scenario": {"nouns": ["noun0", "noun1"], "adjectives": ["adj0"]}, ' \
        '"role": "listener", "clue": "adj0"}, "answers": [[["noun0", "noun1"], 2]]}'
    path.write_text(f"\n{good}\n  \n{good}\n")
    assert len(load_responses(path, lexicon)) == 2
    path.write_text(f"{good}\n{{not json\n")
    with raises(f"{path}:2: malformed JSON"):
        load_responses(path, lexicon)
    path.write_text("\n  \n")
    with raises(f"{path}: no response records"):
        load_responses(path, lexicon)
    with raises(f"{path}: empty record file"):
        read_jsonl(path, dict, "empty record file")


# ---------------------------------------------------------------------------
# lexicon and resource files

def test_lexicon_words_hold_no_space():
    with raises("invalid word 'a b' in 'nouns'"):
        Lexicon(("a b",), ("c",))


def test_matrix_file_header(tmp_path, lexicon):
    path = tmp_path / "related.tsv"
    path.write_text("\n\tadj0\tadj1\tadj2\n\nnoun0\t1\t2\t3\nnoun1\t1\t2\t3\nnoun2\t1\t2\t3\nnoun3\t1\t2\t3\n")
    assert load_relatedness(path, lexicon).scores.shape == (4, 3)
    for text, message in (
        ("x\tadj0\n", f"{path}:1: header must start with an empty cell"),
        ("# note\n\tadj0\t\n", f"{path}:2: empty column label"),
        ("# only a comment\n", f"{path}: no header row"),
    ):
        path.write_text(text)
        with raises(message):
            load_relatedness(path, lexicon)


def test_zero_mask_entry_in_range(tmp_path, norm):
    path = tmp_path / "norm.tsv"
    save_normalized(norm, path)
    text = path.read_text()
    path.write_text(re.sub(r"# zero-mask:.*", "# zero-mask: 4,0", text))
    with raises(f"{path}: zero-mask entry '4,0' out of range"):
        load_normalized(path)
    path.write_text(re.sub(r"# zero-mask:.*", "# zero-mask: 0,3", text).replace("stage: normalized", "stage: raw"))
    with raises(f"{path}: zero-mask entry '0,3' out of range"):
        load_association(path)


VECTORS = "noun0 1 0\nnoun1 0 1\nnoun2 1 1\nnoun3 2 1\nadj0 1 2\nadj1 3 1\nadj2 1 3\n"


@pytest.mark.parametrize("text, message", [
    ("noun0\n", "1: expected a word and at least one value"),
    ("noun0 1 x\n", "1: non-numeric value for 'noun0'"),
    ("\nnoun0 1 nan\n", "2: non-finite value for 'noun0'"),
    (VECTORS + "noun1 5 5\n", "8: duplicate entry for 'noun1'"),
])
def test_vector_file_lines(tmp_path, lexicon, text, message):
    path = tmp_path / "vectors.txt"
    path.write_text(text)
    with raises(f"{path}:{message}"):
        load_embeddings(path, lexicon)


def test_vector_file_blank_lines(tmp_path, lexicon):
    path = tmp_path / "vectors.txt"
    path.write_text("\n" + VECTORS.replace("\n", "\n\n"))
    assert load_embeddings(path, lexicon).vectors["adj2"].tolist() == [1.0, 3.0]
    path.write_text("\n \n")
    with raises(f"{path}: no entries"):
        load_embeddings(path, lexicon)


def test_embedding_table_needs_every_word(lexicon):
    with raises("word 'noun0' has no vector"):
        EmbeddingTable(lexicon, {})


# ---------------------------------------------------------------------------
# the command line

def test_cli_metric_supplied_twice(tmp_path, norm, capsys):
    path = tmp_path / "norm.tsv"
    save_normalized(norm, path)
    argv = ["simulate", "--matrix", str(path), "--matrix", str(path), "--scenarios", str(path),
            "--speaker", "bigram:literal", "--listener", "bigram:literal"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: metric 'bigram' supplied twice\n"


def test_cli_config_is_json(tmp_path, norm, capsys):
    matrix, config = tmp_path / "norm.tsv", tmp_path / "config.json"
    save_normalized(norm, matrix)
    config.write_text("{not json")
    argv = ["predict", "--matrix", str(matrix), "--config", str(config), "--model", "bigram:literal"]
    assert cli.main(argv) == 1
    detail = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert capsys.readouterr().err == f"error: {config}: malformed JSON ({detail})\n"


@pytest.mark.parametrize("record, message", [
    ({**LISTENER, "role": "judge"}, "unknown role 'judge'"),
    ({"scenario": SCENARIO, "role": "listener"}, "listener configuration record lacks clue"),
    ({**LISTENER, "scenario": {**SCENARIO, "nouns": ["x", "noun1"]}}, "noun 'x' absent"),
])
def test_cli_config_record_errors_name_the_file(tmp_path, norm, capsys, record, message):
    matrix, config = tmp_path / "norm.tsv", tmp_path / "config.json"
    save_normalized(norm, matrix)
    config.write_text(json.dumps(record))
    argv = ["predict", "--matrix", str(matrix), "--config", str(config), "--model", "bigram:literal"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("[nouns]\nkey\n[adjectives]\n", "lexicon section 'adjectives' is empty"),
    ("[nouns]\nletter\nletter\n[adjectives]\nbright\n", "word 'letter' duplicated in 'nouns'"),
])
def test_cli_lexicon_errors_name_the_file(tmp_path, capsys, text, message):
    lexicon, counts = tmp_path / "lexicon.txt", tmp_path / "counts.tsv"
    lexicon.write_text(text)
    counts.write_text("\tbright\nkey\t1\n")
    argv = ["ingest", "counts", str(counts), "--lexicon", str(lexicon), "--output", str(tmp_path / "raw.tsv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {lexicon}: {message}\n"


def test_cli_input_that_is_a_directory(tmp_path, capsys):
    argv = ["normalize", str(tmp_path), "--output", str(tmp_path / "out.tsv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
