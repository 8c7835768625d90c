"""End-to-end command tests: exit codes, outputs, manifests, determinism."""

import hashlib
import json

import numpy as np
import pytest

import refgame
from refgame import (
    AssociationMatrix,
    Configuration,
    CooccurrenceCounts,
    EmbeddingTable,
    Lexicon,
    ModelSpec,
    RelatednessTable,
    ResponseRecord,
    Scenario,
    TopicTable,
    bigram_association,
    cosine_association,
    load_association,
    load_normalized,
    predict,
    quantile_normalize,
    relatedness_association,
    save_association,
    save_normalized,
    save_responses,
    topic_association,
)
from refgame.cli import main

from conftest import write_counts_file, write_lexicon_file, write_matrix_file, write_vector_file

NOUNS = ("heart", "phone", "wedding", "mirror", "garden", "engine")
ADJS = ("dying", "violent", "empty", "gentle", "ancient", "loud")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A populated input directory plus normalized matrices for every metric."""
    root = tmp_path_factory.mktemp("cli-data")
    rng = np.random.default_rng(20240818)
    lexicon = Lexicon(NOUNS, ADJS)
    paths = {"root": root, "lexicon_obj": lexicon, "lexicon": root / "lexicon.txt"}
    write_lexicon_file(paths["lexicon"], NOUNS, ADJS)

    counts = rng.integers(1, 50, size=(6, 6))
    counts[0, 3] = 0
    counts[4, 1] = 0
    paths["counts"] = root / "counts.tsv"
    write_counts_file(paths["counts"], NOUNS, ADJS, counts)

    words = list(NOUNS) + list(ADJS)
    vectors = dict(zip(words, rng.normal(size=(12, 4))))
    paths["embeddings"] = root / "embeddings.txt"
    write_vector_file(paths["embeddings"], vectors.items())

    scores = rng.random(size=(6, 6)) * 3
    scores[1, 2] = 0.0
    paths["relatedness"] = root / "relatedness.tsv"
    write_matrix_file(paths["relatedness"], NOUNS, ADJS, scores)

    topics = dict(zip(words, rng.dirichlet(np.ones(3), size=12)))
    paths["topics"] = root / "topics.txt"
    write_vector_file(paths["topics"], topics.items())

    norm = {}
    for metric, assoc in (
        ("bigram", bigram_association(CooccurrenceCounts(lexicon, counts))),
        ("embedding-cosine", cosine_association(EmbeddingTable(lexicon, vectors))),
        ("graph-relatedness", relatedness_association(RelatednessTable(lexicon, scores))),
        ("topic-distance", topic_association(TopicTable(lexicon, topics))),
    ):
        path = root / f"norm_{metric}.tsv"
        save_normalized(quantile_normalize(assoc), path)
        norm[metric] = path
    paths["norm"] = norm

    # a flat matrix whose agents are all uniform
    flat = bigram_association(CooccurrenceCounts(lexicon, np.full((6, 6), 7)))
    paths["flat_norm"] = root / "norm_flat.tsv"
    save_normalized(quantile_normalize(flat), paths["flat_norm"])

    listener_config = {
        "scenario": {"nouns": ["heart", "phone", "wedding"], "adjectives": ["dying", "empty"]},
        "role": "listener",
        "clue": "empty",
    }
    paths["listener_config"] = root / "listener_config.json"
    paths["listener_config"].write_text(json.dumps(listener_config) + "\n")

    speaker_config = dict(listener_config)
    del speaker_config["clue"]
    speaker_config["role"] = "speaker"
    speaker_config["target_pair"] = ["heart", "wedding"]
    paths["speaker_config"] = root / "speaker_config.json"
    paths["speaker_config"].write_text(json.dumps(speaker_config) + "\n")

    scenarios = [
        {"nouns": ["heart", "phone", "wedding"], "adjectives": ["dying", "violent", "empty"]},
        {"nouns": ["mirror", "garden", "engine"], "adjectives": ["gentle", "ancient", "loud"]},
    ]
    paths["scenarios"] = root / "scenarios.jsonl"
    paths["scenarios"].write_text("\n".join(json.dumps(s) for s in scenarios) + "\n")

    return paths


# ---------------------------------------------------------------------------
# ingest and normalize

def test_ingest_and_normalize_counts(data, capsys, tmp_path):
    raw_path = tmp_path / "raw.tsv"
    code, _, err = run_cli(capsys, [
        "ingest", "counts", str(data["counts"]),
        "--lexicon", str(data["lexicon"]), "--output", str(raw_path),
    ])
    assert code == 0, err
    raw = load_association(raw_path)
    assert raw.metric == "bigram"
    assert raw.zero_mask.sum() == 2

    norm_path = tmp_path / "norm.tsv"
    code, _, err = run_cli(capsys, ["normalize", str(raw_path), "--output", str(norm_path)])
    assert code == 0, err
    norm = load_normalized(norm_path)
    unmasked = norm.values[~norm.zero_mask]
    assert ((unmasked > 0) & (unmasked <= 1)).all()
    assert (norm.values[norm.zero_mask] == 1e-7).all()


def test_ingest_every_kind(data, capsys, tmp_path):
    kinds = [
        ("counts", data["counts"], "bigram"),
        ("embeddings", data["embeddings"], "embedding-cosine"),
        ("relatedness", data["relatedness"], "graph-relatedness"),
        ("topics", data["topics"], "topic-distance"),
    ]
    for kind, source, metric in kinds:
        out = tmp_path / f"{kind}.tsv"
        code, _, err = run_cli(capsys, [
            "ingest", kind, str(source),
            "--lexicon", str(data["lexicon"]), "--output", str(out),
        ])
        assert code == 0, err
        assert load_association(out).metric == metric


def test_manifest_contents(data, capsys, tmp_path):
    raw_path = tmp_path / "raw.tsv"
    code, _, _ = run_cli(capsys, [
        "ingest", "counts", str(data["counts"]),
        "--lexicon", str(data["lexicon"]), "--output", str(raw_path),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "raw.tsv.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["version"] == refgame.__version__
    assert manifest["seed"] is None
    digest = hashlib.sha256(data["counts"].read_bytes()).hexdigest()
    assert manifest["inputs"][str(data["counts"])] == digest


@pytest.mark.parametrize("kind", ["counts", "embeddings", "relatedness", "topics"])
def test_ingest_manifest_settings(data, capsys, tmp_path, kind):
    out = tmp_path / f"{kind}.tsv"
    code, _, err = run_cli(capsys, [
        "ingest", kind, str(data[kind]), "--lexicon", str(data["lexicon"]), "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out)
    assert manifest["command"] == "ingest"
    assert manifest["settings"] == {
        "kind": kind,
        "input": str(data[kind]),
        "lexicon": str(data["lexicon"]),
        "output": str(out),
    }
    assert manifest["inputs"] == {
        str(data[kind]): hashlib.sha256(data[kind].read_bytes()).hexdigest(),
        str(data["lexicon"]): hashlib.sha256(data["lexicon"].read_bytes()).hexdigest(),
    }


def test_normalize_and_simulate_manifest_settings(data, capsys, tmp_path):
    raw = tmp_path / "raw.tsv"
    assert run_cli(capsys, [
        "ingest", "counts", str(data["counts"]), "--lexicon", str(data["lexicon"]),
        "--output", str(raw),
    ])[0] == 0
    out = tmp_path / "norm.tsv"
    code, _, err = run_cli(capsys, ["normalize", str(raw), "--output", str(out)])
    assert code == 0, err
    manifest = _manifest(out)
    assert manifest["command"] == "normalize"
    assert manifest["settings"] == {"input": str(raw), "output": str(out)}
    assert manifest["inputs"] == {str(raw): hashlib.sha256(raw.read_bytes()).hexdigest()}

    bigram = str(data["norm"]["bigram"])
    out = tmp_path / "gameplay.tsv"
    code, stdout, err = run_cli(capsys, [
        "simulate", "--matrix", f"bigram={bigram}", "--scenarios", str(data["scenarios"]),
        "--speaker", "bigram:pragmatic:1.0", "--listener", "bigram:literal",
        "--format", "table", "--output", str(out),
    ])
    assert code == 0, err
    assert stdout == ""
    manifest = _manifest(out)
    assert manifest["command"] == "simulate"
    assert manifest["settings"] == {
        "matrix": [f"bigram={bigram}"],
        "scenarios": str(data["scenarios"]),
        "speaker": "bigram:pragmatic:1.0",
        "listener": "bigram:literal",
        "format": "table",
        "output": str(out),
    }
    assert sorted(manifest["inputs"]) == sorted([bigram, str(data["scenarios"])])


def test_normalize_rejects_normalized_input(data, capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "normalize", str(data["norm"]["bigram"]), "--output", str(tmp_path / "x.tsv"),
    ])
    assert code == 1
    assert "stage" in err


# ---------------------------------------------------------------------------
# predict

def test_predict_listener(data, capsys):
    code, out, err = run_cli(capsys, [
        "predict",
        "--matrix", str(data["norm"]["bigram"]),
        "--config", str(data["listener_config"]),
        "--model", "bigram:pragmatic:1.0",
    ])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "# answer\tprobability"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["heart,phone", "heart,wedding", "phone,wedding"]
    probs = [float(r[1]) for r in rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_predict_speaker(data, capsys):
    code, out, err = run_cli(capsys, [
        "predict",
        "--matrix", str(data["norm"]["bigram"]),
        "--config", str(data["speaker_config"]),
        "--model", "bigram:literal",
    ])
    assert code == 0, err
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["dying", "empty"]
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_predict_writes_output_and_manifest(data, capsys, tmp_path):
    out_path = tmp_path / "prediction.tsv"
    code, out, _ = run_cli(capsys, [
        "predict",
        "--matrix", str(data["norm"]["bigram"]),
        "--config", str(data["listener_config"]),
        "--model", "bigram:literal",
        "--output", str(out_path),
    ])
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("# answer\tprobability\n")
    assert (tmp_path / "prediction.tsv.manifest.json").exists()


def _manifest(output, seed=None):
    text = (output.parent / (output.name + ".manifest.json")).read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    assert sorted(manifest) == ["command", "inputs", "seed", "settings", "version"]
    assert manifest["seed"] == seed
    assert manifest["version"] == refgame.__version__
    return manifest


def test_predict_score_compare_manifest_settings(data, capsys, tmp_path):
    bigram = str(data["norm"]["bigram"])
    embedding = str(data["norm"]["embedding-cosine"])
    labelled = f"embedding-cosine={embedding}"

    out = tmp_path / "prediction.tsv"
    code, _, err = run_cli(capsys, [
        "predict", "--matrix", bigram, "--matrix", labelled,
        "--config", str(data["listener_config"]),
        "--model", "bigram:pragmatic:1.0", "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out)
    assert manifest["command"] == "predict"
    assert manifest["settings"] == {
        "matrix": [bigram, labelled],
        "config": str(data["listener_config"]),
        "model": "bigram:pragmatic:1.0",
        "output": str(out),
    }
    assert sorted(manifest["inputs"]) == sorted([bigram, embedding, str(data["listener_config"])])

    config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    responses = tmp_path / "responses.jsonl"
    save_responses([ResponseRecord(config, {(0, 1): 4}), ResponseRecord(config, {(0, 2): 1})],
                   data["lexicon_obj"], responses)
    out = tmp_path / "scores.tsv"
    code, _, err = run_cli(capsys, [
        "score", "--matrix", bigram, "--responses", str(responses),
        "--model", "bigram:literal", "--model", "bigram:pragmatic:2.0",
        "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out)
    assert manifest["command"] == "score"
    assert manifest["settings"] == {
        "matrix": [bigram],
        "responses": str(responses),
        "models": ["bigram:literal", "bigram:pragmatic:2.0"],
        "format": "tsv",
        "output": str(out),
    }
    assert sorted(manifest["inputs"]) == sorted([bigram, str(responses)])

    out = tmp_path / "compare.tsv"
    code, _, err = run_cli(capsys, [
        "compare", "--matrix", bigram, "--matrix", embedding,
        "--format", "table", "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out)
    assert manifest["command"] == "compare"
    assert manifest["settings"] == {
        "matrix": [bigram, embedding],
        "configs": None,
        "models": [],
        "format": "table",
        "output": str(out),
    }
    assert sorted(manifest["inputs"]) == sorted([bigram, embedding])

    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps(json.loads(data["listener_config"].read_text())) + "\n")
    code, _, err = run_cli(capsys, [
        "compare", "--matrix", bigram, "--configs", str(configs),
        "--model", "bigram:literal", "--model", "bigram:pragmatic:1.0",
        "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out)
    assert manifest["settings"] == {
        "matrix": [bigram],
        "configs": str(configs),
        "models": ["bigram:literal", "bigram:pragmatic:1.0"],
        "format": "tsv",
        "output": str(out),
    }
    assert sorted(manifest["inputs"]) == sorted([bigram, str(configs)])

    code, _, err = run_cli(capsys, [
        "compare", "--matrix", bigram, "--configs", str(configs), "--output", str(out),
    ])
    assert code == 0, err
    assert _manifest(out)["settings"]["models"] == []


@pytest.mark.parametrize("extra, filtered, min_diff, max_occurrence", [
    ([], False, 2, 20),
    (["--filter"], True, 2, 20),
    (["--filter", "--min-word-diff", "1", "--max-word-occurrence", "3"], True, 1, 3),
])
def test_oed_manifest_settings(data, capsys, tmp_path, extra, filtered, min_diff, max_occurrence):
    bigram = str(data["norm"]["bigram"])
    out = tmp_path / "candidates.jsonl"
    code, _, err = run_cli(capsys, [
        "oed", "--matrix", bigram, "--preset", "exp4", "--iterations", "20", "--seed", "3",
        "--top", "5", *extra, "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out, seed=3)
    assert manifest["command"] == "oed"
    assert manifest["settings"] == {
        "matrix": [bigram],
        "preset": "exp4",
        "nouns": 3,
        "adjectives": 3,
        "mode": "joint",
        "models": ["bigram:literal", "bigram:pragmatic:1.0"],
        "iterations": 20,
        "top": 5,
        "filter": filtered,
        "min_word_diff": min_diff,
        "max_word_occurrence": max_occurrence,
        "output": str(out),
    }
    assert sorted(manifest["inputs"]) == [bigram]


@pytest.mark.parametrize("preset, extra, resolved", [
    ("exp4", ["--nouns", "4", "--mode", "separate-listener", "--model", "bigram:literal",
              "--model", "bigram:pragmatic:2.0"],
     {"nouns": 4, "adjectives": 3, "mode": "separate-listener",
      "models": ["bigram:literal", "bigram:pragmatic:2.0"]}),
    (None, ["--nouns", "3", "--adjectives", "2", "--mode", "separate-speaker",
            "--model", "bigram:literal", "--model", "bigram:pragmatic:1.0"],
     {"nouns": 3, "adjectives": 2, "mode": "separate-speaker",
      "models": ["bigram:literal", "bigram:pragmatic:1.0"]}),
], ids=["preset-overridden", "no-preset"])
def test_oed_manifest_records_overrides(data, capsys, tmp_path, preset, extra, resolved):
    bigram = str(data["norm"]["bigram"])
    out = tmp_path / "candidates.jsonl"
    code, _, err = run_cli(capsys, [
        "oed", "--matrix", bigram, *(["--preset", preset] if preset else []), *extra,
        "--iterations", "20", "--top", "5", "--output", str(out),
    ])
    assert code == 0, err
    manifest = _manifest(out, seed=0)
    assert manifest["settings"] == {
        "matrix": [bigram],
        "preset": preset,
        **resolved,
        "iterations": 20,
        "top": 5,
        "filter": False,
        "min_word_diff": 2,
        "max_word_occurrence": 20,
        "output": str(out),
    }


# ---------------------------------------------------------------------------
# exit codes

def test_missing_input_is_exit_2(data, capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "ingest", "counts", str(data["root"] / "absent.tsv"),
        "--lexicon", str(data["lexicon"]), "--output", str(tmp_path / "x.tsv"),
    ])
    assert code == 2
    assert "no such input" in err


def test_domain_error_is_exit_1(data, capsys, tmp_path):
    bad = tmp_path / "bad_counts.tsv"
    lines = ["\t" + "\t".join(ADJS)]
    for i, noun in enumerate(NOUNS):
        row = ["0"] * 6 if i == 2 else ["5"] * 6
        lines.append(noun + "\t" + "\t".join(row))
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, [
        "ingest", "counts", str(bad),
        "--lexicon", str(data["lexicon"]), "--output", str(tmp_path / "x.tsv"),
    ])
    assert code == 1
    assert "error:" in err and "no observations" in err


@pytest.mark.parametrize("command", ["predict", "oed", "score", "compare", "simulate"])
def test_bad_model_spec_is_exit_2(data, capsys, tmp_path, command):
    listener = json.loads(data["listener_config"].read_text())
    records = tmp_path / "records.jsonl"
    if command == "predict":
        extra = ["--config", str(data["listener_config"]), "--model", "bigram:deep"]
    elif command == "oed":
        extra = ["--preset", "exp4", "--model", "bigram:deep", "--output", str(tmp_path / "c")]
    elif command == "score":
        record = {"configuration": listener, "answers": [[["heart", "phone"], 3]]}
        records.write_text(json.dumps(record) + "\n")
        extra = ["--responses", str(records), "--model", "bigram:literal", "--model", "bigram:deep"]
    elif command == "compare":
        records.write_text(json.dumps(listener) + "\n")
        extra = ["--configs", str(records), "--model", "bigram:deep"]
    else:
        extra = [
            "--scenarios", str(data["scenarios"]),
            "--speaker", "bigram:literal", "--listener", "bigram:deep",
        ]
    code, out, err = run_cli(capsys, [command, "--matrix", str(data["norm"]["bigram"]), *extra])
    assert code == 2
    assert err == "usage error: unknown depth 'deep'\n"
    assert out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--iterations", "0", "iterations must be positive"),
    ("--top", "0", "top_k must be positive"),
    ("--nouns", "1", "need at least two nouns per scenario"),
    ("--min-word-diff", "-1", "min_word_difference must be non-negative"),
    ("--max-word-occurrence", "0", "max_word_occurrence must be positive"),
])
def test_oed_bad_flag_is_exit_2_before_search(
    data, capsys, tmp_path, monkeypatch, flag, value, message
):
    def search(*args, **kwargs):
        raise AssertionError("searched with a bad flag value")

    monkeypatch.setattr("refgame.cli.monte_carlo_search", search)
    output = tmp_path / "c.jsonl"
    code, _, err = run_cli(capsys, [
        "oed", "--matrix", str(data["norm"]["bigram"]), "--preset", "exp4", "--filter",
        flag, value, "--output", str(output),
    ])
    assert code == 2
    assert err == f"usage error: {message}\n"
    assert not output.exists()


@pytest.mark.parametrize("command, extra, message", [
    ("compare", ["--model", "bigram:literal"], "--model needs --configs"),
    ("oed", ["--preset", "exp4", "--min-word-diff", "3"], "--min-word-diff needs --filter"),
    ("oed", ["--preset", "exp4", "--max-word-occurrence", "5"],
     "--max-word-occurrence needs --filter"),
])
def test_flag_that_would_be_ignored_is_exit_2_before_reading(
    data, capsys, tmp_path, monkeypatch, command, extra, message
):
    def load(*args, **kwargs):
        raise AssertionError("read a matrix despite a refused flag")

    monkeypatch.setattr("refgame.cli.load_normalized", load)
    output = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, [
        command, "--matrix", str(data["norm"]["bigram"]), *extra, "--output", str(output),
    ])
    assert code == 2
    assert err == f"usage error: {message}\n"
    assert out == ""
    assert not output.exists()


def test_oed_without_settings_is_exit_2(data, capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "oed", "--matrix", str(data["norm"]["bigram"]),
        "--model", "bigram:literal", "--nouns", "3", "--adjectives", "3",
        "--output", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert "--mode required" in err


def test_matrix_metric_label_mismatch_is_exit_1(data, capsys):
    code, _, err = run_cli(capsys, [
        "predict",
        "--matrix", f"embedding-cosine={data['norm']['bigram']}",
        "--config", str(data["listener_config"]),
        "--model", "bigram:literal",
    ])
    assert code == 1
    assert "holds metric" in err


def test_argparse_failures_return_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out, _ = capsys.readouterr().out, capsys.readouterr().err
    assert refgame.__version__ in out


# ---------------------------------------------------------------------------
# oed

def oed_args(data, output, *extra):
    return [
        "oed",
        "--matrix", str(data["norm"]["bigram"]),
        "--matrix", str(data["norm"]["embedding-cosine"]),
        "--matrix", str(data["norm"]["graph-relatedness"]),
        "--matrix", str(data["norm"]["topic-distance"]),
        "--preset", "exp2-listener",
        "--iterations", "1500",
        "--seed", "5",
        "--top", "40",
        "--output", str(output),
        *extra,
    ]


def test_oed_deterministic_across_runs(data, capsys, tmp_path):
    first = tmp_path / "cands1.jsonl"
    second = tmp_path / "cands2.jsonl"
    code, _, err = run_cli(capsys, oed_args(data, first))
    assert code == 0, err
    code, _, _ = run_cli(capsys, oed_args(data, second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()

    records = [json.loads(line) for line in first.read_text().strip().split("\n")]
    assert len(records) == 40
    utilities = [r["utility"] for r in records]
    assert utilities == sorted(utilities, reverse=True)
    assert all(r["role"] == "listener" for r in records)
    assert all("clue" in r for r in records)

    manifest = json.loads((tmp_path / "cands1.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["settings"]["mode"] == "separate-listener"
    assert manifest["settings"]["nouns"] == 3


def test_oed_filter_is_a_subsequence(data, capsys, tmp_path):
    plain = tmp_path / "plain.jsonl"
    filtered = tmp_path / "filtered.jsonl"
    assert run_cli(capsys, oed_args(data, plain))[0] == 0
    assert run_cli(capsys, oed_args(data, filtered, "--filter"))[0] == 0
    plain_lines = plain.read_text().strip().split("\n")
    filtered_lines = filtered.read_text().strip().split("\n")
    assert len(filtered_lines) <= len(plain_lines)
    it = iter(plain_lines)
    assert all(line in it for line in filtered_lines)


def test_oed_joint_preset(data, capsys, tmp_path):
    out = tmp_path / "joint.jsonl"
    code, _, err = run_cli(capsys, [
        "oed",
        "--matrix", str(data["norm"]["bigram"]),
        "--preset", "exp4",
        "--iterations", "800",
        "--seed", "1",
        "--top", "15",
        "--output", str(out),
    ])
    assert code == 0, err
    records = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(records) == 15
    for record in records:
        assert "role" not in record and "clue" not in record and "target_pair" not in record
        assert record["utility"] >= 0
        assert len(record["scenario"]["nouns"]) == 3
        assert len(record["scenario"]["adjectives"]) == 3


def test_oed_cli_overrides_beat_preset(data, capsys, tmp_path):
    out = tmp_path / "small.jsonl"
    code, _, err = run_cli(capsys, [
        "oed",
        "--matrix", str(data["norm"]["bigram"]),
        "--preset", "exp4",
        "--nouns", "2", "--adjectives", "1",
        "--iterations", "200", "--seed", "0", "--top", "5",
        "--output", str(out),
    ])
    assert code == 0, err
    records = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert all(len(r["scenario"]["nouns"]) == 2 for r in records)
    assert all(len(r["scenario"]["adjectives"]) == 1 for r in records)


# ---------------------------------------------------------------------------
# compare

def test_compare_metric_matrix(data, capsys):
    code, out, err = run_cli(capsys, [
        "compare",
        "--matrix", str(data["norm"]["bigram"]),
        "--matrix", str(data["norm"]["embedding-cosine"]),
    ])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "# metric rank correlation"
    assert lines[1] == "# \tbigram\tembedding-cosine"
    row = lines[2].split("\t")
    assert row[0] == "bigram"
    assert float(row[1]) == pytest.approx(1.0, abs=1e-12)


def test_compare_with_configs(data, capsys, tmp_path):
    configs = [
        {"scenario": {"nouns": ["heart", "phone", "wedding"], "adjectives": ["dying", "empty"]},
         "role": "listener", "clue": "dying"},
        {"scenario": {"nouns": ["mirror", "garden", "engine"], "adjectives": ["gentle", "loud"]},
         "role": "listener", "clue": "loud"},
        {"scenario": {"nouns": ["heart", "phone", "wedding"], "adjectives": ["dying", "empty"]},
         "role": "speaker", "target_pair": ["heart", "wedding"]},
    ]
    path = tmp_path / "configs.jsonl"
    path.write_text("\n".join(json.dumps(c) for c in configs) + "\n")
    code, out, err = run_cli(capsys, [
        "compare",
        "--matrix", str(data["norm"]["bigram"]),
        "--matrix", str(data["norm"]["embedding-cosine"]),
        "--configs", str(path),
    ])
    assert code == 0, err
    assert "# listener top-answer agreement" in out
    assert "# speaker top-answer agreement" in out
    assert "# listener prediction rank correlation" in out


# ---------------------------------------------------------------------------
# score

def test_score_perfect_model_tsv(data, capsys, tmp_path):
    lexicon = data["lexicon_obj"]
    norm = load_normalized(data["norm"]["bigram"])
    records = []
    for clue in range(3):
        config = Configuration(Scenario((0, 1, 2), (0, 1, 2)), "listener", clue)
        best = predict(norm, config, ModelSpec("bigram", "listener", "literal")).argmax_answers()[0]
        records.append(ResponseRecord(config, {best: 9, (0, 1) if best != (0, 1) else (0, 2): 1}))
    responses = tmp_path / "responses.jsonl"
    save_responses(records, lexicon, responses)

    code, out, err = run_cli(capsys, [
        "score",
        "--matrix", str(data["norm"]["bigram"]),
        "--responses", str(responses),
        "--model", "bigram:literal",
        "--model", "bigram:pragmatic:1.0",
    ])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "# model\ttop_mean\ttop_sem\trank_mean\trank_sem"
    first = lines[1].split("\t")
    assert first[0] == "bigram:literal"
    assert float(first[1]) == 1.0
    assert len(lines) == 3


def test_score_table_format(data, capsys, tmp_path):
    lexicon = data["lexicon_obj"]
    config = Configuration(Scenario((0, 1, 2), (0, 1)), "listener", 0)
    records = [ResponseRecord(config, {(0, 1): 4, (1, 2): 2}),
               ResponseRecord(config, {(0, 2): 3, (0, 1): 1})]
    responses = tmp_path / "responses.jsonl"
    save_responses(records, lexicon, responses)
    code, out, err = run_cli(capsys, [
        "score",
        "--matrix", str(data["norm"]["bigram"]),
        "--responses", str(responses),
        "--model", "bigram:literal",
        "--format", "table",
    ])
    assert code == 0, err
    assert "model" in out and "bigram:literal" in out and "\t" not in out


# ---------------------------------------------------------------------------
# simulate

def test_simulate_uniform_agents_hit_chance(data, capsys):
    code, out, err = run_cli(capsys, [
        "simulate",
        "--matrix", str(data["flat_norm"]),
        "--scenarios", str(data["scenarios"]),
        "--speaker", "bigram:literal",
        "--listener", "bigram:literal",
    ])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "# nouns\tadjectives\tmean_success"
    overall = lines[-1]
    assert overall.startswith("# overall\tmean=")
    mean = float(overall.split("mean=")[1].split("\t")[0])
    assert mean == pytest.approx(1 / 3, abs=1e-12)


def test_simulate_accepts_candidate_records(data, capsys, tmp_path):
    out_path = tmp_path / "cands.jsonl"
    assert run_cli(capsys, [
        "oed", "--matrix", str(data["norm"]["bigram"]),
        "--preset", "exp4", "--iterations", "300", "--seed", "2", "--top", "4",
        "--output", str(out_path),
    ])[0] == 0
    code, out, err = run_cli(capsys, [
        "simulate",
        "--matrix", str(data["norm"]["bigram"]),
        "--scenarios", str(out_path),
        "--speaker", "bigram:pragmatic:1.0",
        "--listener", "bigram:pragmatic:1.0",
    ])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 6  # header + 4 scenarios + overall
    for line in lines[1:-1]:
        nouns_field = line.split("\t")[0]
        assert len(nouns_field.split(" ")) == 3


def test_simulate_output_file_reruns_identical(data, capsys, tmp_path):
    first = tmp_path / "sim1.tsv"
    second = tmp_path / "sim2.tsv"
    for path in (first, second):
        code, _, err = run_cli(capsys, [
            "simulate",
            "--matrix", str(data["norm"]["bigram"]),
            "--scenarios", str(data["scenarios"]),
            "--speaker", "bigram:pragmatic:1.0",
            "--listener", "bigram:literal",
            "--output", str(path),
        ])
        assert code == 0, err
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "compare", "score"])
def test_jsonl_record_error_names_file_and_line(data, capsys, tmp_path, command):
    config = json.loads(data["listener_config"].read_text())
    if command == "simulate":
        good = config["scenario"]
        flag = ["--scenarios"]
        extra = ["--speaker", "bigram:literal", "--listener", "bigram:literal"]
    elif command == "compare":
        good = config
        flag = ["--configs"]
        extra = []
    else:
        good = {"configuration": config, "answers": [[["heart", "phone"], 3]], "confidences": []}
        flag = ["--responses"]
        extra = ["--model", "bigram:literal"]
    bad = json.loads(json.dumps(good).replace('"heart"', '"apple"'))
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code, _, err = run_cli(capsys, [
        command, "--matrix", str(data["norm"]["bigram"]), *flag, str(path), *extra,
    ])
    assert code == 1
    assert err == f"error: {path}:2: noun 'apple' absent\n"


@pytest.mark.parametrize("command, field, value, message", [
    ("score", "speaker answer", [["dying"], 2], "adjective ['dying'] is not a string"),
    ("score", "count", "many", "bad count 'many' for answer (0, 1)"),
    ("score", "count", "2", "bad count '2' for answer (0, 1)"),
    ("score", "count", 2.9, "bad count 2.9 for answer (0, 1)"),
    ("score", "confidences", [4.7], "confidence 4.7 outside the 1..5 scale"),
    ("simulate", "nouns", [["heart"], "phone"], "noun ['heart'] is not a string"),
    ("simulate", "nouns", "heart", "expected a list of nouns, got 'heart'"),
], ids=[
    "listed-clue", "word-count", "string-count", "float-count", "float-confidence",
    "listed-noun", "string-nouns",
])
def test_bad_record_field_is_data_error(data, capsys, tmp_path, command, field, value, message):
    listener = json.loads(data["listener_config"].read_text())
    if command == "simulate":
        record = {**listener["scenario"], field: value}
        flag, extra = "--scenarios", ["--speaker", "bigram:literal", "--listener", "bigram:literal"]
    else:
        record = {"configuration": listener, "answers": [[["heart", "phone"], 3]], "confidences": []}
        if field == "speaker answer":
            record["configuration"] = json.loads(data["speaker_config"].read_text())
            record["answers"] = [value]
        elif field == "count":
            record["answers"][0][1] = value
        else:
            record[field] = value
        flag, extra = "--responses", ["--model", "bigram:literal"]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record) + "\n")
    code, _, err = run_cli(capsys, [
        command, "--matrix", str(data["norm"]["bigram"]), flag, str(path), *extra,
    ])
    assert code == 1
    assert err == f"error: {path}:1: {message}\n"
    assert "Traceback" not in err


def test_simulate_non_object_record_is_data_error(data, capsys, tmp_path):
    path = tmp_path / "scenarios.jsonl"
    path.write_text("5\n")
    code, _, err = run_cli(capsys, [
        "simulate", "--matrix", str(data["norm"]["bigram"]), "--scenarios", str(path),
        "--speaker", "bigram:literal", "--listener", "bigram:literal",
    ])
    assert code == 1
    assert err == f"error: {path}:1: malformed scenario record 5\n"
