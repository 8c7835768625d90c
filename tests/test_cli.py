"""End-to-end command tests: exit codes, outputs, manifests, determinism."""

import codecs
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refgame
from refgame import (
    AssociationMatrix,
    Configuration,
    CooccurrenceCounts,
    DataError,
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
    load_counts,
    load_embeddings,
    load_lexicon,
    load_normalized,
    load_responses,
    predict,
    quantile_normalize,
    relatedness_association,
    save_association,
    save_normalized,
    topic_association,
)
from refgame import association, cli, evaluation
from refgame.association import average_ranks
from refgame.cli import main
from refgame.evaluation import metric_rank_correlation, model_agreement, render_matrix
from refgame.rsa import configuration_from_record

from conftest import (
    write_counts_file,
    write_lexicon_file,
    write_matrix_file,
    write_responses_file,
    write_vector_file,
)

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
    write_responses_file(
        responses,
        [ResponseRecord(config, {(0, 1): 4}), ResponseRecord(config, {(0, 2): 1})],
        data["lexicon_obj"],
    )
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


def _with_latin1_line_2(path, tmp_path):
    """A copy of path with a Latin-1 "# café" comment as its line 2."""
    first, rest = path.read_bytes().split(b"\n", 1)
    bad = tmp_path / f"latin1_{path.name}"
    bad.write_bytes(first + b"\n" + "# café\n".encode("latin-1") + rest)
    return bad


@pytest.mark.parametrize("command", ["ingest", "normalize", "oed"])
def test_a_file_that_is_not_utf8_is_exit_1(data, capsys, tmp_path, command):
    raw = tmp_path / "raw.tsv"
    ingest = ["ingest", "counts", str(data["counts"]), "--lexicon", str(data["lexicon"]), "--output", str(raw)]
    assert run_cli(capsys, ingest)[0] == 0
    source = {"ingest": data["lexicon"], "normalize": raw, "oed": data["norm"]["bigram"]}[command]
    bad = _with_latin1_line_2(source, tmp_path)
    out = str(tmp_path / "out")
    argv = {
        "ingest": [*ingest[:4], str(bad), "--output", out],
        "normalize": ["normalize", str(bad), "--output", out],
        "oed": ["oed", "--matrix", str(bad), "--preset", "exp4", "--iterations", "5", "--output", out],
    }[command]
    assert run_cli(capsys, argv) == (1, "", f"error: {bad}: line 2: not UTF-8\n")



def _comparable(value):
    """A loaded value with its arrays as bytes and its dataclasses as fields, so two loads compare with ==."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_comparable(item) for item in value]
    if isinstance(value, dict):
        return {key: _comparable(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return type(value), {field.name: _comparable(getattr(value, field.name)) for field in dataclasses.fields(value)}
    return value


def test_a_leading_byte_order_mark_is_dropped(data, capsys, tmp_path):
    # A UTF-8 file may open with a byte-order mark (BOM): every input kind
    # loads from it as from the same file without one.
    lexicon = data["lexicon_obj"]
    raw = tmp_path / "raw.tsv"
    save_association(bigram_association(load_counts(data["counts"], lexicon)), raw)
    responses = tmp_path / "responses.jsonl"
    listener = json.loads(data["listener_config"].read_text())
    responses.write_text(json.dumps({"configuration": listener, "answers": [[["heart", "phone"], 3]]}) + "\n")
    predict_argv = ["predict", "--matrix", str(data["norm"]["bigram"]), "--model", "bigram:literal", "--config"]
    kinds = {
        "lexicon": (data["lexicon"], load_lexicon),
        "counts matrix": (data["counts"], lambda path: load_counts(path, lexicon)),
        "association matrix": (raw, load_association),
        "normalized matrix": (data["norm"]["bigram"], load_normalized),
        "vector file": (data["embeddings"], lambda path: load_embeddings(path, lexicon)),
        "JSONL records": (responses, lambda path: load_responses(path, lexicon)),
        "predict --config JSON": (data["listener_config"], lambda path: run_cli(capsys, [*predict_argv, str(path)])),
    }
    for kind, (path, load) in kinds.items():
        marked = tmp_path / f"bom_{path.name}"
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        plain = _comparable(load(path))
        assert _comparable(load(marked)) == plain, kind
    assert plain[0] == 0
    # "café" in Latin-1 on line 3, after the mark: still the path and line
    bad = tmp_path / "bom_latin1.txt"
    bad.write_bytes(codecs.BOM_UTF8 + "[nouns]\nheart\ncafé\n".encode("latin-1"))
    with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: line 3: not UTF-8$"):
        load_lexicon(bad)


def test_utf8_files_under_an_ascii_locale(tmp_path):
    # With the C locale, and UTF-8 mode off, open() would default to ASCII;
    # every file is read and written as UTF-8 all the same.
    nouns = ("café", *NOUNS[1:])
    lexicon = "\n".join(["[nouns]", *nouns, "[adjectives]", *ADJS]) + "\n"
    counts = "\n".join(["\t" + "\t".join(ADJS), *(noun + "\t1\t2\t3\t4\t5\t6" for noun in nouns)]) + "\n"
    (tmp_path / "lexicon.txt").write_text(lexicon, encoding="utf-8")
    (tmp_path / "counts.tsv").write_text(counts, encoding="utf-8")
    package_root = str(Path(refgame.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = (
        "import locale, sys; from refgame.cli import main\n"
        "assert not sys.flags.utf8_mode and locale.getpreferredencoding(False) != 'UTF-8'\n"
        "sys.exit(main(['ingest', 'counts', 'counts.tsv', '--lexicon', 'lexicon.txt', '--output', 'raw.tsv']))\n"
    )
    child = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (child.returncode, child.stderr) == (0, "")
    assert load_association(tmp_path / "raw.tsv").lexicon.nouns[0] == "café"
    assert "café" in (tmp_path / "raw.tsv").read_bytes().decode("utf-8")


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


@pytest.mark.parametrize("command", ["oed", "ingest", "normalize", "score"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_exit_2_before_reading(
    data, capsys, tmp_path, monkeypatch, command, where
):
    def load(*args, **kwargs):
        raise AssertionError("read an input despite an unwritable output")

    for loader in ("load_normalized", "load_lexicon", "load_association", "load_responses"):
        monkeypatch.setattr(f"refgame.cli.{loader}", load)
    output = tmp_path if where == "directory" else tmp_path / "missing-dir" / "c.jsonl"
    reason = "it is a directory" if where == "directory" else f"no directory {output.parent}"
    bigram = str(data["norm"]["bigram"])
    argv = {
        "oed": ["oed", "--matrix", bigram, "--preset", "exp4"],
        "ingest": ["ingest", "counts", str(data["counts"]), "--lexicon", str(data["lexicon"])],
        "normalize": ["normalize", bigram],
        "score": ["score", "--matrix", bigram, "--responses", bigram, "--model", "bigram:literal"],
    }[command]
    code, out, err = run_cli(capsys, [*argv, "--output", str(output)])
    assert code == 2
    assert err == f"error: cannot write output {output}: {reason}\n"
    assert out == ""
    assert sorted(tmp_path.iterdir()) == []


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


def test_compare_ranks_each_matrix_once(data, capsys, monkeypatch):
    metrics = sorted(data["norm"])
    assert len(metrics) == 4
    calls = []

    def counted(values):
        calls.append(values.shape)
        return average_ranks(values)

    monkeypatch.setattr(association, "average_ranks", counted)
    argv = ["compare", *(a for m in metrics for a in ("--matrix", str(data["norm"][m])))]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    # one rank pass per matrix, not one per matrix per pair it is in
    assert len(calls) == len(metrics)


def test_compare_measures_each_unordered_pair_once(data, capsys, tmp_path, monkeypatch):
    configs = [
        {"scenario": {"nouns": ["heart", "phone", "wedding"], "adjectives": ["dying", "empty"]},
         "role": "listener", "clue": "dying"},
        {"scenario": {"nouns": ["mirror", "garden", "engine", "heart"],
                      "adjectives": ["gentle", "loud", "empty"]},
         "role": "listener", "clue": "loud"},
        {"scenario": {"nouns": ["heart", "phone", "wedding"], "adjectives": ["dying", "empty"]},
         "role": "speaker", "target_pair": ["heart", "wedding"]},
        {"scenario": {"nouns": ["heart", "phone", "garden"], "adjectives": ["dying", "loud"]},
         "role": "speaker", "target_pair": ["phone", "garden"]},
    ]
    path = tmp_path / "configs.jsonl"
    path.write_text("\n".join(json.dumps(c) for c in configs) + "\n")
    metrics = sorted(data["norm"])
    argv = ["compare", *(a for m in metrics for a in ("--matrix", str(data["norm"][m]))),
            "--configs", str(path)]

    # the full-matrix command as it was: every ordered pair measured
    tables = {m: load_normalized(data["norm"][m]) for m in metrics}
    sections = [render_matrix(metrics, [
        [metric_rank_correlation(tables[a], tables[b]) for b in metrics] for a in metrics
    ], title="metric rank correlation")]
    lexicon = data["lexicon_obj"]
    for role in ("listener", "speaker"):
        role_configs = [configuration_from_record(c, lexicon) for c in configs if c["role"] == role]
        labels = [f"{m}:literal" for m in metrics]
        cells = [[model_agreement(a, b, tables, role_configs) for b in labels] for a in labels]
        for k, name in enumerate(("top-answer agreement", "prediction rank correlation")):
            matrix = [[cell[k] for cell in row] for row in cells]
            sections.append(render_matrix(labels, matrix, title=f"{role} {name}"))

    calls = {"metric_rank_correlation": 0, "predict_stack": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    monkeypatch.setattr(cli, "metric_rank_correlation", counted(cli, "metric_rank_correlation"))
    monkeypatch.setattr(evaluation, "predict_stack", counted(evaluation, "predict_stack"))
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert out == "\n".join(sections)
    # 4 metrics: 10 unordered pairs instead of 16 ordered ones; each model is
    # predicted once per (role, k, m) group (3 here), not once per pair it is in
    assert calls == {"metric_rank_correlation": 10, "predict_stack": 3 * 4}


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
    write_responses_file(responses, records, lexicon)

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
    write_responses_file(responses, records, lexicon)
    code, out, err = run_cli(capsys, [
        "score",
        "--matrix", str(data["norm"]["bigram"]),
        "--responses", str(responses),
        "--model", "bigram:literal",
        "--format", "table",
    ])
    assert code == 0, err
    assert "model" in out and "bigram:literal" in out and "\t" not in out


def _score_or_simulate(data, capsys, tmp_path, command, nouns):
    """run_cli's outcome of score or simulate with the bigram literal
    models on one record, or one scenario, per noun list, all on the clue
    "empty"."""
    scenarios = [{"nouns": words, "adjectives": ["dying", "empty"]} for words in nouns]
    path = tmp_path / "records.jsonl"
    if command == "score":
        lines = [
            {
                "configuration": {"scenario": scenario, "role": "listener", "clue": "empty"},
                "answers": [[scenario["nouns"][:2], 3]],
            }
            for scenario in scenarios
        ]
        extra = ["--responses", str(path), "--model", "bigram:literal"]
    else:
        lines = scenarios
        extra = ["--scenarios", str(path), "--speaker", "bigram:literal"]
        extra += ["--listener", "bigram:literal"]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return run_cli(capsys, [command, "--matrix", str(data["norm"]["bigram"]), *extra])


@pytest.mark.parametrize("command, nouns, message", [
    ("score", [["heart", "phone", "wedding"], ["heart", "phone"]],
     "model bigram:literal: record 2: rank correlation needs at least two entries"),
], ids=["two-noun-listener"])
def test_scoring_and_gameplay_errors_name_what_failed(
    data, capsys, tmp_path, command, nouns, message
):
    code, out, err = _score_or_simulate(data, capsys, tmp_path, command, nouns)
    assert code == 1
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("command, nouns, expected", [
    ("score", [["heart", "phone", "wedding"]], r"bigram:literal\t\S+\tnan\t\S+\tnan"),
    ("simulate", [["heart", "phone"]], r"# overall\tmean=1\.0\tsem=nan"),
], ids=["one-record", "one-pair-gameplay"])
def test_one_score_reports_its_mean_and_nan_sem(data, capsys, tmp_path, command, nouns, expected):
    # one record, or one scenario of one pair, has a mean but no ddof=1 SEM
    code, out, err = _score_or_simulate(data, capsys, tmp_path, command, nouns)
    assert (code, err) == (0, "")
    assert re.fullmatch(expected, out.splitlines()[-1])


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
