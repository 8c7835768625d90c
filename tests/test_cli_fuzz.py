"""Seeded mutation fuzz of every command's input files, in-process through cli.main.

The base files are copies of the golden inputs, the matrices and
scenarios the CLI makes from them, and small configuration and response
files. Each case mutates one input file of one command: random bytes,
invalid UTF-8, a truncation, a deleted or duplicated line, inserted
characters, or, in a JSON file, a value replaced by one of another type.
A run either succeeds or exits 1 or 2 with one "error:" or "usage error:"
line, no traceback, that names the mutated file; three kinds of error
name another cause instead (ABSENT and OTHER_CAUSE).
"""

import json
import random
import re
import shutil
import warnings
from pathlib import Path

import pytest

from refgame import cli

GOLDEN_INPUTS = Path(__file__).parent / "data" / "golden" / "inputs"
MUTATIONS_PER_KIND = 3

SCENARIO = {"nouns": ["heart", "wedding", "garden"], "adjectives": ["dying", "gentle", "broken"]}
SPEAKER_CONFIG = {"scenario": SCENARIO, "role": "speaker", "target_pair": ["heart", "garden"]}
LISTENER_CONFIG = {"scenario": SCENARIO, "role": "listener", "clue": "gentle"}
RESPONSES = [
    {"configuration": SPEAKER_CONFIG, "answers": [["dying", 4], ["gentle", 1]], "confidences": [3, 4]},
    {"configuration": LISTENER_CONFIG, "answers": [[["heart", "wedding"], 2]], "confidences": [2]},
]

MATRIX = ["--matrix", "norm_bigram.tsv"]
# each command's argv, and the input files it reads
COMMANDS = {
    "ingest-counts": (["ingest", "counts", "counts.tsv", "--lexicon", "lexicon.txt"], ["counts.tsv", "lexicon.txt"]),
    "ingest-embeddings": (
        ["ingest", "embeddings", "embeddings.txt", "--lexicon", "lexicon.txt"],
        ["embeddings.txt", "lexicon.txt"],
    ),
    "ingest-relatedness": (
        ["ingest", "relatedness", "relatedness.tsv", "--lexicon", "lexicon.txt"],
        ["relatedness.tsv", "lexicon.txt"],
    ),
    "ingest-topics": (["ingest", "topics", "topics.txt", "--lexicon", "lexicon.txt"], ["topics.txt", "lexicon.txt"]),
    "normalize": (["normalize", "raw_bigram.tsv"], ["raw_bigram.tsv"]),
    "predict": (
        ["predict", *MATRIX, "--config", "speaker.json", "--model", "bigram:pragmatic:1"],
        ["norm_bigram.tsv", "speaker.json"],
    ),
    "oed": (["oed", *MATRIX, "--preset", "exp4", "--iterations", "40", "--filter"], ["norm_bigram.tsv"]),
    "score": (
        ["score", *MATRIX, "--responses", "responses.jsonl", "--model", "bigram:literal"],
        ["norm_bigram.tsv", "responses.jsonl"],
    ),
    "compare": (["compare", *MATRIX, "--configs", "configs.jsonl"], ["norm_bigram.tsv", "configs.jsonl"]),
    "simulate": (
        ["simulate", *MATRIX, "--scenarios", "scenarios.jsonl", "--speaker", "bigram:literal",
         "--listener", "bigram:pragmatic:1"],
        ["norm_bigram.tsv", "scenarios.jsonl"],
    ),
}
CASES = [(name, file) for name, (_, files) in COMMANDS.items() for file in files]

# The errors that name another cause than the mutated file: a word it no
# longer holds, named in another input that still uses the word; and a
# matrix that now holds another metric than the models ask for.
ABSENT = re.compile(r"^error: ([^:]+)(:\d+)?: (noun|adjective|word) '.*' absent$")
OTHER_CAUSE = re.compile(r"^error: no matrix supplied for metric '.*'$")


def _jsonl(records) -> str:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Every command's input files, in one directory; the matrices and
    scenarios come from the CLI itself."""
    work = tmp_path_factory.mktemp("fuzz-base")
    for path in GOLDEN_INPUTS.iterdir():
        shutil.copy(path, work)
    (work / "speaker.json").write_text(json.dumps(SPEAKER_CONFIG))
    (work / "responses.jsonl").write_text(_jsonl(RESPONSES))
    (work / "configs.jsonl").write_text(_jsonl(record["configuration"] for record in RESPONSES))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        for argv in (
            ["ingest", "counts", "counts.tsv", "--lexicon", "lexicon.txt", "--output", "raw_bigram.tsv"],
            ["normalize", "raw_bigram.tsv", "--output", "norm_bigram.tsv"],
            ["oed", *MATRIX, "--preset", "exp4", "--iterations", "200", "--top", "4", "--output", "scenarios.jsonl"],
        ):
            assert cli.main(argv) == 0, argv
    return work


def _wrong_type(rng: random.Random, data: bytes) -> bytes:
    """One JSON value of one record (a line of a JSONL file) replaced by a
    value of another type."""
    lines = data.decode().splitlines()
    line = rng.randrange(len(lines))
    record = json.loads(lines[line])
    paths, stack = [(None, None)], [record]  # (holder, key) of each value; (None, None) is the record
    while stack:
        value = stack.pop()
        items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
        for k, v in items:
            paths.append((value, k))
            stack.append(v)
    holder, key = rng.choice(paths)
    old = record if holder is None else holder[key]
    new = rng.choice([v for v in (None, True, 3, 2.5, "x", [], {}) if type(v) is not type(old)])
    if holder is None:
        record = new
    else:
        holder[key] = new
    lines[line] = json.dumps(record)
    return ("\n".join(lines) + "\n").encode()


def _mutate(rng: random.Random, kind: str, data: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    lines = data.splitlines(keepends=True)
    line = rng.randrange(len(lines))
    if kind == "random-bytes":
        return data[:at] + rng.randbytes(rng.randint(1, 8)) + data[at + rng.randint(0, 8):]
    if kind == "invalid-utf8":
        return data[:at] + rng.choice([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]) + data[at:]
    if kind == "truncated":
        return data[:at]
    if kind == "deleted-line":
        return b"".join(lines[:line] + lines[line + 1:])
    if kind == "duplicated-line":
        return b"".join(lines[: line + 1] + lines[line:])
    if kind == "inserted-characters":
        chars = "".join(rng.choice("\t\n #[]{}\",:.-e0Z9x\r ") for _ in range(rng.randint(1, 3)))
        text = data.decode()
        at = rng.randrange(len(text) + 1)
        return (text[:at] + chars + text[at:]).encode()
    assert kind == "json-type"
    return _wrong_type(rng, data)


def _kinds(file: str) -> list[str]:
    kinds = ["random-bytes", "invalid-utf8", "truncated", "deleted-line", "duplicated-line", "inserted-characters"]
    return kinds + ["json-type"] if file.endswith((".json", ".jsonl")) else kinds


@pytest.mark.parametrize("command, file", CASES)
def test_a_mutated_input_fails_cleanly_and_names_its_file(base, tmp_path, capsys, monkeypatch, command, file):
    argv, files = COMMANDS[command]
    work = tmp_path / "work"
    shutil.copytree(base, work)
    monkeypatch.chdir(work)
    original = (work / file).read_bytes()
    rng = random.Random(f"{command}/{file}")
    for kind in _kinds(file):
        for _ in range(MUTATIONS_PER_KIND):
            mutated = _mutate(rng, kind, original)
            (work / file).write_bytes(mutated)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main([*argv, "--output", "out.txt"])
            err = capsys.readouterr().err
            case = f"{kind} of {file}: {mutated!r}\n{err}"
            if code == 0:
                continue
            assert code in (1, 2), case
            errors = [line for line in err.splitlines() if line.startswith(("error:", "usage error:"))]
            assert len(errors) == 1 and "Traceback" not in err, case
            absent = ABSENT.match(errors[0])
            assert file in errors[0] or (absent and absent[1] in files) or OTHER_CAUSE.match(errors[0]), case
