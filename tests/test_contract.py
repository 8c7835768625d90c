"""The byte contract for outputs the golden files do not cover.

Each command runs in-process through cli.main on the golden inputs, in a
working directory of copies, so every path a manifest records is a bare
file name. The SHA-256 of each output and of its manifest must equal the
table below: ingest of relatedness and topics, their normalized
matrices, predict in both roles, both separate search modes, a
three-metric joint search, and score, compare and simulate as aligned
tables. Every model is literal or pragmatic at alpha 1; outputs at other
alphas and the raw embedding matrix are left out, since their last bits
depend on the host's SIMD dispatch and BLAS.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from refgame import cli

GOLDEN_INPUTS = Path(__file__).parent / "data" / "golden" / "inputs"

MATRICES = ["--matrix", "norm_bigram.tsv", "--matrix", "norm_relatedness.tsv",
            "--matrix", "norm_topics.tsv"]
LITERAL_MODELS = ["--model", "bigram:literal", "--model", "graph-relatedness:literal",
                  "--model", "topic-distance:literal"]
SEARCH = ["--iterations", "300", "--seed", "5", "--top", "12"]

SCENARIO = {"nouns": ["heart", "wedding", "garden"], "adjectives": ["dying", "gentle", "broken"]}
SPEAKER_CONFIG = {"scenario": SCENARIO, "role": "speaker", "target_pair": ["heart", "garden"]}
LISTENER_CONFIG = {"scenario": SCENARIO, "role": "listener", "clue": "gentle"}
WIDE = {"nouns": ["phone", "mirror", "engine", "letter"],
        "adjectives": ["violent", "empty", "ancient", "loud", "bright"]}
RESPONSES = [
    {"configuration": SPEAKER_CONFIG, "answers": [["dying", 4], ["gentle", 1]], "confidences": [3, 4]},
    {"configuration": LISTENER_CONFIG, "answers": [[["heart", "wedding"], 2], [["wedding", "garden"], 3]],
     "confidences": [2]},
    {"configuration": {"scenario": WIDE, "role": "speaker", "target_pair": ["mirror", "letter"]},
     "answers": [["loud", 1], ["bright", 2], ["empty", 2]]},
    {"configuration": {"scenario": WIDE, "role": "listener", "clue": "ancient"},
     "answers": [[["phone", "engine"], 5], [["engine", "letter"], 1]], "confidences": [5, 1, 3]},
    {"configuration": {**SPEAKER_CONFIG, "target_pair": ["heart", "wedding"]},
     "answers": [["broken", 3]]},
]

# each step: (argv, the files it writes besides their manifests)
STEPS = [
    (["ingest", "counts", "counts.tsv", "--lexicon", "lexicon.txt", "--output", "raw_bigram.tsv"], []),
    (["ingest", "relatedness", "relatedness.tsv", "--lexicon", "lexicon.txt",
      "--output", "raw_relatedness.tsv"], ["raw_relatedness.tsv"]),
    (["ingest", "topics", "topics.txt", "--lexicon", "lexicon.txt", "--output", "raw_topics.tsv"],
     ["raw_topics.tsv"]),
    (["normalize", "raw_bigram.tsv", "--output", "norm_bigram.tsv"], []),
    (["normalize", "raw_relatedness.tsv", "--output", "norm_relatedness.tsv"], ["norm_relatedness.tsv"]),
    (["normalize", "raw_topics.tsv", "--output", "norm_topics.tsv"], ["norm_topics.tsv"]),
    (["predict", *MATRICES, "--config", "speaker.json", "--model", "graph-relatedness:literal",
      "--output", "predict_speaker.tsv"], ["predict_speaker.tsv"]),
    (["predict", *MATRICES, "--config", "listener.json", "--model", "topic-distance:literal",
      "--output", "predict_listener.tsv"], ["predict_listener.tsv"]),
    (["oed", *MATRICES, *LITERAL_MODELS, "--nouns", "3", "--adjectives", "4",
      "--mode", "separate-speaker", *SEARCH, "--output", "separate_speaker.jsonl"],
     ["separate_speaker.jsonl"]),
    (["oed", *MATRICES, *LITERAL_MODELS, "--nouns", "3", "--adjectives", "4",
      "--mode", "separate-listener", *SEARCH, "--output", "separate_listener.jsonl"],
     ["separate_listener.jsonl"]),
    (["oed", *MATRICES, *LITERAL_MODELS, "--nouns", "3", "--adjectives", "3",
      "--mode", "joint", *SEARCH, "--output", "joint.jsonl"], ["joint.jsonl"]),
    (["score", *MATRICES, "--responses", "responses.jsonl", *LITERAL_MODELS,
      "--model", "bigram:pragmatic:1", "--format", "table", "--output", "score.txt"], ["score.txt"]),
    (["compare", *MATRICES, "--configs", "configs.jsonl", "--format", "table",
      "--output", "compare.txt"], ["compare.txt"]),
    (["simulate", *MATRICES, "--scenarios", "joint.jsonl", "--speaker", "topic-distance:literal",
      "--listener", "graph-relatedness:pragmatic:1", "--format", "table",
      "--output", "simulate.txt"], ["simulate.txt"]),
]

# SHA-256 of each file, taken from the tree that added this test
CONTRACT = {
    "compare.txt": "709cd0e0efbc0406a5c824115cedbd64919e730b31b2101b616239381dd76bc7",
    "compare.txt.manifest.json": "1c4bc870e15739460e88cff08d52f37bc194f172df4a76592bc56886688b79ef",
    "joint.jsonl": "eaa5ed1aa83e38e69a3243eeac28b5d60817268992a6286ebeb85444a136f779",
    "joint.jsonl.manifest.json": "dabde548efab7b9cd6c73497be417e8585a8ab30ef6238a50ad6c61d98c79eb4",
    "norm_relatedness.tsv": "8cc55b276437431ddd010f4bee554360963e3a433a0d69c81496ba6fc8cf96be",
    "norm_relatedness.tsv.manifest.json": "c3e1e774c31a23d9bed5a070c650037ec1d661c7515725100e35a0a86e912093",
    "norm_topics.tsv": "ab748efbd180aca1c875068ce44a8e6b228f67d94a5f7ef228586db1f52857e0",
    "norm_topics.tsv.manifest.json": "ec6352807d26b01cb3ad3b72203abda4c969752ec09a4a7c88dd7c74b4436adb",
    "predict_listener.tsv": "c30144f551dbf8b59727b090712b90bd62aa8bd1433e0282e82eac62b65bd9fa",
    "predict_listener.tsv.manifest.json": "017fb4bb82780eb86ce6519b6c15195202f799682f3c45c89b9d02fb3cf60450",
    "predict_speaker.tsv": "a15dc2371a861125cd6f8b62f1387b2ca3015681fc63746dce7b32f1f4405128",
    "predict_speaker.tsv.manifest.json": "8f850a907a5e42f257e332f9ff56ade15881733a316cb3d8e8921aea2c32dd5d",
    "raw_relatedness.tsv": "068d80d7ccd88bddcfce1a7dffbd30974b6238a5f54b88ef71765ec510d20697",
    "raw_relatedness.tsv.manifest.json": "413c6184e28d0f02b800ca41078612c5b84f59171dfea76e1e623e78cf7d8955",
    "raw_topics.tsv": "88955215c4c5c98e0723d7937bb9e653637576c296e4f019ac7c458e030175cd",
    "raw_topics.tsv.manifest.json": "490fd5c0e032ecb2e4ba67943fcf512bf1bc0719c943d60aa322cf0b927097fe",
    "score.txt": "c2da4d751a4737b098d5ca651cb5e541052094dcf65121bc358bc77ed3b33c6d",
    "score.txt.manifest.json": "e4c1be99b76a1a865601e831090ea9b80762e5e639beff773517f20029bdf836",
    "separate_listener.jsonl": "0f5a7ca237424caeb611597214e38dcbead3c386904dd76ffdb3662d0fa3e7d2",
    "separate_listener.jsonl.manifest.json": "e8278ce7f9b6298ef4f82503fc0c7264cbd9ebd9264f655fe5f1a1dbf1452e6d",
    "separate_speaker.jsonl": "6a0caac9b049c085157bec14a165c2a8ba26e4b7297593a301e3683b87f5343c",
    "separate_speaker.jsonl.manifest.json": "937fd424d19f74841486fc3c55fa7e2366ddab2769cdfc5458b9c714a0b01f2a",
    "simulate.txt": "acceec493d8c7581515ce7a6e0481d279503718dc2a2718e1770b8f41585fb3e",
    "simulate.txt.manifest.json": "51ca87dd4617406202d2f5588ea2f0e9dddee9e37a88b0de2e35ab1d07b10531",
}


def _jsonl(records) -> str:
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Run every step in one working directory; the SHA-256 of each pinned file."""
    work = tmp_path_factory.mktemp("contract")
    for name in ("lexicon.txt", "counts.tsv", "relatedness.tsv", "topics.txt"):
        shutil.copy(GOLDEN_INPUTS / name, work)
    (work / "speaker.json").write_text(json.dumps(SPEAKER_CONFIG))
    (work / "listener.json").write_text(json.dumps(LISTENER_CONFIG))
    (work / "responses.jsonl").write_text(_jsonl(RESPONSES))
    (work / "configs.jsonl").write_text(_jsonl(record["configuration"] for record in RESPONSES))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        for argv, _ in STEPS:
            assert cli.main(argv) == 0, argv
    names = [name for _, outputs in STEPS for name in outputs]
    names += [argv[-1] + ".manifest.json" for argv, outputs in STEPS if outputs]
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in names}


def test_every_pinned_output_is_in_the_contract(digests):
    assert sorted(digests) == sorted(CONTRACT)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_output_bytes_match_the_contract(digests, name):
    assert digests[name] == CONTRACT[name]
