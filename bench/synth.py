"""Seeded synthetic inputs for the benchmark.

Everything the program sees in the in-process workloads comes from
here, written as the same file formats a user would feed the CLI:
a lexicon, co-occurrence counts, embeddings, graph relatedness scores,
topic distributions, response records and scenario lists.

All four resources derive from one latent noun/adjective space, so the
metrics agree with each other the way real resources roughly do. Cells
lack evidence only where the resource itself lacks it: a zero count or
an absent relatedness edge. Nothing is masked by hand. The same seed
gives the same bytes.

This module imports numpy only; it never imports the program.

    python synth.py DIRECTORY SEED    # generate(DIRECTORY, SEED)
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

# Paper scale: a few hundred nouns and adjectives.
SETTINGS = {
    "nouns": 300,
    "adjectives": 150,
    "latent_dim": 8,
    "embedding_dim": 50,
    "topics": 20,
    "count_mean": 3.0,
    "relatedness_absent": 0.25,
    "responses": 3600,
    "response_shape": [3, 4],
    "responders": 20,
    "scenarios": 2400,
    "scenario_shape": [5, 8],
}

# A small lexicon whose outputs have recorded digests (see digests.json);
# small enough that sampled scenarios often share words, so the diversity
# filter has work to do.
REFERENCE_SEED = 0
REFERENCE_SETTINGS = dict(
    SETTINGS, nouns=12, adjectives=10, responses=60, scenarios=40
)

FILES = {
    "lexicon": "lexicon.txt",
    "counts": "counts.tsv",
    "embeddings": "embeddings.txt",
    "relatedness": "relatedness.tsv",
    "topics": "topics.txt",
    "responses": "responses.jsonl",
    "scenarios": "scenarios.jsonl",
}


def _words(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(count)]


def _write_labeled(path: Path, nouns, adjectives, matrix, fmt, comments=()) -> None:
    lines = list(comments)
    lines.append("\t" + "\t".join(adjectives))
    for noun, row in zip(nouns, matrix):
        lines.append(noun + "\t" + "\t".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_vectors(path: Path, words, rows) -> None:
    lines = [w + " " + " ".join(repr(float(v)) for v in row) for w, row in zip(words, rows)]
    path.write_text("\n".join(lines) + "\n")


def _counts(rng, affinity, mean) -> np.ndarray:
    n_nouns, n_adjs = affinity.shape
    noun_bias = rng.normal(0.0, 0.5, size=(n_nouns, 1))
    adj_bias = rng.normal(0.0, 0.5, size=(1, n_adjs))
    rates = np.exp(affinity + noun_bias + adj_bias)
    rates *= mean / rates.mean()
    counts = rng.poisson(rates)
    # A noun seen with no adjective at all is not in the corpus; give it
    # one observation with its strongest adjective.
    for i in np.nonzero(counts.sum(axis=1) == 0)[0]:
        counts[i, int(np.argmax(affinity[i]))] = 1
    return counts


def _relatedness(rng, affinity, absent) -> np.ndarray:
    scores = np.log1p(np.exp(affinity + rng.normal(0.0, 0.5, size=affinity.shape)))
    # weakly related words are more likely to have no edge
    p_absent = absent * 2.0 / (1.0 + np.exp(affinity))
    scores[rng.random(size=affinity.shape) < p_absent] = 0.0
    return scores


def _topics(rng, latent, n_topics) -> np.ndarray:
    projection = rng.normal(size=(latent.shape[1], n_topics))
    logits = latent @ projection
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    concentration = 0.05 + 2.0 * weights / weights.sum(axis=1, keepdims=True)
    return np.stack([rng.dirichlet(c) for c in concentration])


def _response_records(rng, nouns, adjectives, count, shape, responders) -> list[dict]:
    k, m = shape
    records = []
    for _ in range(count):
        noun_idx = sorted(rng.choice(len(nouns), size=k, replace=False).tolist())
        adj_idx = sorted(rng.choice(len(adjectives), size=m, replace=False).tolist())
        scenario = {
            "nouns": [nouns[i] for i in noun_idx],
            "adjectives": [adjectives[j] for j in adj_idx],
        }
        pairs = list(combinations(scenario["nouns"], 2))
        if rng.random() < 0.5:
            config = {"scenario": scenario, "role": "speaker",
                      "target_pair": list(pairs[int(rng.integers(len(pairs)))])}
            support = scenario["adjectives"]
        else:
            config = {"scenario": scenario, "role": "listener",
                      "clue": scenario["adjectives"][int(rng.integers(m))]}
            support = [list(p) for p in pairs]
        tallies = rng.multinomial(responders, rng.dirichlet(np.ones(len(support))))
        answers = [[a, int(c)] for a, c in zip(support, tallies) if c > 0]
        answers.sort(key=lambda item: json.dumps(item[0]))
        confidences = rng.integers(1, 6, size=responders).tolist()
        records.append({"configuration": config, "answers": answers, "confidences": confidences})
    return records


def _scenario_records(rng, nouns, adjectives, count, shape) -> list[dict]:
    k, m = shape
    records = []
    for _ in range(count):
        noun_idx = sorted(rng.choice(len(nouns), size=k, replace=False).tolist())
        adj_idx = sorted(rng.choice(len(adjectives), size=m, replace=False).tolist())
        records.append({
            "nouns": [nouns[i] for i in noun_idx],
            "adjectives": [adjectives[j] for j in adj_idx],
        })
    return records


def generate(directory: Path, seed: int, settings: dict = SETTINGS) -> dict[str, Path]:
    """Write every input file for `seed` into directory; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / filename for name, filename in FILES.items()}
    rng = np.random.default_rng(seed)
    nouns = _words("noun", settings["nouns"])
    adjectives = _words("adj", settings["adjectives"])
    paths["lexicon"].write_text(
        "\n".join(["[nouns]", *nouns, "[adjectives]", *adjectives]) + "\n"
    )

    dim = settings["latent_dim"]
    noun_latent = rng.normal(size=(len(nouns), dim))
    adj_latent = rng.normal(size=(len(adjectives), dim))
    affinity = noun_latent @ adj_latent.T / np.sqrt(dim)

    counts = _counts(rng, affinity, settings["count_mean"])
    _write_labeled(paths["counts"], nouns, adjectives, counts, str, ["# source: synthetic"])

    projection = rng.normal(size=(dim, settings["embedding_dim"]))
    noise = 0.5 * rng.normal(size=(len(nouns) + len(adjectives), settings["embedding_dim"]))
    vectors = np.vstack([noun_latent, adj_latent]) @ projection + noise
    _write_vectors(paths["embeddings"], nouns + adjectives, vectors)

    relatedness = _relatedness(rng, affinity, settings["relatedness_absent"])
    _write_labeled(paths["relatedness"], nouns, adjectives, relatedness, lambda v: repr(float(v)))

    topics = _topics(rng, np.vstack([noun_latent, adj_latent]), settings["topics"])
    _write_vectors(paths["topics"], nouns + adjectives, topics)

    responses = _response_records(
        rng, nouns, adjectives, settings["responses"],
        settings["response_shape"], settings["responders"],
    )
    paths["responses"].write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in responses)
    )
    scenarios = _scenario_records(
        rng, nouns, adjectives, settings["scenarios"], settings["scenario_shape"]
    )
    paths["scenarios"].write_text(
        "".join(json.dumps(s, sort_keys=True) + "\n" for s in scenarios)
    )
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: synth.py DIRECTORY SEED")
    generate(Path(sys.argv[1]), int(sys.argv[2]))
