"""Model recovery: the searched designs tell rival models apart.

The paper picks its boards by optimal experiment design: the joint
search keeps the scenarios whose answers carry the most information
about which model answers. So answers sampled from one model on the top
designs must favour it over its rival faster than answers sampled on
random scenarios do. Each comparison samples answers from its first
model on every configuration and measures the mean log-likelihood ratio
per trial (first model over second), on the top designs and on as many
random 3 x 3 scenarios: over all trials, and over the listener trials
alone. Speaker trials alone are not held to the margin: a literal and an
alpha-1 pragmatic speaker differ little on any 3 x 3 board, and there
the designs beat random boards by only 1.0-1.3x on most lexicon seeds.

The score side asks the same of the measures the paper reports: scored
with `score`'s Spearman, answers sampled from one of four models
(bigram or embedding-cosine, literal or alpha-1 pragmatic) must rank
the generating model above the other three, on the top designs of a
joint search over all four and on random boards; so must the
tie-tolerant top-answer match on random boards. The top-answer match on
the designs is not held to it: with only a literal and an alpha-1
pragmatic bigram model to choose from, it credits the literal model
with pragmatic answers on most lexicon seeds, since on the designs the
two mostly share their argmax and the literal model ties more answers
for its top.

The seeds were fixed before any margin was read: LEXICON_SEED builds
the lexicon, the search runs with SEARCH_SEED, and SAMPLE_SEED draws
the random scenarios and the answers.
"""

import math
from collections import Counter

import numpy as np
import pytest

from refgame import (
    Configuration,
    CooccurrenceCounts,
    EmbeddingTable,
    ModelSet,
    ResponseRecord,
    Scenario,
    SearchSettings,
    bigram_association,
    cosine_association,
    monte_carlo_search,
    parse_model_spec,
    predict,
    quantile_normalize,
    score_responses,
)
from refgame import rsa

from conftest import make_lexicon

LEXICON_SEED, SEARCH_SEED, SAMPLE_SEED = 0, 0, 1
N_NOUNS, N_ADJS, LATENT = 30, 20, 3
DESIGNS, ANSWERS_PER_CONFIGURATION = 20, 10
MARGIN = 1.5
SCORED = ("bigram:literal", "bigram:pragmatic:1.0", "embedding-cosine:literal", "embedding-cosine:pragmatic:1.0")


def generated_tables() -> dict:
    """Bigram and embedding-cosine tables of one latent noun-adjective
    affinity: Poisson co-occurrence counts, and word vectors that are the
    latent vectors plus noise."""
    rng = np.random.default_rng(LEXICON_SEED)
    lexicon = make_lexicon(N_NOUNS, N_ADJS)
    nouns, adjs = rng.normal(size=(N_NOUNS, LATENT)), rng.normal(size=(N_ADJS, LATENT))
    rates = np.exp(nouns @ adjs.T)
    counts = rng.poisson(3.0 * rates / rates.mean())
    counts[counts.sum(axis=1) == 0, 0] = 1
    vectors = {
        word: np.concatenate([vector, rng.normal(scale=0.5, size=LATENT)])
        for words, latent in ((lexicon.nouns, nouns), (lexicon.adjectives, adjs))
        for word, vector in zip(words, latent)
    }
    return {
        assoc.metric: quantile_normalize(assoc)
        for assoc in (
            bigram_association(CooccurrenceCounts(lexicon, counts)),
            cosine_association(EmbeddingTable(lexicon, vectors)),
        )
    }


def configurations(scenario: Scenario):
    for pair in scenario.pairs:
        yield Configuration(scenario, rsa.SPEAKER, pair)
    for clue in range(scenario.m):
        yield Configuration(scenario, rsa.LISTENER, clue)


def boards(tables, specs, rng) -> tuple[list, list]:
    """The top designs of a joint 3 x 3 search over specs, and as many
    random 3 x 3 scenarios drawn with rng."""
    models = tuple(
        ModelSet(tuple(parse_model_spec(s, role) for s in specs)) for role in (rsa.SPEAKER, rsa.LISTENER)
    )
    found = monte_carlo_search(
        tables, models, SearchSettings(3, 3, "joint", iterations=2000, seed=SEARCH_SEED, top_k=DESIGNS)
    )
    random_scenarios = [
        Scenario(tuple(rng.choice(N_NOUNS, 3, replace=False).tolist()),
                 tuple(rng.choice(N_ADJS, 3, replace=False).tolist()))
        for _ in range(DESIGNS)
    ]
    return [candidate.scenario for candidate in found], random_scenarios


def log_likelihood_ratios(tables, scenarios, specs, rng) -> dict:
    """Answers drawn from specs[0] on every configuration of every
    scenario: log p0(answer) - log p1(answer) for each answer, by role."""
    ratios = {rsa.SPEAKER: [], rsa.LISTENER: []}
    for scenario in scenarios:
        for config in configurations(scenario):
            true, rival = (
                predict(tables[spec.metric], config, spec).probs
                for spec in (parse_model_spec(name, config.role) for name in specs)
            )
            for answer in rng.choice(len(true), size=ANSWERS_PER_CONFIGURATION, p=true):
                ratios[config.role].append(math.log(true[answer]) - math.log(rival[answer]))
    return ratios


@pytest.mark.parametrize("specs", [
    ("bigram:literal", "bigram:pragmatic:1.0"),
    ("bigram:literal", "embedding-cosine:literal"),
])
def test_searched_designs_separate_models_better_than_random(specs):
    tables = generated_tables()
    rng = np.random.default_rng(SAMPLE_SEED)
    designs, random_scenarios = boards(tables, specs, rng)
    on_designs = log_likelihood_ratios(tables, designs, specs, rng)
    on_random = log_likelihood_ratios(tables, random_scenarios, specs, rng)
    for roles in (rsa.ROLES, (rsa.LISTENER,)):
        mean_on_designs, mean_on_random = (
            np.mean([ratio for role in roles for ratio in ratios[role]]) for ratios in (on_designs, on_random)
        )
        assert mean_on_random > 0
        assert mean_on_designs >= MARGIN * mean_on_random, (roles, mean_on_designs, mean_on_random)


def sampled_records(tables, scenarios, spec: str, rng) -> list:
    """Response records of ANSWERS_PER_CONFIGURATION answers drawn from
    spec on every configuration of every scenario."""
    records = []
    for scenario in scenarios:
        for config in configurations(scenario):
            model = parse_model_spec(spec, config.role)
            probs = predict(tables[model.metric], config, model).probs
            support = rsa.answer_support(config)
            drawn = rng.choice(len(probs), size=ANSWERS_PER_CONFIGURATION, p=probs)
            records.append(ResponseRecord(config, dict(Counter(support[i] for i in drawn.tolist()))))
    return records


def confusion(tables, scenarios, rng) -> tuple[np.ndarray, np.ndarray]:
    """score's top_mean and rank_mean of each model in SCORED (column) on
    answers sampled from each model in SCORED (row)."""
    top, rank = np.empty((2, len(SCORED), len(SCORED)))
    for row, generating in enumerate(SCORED):
        records = sampled_records(tables, scenarios, generating, rng)
        for column, scored in enumerate(SCORED):
            report = score_responses(tables, scored, records)
            top[row, column], rank[row, column] = report.top_mean, report.rank_mean
    return top, rank


def recovered(matrix: np.ndarray) -> list[bool]:
    """Per row, whether the generating model scores strictly above every other."""
    return [bool(row[n] > np.delete(row, n).max()) for n, row in enumerate(matrix)]


def test_score_recovers_the_generating_model():
    tables = generated_tables()
    rng = np.random.default_rng(SAMPLE_SEED)
    designs, random_scenarios = boards(tables, SCORED, rng)
    everywhere = [True] * len(SCORED)
    top, rank = confusion(tables, designs, rng)
    assert recovered(rank) == everywhere, rank
    top, rank = confusion(tables, random_scenarios, rng)
    assert recovered(rank) == everywhere, rank
    assert recovered(top) == everywhere, top
