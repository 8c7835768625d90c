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

The seeds were fixed before any margin was read: LEXICON_SEED builds
the lexicon, the search runs with SEARCH_SEED, and SAMPLE_SEED draws
the random scenarios and the answers.
"""

import math

import numpy as np
import pytest

from refgame import (
    Configuration,
    CooccurrenceCounts,
    EmbeddingTable,
    ModelSet,
    Scenario,
    SearchSettings,
    bigram_association,
    cosine_association,
    monte_carlo_search,
    parse_model_spec,
    predict,
    quantile_normalize,
)
from refgame import rsa

from conftest import make_lexicon

LEXICON_SEED, SEARCH_SEED, SAMPLE_SEED = 0, 0, 1
N_NOUNS, N_ADJS, LATENT = 30, 20, 3
DESIGNS, ANSWERS_PER_CONFIGURATION = 20, 10
MARGIN = 1.5


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
    models = tuple(
        ModelSet(tuple(parse_model_spec(s, role) for s in specs)) for role in (rsa.SPEAKER, rsa.LISTENER)
    )
    found = monte_carlo_search(
        tables, models, SearchSettings(3, 3, "joint", iterations=2000, seed=SEARCH_SEED, top_k=DESIGNS)
    )
    designs = [candidate.scenario for candidate in found]
    rng = np.random.default_rng(SAMPLE_SEED)
    random_scenarios = [
        Scenario(tuple(rng.choice(N_NOUNS, 3, replace=False).tolist()),
                 tuple(rng.choice(N_ADJS, 3, replace=False).tolist()))
        for _ in range(DESIGNS)
    ]
    on_designs = log_likelihood_ratios(tables, designs, specs, rng)
    on_random = log_likelihood_ratios(tables, random_scenarios, specs, rng)
    for roles in (rsa.ROLES, (rsa.LISTENER,)):
        mean_on_designs, mean_on_random = (
            np.mean([ratio for role in roles for ratio in ratios[role]]) for ratios in (on_designs, on_random)
        )
        assert mean_on_random > 0
        assert mean_on_designs >= MARGIN * mean_on_random, (roles, mean_on_designs, mean_on_random)
