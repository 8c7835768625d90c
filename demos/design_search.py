"""Search for maximally informative scenarios.

Runs the Monte Carlo design search in joint mode with a literal and a
pragmatic bigram agent as the rival model set: high-utility scenarios
are the ones whose answers best reveal which model a player is.
"""

import numpy as np

from refgame import (
    AssociationMatrix,
    Lexicon,
    ModelSet,
    SearchSettings,
    filter_candidates,
    monte_carlo_search,
    parse_model_spec,
    quantile_normalize,
)

rng = np.random.default_rng(11)
nouns = tuple(f"noun{i}" for i in range(10))
adjs = tuple(f"adj{j}" for j in range(10))
lexicon = Lexicon(nouns, adjs)
norm = quantile_normalize(AssociationMatrix("bigram", lexicon, rng.normal(size=(10, 10))))
tables = {"bigram": norm}

speaker_models = ModelSet((
    parse_model_spec("bigram:literal", "speaker"),
    parse_model_spec("bigram:pragmatic:1.0", "speaker"),
))
listener_models = ModelSet((
    parse_model_spec("bigram:literal", "listener"),
    parse_model_spec("bigram:pragmatic:1.0", "listener"),
))

settings = SearchSettings(nouns=3, adjectives=3, mode="joint",
                          iterations=20_000, seed=4, top_k=200)
candidates = monte_carlo_search(tables, (speaker_models, listener_models), settings)

print(f"searched {settings.iterations} draws, kept {len(candidates)} candidates")
print(f"utility range: {candidates[-1].utility:.4f} .. {candidates[0].utility:.4f} bits")
print("(ceiling for two models is 1.0 bit)\n")

print("top five scenarios before filtering:")
for cand in candidates[:5]:
    ns = " ".join(nouns[i] for i in cand.scenario.nouns)
    as_ = " ".join(adjs[j] for j in cand.scenario.adjectives)
    print(f"  {cand.utility:.4f}  [{ns}] x [{as_}]")

# the diversity filter: once a scenario is accepted, a later one must
# differ from it by at least two words (the larger of the two boards'
# counts of words the other lacks, nouns and adjectives together), and
# no word may appear more than 20 times overall
kept = filter_candidates(candidates)
print(f"\ndiversity filter: {len(candidates)} -> {len(kept)}")
print("top five after filtering:")
for cand in kept[:5]:
    ns = " ".join(nouns[i] for i in cand.scenario.nouns)
    as_ = " ".join(adjs[j] for j in cand.scenario.adjectives)
    print(f"  {cand.utility:.4f}  [{ns}] x [{as_}]")

occurrences = {}
for cand in kept:
    for i in cand.scenario.nouns:
        occurrences[nouns[i]] = occurrences.get(nouns[i], 0) + 1
busiest = sorted(occurrences.items(), key=lambda kv: -kv[1])[:3]
print("\nbusiest nouns after the cap:", busiest)
