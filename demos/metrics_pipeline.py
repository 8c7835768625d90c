"""Build every association metric for a toy vocabulary and normalize them.

Walks the full ingestion path: raw resources -> metric matrices ->
pooled quantile normalization -> pairwise metric comparison.
"""

import numpy as np

from refgame import (
    CooccurrenceCounts,
    EmbeddingTable,
    Lexicon,
    RelatednessTable,
    TopicTable,
    bigram_association,
    cosine_association,
    metric_rank_correlation,
    quantile_normalize,
    relatedness_association,
    sparsity_report,
    topic_association,
    Scenario,
    Configuration,
)

rng = np.random.default_rng(7)

nouns = ("heart", "phone", "wedding", "mirror", "garden")
adjs = ("dying", "violent", "empty", "gentle", "loud")
lexicon = Lexicon(nouns, adjs)
words = list(nouns) + list(adjs)

print("=== raw resources ===")
counts = rng.integers(0, 40, size=(5, 5))
counts[counts < 4] = 0  # sparse corpus: some pairs never co-occur
counts[counts.sum(axis=1) == 0, 0] = 5  # but every noun is attested
print("co-occurrence counts:\n", counts)

vectors = {w: rng.normal(size=4) for w in words}
relatedness = rng.random(size=(5, 5)) * 2
relatedness[rng.random(size=(5, 5)) < 0.15] = 0.0
topics = {w: rng.dirichlet(np.ones(3)) for w in words}

print("\n=== metric matrices ===")
tables = {}
for assoc in (
    bigram_association(CooccurrenceCounts(lexicon, counts)),
    cosine_association(EmbeddingTable(lexicon, vectors)),
    relatedness_association(RelatednessTable(lexicon, relatedness)),
    topic_association(TopicTable(lexicon, topics)),
):
    norm = quantile_normalize(assoc)
    tables[norm.metric] = norm
    print(f"{norm.metric}: raw range [{assoc.raw.min():.3f}, {assoc.raw.max():.3f}], "
          f"{int(assoc.zero_mask.sum())} masked cells")

print("\nnormalized bigram matrix (masked cells pinned at 1e-7):")
with np.printoptions(precision=3, suppress=True):
    print(tables["bigram"].values)

print("\n=== how sparse is the bigram metric where it matters? ===")
# nouns 1 and 2 were never seen with adjective 3 in this corpus, so a
# scenario built on them leans on masked cells
scenario = Scenario((0, 1, 2), (2, 3))
configs = [Configuration(scenario, "listener", a) for a in range(scenario.m)]
configs += [Configuration(scenario, "speaker", p) for p in scenario.pairs]
print("fraction of unobserved cells touched by these configurations:",
      round(sparsity_report(tables["bigram"], configs), 3))

print("\n=== do the metrics agree with each other? ===")
metrics = sorted(tables)
for i, a in enumerate(metrics):
    for b in metrics[i + 1:]:
        rho = metric_rank_correlation(tables[a], tables[b])
        print(f"spearman({a}, {b}) = {rho:+.3f}")
