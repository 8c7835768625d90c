"""The package's exported names, pinned: adding or dropping one is a
deliberate change made here too."""

import refgame

EXPORTS = [
    "AssociationMatrix", "Configuration", "CooccurrenceCounts", "DataError", "DesignCandidate",
    "EmbeddingTable", "GameplayReport", "LISTENER", "LITERAL", "Lexicon", "METRIC_BIGRAM",
    "METRIC_EMBEDDING", "METRIC_RELATEDNESS", "METRIC_TOPIC", "MODE_JOINT",
    "MODE_SEPARATE_LISTENER", "MODE_SEPARATE_SPEAKER", "ModelSet", "ModelSpec",
    "NormalizedAssociation", "PRAGMATIC", "PredictionDistribution", "RelatednessTable",
    "ResponseRecord", "SPEAKER", "Scenario", "ScoreReport", "SearchSettings", "TopicTable",
    "ZERO_FLOOR", "aggregate", "answer_support", "association", "bigram_association",
    "confidence_ttest", "cosine_association", "errors", "evaluation", "filter_candidates",
    "lexicon", "listener_probs", "load_association", "load_counts", "load_embeddings",
    "load_lexicon", "load_normalized", "load_relatedness", "load_responses", "load_topics",
    "metric_rank_correlation", "model_agreement", "model_information_bits", "monte_carlo_search",
    "noun_pairs", "oed", "parse_model_spec", "predict", "quantile_normalize",
    "read_labeled_matrix", "relatedness_association", "render_gameplay", "render_matrix",
    "render_score_reports", "response_from_record", "response_probability", "rsa",
    "save_association", "save_normalized", "scenario_joint_utility", "scenario_scores",
    "score_responses", "simulate_gameplay", "sparsity_report", "speaker_probs", "spearman",
    "topic_association", "write_labeled_matrix",
]


def test_exported_names_are_pinned():
    assert len(EXPORTS) == 77
    assert sorted(refgame.__all__) == EXPORTS
