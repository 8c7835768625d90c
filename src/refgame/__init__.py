"""Reference-game toolkit.

Semantic association metrics over noun-adjective vocabularies,
literal and pragmatic speaker/listener agents, information-maximizing
scenario search, and scoring of model predictions against responses.
"""

__version__ = "0.1.0"

from .errors import DataError
from .lexicon import (
    CooccurrenceCounts,
    EmbeddingTable,
    Lexicon,
    RelatednessTable,
    TopicTable,
    load_counts,
    load_embeddings,
    load_lexicon,
    load_relatedness,
    load_topics,
    read_labeled_matrix,
    write_labeled_matrix,
)
from .association import (
    METRIC_BIGRAM,
    METRIC_EMBEDDING,
    METRIC_RELATEDNESS,
    METRIC_TOPIC,
    ZERO_FLOOR,
    AssociationMatrix,
    NormalizedAssociation,
    bigram_association,
    cosine_association,
    load_association,
    load_normalized,
    quantile_normalize,
    relatedness_association,
    save_association,
    save_normalized,
    sparsity_report,
    topic_association,
)
from .rsa import (
    LISTENER,
    LITERAL,
    PRAGMATIC,
    SPEAKER,
    Configuration,
    ModelSpec,
    PredictionDistribution,
    Scenario,
    answer_support,
    listener_probs,
    noun_pairs,
    parse_model_spec,
    predict,
    scenario_scores,
    speaker_probs,
)
from .oed import (
    MODE_JOINT,
    MODE_SEPARATE_LISTENER,
    MODE_SEPARATE_SPEAKER,
    DesignCandidate,
    ModelSet,
    SearchSettings,
    filter_candidates,
    model_information_bits,
    monte_carlo_search,
    response_probability,
    scenario_joint_utility,
)
from .evaluation import (
    GameplayReport,
    ResponseRecord,
    ScoreReport,
    aggregate,
    confidence_ttest,
    load_responses,
    metric_rank_correlation,
    model_agreement,
    render_gameplay,
    render_matrix,
    render_score_reports,
    response_from_record,
    score_responses,
    simulate_gameplay,
    spearman,
)

__all__ = [name for name in dir() if not name.startswith("_")]
