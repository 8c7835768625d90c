"""Noun-adjective association matrices and quantile normalization.

Four metrics, one shape: every metric reduces its resource to a
|nouns| x |adjectives| matrix of raw association scores where larger
means more associated. Quantile normalization then maps every matrix
onto a shared (0, 1] scale so downstream agents can treat the metrics
interchangeably. Cells flagged as unobserved are floored to ZERO_FLOOR
after ranking.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, prefix_errors
from .lexicon import (
    CooccurrenceCounts,
    EmbeddingTable,
    Lexicon,
    RelatednessTable,
    TopicTable,
    lexicon_array,
    parse_cells,
    read_labeled_matrix,
    reject_cells,
    write_labeled_matrix,
)

METRIC_BIGRAM = "bigram"
METRIC_EMBEDDING = "embedding-cosine"
METRIC_RELATEDNESS = "graph-relatedness"
METRIC_TOPIC = "topic-distance"

# Value written into masked (unobserved) cells after normalization.
ZERO_FLOOR = 1e-7


@dataclass(frozen=True, eq=False)
class AssociationMatrix:
    """Raw metric scores with a mask of unobserved cells."""

    metric: str
    lexicon: Lexicon
    raw: np.ndarray
    zero_mask: np.ndarray | None = None

    def __post_init__(self):
        if not self.metric:
            raise DataError("empty metric id")
        mask = np.zeros(self.lexicon.shape, bool) if self.zero_mask is None else self.zero_mask
        object.__setattr__(self, "raw", lexicon_array(self.raw, self.lexicon, "association score"))
        object.__setattr__(self, "zero_mask", lexicon_array(mask, self.lexicon, "zero-mask", bool))


@dataclass(frozen=True, eq=False)
class NormalizedAssociation:
    """Quantile-normalized scores: every unmasked cell in (0, 1],
    every masked cell exactly ZERO_FLOOR."""

    metric: str
    lexicon: Lexicon
    values: np.ndarray
    zero_mask: np.ndarray

    def __post_init__(self):
        if not self.metric:
            raise DataError("empty metric id")
        lexicon = self.lexicon
        values = lexicon_array(self.values, lexicon, "normalized score")
        mask = lexicon_array(self.zero_mask, lexicon, "zero-mask", bool)
        out_of_range = ~mask & ((values <= 0) | (values > 1))
        reject_cells(out_of_range, values, lexicon, "normalized scores must lie in (0, 1], got")
        off_floor = mask & (values != ZERO_FLOOR)
        reject_cells(off_floor, values, lexicon, f"masked cells must equal {ZERO_FLOOR!r}, got")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "zero_mask", mask)

    @cached_property
    def _ranks(self) -> np.ndarray:
        """_centered_ranks of the cells as one read-only row: a Spearman rank
        step, cached, as `values` is a frozen copy."""
        ranks = _centered_ranks(self.values.reshape(1, -1))
        ranks.flags.writeable = False
        return ranks


class Tables(dict):
    """Normalized matrices keyed by metric, all over one lexicon.

    Build with Tables.of, which validates once; looking up a metric that
    is not present raises a DataError naming it.
    """

    @classmethod
    def of(cls, tables) -> "Tables":
        """A Tables from a Tables (returned as is), a single matrix, or a
        mapping from metric to matrix."""
        if isinstance(tables, cls):
            return tables
        if isinstance(tables, NormalizedAssociation):
            tables = {tables.metric: tables}
        values = tables.values() if isinstance(tables, Mapping) else [None]
        if not all(isinstance(table, NormalizedAssociation) for table in values):
            raise DataError(f"expected normalized matrices by metric, got {type(tables).__name__}")
        tables = cls(tables)
        if not tables:
            raise DataError("no matrices supplied")
        lexicon = tables.lexicon
        if any(table.lexicon != lexicon for table in tables.values()):
            raise DataError("matrices disagree on the lexicon")
        for key, table in tables.items():
            if table.metric != key:
                raise DataError(f"matrix for metric '{key}' holds metric '{table.metric}'")
        return tables

    @property
    def lexicon(self) -> Lexicon:
        return next(iter(self.values())).lexicon

    def __missing__(self, metric):
        held = "', '".join(self)
        raise DataError(f"no matrix supplied for metric '{metric}'; the matrices hold '{held}'")


# ---------------------------------------------------------------------------
# metrics

def bigram_association(counts: CooccurrenceCounts) -> AssociationMatrix:
    """Pointwise co-occurrence lift: P(adjective | noun) / P(adjective).

    P(adjective) is the marginal over the in-vocabulary count table.
    A noun with no observations at all has no conditional and is an
    error; an adjective never observed yields score 0 in its column,
    and every zero-count cell is masked.
    """
    z = counts.z.astype(float)
    noun_totals = z.sum(axis=1)
    for i, total in enumerate(noun_totals):
        if total == 0:
            raise DataError(f"noun '{counts.lexicon.nouns[i]}' has no observations")
    adj_totals = z.sum(axis=0)
    grand = z.sum()
    p_adj_given_noun = z / noun_totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_adj = adj_totals / grand
        lift = p_adj_given_noun / p_adj[None, :]
    lift[:, adj_totals == 0] = 0.0
    return AssociationMatrix(METRIC_BIGRAM, counts.lexicon, lift, counts.z == 0)


def cosine_association(embeddings: EmbeddingTable) -> AssociationMatrix:
    """Cosine similarity between noun and adjective vectors."""
    lex = embeddings.lexicon
    noun_mat = embeddings.matrix(lex.nouns)
    adj_mat = embeddings.matrix(lex.adjectives)
    noun_norms = np.linalg.norm(noun_mat, axis=1)
    adj_norms = np.linalg.norm(adj_mat, axis=1)
    sims = (noun_mat @ adj_mat.T) / (noun_norms[:, None] * adj_norms[None, :])
    return AssociationMatrix(METRIC_EMBEDDING, lex, sims, np.zeros(lex.shape, dtype=bool))


def relatedness_association(table: RelatednessTable) -> AssociationMatrix:
    """Graph relatedness passes through; a score of 0 marks an absent edge."""
    return AssociationMatrix(
        METRIC_RELATEDNESS, table.lexicon, table.scores.copy(), table.scores == 0
    )


def topic_association(topics: TopicTable) -> AssociationMatrix:
    """Negated Euclidean distance between topic distributions.

    Negation keeps the "larger is more associated" orientation; distance
    0 (identical distributions) is the strongest score, so nothing is
    masked.
    """
    lex = topics.lexicon
    noun_mat = np.stack([topics.distributions[w] for w in lex.nouns])
    adj_mat = np.stack([topics.distributions[w] for w in lex.adjectives])
    diffs = noun_mat[:, None, :] - adj_mat[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    return AssociationMatrix(METRIC_TOPIC, lex, -dists, np.zeros(lex.shape, dtype=bool))


# ---------------------------------------------------------------------------
# normalization and lookups

def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks 1..n along the last axis of a float array, tied
    values sharing the mean of their ranks (scipy.stats.rankdata's
    "average" method, row by row). A tie group at sorted positions
    start..end-1 of its row gets (start + end + 1) / 2, an exact half, so
    the ranks carry no rounding. The tie groups are found in one pass over
    the rows' sorted values laid end to end, with a group edge at every
    row start. Callers keep NaN out: it would be ranked as if it were
    larger than +inf."""
    width = max(values.shape[-1], 1)
    order = values.argsort(axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, -1).ravel()
    edge = np.ones(ordered.size + 1, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    edge[::width] = True
    edges = edge.nonzero()[0]
    starts, sizes = edges[:-1], np.diff(edges)
    # a group's start within its row is start % width, its end that plus size
    grouped = ((2 * (starts % width) + sizes + 1) / 2).repeat(sizes).reshape(values.shape)
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, grouped, -1)
    return ranks


def _centered_ranks(values: np.ndarray) -> np.ndarray:
    """Each row's descending average ranks minus their mean, which for
    ranks 1..n is always (n + 1) / 2 exactly."""
    return average_ranks(-values) - (values.shape[-1] + 1) / 2


def quantile_normalize(assoc: AssociationMatrix) -> NormalizedAssociation:
    """Map raw scores onto (0, 1] by pooled quantile rank.

    All cells are pooled, ranked ascending with average ranks for ties,
    and each cell becomes rank / cell_count. Masked cells are overwritten
    with ZERO_FLOOR afterwards, so the mask wins over the rank.
    """
    if not isinstance(assoc, AssociationMatrix):
        raise DataError(f"expected an association matrix, got {type(assoc).__name__}")
    flat = assoc.raw.ravel()
    ranks = average_ranks(flat)
    values = (ranks / flat.size).reshape(assoc.raw.shape)
    values[assoc.zero_mask] = ZERO_FLOOR
    return NormalizedAssociation(assoc.metric, assoc.lexicon, values, assoc.zero_mask.copy())


def check_scenario_fit(shape: tuple[int, int], top_noun: int, top_adjective: int) -> None:
    """Reject a scenario whose largest noun or adjective index is past a (nouns, adjectives) shape."""
    for kind, top, size in (("noun", top_noun, shape[0]), ("adjective", top_adjective, shape[1])):
        if top >= size:
            raise DataError(f"scenario {kind} index out of range for this matrix")


def sparsity_report(norm: NormalizedAssociation, configurations) -> float:
    """Fraction of cell references falling on masked cells.

    A speaker configuration references its two target nouns crossed with
    every scenario adjective; a listener configuration references its
    clue adjective crossed with every scenario noun. References are
    counted with multiplicity across configurations.
    """
    if not isinstance(norm, NormalizedAssociation):
        raise DataError(f"expected a normalized matrix, got {type(norm).__name__}")
    configurations = list(configurations)
    if not configurations:
        raise DataError("no configurations given")
    mask = norm.zero_mask
    total = masked = 0
    for config in configurations:
        scenario = config.scenario
        check_scenario_fit(mask.shape, max(scenario.nouns), max(scenario.adjectives))
        if config.role == "speaker":
            nouns, adjectives = [scenario.nouns[i] for i in config.index], scenario.adjectives
        else:
            nouns, adjectives = scenario.nouns, [scenario.adjectives[config.index]]
        cells = mask[np.ix_(nouns, adjectives)]
        total, masked = total + cells.size, masked + int(cells.sum())
    return masked / total


# ---------------------------------------------------------------------------
# serialization

_STAGE_RAW = "raw"
_STAGE_NORMALIZED = "normalized"


def _mask_spec(mask: np.ndarray) -> str:
    rows, cols = np.nonzero(mask)
    return ";".join(map("{},{}".format, rows.tolist(), cols.tolist()))


def _parse_mask_spec(spec: str, shape: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    spec = spec.strip()
    if not spec:
        return mask
    for part in spec.split(";"):
        try:
            r_text, c_text = part.split(",")
            r, c = int(r_text), int(c_text)
        except ValueError:
            raise DataError(f"malformed zero-mask entry {part!r}") from None
        if not (0 <= r < shape[0] and 0 <= c < shape[1]):
            raise DataError(f"zero-mask entry {part!r} out of range")
        mask[r, c] = True
    return mask


def _write_matrix(metric, lexicon, matrix, mask, stage, path) -> None:
    comments = [f"# metric: {metric}", f"# stage: {stage}", f"# zero-mask: {_mask_spec(mask)}"]
    write_labeled_matrix(path, lexicon, matrix, comments=comments)


def save_association(assoc: AssociationMatrix, path: str | Path) -> None:
    _write_matrix(assoc.metric, assoc.lexicon, assoc.raw, assoc.zero_mask, _STAGE_RAW, path)


def save_normalized(norm: NormalizedAssociation, path: str | Path) -> None:
    _write_matrix(norm.metric, norm.lexicon, norm.values, norm.zero_mask, _STAGE_NORMALIZED, path)


def _read_matrix(path: str | Path, expect_stage: str, build):
    """build(metric, lexicon, matrix, mask) from a matrix file; errors name the file."""
    row_labels, col_labels, cells, comments = read_labeled_matrix(path)
    keys = {}
    for comment in comments:
        key, colon, value = comment.lstrip("#").strip().partition(":")
        if colon:
            keys[key] = value.strip()
    stage = keys.get("stage", expect_stage)
    with prefix_errors(path):
        if "metric" not in keys:
            raise DataError("missing '# metric:' line")
        if stage != expect_stage:
            raise DataError(f"stage '{stage}' where '{expect_stage}' expected")
        lexicon = Lexicon(tuple(row_labels), tuple(col_labels))
        matrix = parse_cells(cells, lexicon, "cell")
        mask = _parse_mask_spec(keys.get("zero-mask", ""), lexicon.shape)
        return build(keys["metric"], lexicon, matrix, mask)


def load_association(path: str | Path) -> AssociationMatrix:
    return _read_matrix(path, _STAGE_RAW, AssociationMatrix)


def load_normalized(path: str | Path) -> NormalizedAssociation:
    return _read_matrix(path, _STAGE_NORMALIZED, NormalizedAssociation)
