"""Literal and pragmatic reference-game agents.

A scenario fixes k nouns and m adjectives; referents are the C(k, 2)
unordered noun pairs. Agents start from the pair-by-adjective matrix of
normalized association products. Literal agents normalize a single row
or column of that matrix. Pragmatic agents run one round of recursive
reasoning: normalize over the other role's axis, exponentiate by the
rationality weight alpha (applied exactly once, at that middle step),
renormalize over their own axis, and read off the requested row or
column.

The chain cores listener_probs/speaker_probs work on any positive score
matrix, which keeps them testable outside scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .association import NormalizedAssociation
from .errors import DataError

SPEAKER = "speaker"
LISTENER = "listener"
ROLES = (SPEAKER, LISTENER)

LITERAL = "literal"
PRAGMATIC = "pragmatic"

# Probabilities within this of the maximum count as tied for the top.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    """k distinct nouns and m distinct adjectives, as lexicon indices."""

    nouns: tuple[int, ...]
    adjectives: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nouns", tuple(int(n) for n in self.nouns))
        object.__setattr__(self, "adjectives", tuple(int(a) for a in self.adjectives))
        if len(self.nouns) < 2:
            raise DataError("scenario needs at least two nouns")
        if len(self.adjectives) < 1:
            raise DataError("scenario needs at least one adjective")
        if len(set(self.nouns)) != len(self.nouns):
            raise DataError("duplicate noun in scenario")
        if len(set(self.adjectives)) != len(self.adjectives):
            raise DataError("duplicate adjective in scenario")
        if any(n < 0 for n in self.nouns) or any(a < 0 for a in self.adjectives):
            raise DataError("negative index in scenario")

    @property
    def k(self) -> int:
        return len(self.nouns)

    @property
    def m(self) -> int:
        return len(self.adjectives)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Referent pairs as scenario positions, lexicographic."""
        return noun_pairs(self.k)


@lru_cache(maxsize=None)
def noun_pairs(k: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(k), 2))


@dataclass(frozen=True)
class Configuration:
    """One playable trial: a scenario, a role, and the prompted item.

    For a speaker the index is a scenario-position pair (i, j) with
    i < j naming the target; for a listener it is the position of the
    clue adjective.
    """

    scenario: Scenario
    role: str
    index: object

    def __post_init__(self):
        if self.role not in ROLES:
            raise DataError(f"unknown role {self.role!r}")
        if self.role == SPEAKER:
            try:
                i, j = self.index
            except (TypeError, ValueError):
                raise DataError(f"speaker index must be a pair, got {self.index!r}") from None
            i, j = int(i), int(j)
            if i > j:
                i, j = j, i
            if i == j or not (0 <= i < j < self.scenario.k):
                raise DataError(f"pair ({i}, {j}) out of range for k={self.scenario.k}")
            object.__setattr__(self, "index", (i, j))
        else:
            idx = int(self.index)
            if not 0 <= idx < self.scenario.m:
                raise DataError(f"clue index {idx} out of range for m={self.scenario.m}")
            object.__setattr__(self, "index", idx)


def answer_support(config: Configuration) -> tuple:
    """Ordered answers a responder can give: noun pairs for a listener
    configuration, adjective positions for a speaker configuration."""
    if config.role == LISTENER:
        return config.scenario.pairs
    return tuple(range(config.scenario.m))


@dataclass(frozen=True)
class ModelSpec:
    """An agent: metric, role, reasoning depth, and rationality weight.

    alpha is required (and positive) for pragmatic depth, ignored for
    literal.
    """

    metric: str
    role: str
    depth: str
    alpha: float | None = None

    def __post_init__(self):
        if not self.metric:
            raise DataError("empty metric id")
        if self.role not in ROLES:
            raise DataError(f"unknown role {self.role!r}")
        if self.depth not in (LITERAL, PRAGMATIC):
            raise DataError(f"unknown depth {self.depth!r}")
        if self.depth == PRAGMATIC:
            if self.alpha is None:
                raise DataError("pragmatic model needs alpha")
            alpha = float(self.alpha)
            if not np.isfinite(alpha) or alpha <= 0:
                raise DataError(f"alpha must be positive, got {self.alpha!r}")
            object.__setattr__(self, "alpha", alpha)
        else:
            # alpha is meaningless at literal depth; normalize it away so
            # spec strings round-trip.
            object.__setattr__(self, "alpha", None)

    def spec_string(self) -> str:
        if self.depth == PRAGMATIC:
            return f"{self.metric}:{self.depth}:{repr(self.alpha)}"
        return f"{self.metric}:{self.depth}"


def parse_model_spec(text: str, role: str) -> ModelSpec:
    """Parse "metric:depth" or "metric:depth:alpha" for the given role."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise DataError(f"malformed model spec {text!r}")
    metric, depth = parts[0].strip(), parts[1].strip()
    alpha = None
    if len(parts) == 3:
        try:
            alpha = float(parts[2])
        except ValueError:
            raise DataError(f"malformed alpha in model spec {text!r}") from None
    return ModelSpec(metric, role, depth, alpha)


@dataclass(frozen=True, eq=False)
class PredictionDistribution:
    """A probability distribution over a configuration's answers."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        support = tuple(self.support)
        if probs.ndim != 1 or len(support) != probs.size:
            raise DataError("support and probabilities differ in length")
        if probs.size == 0:
            raise DataError("empty distribution")
        if (probs < 0).any():
            raise DataError("negative probability")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise DataError(f"probabilities sum to {float(probs.sum())!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def prob(self, answer) -> float:
        try:
            return float(self.probs[self.support.index(answer)])
        except ValueError:
            raise DataError(f"answer {answer!r} not in support") from None

    def argmax_answers(self, tol: float = TIE_TOL) -> tuple:
        """Answers whose probability is within tol of the maximum."""
        top = float(self.probs.max())
        return tuple(a for a, p in zip(self.support, self.probs) if top - p <= tol)

    def as_dict(self) -> dict:
        return {a: float(p) for a, p in zip(self.support, self.probs)}


# ---------------------------------------------------------------------------
# chain cores on a referent x utterance score matrix

def _check_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.size == 0:
        raise DataError("score matrix must be nonempty and 2-d")
    if not np.isfinite(scores).all() or (scores < 0).any():
        raise DataError("scores must be finite and non-negative")
    return scores


def _normalize(vector: np.ndarray) -> np.ndarray:
    total = vector.sum()
    if total <= 0:
        raise DataError("zero normalizer")
    return vector / total


def listener_probs(scores, clue: int, alpha: float | None = None) -> np.ndarray:
    """Distribution over referents given a clue column.

    alpha None runs the literal listener; otherwise one pragmatic round:
    literal listener per column, speaker softmax-by-power across
    utterances, then the clue column renormalized.
    """
    scores = _check_scores(scores)
    if not 0 <= clue < scores.shape[1]:
        raise DataError(f"clue index {clue} out of range")
    if alpha is None:
        return _normalize(scores[:, clue])
    alpha = float(alpha)
    if alpha <= 0:
        raise DataError(f"alpha must be positive, got {alpha!r}")
    col_totals = scores.sum(axis=0)
    if (col_totals <= 0).any():
        raise DataError("zero normalizer")
    literal = scores / col_totals[None, :]
    weighted = literal**alpha
    row_totals = weighted.sum(axis=1)
    if (row_totals <= 0).any():
        raise DataError("zero normalizer")
    speaker = weighted / row_totals[:, None]
    return _normalize(speaker[:, clue])


def speaker_probs(scores, target: int, alpha: float | None = None) -> np.ndarray:
    """Distribution over utterances given a target referent row.

    Mirror of listener_probs: literal speaker per row, listener
    softmax-by-power across referents, target row renormalized.
    """
    scores = _check_scores(scores)
    if not 0 <= target < scores.shape[0]:
        raise DataError(f"target index {target} out of range")
    if alpha is None:
        return _normalize(scores[target])
    alpha = float(alpha)
    if alpha <= 0:
        raise DataError(f"alpha must be positive, got {alpha!r}")
    row_totals = scores.sum(axis=1)
    if (row_totals <= 0).any():
        raise DataError("zero normalizer")
    literal = scores / row_totals[:, None]
    weighted = literal**alpha
    col_totals = weighted.sum(axis=0)
    if (col_totals <= 0).any():
        raise DataError("zero normalizer")
    listener = weighted / col_totals[None, :]
    return _normalize(listener[target])


# ---------------------------------------------------------------------------
# scenario-level agents

def scenario_scores(norm: NormalizedAssociation, scenario: Scenario) -> np.ndarray:
    """C(k,2) x m matrix of pair-adjective association products."""
    n_nouns, n_adjs = norm.lexicon.shape
    if any(n >= n_nouns for n in scenario.nouns):
        raise DataError("scenario noun index out of range for this matrix")
    if any(a >= n_adjs for a in scenario.adjectives):
        raise DataError("scenario adjective index out of range for this matrix")
    sub = norm.values[np.ix_(scenario.nouns, scenario.adjectives)]
    idx = np.array(scenario.pairs)
    return sub[idx[:, 0]] * sub[idx[:, 1]]


def predict(
    norm: NormalizedAssociation, config: Configuration, spec: ModelSpec
) -> PredictionDistribution:
    """Run the agent named by spec on one configuration.

    A literal spec carries alpha None, which the chain cores run as the
    literal agent; a pragmatic spec runs one round with its alpha.
    """
    if spec.role != config.role:
        raise DataError(f"model role '{spec.role}' != configuration role '{config.role}'")
    scores = scenario_scores(norm, config.scenario)
    if config.role == LISTENER:
        probs = listener_probs(scores, config.index, spec.alpha)
    else:
        probs = speaker_probs(scores, config.scenario.pairs.index(config.index), spec.alpha)
    return PredictionDistribution(answer_support(config), probs)


# ---------------------------------------------------------------------------
# word-level record forms for files

def scenario_record(scenario: Scenario, lexicon) -> dict:
    return {
        "nouns": [lexicon.nouns[n] for n in scenario.nouns],
        "adjectives": [lexicon.adjectives[a] for a in scenario.adjectives],
    }


def scenario_from_record(record: dict, lexicon) -> Scenario:
    try:
        noun_words = record["nouns"]
        adj_words = record["adjectives"]
    except (KeyError, TypeError):
        raise DataError(f"malformed scenario record {record!r}") from None
    nouns = []
    for word in noun_words:
        if word not in lexicon.noun_index:
            raise DataError(f"noun '{word}' absent")
        nouns.append(lexicon.noun_index[word])
    adjectives = []
    for word in adj_words:
        if word not in lexicon.adjective_index:
            raise DataError(f"adjective '{word}' absent")
        adjectives.append(lexicon.adjective_index[word])
    return Scenario(tuple(nouns), tuple(adjectives))


def configuration_record(config: Configuration, lexicon) -> dict:
    record = {"scenario": scenario_record(config.scenario, lexicon), "role": config.role}
    if config.role == SPEAKER:
        i, j = config.index
        record["target_pair"] = [
            lexicon.nouns[config.scenario.nouns[i]],
            lexicon.nouns[config.scenario.nouns[j]],
        ]
    else:
        record["clue"] = lexicon.adjectives[config.scenario.adjectives[config.index]]
    return record


def configuration_from_record(record: dict, lexicon) -> Configuration:
    try:
        scenario = scenario_from_record(record["scenario"], lexicon)
        role = record["role"]
    except (KeyError, TypeError):
        raise DataError(f"malformed configuration record {record!r}") from None
    if role == SPEAKER:
        if "target_pair" not in record:
            raise DataError("speaker configuration record lacks target_pair")
        positions = []
        for word in record["target_pair"]:
            if word not in lexicon.noun_index:
                raise DataError(f"noun '{word}' absent")
            lex_idx = lexicon.noun_index[word]
            if lex_idx not in scenario.nouns:
                raise DataError(f"target noun '{word}' not in scenario")
            positions.append(scenario.nouns.index(lex_idx))
        index: object = tuple(sorted(positions))
    elif role == LISTENER:
        if "clue" not in record:
            raise DataError("listener configuration record lacks clue")
        word = record["clue"]
        if word not in lexicon.adjective_index:
            raise DataError(f"adjective '{word}' absent")
        lex_idx = lexicon.adjective_index[word]
        if lex_idx not in scenario.adjectives:
            raise DataError(f"clue '{word}' not in scenario")
        index = scenario.adjectives.index(lex_idx)
    else:
        raise DataError(f"unknown role {role!r}")
    return Configuration(scenario, role, index)
