"""Literal and pragmatic reference-game agents.

A scenario fixes k nouns and m adjectives; referents are the C(k, 2)
unordered noun pairs. Agents start from the pair-by-adjective matrix of
normalized association products. Literal agents normalize a single row
or column of that matrix. Pragmatic agents run one round of recursive
reasoning: normalize over the other role's axis, exponentiate by the
rationality weight alpha (applied exactly once, at that middle step),
renormalize over their own axis, and read off the requested row or
column.

One chain core computes every column of the listener chain at once; the
speaker is that chain run on the transposed matrix. _stack_chains, the
one route to chains, runs it once per (role, alpha) on the score stack
of one matrix and N scenarios of one shape, given as index arrays;
_by_matrix groups specs so that each matrix builds one stack per batch,
and predict_stack gathers every spec's row of a batch. Scoring,
comparison, search and gameplay run batches of up to _CHUNK items of
one shape, from anywhere in a list, through _run_batches, whose one
failure rule runs a failing batch's items and all later ones alone and
names the first to fail. Joint search and gameplay run _primed on each
batch of scenarios; while it has a scenario out, each matrix's memo is
that scenario with its row of the batch's chains, which predict reads;
it runs any other scenario alone, caching nothing. Only a zero-score
line leaves a NaN chain row, which its reader raises on, so only
_score_stack's errors fail _primed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress
from numbers import Real

import numpy as np

from .association import NormalizedAssociation, check_scenario_fit
from .errors import DataError, float_array

SPEAKER = "speaker"
LISTENER = "listener"
ROLES = (SPEAKER, LISTENER)

LITERAL = "literal"
PRAGMATIC = "pragmatic"

# Probabilities within this of the maximum count as tied for the top.
TIE_TOL = 1e-12

# Most items of one shape in a batch that _run_batches runs, and so that _primed primes.
_CHUNK = 256
_NO_MEMO = (None, 0, None)  # what predict reads while _primed has no scenario out
_TINY = np.finfo(float).tiny  # a chain's total or cell below this has lost precision


def is_integer(value) -> bool:
    """True for a Python or NumPy integer; a bool or a float is not one."""
    return type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _alpha(value) -> float:
    """A rationality weight as a float: a real number in (0, inf), not a bool."""
    if isinstance(value, Real) and not isinstance(value, bool) and 0 < value < np.inf:
        return float(value)
    raise DataError(f"alpha must be positive, got {value!r}")


def _top_mask(probs: np.ndarray) -> np.ndarray:
    """Per row, the answers within TIE_TOL of the row's maximum."""
    return probs.max(axis=1, keepdims=True) - probs <= TIE_TOL


@dataclass(frozen=True)
class Scenario:
    """k distinct nouns and m distinct adjectives, as lexicon indices."""

    nouns: tuple[int, ...]
    adjectives: tuple[int, ...]

    def __post_init__(self):
        try:
            nouns, adjectives = tuple(self.nouns), tuple(self.adjectives)
        except TypeError:  # not iterable
            nouns, adjectives = self.nouns, self.adjectives
        if not (type(nouns) is tuple is type(adjectives) and all(map(is_integer, nouns + adjectives))):
            raise DataError(f"scenario indices must be integers, got {nouns!r} and {adjectives!r}")
        object.__setattr__(self, "nouns", tuple(map(int, nouns)))
        object.__setattr__(self, "adjectives", tuple(map(int, adjectives)))
        if len(self.nouns) < 2:
            raise DataError("scenario needs at least two nouns")
        if len(self.adjectives) < 1:
            raise DataError("scenario needs at least one adjective")
        if len(set(self.nouns)) != len(self.nouns):
            raise DataError("duplicate noun in scenario")
        if len(set(self.adjectives)) != len(self.adjectives):
            raise DataError("duplicate adjective in scenario")
        if min(self.nouns) < 0 or min(self.adjectives) < 0:
            raise DataError("negative index in scenario")

    @classmethod
    def _trusted(cls, nouns: tuple, adjectives: tuple) -> Scenario:
        """A scenario from tuples of distinct in-range ints checked by their maker."""
        scenario = object.__new__(cls)
        object.__setattr__(scenario, "nouns", nouns)
        object.__setattr__(scenario, "adjectives", adjectives)
        return scenario

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


@lru_cache(maxsize=None)
def _answers(role: str, k: int, m: int) -> tuple[tuple, dict | None]:
    """answer_support of role's configurations in a k x m scenario, and for
    a speaker the chain row of each target pair (a listener's clue is its row)."""
    if role == LISTENER:
        return noun_pairs(k), None
    return tuple(range(m)), {pair: row for row, pair in enumerate(noun_pairs(k))}


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
                i = j = None
            if not (is_integer(i) and is_integer(j)):
                raise DataError(f"speaker index must be a pair of integers, got {self.index!r}")
            i, j = sorted((int(i), int(j)))
            if i == j or not (0 <= i < j < self.scenario.k):
                raise DataError(f"pair ({i}, {j}) out of range for k={self.scenario.k}")
            object.__setattr__(self, "index", (i, j))
        else:
            if not is_integer(self.index):
                raise DataError(f"clue index must be an integer, got {self.index!r}")
            idx = int(self.index)
            if not 0 <= idx < self.scenario.m:
                raise DataError(f"clue index {idx} out of range for m={self.scenario.m}")
            object.__setattr__(self, "index", idx)

    @classmethod
    def _trusted(cls, scenario: Scenario, role: str, index) -> Configuration:
        """An unchecked configuration, for a range(m) clue or a noun_pairs(k) pair."""
        config = object.__new__(cls)
        fields = config.__dict__
        fields["scenario"], fields["role"], fields["index"] = scenario, role, index
        return config


def answer_support(config: Configuration) -> tuple:
    """Ordered answers a responder can give: noun pairs for a listener
    configuration, adjective positions for a speaker configuration."""
    return _answers(config.role, config.scenario.k, config.scenario.m)[0]


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
            object.__setattr__(self, "alpha", _alpha(self.alpha))
        else:
            # alpha is meaningless at literal depth; normalize it away so
            # spec strings round-trip.
            object.__setattr__(self, "alpha", None)

    def spec_string(self) -> str:
        if self.depth == PRAGMATIC:
            return f"{self.metric}:{self.depth}:{repr(self.alpha)}"
        return f"{self.metric}:{self.depth}"


def parse_model_spec(spec, role: str) -> ModelSpec:
    """The model for role named by a ModelSpec (returned as is) or by a
    "metric:depth" or "metric:depth:alpha" string."""
    if isinstance(spec, ModelSpec):
        if spec.role != role:
            raise DataError(f"{spec.role} model {spec.spec_string()} given for the {role} role")
        return spec
    if not isinstance(spec, str):
        raise DataError(f"malformed model spec {spec!r}")
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise DataError(f"malformed model spec {spec!r}")
    metric, depth = parts[0].strip(), parts[1].strip()
    alpha = None
    if len(parts) == 3:
        try:
            alpha = float(parts[2])
        except ValueError:
            raise DataError(f"malformed alpha in model spec {spec!r}") from None
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
        low = probs.min()
        if not low >= 0:
            raise DataError("negative probability" if low < 0 else "NaN probability")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"probabilities sum to {total!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _checked(cls, support: tuple, probs: np.ndarray) -> PredictionDistribution:
        """A distribution over a read-only row of a chain from _chains,
        which is one by construction: no copy and no second check."""
        dist = object.__new__(cls)
        fields = dist.__dict__
        fields["support"], fields["probs"] = support, probs
        return dist

    def argmax_answers(self) -> tuple:
        """Answers whose probability is within TIE_TOL of the maximum."""
        return tuple(compress(self.support, _top_mask(self.probs[None])[0]))


# ---------------------------------------------------------------------------
# the chain core on a referent x utterance score matrix, or a stack of them

def _check_scores(scores) -> np.ndarray:
    scores = float_array(scores, "score matrix")
    if scores.ndim != 2 or scores.size == 0:
        raise DataError("score matrix must be nonempty and 2-d")
    # min() is NaN when any cell is, and NaN >= 0 is False.
    if not (scores.min() >= 0 and scores.max() < np.inf):
        raise DataError("scores must be finite and non-negative")
    return scores


def _normalize(values: np.ndarray, axis: int) -> np.ndarray:
    """values over their sums along axis: a line whose sum is zero, or
    below the smallest normal float and so short of precision, is NaN in
    every entry, and NaN spreads through later steps of a chain.

    A line whose sum overflows to inf is taken from its matrix divided by
    the matrix's maximum, so it still sums to 1. Every other line is the
    plain `values / sums`, with its bits, its memory layout and the order
    of later sums over it.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        totals = values.sum(axis=axis, keepdims=True)
        out = values / totals
        over = totals == np.inf
        if over.any():
            scaled = values / values.max(axis=(-2, -1), keepdims=True)
            np.copyto(out, scaled / scaled.sum(axis=axis, keepdims=True), where=over)
        if (lost := totals < _TINY).any():
            np.copyto(out, np.nan, where=lost)
    return out


def _chains(scores: np.ndarray, alpha: float | None) -> np.ndarray:
    """Every column of the listener chain on a checked (R, U) score matrix,
    or on each matrix of an (N, R, U) stack: probabilities (..., U, R)
    whose row u is the chain's distribution for column u. Only a line of
    zero scores leaves a NaN row, which its reader raises "zero normalizer"
    on: a literal chain's row for that column, or every row of a pragmatic
    chain's matrix. A row whose line total, or pragmatic matrix's positive
    cell, falls below the smallest normal float comes from _log_chains.

    Literal (alpha None): each column normalized. Pragmatic: normalize
    columns, raise to alpha, normalize rows, then normalize each column.
    The speaker is this chain on the transposed (swapaxes) view.

    Each reduction adds in the order of the one-column chain: the
    whole-matrix sums follow memory order (in sequence over a strided
    axis, pairwise over a contiguous one), and each column is made
    contiguous before its final sum, so that sum is pairwise like a 1-d
    column's. Every row that is not NaN is then non-negative and sums to
    1 within rounding, so a row is a valid distribution with no second
    check.
    """
    weighted = scores
    if alpha is not None:
        alpha = _alpha(alpha)
        columns = _normalize(scores, -2)
        powered = columns ** alpha
        low = columns if alpha < 1 else powered  # the smaller of the two
        if low.min() < _TINY:  # a positive cell that fell below it lost precision
            powered[((scores > 0) & (low < _TINY)).any(axis=(-2, -1))] = np.nan
        weighted = _normalize(powered, -1)
    probs = _normalize(np.ascontiguousarray(weighted.swapaxes(-1, -2)), -1)
    failed = np.isnan(probs[..., :1])
    if failed.any():
        np.copyto(probs, _log_chains(scores, alpha), where=failed)
    return probs


def _log_chains(scores: np.ndarray, alpha: float | None) -> np.ndarray:
    """_chains' chain with one log-sum-exp per normalize step, so nothing
    underflows; a line of zero scores, all -inf, still gives NaN. Its sums
    add in _chains' order."""

    def normalize(logs, axis):
        top = logs.max(axis=axis, keepdims=True)
        return logs - top - np.log(np.exp(logs - top).sum(axis=axis, keepdims=True))

    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(scores)
        if alpha is not None:
            logs = normalize(alpha * normalize(logs, -2), -1)
        return np.exp(normalize(np.ascontiguousarray(logs.swapaxes(-1, -2)), -1))


def _row(probs: np.ndarray, index, label: str) -> np.ndarray:
    """Row `index` of a chain from _chains, for the label ("clue" or "target")."""
    if not is_integer(index):
        raise DataError(f"{label} index must be an integer, got {index!r}")
    if not 0 <= index < len(probs):
        raise DataError(f"{label} index {index} out of range")
    if math.isnan(probs[index, 0]):
        raise DataError("zero normalizer")
    return probs[index]


def listener_probs(scores, clue: int, alpha: float | None = None) -> np.ndarray:
    """Distribution over referents given a clue column.

    alpha None runs the literal listener; otherwise one pragmatic round:
    literal listener per column, speaker softmax-by-power across
    utterances, then the clue column renormalized.
    """
    return _row(_chains(_check_scores(scores), alpha), clue, "clue")


def speaker_probs(scores, target: int, alpha: float | None = None) -> np.ndarray:
    """Distribution over utterances given a target referent row: the
    listener chain run on the transposed scores."""
    return _row(_chains(_check_scores(scores).T, alpha), target, "target")


# ---------------------------------------------------------------------------
# scenario-level agents

def _score_stack(norm, nouns: np.ndarray, adjectives: np.ndarray) -> np.ndarray:
    """Checked (N, C(k,2), m) pair-adjective association products of N
    scenarios, given as an (N, k) noun and an (N, m) adjective index array."""
    check_scenario_fit(norm.lexicon.shape, nouns.max(), adjectives.max())
    sub = norm.values[nouns[:, :, None], adjectives[:, None, :]]
    first, second = np.array(noun_pairs(nouns.shape[1])).T
    scores = sub[:, first] * sub[:, second]
    if not (scores.min() >= 0 and scores.max() < np.inf):
        raise DataError("scores must be finite and non-negative")
    return scores


def scenario_scores(norm: NormalizedAssociation, scenario: Scenario) -> np.ndarray:
    """C(k,2) x m matrix of pair-adjective association products."""
    return _score_stack(norm, np.array([scenario.nouns]), np.array([scenario.adjectives]))[0]


def _stack_chains(norm: NormalizedAssociation, nouns: np.ndarray, adjectives: np.ndarray, keys) -> dict:
    """{(role, alpha): (read-only probs from _chains, *_answers)} for each key, run on the score
    stack of N scenarios of one shape, given as (N, k) noun and (N, m) adjective index arrays."""
    scores = _score_stack(norm, nouns, adjectives)
    chains = {}
    for role, alpha in keys:
        probs = _chains(scores if role == LISTENER else scores.swapaxes(1, 2), alpha)
        probs.flags.writeable = False
        chains[role, alpha] = probs, *_answers(role, nouns.shape[1], adjectives.shape[1])
    return chains


def _by_matrix(tables, specs) -> dict:
    """{matrix: {(role, alpha): None}} for the matrices the specs use, in first-use order."""
    wanted: dict = {}
    for spec in specs:
        wanted.setdefault(tables[spec.metric], {})[spec.role, spec.alpha] = None
    return wanted


def _by_shape(shapes) -> list:
    """Positions of items, given by their shape keys, in batches of up to _CHUNK
    positions that share a key, each batch ascending, keys in first-seen order."""
    groups: dict = {}
    for position, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(position)
    return [group[i : i + _CHUNK] for group in groups.values() for i in range(0, len(group), _CHUNK)]


def _run_batches(batches, run, where) -> list:
    """Each array run(batch) returns, an entry per position, joined in position order, for batches
    of positions, each up to _CHUNK items of one shape from anywhere in the list, on which run has
    each item's bits run alone. On a batch's DataError each position of it and of every later batch
    runs alone, ascending, and the first to fail (as a loop over positions would meet it, since earlier
    batches passed) raises "<where(position)>: <its error>"; else the batch's own error is raised."""
    results = []
    for number, batch in enumerate(batches):
        try:
            results.append(run(batch))
        except DataError:
            for position in sorted(chain.from_iterable(batches[number:])):
                try:
                    run([position])
                except DataError as exc:
                    raise DataError(f"{where(position)}: {exc}") from None
            raise
    order = np.argsort(np.concatenate(batches))
    return [np.concatenate(parts)[order] for parts in zip(*results)]


def _primed(tables, batch, specs):
    """The scenarios of batch, a list of up to _CHUNK of one (k, m) shape, in
    order, after one _stack_chains run per matrix the specs use, which raises
    its error before any is out. While a scenario is out, each such matrix's
    `_scenario_memo` is (that scenario, its row in batch, the batch's chains)."""
    nouns, adjectives = map(np.array, zip(*((s.nouns, s.adjectives) for s in batch)))
    chains = {norm: _stack_chains(norm, nouns, adjectives, keys) for norm, keys in _by_matrix(tables, specs).items()}
    for row, scenario in enumerate(batch):
        for norm, batch_chains in chains.items():
            norm.__dict__["_scenario_memo"] = scenario, row, batch_chains
        yield scenario


def predict(
    norm: NormalizedAssociation, config: Configuration, spec: ModelSpec
) -> PredictionDistribution:
    """Run the agent named by spec on one configuration.

    A literal spec carries alpha None, which the chain core runs as the
    literal agent; a pragmatic spec runs one round with its alpha. A
    prediction is a read-only row, at the index Configuration checked, of
    the memo's chain if config's scenario is the one _primed has out, or
    else of a chain run on that scenario alone and cached nowhere.
    """
    role, index = config.role, config.index
    if spec.role != role:
        raise DataError(f"model role '{spec.role}' != configuration role '{role}'")
    key = role, spec.alpha
    scenario, row, chains = norm.__dict__.get("_scenario_memo", _NO_MEMO)
    chain = chains.get(key) if scenario is config.scenario else None
    if chain is None:
        row, chain = 0, _stack_chains(norm, *config_columns([config])[:2], [key])[key]
    probs, support, position = chain
    dist = probs[row, index if position is None else position[index]]
    if math.isnan(dist[0]):
        raise DataError("zero normalizer")
    return PredictionDistribution._checked(support, dist)


def config_columns(configs) -> tuple:
    """predict_stack's columns for configurations of one role and (k, m) shape:
    (N, k) noun and (N, m) adjective index arrays, and each one's chain row."""
    nouns, adjectives = map(np.array, zip(*((c.scenario.nouns, c.scenario.adjectives) for c in configs)))
    position = _answers(configs[0].role, nouns.shape[1], adjectives.shape[1])[1]
    return nouns, adjectives, np.array([c.index if position is None else position[c.index] for c in configs])


def predict_stack(tables, specs, nouns: np.ndarray, adjectives: np.ndarray, rows) -> np.ndarray:
    """predict's bits for each of specs, bound by the caller to the configurations'
    role, on N configurations of one (k, m) shape given as config_columns gives them:
    (N, specs, answers) from one score stack per matrix. predict's other checks run
    on the whole stack, so a one-configuration, one-spec call raises predict's error."""
    chains = {norm: _stack_chains(norm, nouns, adjectives, keys) for norm, keys in _by_matrix(tables, specs).items()}
    probs = np.stack([chains[tables[spec.metric]][spec.role, spec.alpha][0] for spec in specs], axis=1)
    stack = probs[np.arange(len(probs)), :, rows]
    if np.isnan(stack[..., 0]).any():
        raise DataError("zero normalizer")
    return stack


# ---------------------------------------------------------------------------
# word-level record forms for files

def _word_indices(words, index: dict, kind: str) -> tuple[int, ...]:
    """Lexicon indices of a list of words of one kind (noun or adjective)."""
    if not isinstance(words, list):
        raise DataError(f"expected a list of {kind}s, got {words!r}")
    for word in words:
        if not isinstance(word, str):
            raise DataError(f"{kind} {word!r} is not a string")
        if word not in index:
            raise DataError(f"{kind} '{word}' absent")
    return tuple(index[word] for word in words)


def pair_words(scenario: Scenario, pair, lexicon) -> list[str]:
    """The noun words of a scenario-position pair."""
    return [lexicon.nouns[scenario.nouns[i]] for i in pair]


def pair_from_words(scenario: Scenario, words, lexicon, label: str) -> tuple[int, ...]:
    """Sorted scenario positions of noun words, named by label on error."""
    positions = []
    for word, noun in zip(words, _word_indices(words, lexicon.noun_index, "noun")):
        if noun not in scenario.nouns:
            raise DataError(f"{label} '{word}' not in scenario")
        positions.append(scenario.nouns.index(noun))
    return tuple(sorted(positions))


def clue_word(scenario: Scenario, position: int, lexicon) -> str:
    """The adjective word at a scenario clue position."""
    return lexicon.adjectives[scenario.adjectives[position]]


def clue_from_word(scenario: Scenario, word, lexicon, label: str) -> int:
    """Scenario clue position of an adjective word, named by label on error."""
    (adjective,) = _word_indices([word], lexicon.adjective_index, "adjective")
    if adjective not in scenario.adjectives:
        raise DataError(f"{label} '{word}' not in scenario")
    return scenario.adjectives.index(adjective)


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
    return Scenario(
        _word_indices(noun_words, lexicon.noun_index, "noun"),
        _word_indices(adj_words, lexicon.adjective_index, "adjective"),
    )


def configuration_record(config: Configuration, lexicon) -> dict:
    record = {"scenario": scenario_record(config.scenario, lexicon), "role": config.role}
    if config.role == SPEAKER:
        record["target_pair"] = pair_words(config.scenario, config.index, lexicon)
    else:
        record["clue"] = clue_word(config.scenario, config.index, lexicon)
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
        index: object = pair_from_words(scenario, record["target_pair"], lexicon, "target noun")
    elif role == LISTENER:
        if "clue" not in record:
            raise DataError("listener configuration record lacks clue")
        index = clue_from_word(scenario, record["clue"], lexicon, "clue")
    else:
        raise DataError(f"unknown role {role!r}")
    return Configuration(scenario, role, index)
