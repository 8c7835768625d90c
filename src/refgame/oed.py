"""Information-driven search for discriminating game items.

A configuration is informative when the candidate models disagree about
how to answer it. With a uniform prior over models, the expected
information gained from observing an answer is the mutual information
(in bits) between model identity and the response. Scenario-level
search scores a whole scenario by the geometric mean of its
configuration utilities, so one uninformative configuration drags the
whole scenario down.

Search is plain Monte Carlo in three phases over one array of keys from the
seeded generator alone, so one seed gives one result: the distinct keys in
first-seen order, a utility for each, and the top_k by a stable sort.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import rsa
from .association import Tables
from .errors import DataError, float_array
from .rsa import (
    LISTENER,
    SPEAKER,
    Configuration,
    ModelSpec,
    Scenario,
    _primed,
    config_columns,
    configuration_record,
    is_integer,
    noun_pairs,
    predict,
    predict_stack,
    scenario_record,
)

MODE_SEPARATE_SPEAKER = "separate-speaker"
MODE_SEPARATE_LISTENER = "separate-listener"
MODE_JOINT = "joint"
MODES = (MODE_SEPARATE_SPEAKER, MODE_SEPARATE_LISTENER, MODE_JOINT)
MIN_WORD_DIFFERENCE = 2  # the diversity filter's default bounds
MAX_WORD_OCCURRENCE = 20


@dataclass(frozen=True)
class ModelSet:
    """The candidate models under comparison; all must share one role."""

    models: tuple[ModelSpec, ...]

    def __post_init__(self):
        models = tuple(self.models)
        if not models:
            raise DataError("empty model set")
        roles = {m.role for m in models}
        if len(roles) != 1:
            raise DataError(f"model set mixes roles {sorted(roles)}")
        object.__setattr__(self, "models", models)

    @property
    def role(self) -> str:
        return self.models[0].role

    def __len__(self) -> int:
        return len(self.models)


def _check_integers(settings: dict) -> None:
    """Reject the first setting, in order, whose value is not an integer."""
    for name, value in settings.items():
        if not is_integer(value):
            raise DataError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SearchSettings:
    """Monte Carlo search knobs."""

    nouns: int
    adjectives: int
    mode: str
    iterations: int = 100_000
    seed: int = 0
    top_k: int = 500

    def __post_init__(self):
        _check_integers({name: value for name, value in vars(self).items() if name != "mode"})
        if self.nouns < 2:
            raise DataError("need at least two nouns per scenario")
        if self.adjectives < 1:
            raise DataError("need at least one adjective per scenario")
        if self.mode not in MODES:
            raise DataError(f"unknown search mode {self.mode!r}")
        if self.iterations < 1:
            raise DataError("iterations must be positive")
        if self.top_k < 1:
            raise DataError("top_k must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed!r}")

    @property
    def role(self) -> str | None:
        """The role of the one configuration a separate mode scores;
        None in joint mode, which scores whole scenarios."""
        return {MODE_SEPARATE_SPEAKER: SPEAKER, MODE_SEPARATE_LISTENER: LISTENER}.get(self.mode)


@dataclass(frozen=True)
class DesignCandidate:
    """A scored design: a scenario, and in separate modes the single
    configuration (role plus index) the utility belongs to."""

    scenario: Scenario
    role: str | None
    index: object
    utility: float

    def __post_init__(self):
        utility = self.utility
        if not (
            isinstance(utility, numbers.Real)
            and not isinstance(utility, bool)
            and math.isfinite(utility)
            and utility >= 0
        ):
            raise DataError(f"utility must be a finite non-negative number, got {utility!r}")

    @property
    def configuration(self) -> Configuration | None:
        if self.role is None:
            return None
        return Configuration(self.scenario, self.role, self.index)


def response_probability(tables, config: Configuration, models: ModelSet) -> np.ndarray:
    """Each model's answer distribution over the configuration's support, one row
    per model in model-set order: separate-mode search's predict_stack on one key."""
    tables = Tables.of(tables)
    if models.role != config.role:
        raise DataError(f"model set role '{models.role}' != configuration role '{config.role}'")
    return predict_stack(tables, models.models, *config_columns([config]))[0]


def model_information_bits(prediction_probs):
    """Mutual information (bits) between model identity and the answer.

    Rows are per-model answer distributions; the model prior is uniform.
    A NaN or negative probability, or no answers, is a DataError.
    Zero-probability answers contribute nothing. Clamped at 0 to absorb
    float rounding on identical rows. A 2-d (models, answers) matrix
    gives a float; a (configurations, models, answers) stack gives an
    array with each matrix's float, bit for bit.

    The sums keep the bits of the 2-d form as it was, which dropped dead
    answers with probs[:, live]: an array whose answer columns are each
    contiguous. So each answer's terms sit contiguous here too and are
    reduced as one run over the models, which numpy adds in order below
    8 models and pairwise from 8. The mixture reduces over the models
    axis of the input as given, and the sum over answers is a cumsum,
    which adds in order; a dead answer adds an exact -0.0, which leaves
    every total, a -0.0 one included, as it was without it.
    """
    probs = float_array(prediction_probs, "prediction matrix")
    if probs.ndim not in (2, 3):
        raise DataError("prediction matrix must be 2-d, or a 3-d stack of 2-d matrices")
    if probs.shape[-1] == 0:
        raise DataError("empty distribution")
    low = probs.min(initial=0.0)  # NaN if any probability is; 0.0 for an empty stack
    if not low >= 0:
        raise DataError("negative probability" if low < 0 else "NaN probability")
    n_models = probs.shape[-2]
    if n_models < 2:
        warnings.warn("fewer than two models: utility is identically 0", stacklevel=2)
        return 0.0 if probs.ndim == 2 else np.zeros(len(probs))
    stack = probs if probs.ndim == 3 else probs[None]
    # the sum and division of stack.mean(axis=1), without its Python layer
    mixture = np.add.reduce(stack, axis=1) / n_models
    live = mixture > 0
    columns = np.ascontiguousarray(stack.swapaxes(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior = columns / (n_models * mixture[:, :, None])
        terms = posterior * np.log2(posterior * n_models)
        terms[~(posterior > 0)] = 0.0  # zero and NaN posteriors
        gains = mixture * np.add.reduce(terms, axis=2)
    gains[~live] = -0.0
    total = np.cumsum(gains, axis=1)[:, -1]
    # max(total, 0.0) in place: -0.0 stays -0.0
    total[total < 0.0] = 0.0
    total[~live.any(axis=1)] = 0.0
    return total if probs.ndim == 3 else total[0]


def _geometric_mean(values) -> float:
    values = list(values)
    if any(v == 0 for v in values):
        return 0.0
    product = math.prod(values)
    if product > 0:
        return product ** (1.0 / len(values))
    # product underflowed; fall back to the log-domain mean
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _responses(tables, scenario: Scenario, models: ModelSet, indices, out: np.ndarray) -> np.ndarray:
    """Each model's answer distribution for each index's configuration, a range(m) clue
    or a noun_pairs(k) pair, written at once into out, a (configurations, models, answers) array."""
    specs = [(tables[spec.metric], spec) for spec in models.models]
    configs = [Configuration._trusted(scenario, models.role, index) for index in indices]
    out[...] = [[predict(norm, config, spec).probs for norm, spec in specs] for config in configs]
    return out


def scenario_joint_utility(
    tables, scenario: Scenario, speaker_models: ModelSet, listener_models: ModelSet
) -> float:
    """Geometric mean of every configuration utility in the scenario:
    all C(k,2) speaker targets and all m listener clues.

    Both roles' answers sit in one (C(k,2) + m, models, answers) stack,
    zero-padded to the larger role's models and support: a padded answer
    is dead and adds an exact -0.0, so every utility keeps its bits. Sets
    of one size take one model_information_bits pass, others one per role."""
    if speaker_models.role != SPEAKER:
        raise DataError("speaker_models must hold speaker models")
    if listener_models.role != LISTENER:
        raise DataError("listener_models must hold listener models")
    tables = Tables.of(tables)
    n_pairs, m = len(scenario.pairs), scenario.m
    n_speakers, n_listeners = len(speaker_models), len(listener_models)
    stack = np.zeros((n_pairs + m, max(n_speakers, n_listeners), max(n_pairs, m)))
    _responses(tables, scenario, speaker_models, scenario.pairs, stack[:n_pairs, :n_speakers, :m])
    _responses(tables, scenario, listener_models, range(m), stack[n_pairs:, :n_listeners, :n_pairs])
    passes = [stack]
    if n_speakers != n_listeners:  # each role over its own models
        passes = [stack[:n_pairs, :n_speakers], stack[n_pairs:, :n_listeners]]
    return _geometric_mean(np.concatenate([model_information_bits(rows) for rows in passes]).tolist())


# ---------------------------------------------------------------------------
# Monte Carlo search

# Iterations per block of search keys; a larger block raises peak RSS.
_KEY_BLOCK = 8_192


def _loop_keys(rng, n_nouns: int, n_adjs: int, settings: SearchSettings, count: int) -> np.ndarray:
    """count search keys, one iteration at a time: a uint32 row of the sorted
    nouns and adjectives from two rng.choice draws, and in a separate mode the
    rng.integers index draw, a clue or a position in noun_pairs(k)."""
    k, m, role = settings.nouns, settings.adjectives, settings.role
    keys = np.empty((count, k + m + (role is not None)), np.uint32)
    for key in keys:
        key[:k] = np.sort(rng.choice(n_nouns, size=k, replace=False))
        key[k : k + m] = np.sort(rng.choice(n_adjs, size=m, replace=False))
        if role is not None:
            key[k + m] = rng.integers(k * (k - 1) // 2 if role == SPEAKER else m)
    return keys


def _block_keys(rng, n_nouns: int, n_adjs: int, settings: SearchSettings, count: int) -> np.ndarray:
    """The keys _loop_keys(rng, ...) gives, in blocks of at most _KEY_BLOCK
    iterations, each block's picks from one rng.integers call; rng ends
    where the loop leaves it. choice(n, size, replace=False) is Floyd's
    algorithm (for j from n - size to n - 1, a pick in [0, j], or j if
    taken), then shuffle draws in [0, i] for i from size - 1 down to 1,
    undone by sorting; integers(n) is a draw in [0, n - 1]. Every one is
    Lemire's bounded draw, which integers makes row by row against an
    array of bounds, drawing nothing where the bound is 1."""
    k, m, role = settings.nouns, settings.adjectives, settings.role
    sides = ((0, n_nouns, k), (2 * k - 1, n_adjs, m))  # (first column, n, size)
    highs = [h for _, n, size in sides for h in (*range(n - size + 1, n + 1), *range(size, 1, -1))]
    highs += [] if role is None else [k * (k - 1) // 2 if role == SPEAKER else m]
    columns = [c for first, _, size in sides for c in range(first, first + size)] + [-1] * (role is not None)
    keys = np.empty((count, len(columns)), np.uint32)
    for start in range(0, count, _KEY_BLOCK):
        picks = rng.integers(0, highs, size=(min(_KEY_BLOCK, count - start), len(highs)), dtype=np.uint32)
        for first, n, size in sides:
            side = picks[:, first : first + size]
            for t in range(1, size):
                side[(side[:, :t] == side[:, t, None]).any(axis=1), t] = n - size + t
            side.sort(axis=1)
        keys[start : start + _KEY_BLOCK] = picks[:, columns]
    return keys


def _search_keys(n_nouns: int, n_adjs: int, settings: SearchSettings) -> np.ndarray:
    """Every iteration's key, in order: from _block_keys, or from _loop_keys
    if their first keys differ, as under another numpy, or where choice
    shuffles a tail (more than 10,000 items, and a size over n // 50)."""

    def keys(sampler, count=min(settings.iterations, 8)):
        return sampler(np.random.default_rng(settings.seed), n_nouns, n_adjs, settings, count)

    same = np.array_equal(keys(_block_keys), keys(_loop_keys))
    return keys(_block_keys if same else _loop_keys, settings.iterations)


def _first_seen(keys: np.ndarray) -> np.ndarray:
    """The distinct rows of keys in first-seen order: a stable lexsort puts
    equal rows together, earliest first, and keeps each run's first."""
    order = np.lexsort(keys.T)
    first = np.zeros(len(keys), bool)
    first[:1] = True
    for column in keys.T:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    return keys[np.sort(order[first])]


def monte_carlo_search(tables, models, settings: SearchSettings) -> list[DesignCandidate]:
    """Sample scenarios uniformly, score them, return the top_k.

    In the separate modes `models` is one ModelSet and each iteration
    also samples the prompted item, scoring a single configuration; in
    joint mode `models` is a (speaker_set, listener_set) pair and the
    whole scenario is scored. Duplicates sampled twice are evaluated
    once. Results are sorted by utility descending, ties by first
    generation, truncated to top_k.
    """
    tables = Tables.of(tables)
    n_nouns, n_adjs = tables.lexicon.shape
    if settings.nouns > n_nouns:
        raise DataError(f"scenario wants {settings.nouns} nouns, lexicon has {n_nouns}")
    if settings.adjectives > n_adjs:
        raise DataError(f"scenario wants {settings.adjectives} adjectives, lexicon has {n_adjs}")

    k, m, role = settings.nouns, settings.adjectives, settings.role
    if role is None:
        try:
            speaker_models, listener_models = models
        except (TypeError, ValueError):
            raise DataError("joint mode needs a (speaker, listener) model set pair") from None
        if speaker_models.role != SPEAKER or listener_models.role != LISTENER:
            raise DataError("joint mode needs a speaker set and a listener set, in that order")
        specs = speaker_models.models + listener_models.models
    else:
        if not isinstance(models, ModelSet):
            raise DataError("separate mode needs a single model set")
        if models.role != role:
            raise DataError(f"mode '{settings.mode}' needs {role} models")
        specs = models.models
    # Check every metric now, so a missing one fails before any key is drawn.
    for spec in specs:
        tables[spec.metric]
    indices = noun_pairs(k) if role == SPEAKER else range(m)  # by a separate mode's index draw

    def scenario_of(row: list) -> Scenario:
        return Scenario._trusted(tuple(row[:k]), tuple(row[k : k + m]))

    def utilities(positions) -> tuple[np.ndarray]:
        chunk = keys[positions]
        if role is None:
            scenarios = _primed(tables, list(map(scenario_of, chunk.tolist())), specs)
            joint = (scenario_joint_utility(tables, s, speaker_models, listener_models) for s in scenarios)
            return (np.fromiter(joint, float, len(chunk)),)
        stack = predict_stack(tables, specs, chunk[:, :k], chunk[:, k : k + m], chunk[:, -1])
        return (model_information_bits(stack),)

    def where(position: int) -> str:
        words = scenario_record(scenario_of(keys[position].tolist()), tables.lexicon)
        return f"scenario {' '.join(words['nouns'])} / {' '.join(words['adjectives'])}"

    # 1. The distinct keys, first seen first; keys depend on the seed alone.
    keys = _first_seen(_search_keys(n_nouns, n_adjs, settings))
    # 2. Each key's utility, by rsa._run_batches on batches of up to rsa._CHUNK consecutive keys: in joint mode each
    # scenario from the chains _primed primes; in a separate mode one predict_stack and information pass a batch.
    batches = np.split(np.arange(len(keys)), range(rsa._CHUNK, len(keys), rsa._CHUNK))
    (utility,) = rsa._run_batches(batches, utilities, where)
    # 3. The first top_k of a stable sort: ties keep first-seen order, and -0.0 ties with 0.0.
    best = np.argsort(-utility, kind="stable")[: settings.top_k]
    return [
        DesignCandidate(scenario_of(row), role, None if role is None else indices[row[-1]], value)
        for row, value in zip(keys[best].tolist(), utility[best].tolist())
    ]


# ---------------------------------------------------------------------------
# filters

def check_filter_bounds(min_word_difference: int, max_word_occurrence: int) -> None:
    """Reject diversity-filter bounds that filter_candidates cannot use."""
    _check_integers({"min_word_difference": min_word_difference, "max_word_occurrence": max_word_occurrence})
    if min_word_difference < 0:
        raise DataError("min_word_difference must be non-negative")
    if max_word_occurrence < 1:
        raise DataError("max_word_occurrence must be positive")


def filter_candidates(
    candidates,
    min_word_difference: int = MIN_WORD_DIFFERENCE,
    max_word_occurrence: int = MAX_WORD_OCCURRENCE,
) -> list[DesignCandidate]:
    """Greedy diversity filter over a utility-descending candidate list.

    Walk the list once; keep a candidate only if it differs from every
    kept one by at least min_word_difference words, the larger of the
    two boards' counts of words the other lacks, nouns and adjectives
    together, and none of its words has already been used
    max_word_occurrence times among kept candidates.

    Boards of n and s words sharing o differ by max(n, s) - o, so one
    test of n against the fewest kept words covers every kept board that
    shares no word. Each word lists the (at most max_word_occurrence)
    kept boards using it, so a candidate's work does not grow with kept.
    """
    candidates = list(candidates) if isinstance(candidates, Iterable) else [None]
    if not all(isinstance(candidate, DesignCandidate) for candidate in candidates):
        raise DataError("candidates must be an iterable of DesignCandidates")
    check_filter_bounds(min_word_difference, max_word_occurrence)
    for earlier, later in zip(candidates, candidates[1:]):
        if earlier.utility < later.utility:
            raise DataError("candidates must be sorted by utility descending")
    holders: dict = {}  # word -> positions in kept of the kept candidates using it
    kept, sizes, fewest = [], [], math.inf  # and their word counts, the least of them
    for candidate in candidates:
        # tagged by part of speech: noun 0 and adjective 0 are different words
        words = [("n", n) for n in candidate.scenario.nouns]
        words += [("a", a) for a in candidate.scenario.adjectives]
        held = [holders.get(word, ()) for word in words]
        if any(len(positions) >= max_word_occurrence for positions in held):
            continue
        n = len(words)
        if max(n, fewest) < min_word_difference:
            continue
        shared = Counter(chain.from_iterable(held)) if min_word_difference else {}
        if any(max(n, sizes[j]) - count < min_word_difference for j, count in shared.items()):
            continue
        for word in words:
            holders.setdefault(word, []).append(len(kept))
        sizes.append(n)
        fewest = min(fewest, n)
        kept.append(candidate)
    return kept


def candidate_to_record(candidate: DesignCandidate, lexicon) -> dict:
    """Word-level record form: {scenario, role?, target_pair|clue?, utility}."""
    if candidate.role is None:
        record = {"scenario": scenario_record(candidate.scenario, lexicon)}
    else:
        record = configuration_record(candidate.configuration, lexicon)
    record["utility"] = float(candidate.utility)
    return record
