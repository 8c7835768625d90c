import json
import re

import mpmath
import numpy as np
import pytest

from refgame import (
    AssociationMatrix,
    DataError,
    Lexicon,
    NormalizedAssociation,
    quantile_normalize,
)
from refgame.rsa import LISTENER, answer_support, clue_word, configuration_record, pair_words

# one visible pass/fail line per acceptance criterion, printed after the run
ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_criterion_(\d+)_(\w+)", report.nodeid)
    if match:
        ACCEPTANCE_RESULTS[int(match.group(1))] = (match.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, outcome = ACCEPTANCE_RESULTS[number]
        status = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"ACCEPTANCE CRITERION {number} ({label}): {status}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_lexicon(n_nouns: int, n_adjs: int) -> Lexicon:
    return Lexicon(
        tuple(f"noun{i}" for i in range(n_nouns)),
        tuple(f"adj{j}" for j in range(n_adjs)),
    )


def random_normalized(rng, n_nouns: int, n_adjs: int, metric: str = "bigram", mask_frac: float = 0.0) -> NormalizedAssociation:
    """A normalized table built through the real pipeline from random raw scores."""
    lexicon = make_lexicon(n_nouns, n_adjs)
    raw = rng.normal(size=(n_nouns, n_adjs))
    mask = rng.random(size=raw.shape) < mask_frac
    return quantile_normalize(AssociationMatrix(metric, lexicon, raw, mask))


def with_empty_noun(norm: NormalizedAssociation, noun: int) -> NormalizedAssociation:
    """A copy of norm in which one noun scores 0 on every adjective, built
    past NormalizedAssociation's check, which rejects a 0: each pair with
    that noun scores 0 on every clue, so on a scenario holding the noun
    every pragmatic chain meets a zero normalizer in every row."""
    values = norm.values.copy()
    values[noun] = 0.0
    empty = object.__new__(NormalizedAssociation)
    empty.__dict__.update(metric=norm.metric, lexicon=norm.lexicon, values=values, zero_mask=norm.zero_mask)
    return empty


# ---------------------------------------------------------------------------
# the chain as one column of one matrix, and one column per stacked matrix:
# the bodies of rsa's chain before one core ran every column at once

def oracle_normalize(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """values over their totals; a total below the smallest normal float,
    zero included, is one the float chain cannot divide by with full
    precision, and fails as rsa's chain fails a zero line."""
    totals = values.sum(axis=axis, keepdims=axis is not None)
    if np.any(totals < np.finfo(float).tiny):
        raise DataError("zero normalizer")
    return values / totals


def oracle_power(scores: np.ndarray, columns: np.ndarray, alpha: float) -> np.ndarray:
    """columns**alpha, failing where a positive score's cell falls below
    the smallest normal float before or after the power, as rsa's chain
    then recomputes its matrix in logs."""
    weighted = columns**alpha
    if ((scores > 0) & (np.minimum(columns, weighted) < np.finfo(float).tiny)).any():
        raise DataError("zero normalizer")
    return weighted


def oracle_chain(scores: np.ndarray, index: int, alpha, label: str) -> np.ndarray:
    """Column `index` of the listener chain. Literal (alpha None): that
    column normalized. Pragmatic: normalize columns, raise to alpha,
    normalize rows, then normalize that column."""
    if not 0 <= index < scores.shape[1]:
        raise DataError(f"{label} index {index} out of range")
    if alpha is None:
        return oracle_normalize(scores[:, index])
    alpha = float(alpha)
    if alpha <= 0:
        raise DataError(f"alpha must be positive, got {alpha!r}")
    weighted = oracle_power(scores, oracle_normalize(scores, axis=0), alpha)
    return oracle_normalize(oracle_normalize(weighted, axis=1)[:, index])


def oracle_stack_chain(scores: np.ndarray, index: np.ndarray, alpha, label: str) -> np.ndarray:
    """oracle_chain on each (referent x utterance) matrix of an (N, R, U)
    stack, reading column index[n] of matrix n: an (N, R) array."""
    bad = (index < 0) | (index >= scores.shape[2])
    if bad.any():
        raise DataError(f"{label} index {int(index[bad][0])} out of range")
    rows = np.arange(len(scores))
    if alpha is None:
        return oracle_normalize(np.ascontiguousarray(scores[rows, :, index]), axis=1)
    alpha = float(alpha)
    if alpha <= 0:
        raise DataError(f"alpha must be positive, got {alpha!r}")
    weighted = oracle_power(scores, oracle_normalize(scores, axis=1), alpha)
    chosen = oracle_normalize(weighted, axis=2)[rows, :, index]
    return oracle_normalize(np.ascontiguousarray(chosen), axis=1)


def exact_chains(scores, alpha) -> list:
    """Every column of the listener chain on a score matrix at 50
    significant digits, where nothing underflows: per column, its
    distribution as floats, or "zero normalizer" where an exact total is
    0, which only a line of zero scores gives."""
    with mpmath.workdps(50):
        cells = [[mpmath.mpf(float(v)) for v in row] for row in np.asarray(scores)]

        def normalized(line):
            total = mpmath.fsum(line)
            if total == 0:
                raise DataError("zero normalizer")
            return [v / total for v in line]

        def outcome(column):
            try:
                return np.array([float(v) for v in normalized(column)])
            except DataError as exc:
                return str(exc)

        if alpha is not None:
            power = mpmath.mpf(float(alpha))
            try:
                columns = [normalized(list(column)) for column in zip(*cells)]
                cells = [normalized([v**power for v in row]) for row in zip(*columns)]
            except DataError as exc:
                return [str(exc)] * len(cells[0])
        return [outcome(list(column)) for column in zip(*cells)]


def write_lexicon_file(path, nouns, adjectives):
    lines = ["[nouns]"]
    lines.extend(nouns)
    lines.append("[adjectives]")
    lines.extend(adjectives)
    path.write_text("\n".join(lines) + "\n")


def write_counts_file(path, nouns, adjectives, counts):
    lines = ["\t" + "\t".join(adjectives)]
    for noun, row in zip(nouns, counts):
        lines.append(noun + "\t" + "\t".join(str(int(c)) for c in row))
    path.write_text("\n".join(lines) + "\n")


def write_matrix_file(path, nouns, adjectives, values):
    lines = ["\t" + "\t".join(adjectives)]
    for noun, row in zip(nouns, values):
        lines.append(noun + "\t" + "\t".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_vector_file(path, entries):
    lines = []
    for word, values in entries:
        lines.append(word + " " + " ".join(repr(float(v)) for v in values))
    path.write_text("\n".join(lines) + "\n")


def oracle_modal_answers(record) -> tuple:
    """ResponseRecord.modal_answers as it was before scoring went row-wise:
    the answers with the most responses, in support order."""
    vector = record.count_vector()
    top = vector.max()
    support = answer_support(record.configuration)
    return tuple(a for a, c in zip(support, vector) if c == top)


def write_responses_file(path, responses, lexicon):
    """One JSONL record per ResponseRecord, answers sorted, keys sorted."""
    lines = []
    for response in responses:
        config = response.configuration
        words = pair_words if config.role == LISTENER else clue_word
        answers = [[words(config.scenario, a, lexicon), n] for a, n in response.counts.items()]
        answers.sort(key=lambda item: json.dumps(item[0]))
        record = {
            "configuration": configuration_record(config, lexicon),
            "answers": answers,
            "confidences": list(response.confidences),
        }
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")
