"""Vocabularies and raw semantic resources.

A Lexicon fixes the noun and adjective orderings that every matrix in the
package indexes into. The loaders here ingest the four precomputed
resources the association metrics consume: co-occurrence counts, word
embeddings, graph relatedness scores, and topic distributions. Loaders
either return a fully validated table or raise a DataError that starts
with the file path and names the line, cell or word at fault; nothing
partially parsed escapes. The table types check their own contents, so
a loader only parses and then builds its type under that file prefix.

Every file's labels are checked against the lexicon in one linear pass.
A matrix's cells, once in lexicon order, are parsed in that order by one
parser with Python's own float or int, so each value keeps its bits and
the first bad cell in lexicon order, not file order, is named.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, float_array, prefix_errors, read_text

_INT_LIMIT = np.iinfo(np.int64).max

# Topic rows whose sum is off by more than this are re-normalized; rows
# already this close to 1 pass through untouched, so writing a loaded
# table with repr() floats and loading it again is exact.
_TOPIC_EXACT_TOL = 1e-12
_TOPIC_RENORM_TOL = 1e-6


@dataclass(frozen=True)
class Lexicon:
    """Ordered noun and adjective vocabularies of words as a file carries
    them: lower case, no whitespace, and no leading '#', which is a comment."""

    nouns: tuple[str, ...]
    adjectives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "nouns", tuple(self.nouns))
        object.__setattr__(self, "adjectives", tuple(self.adjectives))
        for section, words in (("nouns", self.nouns), ("adjectives", self.adjectives)):
            if not words:
                raise DataError(f"lexicon section '{section}' is empty")
            for word in words:
                if not word or word != word.lower() or word[0] == "#" or any(ch.isspace() for ch in word):
                    raise DataError(f"invalid word {word!r} in '{section}'")
        seen: dict[str, str] = {}
        for section, words in (("nouns", self.nouns), ("adjectives", self.adjectives)):
            for word in words:
                if word in seen:
                    if seen[word] == section:
                        raise DataError(f"word '{word}' duplicated in '{section}'")
                    raise DataError(f"word '{word}' is duplicate across sections")
                seen[word] = section

    @cached_property
    def noun_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.nouns)}

    @cached_property
    def adjective_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.adjectives)}

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.nouns), len(self.adjectives))


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a [nouns]/[adjectives] sectioned word list.

    One word per line, '#' starts a comment, words are lowercased.
    """
    nouns: list[str] = []
    adjectives: list[str] = []
    section: list[str] | None = None
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[nouns]":
            section = nouns
            continue
        if line == "[adjectives]":
            section = adjectives
            continue
        if line.startswith("[") and line.endswith("]"):
            raise DataError(f"{path}:{lineno}: unknown section header {line!r}")
        if section is None:
            raise DataError(f"{path}:{lineno}: word before any section header")
        word = line.lower()
        if any(ch.isspace() for ch in word):
            raise DataError(f"{path}:{lineno}: expected one word, got {line!r}")
        section.append(word)
    with prefix_errors(path):
        return Lexicon(tuple(nouns), tuple(adjectives))


# ---------------------------------------------------------------------------
# labeled matrix files (counts, relatedness)

def read_labeled_matrix(path: str | Path) -> tuple[list[str], list[str], list[list[str]], list[str]]:
    """Read a TSV matrix with a column-label header row and row labels.

    Returns (row_labels, column_labels, cells, comment_lines). Cells are
    kept as strings; callers convert. Leading '#' lines are collected as
    comments, lowercase applied to labels only.
    """
    comments: list[str] = []
    header: list[str] | None = None
    row_labels: list[str] = []
    cells: list[list[str]] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.lstrip().startswith("#"):
            comments.append(raw.strip())
            continue
        fields = raw.split("\t")
        if header is None:
            if fields[0].strip():
                raise DataError(f"{path}:{lineno}: header must start with an empty cell")
            header = [f.strip().lower() for f in fields[1:]]
            if not header or any(not h for h in header):
                raise DataError(f"{path}:{lineno}: empty column label")
            continue
        if len(fields) != len(header) + 1:
            raise DataError(
                f"{path}:{lineno}: expected {len(header) + 1} fields, got {len(fields)}"
            )
        row_labels.append(fields[0].strip().lower())
        cells.append([f.strip() for f in fields[1:]])
    if header is None:
        raise DataError(f"{path}: no header row")
    return row_labels, header, cells, comments


def write_labeled_matrix(path, lexicon: Lexicon, matrix, comments=()) -> None:
    """Write the format read_labeled_matrix reads: comment lines, a header
    row of adjectives, then one row per noun with cells as repr() floats."""
    rows = np.asarray(matrix, dtype=float).tolist()
    lines = list(comments)
    lines.append("\t" + "\t".join(lexicon.adjectives))
    for i, noun in enumerate(lexicon.nouns):
        lines.append(noun + "\t" + "\t".join(map(repr, rows[i])))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_cells(cells, lexicon: Lexicon, what: str, dtype=float) -> np.ndarray:
    """A float or int64 (dtype int) matrix from rows of string cells in lexicon
    order, parsed by Python's own float or int; a bad cell, or an int cell
    int64 cannot hold ("<what> overflow"), names its noun and adjective."""
    fault = "non-numeric" if dtype is float else "non-integer"
    values = np.empty(lexicon.shape, dtype)
    for i, row in enumerate(cells):
        for j, text in enumerate(row):
            try:
                value = dtype(text)
            except ValueError:
                message = f"{fault} {what} {text!r}"
            else:
                # the sign is checked by the type
                if dtype is float or abs(value) <= _INT_LIMIT:
                    values[i, j] = value
                    continue
                message = f"{what} overflow {value}"
            raise DataError(f"{message} at ('{lexicon.nouns[i]}', '{lexicon.adjectives[j]}')")
    return values


def _align_labels(path, labels, words):
    """The np.ix_ index, in lexicon order, of the nouns and adjectives in
    words among a matrix file's row and column labels. A duplicate label
    (the alphabetically first, rows first) or an absent word is an error;
    extra labels are ignored with a warning."""
    positions = []
    for axis_labels, kind in zip(labels, ("row", "column")):
        position = {label: i for i, label in enumerate(axis_labels)}
        if len(position) < len(axis_labels):
            dupe = min(w for i, w in enumerate(axis_labels) if position[w] != i)
            raise DataError(f"{path}: duplicate {kind} label '{dupe}'")
        positions.append(position)
    for position, axis_words, word_kind in zip(positions, words, ("noun", "adjective")):
        for word in axis_words:
            if word not in position:
                raise DataError(f"{path}: {word_kind} '{word}' absent")
    extra = sum(map(len, labels)) - sum(map(len, words))
    if extra:
        # a loader calls the file's reader, which calls this
        warnings.warn(f"{path}: ignoring {extra} word(s) outside the lexicon", stacklevel=4)
    return np.ix_(*([p[w] for w in ws] for p, ws in zip(positions, words)))


def _read_cells(path: str | Path, lexicon: Lexicon) -> list[list[str]]:
    """A labeled matrix file's rows of string cells in lexicon order."""
    rows, columns, cells, _ = read_labeled_matrix(path)
    index = _align_labels(path, (rows, columns), (lexicon.nouns, lexicon.adjectives))
    return np.array(cells, dtype=object)[index].tolist()


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def reject_cells(bad: np.ndarray, values: np.ndarray, lexicon: Lexicon, message: str) -> None:
    """Raise "<message> <value> at ('noun', 'adjective')" for the first
    cell flagged in bad, if any."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        noun, adjective = lexicon.nouns[i], lexicon.adjectives[j]
        raise DataError(f"{message} {values[i, j].item()} at ('{noun}', '{adjective}')")


def lexicon_array(values, lexicon: Lexicon, what: str, dtype=float) -> np.ndarray:
    """A read-only, lexicon-shaped, all-finite copy of values; `what` names them in errors."""
    array = float_array(values, what, dtype).copy(order="K")
    if array.shape != lexicon.shape:
        raise DataError(f"{what} shape {array.shape} != lexicon shape {lexicon.shape}")
    reject_cells(~np.isfinite(array), array, lexicon, f"non-finite {what}")
    return _freeze(array)


@dataclass(frozen=True, eq=False)
class CooccurrenceCounts:
    """Noun x adjective co-occurrence counts from one corpus."""

    lexicon: Lexicon
    z: np.ndarray

    def __post_init__(self):
        z = float_array(self.z, "count table", None)
        if not np.issubdtype(z.dtype, np.integer):
            raise DataError("counts must be integers")
        z = lexicon_array(z, self.lexicon, "count table", z.dtype)
        reject_cells(z < 0, z, self.lexicon, "negative count")
        # uint64 counts past the int64 maximum would wrap to negatives
        reject_cells(z > _INT_LIMIT, z, self.lexicon, "count overflow")
        object.__setattr__(self, "z", _freeze(z.astype(np.int64, copy=False)))


def load_counts(path: str | Path, lexicon: Lexicon) -> CooccurrenceCounts:
    cells = _read_cells(path, lexicon)
    with prefix_errors(path):
        return CooccurrenceCounts(lexicon, parse_cells(cells, lexicon, "count", int))


@dataclass(frozen=True, eq=False)
class RelatednessTable:
    """Noun x adjective relatedness scores from a semantic graph."""

    lexicon: Lexicon
    scores: np.ndarray

    def __post_init__(self):
        scores = lexicon_array(self.scores, self.lexicon, "relatedness score")
        reject_cells(scores < 0, scores, self.lexicon, "negative relatedness score")
        object.__setattr__(self, "scores", scores)


def load_relatedness(path: str | Path, lexicon: Lexicon) -> RelatednessTable:
    cells = _read_cells(path, lexicon)
    with prefix_errors(path):
        return RelatednessTable(lexicon, parse_cells(cells, lexicon, "score"))


# ---------------------------------------------------------------------------
# word-keyed vector files (embeddings, topic distributions)

def _read_vectors(path: str | Path, lexicon: Lexicon) -> dict[str, np.ndarray]:
    """Each lexicon word's vector from a word-keyed vector file."""
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split()
        if len(fields) < 2:
            raise DataError(f"{path}:{lineno}: expected a word and at least one value")
        word = fields[0].lower()
        try:
            values = np.array([float(f) for f in fields[1:]])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value for '{word}'") from None
        if not np.isfinite(values).all():
            raise DataError(f"{path}:{lineno}: non-finite value for '{word}'")
        if dimension is None:
            dimension = values.size
        elif values.size != dimension:
            raise DataError(
                f"{path}:{lineno}: '{word}' has {values.size} values, expected {dimension}"
            )
        if word in vectors:
            raise DataError(f"{path}:{lineno}: duplicate entry for '{word}'")
        vectors[word] = values
    if not vectors:
        raise DataError(f"{path}: no entries")
    words = lexicon.nouns + lexicon.adjectives
    absent = [word for word in words if word not in vectors]
    if absent:
        raise DataError(f"{path}: word '{absent[0]}' absent")
    extra = len(vectors) - len(words)
    if extra:  # warned at the caller of the loader that calls this
        warnings.warn(f"{path}: ignoring {extra} word(s) outside the lexicon", stacklevel=3)
    return {word: vectors[word] for word in words}


def _word_vectors(lexicon: Lexicon, vectors, what: str) -> dict[str, np.ndarray]:
    """Each lexicon word's vector as a read-only copy of finite values; the
    first word's vector fixes the length, which must be positive."""
    frozen = {}
    shape = None
    for word in lexicon.nouns + lexicon.adjectives:
        if word not in vectors:
            raise DataError(f"word '{word}' has no {what}")
        vec = np.array(vectors[word], dtype=float)
        if shape is None:
            shape = vec.shape
        if vec.ndim != 1 or not vec.size or vec.shape != shape:
            raise DataError(f"{what} for '{word}' has shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise DataError(f"non-finite {what} for '{word}'")
        frozen[word] = _freeze(vec)
    return frozen


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Dense word vectors for every lexicon word."""

    lexicon: Lexicon
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        vectors = _word_vectors(self.lexicon, self.vectors, "vector")
        for word, vec in vectors.items():
            if not vec.any():
                raise DataError(f"zero vector for '{word}'")
        object.__setattr__(self, "vectors", vectors)

    def matrix(self, words) -> np.ndarray:
        return np.stack([self.vectors[w] for w in words])


def load_embeddings(path: str | Path, lexicon: Lexicon) -> EmbeddingTable:
    picked = _read_vectors(path, lexicon)
    with prefix_errors(path):
        return EmbeddingTable(lexicon, picked)


@dataclass(frozen=True, eq=False)
class TopicTable:
    """Per-word distributions over a shared set of topics."""

    lexicon: Lexicon
    distributions: dict[str, np.ndarray]

    def __post_init__(self):
        distributions = _word_vectors(self.lexicon, self.distributions, "topic distribution")
        for word, vec in distributions.items():
            if (vec < 0).any():
                raise DataError(f"negative topic mass for '{word}'")
            total = float(vec.sum())
            if abs(total - 1.0) > 1e-9:
                raise DataError(f"distribution for '{word}' sums to {total:g}")
        object.__setattr__(self, "distributions", distributions)


def load_topics(path: str | Path, lexicon: Lexicon) -> TopicTable:
    """Load topic distributions; rows off by at most 1e-6 are re-normalized."""
    picked = _read_vectors(path, lexicon)
    for word, vec in picked.items():
        total = float(vec.sum())
        if _TOPIC_EXACT_TOL < abs(total - 1.0) <= _TOPIC_RENORM_TOL:
            picked[word] = vec / total
    with prefix_errors(path):
        return TopicTable(lexicon, picked)
