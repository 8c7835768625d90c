"""Vocabularies and raw semantic resources.

A Lexicon fixes the noun and adjective orderings that every matrix in the
package indexes into. The loaders here ingest the four precomputed
resources the association metrics consume: co-occurrence counts, word
embeddings, graph relatedness scores, and topic distributions. Loaders
either return a fully validated table or raise a DataError that starts
with the file path and names the line, cell or word at fault; nothing
partially parsed escapes. The table types check their own contents, so
a loader only parses and then builds its type under that file prefix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, prefix_errors

_INT_LIMIT = np.iinfo(np.int64).max

# Topic rows whose sum is off by more than this are re-normalized; rows
# already this close to 1 pass through untouched, so writing a loaded
# table with repr() floats and loading it again is exact.
_TOPIC_EXACT_TOL = 1e-12
_TOPIC_RENORM_TOL = 1e-6


@dataclass(frozen=True)
class Lexicon:
    """Ordered noun and adjective vocabularies."""

    nouns: tuple[str, ...]
    adjectives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "nouns", tuple(self.nouns))
        object.__setattr__(self, "adjectives", tuple(self.adjectives))
        for section, words in (("nouns", self.nouns), ("adjectives", self.adjectives)):
            if not words:
                raise DataError(f"lexicon section '{section}' is empty")
            for word in words:
                if not word or word != word.strip() or any(ch.isspace() for ch in word):
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
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    lines = list(comments)
    lines.append("\t" + "\t".join(lexicon.adjectives))
    for i, noun in enumerate(lexicon.nouns):
        lines.append(noun + "\t" + "\t".join(repr(float(v)) for v in matrix[i]))
    Path(path).write_text("\n".join(lines) + "\n")


def parse_float_cells(cells, lexicon: Lexicon, what: str) -> np.ndarray:
    """Float matrix from string cells in lexicon order; a bad cell names
    its noun and adjective."""
    matrix = np.zeros(lexicon.shape)
    for i, noun in enumerate(lexicon.nouns):
        for j, adj in enumerate(lexicon.adjectives):
            try:
                matrix[i, j] = float(cells[i][j])
            except ValueError:
                raise DataError(
                    f"non-numeric {what} {cells[i][j]!r} at ('{noun}', '{adj}')"
                ) from None
    return matrix


def _align_rows(
    row_labels: list[str],
    col_labels: list[str],
    cells: list[list[str]],
    lexicon: Lexicon,
    path: str | Path,
):
    """Map file rows/columns onto lexicon order, ignoring extra words.

    Duplicate labels and lexicon words missing from the file are errors;
    words in the file but not the lexicon are dropped with a warning.
    """
    for kind, labels in (("row", row_labels), ("column", col_labels)):
        dupes = {w for w in labels if labels.count(w) > 1}
        if dupes:
            raise DataError(f"{path}: duplicate {kind} label '{sorted(dupes)[0]}'")
    row_pos = {w: i for i, w in enumerate(row_labels)}
    col_pos = {w: i for i, w in enumerate(col_labels)}
    for noun in lexicon.nouns:
        if noun not in row_pos:
            raise DataError(f"{path}: noun '{noun}' absent")
    for adj in lexicon.adjectives:
        if adj not in col_pos:
            raise DataError(f"{path}: adjective '{adj}' absent")
    extra = (len(row_labels) - len(lexicon.nouns)) + (len(col_labels) - len(lexicon.adjectives))
    if extra:
        warnings.warn(f"{path}: ignoring {extra} word(s) outside the lexicon", stacklevel=3)
    picked = [
        [cells[row_pos[n]][col_pos[a]] for a in lexicon.adjectives] for n in lexicon.nouns
    ]
    return picked


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
    array = np.array(values, dtype=dtype)
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
        z = np.asarray(self.z)
        if not np.issubdtype(z.dtype, np.integer):
            raise DataError("counts must be integers")
        z = lexicon_array(z, self.lexicon, "count table", z.dtype)
        reject_cells(z < 0, z, self.lexicon, "negative count")
        # uint64 counts past the int64 maximum would wrap to negatives
        reject_cells(z > _INT_LIMIT, z, self.lexicon, "count overflow")
        object.__setattr__(self, "z", _freeze(z.astype(np.int64, copy=False)))


def load_counts(path: str | Path, lexicon: Lexicon) -> CooccurrenceCounts:
    row_labels, col_labels, cells, _ = read_labeled_matrix(path)
    picked = _align_rows(row_labels, col_labels, cells, lexicon, path)
    z = np.zeros(lexicon.shape, dtype=np.int64)
    with prefix_errors(path):
        for i, noun in enumerate(lexicon.nouns):
            for j, adj in enumerate(lexicon.adjectives):
                text = picked[i][j]
                try:
                    value = int(text)
                except ValueError:
                    raise DataError(f"non-integer count {text!r} at ('{noun}', '{adj}')") from None
                # a cell int64 cannot hold; the sign is checked by the type
                if abs(value) > _INT_LIMIT:
                    raise DataError(f"count overflow {value} at ('{noun}', '{adj}')")
                z[i, j] = value
        return CooccurrenceCounts(lexicon, z)


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
    row_labels, col_labels, cells, _ = read_labeled_matrix(path)
    picked = _align_rows(row_labels, col_labels, cells, lexicon, path)
    with prefix_errors(path):
        return RelatednessTable(lexicon, parse_float_cells(picked, lexicon, "score"))


# ---------------------------------------------------------------------------
# word-keyed vector files (embeddings, topic distributions)

def _read_vector_file(path: str | Path) -> dict[str, np.ndarray]:
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
    return vectors


def _pick_vectors(all_vectors, lexicon, path):
    picked = {}
    for word in lexicon.nouns + lexicon.adjectives:
        if word not in all_vectors:
            raise DataError(f"{path}: word '{word}' absent")
        picked[word] = all_vectors[word]
    extra = len(all_vectors) - len(picked)
    if extra:
        warnings.warn(f"{path}: ignoring {extra} word(s) outside the lexicon", stacklevel=3)
    return picked


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
    picked = _pick_vectors(_read_vector_file(path), lexicon, path)
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
    picked = _pick_vectors(_read_vector_file(path), lexicon, path)
    for word, vec in picked.items():
        total = float(vec.sum())
        if _TOPIC_EXACT_TOL < abs(total - 1.0) <= _TOPIC_RENORM_TOL:
            picked[word] = vec / total
    with prefix_errors(path):
        return TopicTable(lexicon, picked)
