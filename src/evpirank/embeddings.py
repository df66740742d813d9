"""Pretrained word vectors and average-word-vector text representations."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class EmbeddingFormatError(ValueError):
    """A line of an embedding file could not be parsed."""


@dataclass
class EmbeddingTable:
    """Word vectors: one (lines, dim) matrix, and each word's row in it.

    Only this module reads that layout. Elsewhere a table is used through
    len() (the number of distinct words), dim, token_rows and avg_vector.
    """

    rows: dict[str, int]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def of(cls, words: Sequence[str], matrix: np.ndarray) -> "EmbeddingTable":
        """words[i] -> matrix[i]; a word that repeats keeps its first row."""
        if matrix.ndim != 2 or len(matrix) != len(words):
            raise ValueError(f"{len(words)} words for a matrix of shape {matrix.shape}")
        rows: dict[str, int] = {}
        for i, word in enumerate(words):
            rows.setdefault(word, i)
        return cls(rows=rows, matrix=matrix)

    @classmethod
    def empty(cls) -> "EmbeddingTable":
        """No words, dimension 1."""
        return cls.of([], np.zeros((0, 1)))

    def token_rows(self, tokens: Iterable[str]) -> np.ndarray:
        """The vectors of the in-vocabulary tokens, in order: shape (found, dim)."""
        return self.matrix[[self.rows[tok] for tok in tokens if tok in self.rows]]


@dataclass
class AvgVector:
    """Mean embedding of a token list plus the in-vocabulary fraction."""

    values: np.ndarray
    coverage: float


def load_embeddings(reader: Iterable[str]) -> EmbeddingTable:
    """Parse `word v1 ... vd` lines into an EmbeddingTable.

    The dimension is inferred from the first line; later lines must match it.
    Duplicate words keep their first occurrence. A malformed line, or one with
    nan, inf or an overflowing value (1e999), raises EmbeddingFormatError naming
    its 1-based line number.
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(reader, start=1):
        if not line.strip():
            raise EmbeddingFormatError(f"line {lineno}: empty line")
        parts = line.split()
        if len(parts) < 2:
            raise EmbeddingFormatError(f"line {lineno}: expected a word and at least one value")
        try:
            values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {lineno}: non-numeric entry ({exc})") from None
        if rows and values.shape[0] != rows[0].shape[0]:
            raise EmbeddingFormatError(
                f"line {lineno}: dimension {values.shape[0]} does not match {rows[0].shape[0]}"
            )
        if not np.isfinite(values).all():
            raise EmbeddingFormatError(f"line {lineno}: non-finite value")
        words.append(parts[0])
        rows.append(values)
    if not rows:
        raise EmbeddingFormatError("embedding input is empty")
    return EmbeddingTable.of(words, np.array(rows))


def load_embeddings_file(path: str | Path) -> EmbeddingTable:
    """load_embeddings over a file, with the values parsed by one np.loadtxt pass.

    A generator strips each line's word before loadtxt reads the rest, so
    loadtxt's column-count check is the dimension check. Any line loadtxt
    rejects, any line without a value (loadtxt skips blank lines) and any
    non-finite value send the whole file through load_embeddings, which
    alone words the error or accepts what float() accepts and loadtxt does
    not (such as "1_0").
    """
    words: list[str] = []

    def values(handle):
        for line in handle:
            parts = line.split(None, 1)
            if len(parts) < 2:
                raise ValueError("a line without values")
            words.append(parts[0])
            yield parts[1]
        if not words:
            raise ValueError("no lines")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            matrix = np.loadtxt(values(handle), dtype=np.float64, comments=None, ndmin=2)
        if not np.isfinite(matrix).all():
            raise ValueError("a non-finite value")
    except ValueError:
        with open(path, "r", encoding="utf-8") as handle:
            return load_embeddings(handle)
    return EmbeddingTable.of(words, matrix)


def avg_vector(table: EmbeddingTable, tokens: Iterable[str]) -> AvgVector:
    """Arithmetic mean of the vectors of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped. If nothing is in vocabulary the
    result is the zero vector with coverage 0. Tokens are summed in sorted
    order so the value is exactly invariant to the input token order.
    """
    tokens = list(tokens)
    rows = table.token_rows(sorted(tokens))
    if not len(rows):
        return AvgVector(values=np.zeros(table.dim, dtype=np.float64), coverage=0.0)
    return AvgVector(values=np.sum(rows, axis=0) / len(rows), coverage=len(rows) / len(tokens))


def cos_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def unit_rows(x: np.ndarray) -> np.ndarray:
    """x scaled to unit norm along its last axis; zero-norm rows stay zero."""
    norms = np.sqrt(np.einsum("...k,...k->...", x, x))[..., None]
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)
