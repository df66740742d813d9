"""Pretrained word vectors and average-word-vector text representations."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np


class EmbeddingFormatError(ValueError):
    """A line of an embedding file could not be parsed."""


@dataclass
class EmbeddingTable:
    """Word to dense-vector map with a single fixed dimension."""

    dim: int
    vectors: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def empty(cls) -> "EmbeddingTable":
        """No words, dimension 1."""
        return cls(dim=1, vectors={})


@dataclass
class AvgVector:
    """Mean embedding of a token list plus the in-vocabulary fraction."""

    values: np.ndarray
    coverage: float


def load_embeddings(reader: Iterable[str]) -> EmbeddingTable:
    """Parse `word v1 ... vd` lines into an EmbeddingTable.

    The dimension is inferred from the first line; later lines must match it.
    Duplicate words keep their first occurrence. Malformed lines raise
    EmbeddingFormatError naming the offending line number (1-based).
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(reader, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            raise EmbeddingFormatError(f"line {lineno}: empty line")
        parts = line.split()
        if len(parts) < 2:
            raise EmbeddingFormatError(f"line {lineno}: expected a word and at least one value")
        word = parts[0]
        try:
            values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {lineno}: non-numeric entry ({exc})") from None
        if dim is None:
            dim = values.shape[0]
        elif values.shape[0] != dim:
            raise EmbeddingFormatError(
                f"line {lineno}: dimension {values.shape[0]} does not match {dim}"
            )
        if word not in vectors:
            vectors[word] = values
    if dim is None:
        raise EmbeddingFormatError("embedding input is empty")
    return EmbeddingTable(dim=dim, vectors=vectors)


def load_embeddings_file(path: str | Path) -> EmbeddingTable:
    """load_embeddings over a file, with the values parsed by one np.loadtxt pass.

    A generator strips each line's word before loadtxt reads the rest, so
    loadtxt's column-count check is the dimension check. Any line loadtxt
    rejects, and any line without a value (loadtxt skips blank lines), sends
    the whole file through load_embeddings, which alone words the error or
    accepts what float() accepts and loadtxt does not (such as "1_0").
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
    except ValueError:
        with open(path, "r", encoding="utf-8") as handle:
            return load_embeddings(handle)
    vectors: dict[str, np.ndarray] = {}
    for word, row in zip(words, matrix):
        vectors.setdefault(word, row)
    return EmbeddingTable(dim=matrix.shape[1], vectors=vectors)


def avg_vector(table: EmbeddingTable, tokens: Iterable[str]) -> AvgVector:
    """Arithmetic mean of the vectors of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped. If nothing is in vocabulary the
    result is the zero vector with coverage 0. Tokens are summed in sorted
    order so the value is exactly invariant to the input token order.
    """
    tokens = list(tokens)
    found = [tok for tok in sorted(tokens) if tok in table.vectors]
    if not found:
        return AvgVector(values=np.zeros(table.dim, dtype=np.float64), coverage=0.0)
    stacked = np.stack([table.vectors[tok] for tok in found])
    mean = np.sum(stacked, axis=0) / len(found)
    return AvgVector(values=mean, coverage=len(found) / len(tokens))


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
