"""Pretrained word vectors and average-word-vector text representations."""

from __future__ import annotations

import contextlib
import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .neural import _on_threads


class EmbeddingFormatError(ValueError):
    """A line of an embedding file could not be parsed."""


# The largest magnitude of a vector value. Word vectors hold values near 1; at
# 1e308 cos_sim's dot product overflowed. Squares of values up to this, summed
# a million times (norms, dot products), stay finite.
MAX_ABS_VALUE = 1e100


@dataclass
class EmbeddingTable:
    """Word vectors: one (lines, dim) matrix, and each word's row in it.

    Only this module reads that layout. Elsewhere a table is used through
    len() (the number of distinct words), dim, token_ids, gather and
    avg_vector.
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

    def token_ids(self, tokens: Iterable[str]) -> np.ndarray:
        """The rows of the in-vocabulary tokens, in order: an int64 array of shape (found,)."""
        return np.array([self.rows[tok] for tok in tokens if tok in self.rows], dtype=np.int64)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """The vectors of token_ids output, in order: shape (len(ids), dim)."""
        return self.matrix[ids]


@dataclass
class AvgVector:
    """Mean embedding of a token list plus the in-vocabulary fraction."""

    values: np.ndarray
    coverage: float


def parse_embeddings(reader: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """Parse `word v1 ... vd` lines into their words, repeats included, and a (lines, d) matrix.

    EmbeddingTable.of turns the two into a table, where a repeated word keeps
    its first row. The dimension is inferred from the first line; later lines
    must match it. A malformed line, one with nan, inf, an overflowing value
    (1e999) or one above MAX_ABS_VALUE in magnitude, or one that is not UTF-8
    (it holds a lone surrogate, as a bad byte decodes under surrogateescape)
    raises EmbeddingFormatError naming its 1-based line number.
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(reader, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise EmbeddingFormatError(f"line {lineno}: not UTF-8") from None
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
        if np.abs(values).max() > MAX_ABS_VALUE:
            raise EmbeddingFormatError(f"line {lineno}: value above {MAX_ABS_VALUE:g} in magnitude")
        words.append(parts[0])
        rows.append(values)
    if not rows:
        raise EmbeddingFormatError("embedding input is empty")
    return words, np.array(rows)


def _parse_file(path: str | Path) -> tuple[list[str], np.ndarray]:
    """parse_embeddings over a file, with the values parsed by one np.loadtxt pass.

    A generator strips each line's word before loadtxt reads the rest, so
    loadtxt's column-count check is the dimension check. Any line loadtxt
    rejects, any line without a value (loadtxt skips blank lines) and any
    value that is not finite or is too large send the whole file through
    parse_embeddings, which alone words the error or accepts what float()
    accepts and loadtxt does not (such as "1_0").
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
        if not np.abs(matrix).max() <= MAX_ABS_VALUE:  # false for nan too
            raise ValueError("a non-finite or too large value")
    except ValueError:  # a bad byte too: a UnicodeDecodeError is a ValueError
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return parse_embeddings(handle)
    return words, matrix


# A vectors file of at least this many bytes keeps its parse in a cache file
# beside it, <file name> + CACHE_SUFFIX. Below it a parse takes a few tens of ms.
CACHE_MIN_BYTES = 1 << 20
CACHE_SUFFIX = ".evpirank-cache"
# The cache's first array: this format's version, then the SHA-256 digests of
# the two halves of the vectors file it was parsed from (_sha256), then the
# CRC-32 of the stored words and matrix (_payload_crc). Change the version
# with the layout or the key.
CACHE_VERSION = b"evpirank-cache 3\n"


def load_embeddings_file(path: str | Path) -> EmbeddingTable:
    """The EmbeddingTable of a vectors file, parsed once per content.

    A regular file of at least CACHE_MIN_BYTES is hashed; a cache beside it
    that holds the same hash gives the parse back without parsing the text.
    Otherwise the text is parsed and the cache (re)written. Every line is
    validated on that parse, so a file that fails to parse leaves no cache.
    A cache that cannot be read or written, or whose words and matrix do not
    match the CRC-32 stored with them, is only a miss.
    """
    path = Path(path)
    if not path.is_file() or path.stat().st_size < CACHE_MIN_BYTES:
        return EmbeddingTable.of(*_parse_file(path))
    stamp = _stamp(path)
    key = CACHE_VERSION + _sha256(path)
    cache = path.with_name(path.name + CACHE_SUFFIX)
    parsed = _read_cache(cache, key)
    if parsed is None:
        parsed = _parse_file(path)
        if _stamp(path) == stamp:  # else the parse may not be of the bytes hashed
            _write_cache(cache, key, *parsed)
    return EmbeddingTable.of(*parsed)


def _stamp(path: Path) -> tuple[int, int, int]:
    """What a rewrite of the file changes: its size, mtime and inode."""
    st = path.stat()
    return st.st_size, st.st_mtime_ns, st.st_ino


def _sha256(path: Path) -> bytes:
    """The SHA-256 digests of the file's first half and of the rest, joined.

    The halves are hashed on two threads: hashlib releases the GIL while it
    hashes a chunk, so they overlap (a 15 MB file took 11.4 ms against 19.5
    on one thread, 2-core x86-64).
    """
    half = path.stat().st_size // 2
    first, rest = hashlib.sha256(), hashlib.sha256()
    _on_threads(_hash_into, [(first, path, 0, half), (rest, path, half, None)], 2)
    return first.digest() + rest.digest()


def _hash_into(digest, path: Path, start: int, stop: int | None) -> None:
    """Update digest with bytes start:stop of path; a stop of None reads to its end."""
    with open(path, "rb") as handle:
        handle.seek(start)
        while chunk := handle.read(1 << 20 if stop is None else min(1 << 20, stop - handle.tell())):
            digest.update(chunk)


def _payload_crc(text: np.ndarray, matrix: np.ndarray) -> bytes:
    """The CRC-32 of the words' bytes, then the matrix's, read in place; any flipped bit shows."""
    return zlib.crc32(matrix, zlib.crc32(text)).to_bytes(4, "big")


def _read_cache(cache: Path, key: bytes) -> tuple[list[str], np.ndarray] | None:
    """The words and matrix _write_cache stored under key, or None for any other file."""
    try:
        with open(cache, "rb") as handle:
            stored, text, matrix = (_read_array(handle) for _ in range(3))
            trailing = handle.read(1)
        if stored.tobytes() != key + _payload_crc(text, matrix):
            return None
        words = text.tobytes().decode("utf-8").split("\n")
    except Exception:  # missing, truncated, not a cache, or a .npy header numpy cannot parse
        return None
    if (
        trailing
        or matrix.dtype != np.float64
        or matrix.ndim != 2
        or matrix.shape[0] != len(words)
        or matrix.shape[1] < 1
        or not np.isfinite(matrix).all()
    ):
        return None
    return words, matrix


def _read_array(handle) -> np.ndarray:
    return np.lib.format.read_array(handle, allow_pickle=False)


def _write_cache(cache: Path, key: bytes, words: list[str], matrix: np.ndarray) -> None:
    """Store key and _payload_crc, the words joined by newlines, the matrix; a failure leaves none.

    The file is written under a temporary name and renamed into place, so a
    reader sees a whole cache or none. np.save writes the matrix straight
    from its buffer. No word holds a newline: a parse splits words at whitespace.
    """
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        text = np.frombuffer("\n".join(words).encode("utf-8"), dtype=np.uint8)
        stored = key + _payload_crc(text, matrix)
        with open(tmp, "wb") as handle:
            for array in (np.frombuffer(stored, dtype=np.uint8), text, matrix):
                np.save(handle, array, allow_pickle=False)
        os.replace(tmp, cache)
    except OSError:  # a read-only directory, a full disk
        with contextlib.suppress(OSError):
            tmp.unlink()


def avg_vector(table: EmbeddingTable, tokens: Iterable[str]) -> AvgVector:
    """Arithmetic mean of the vectors of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped. If nothing is in vocabulary the
    result is the zero vector with coverage 0. Tokens are summed in sorted
    order so the value is exactly invariant to the input token order.
    """
    tokens = list(tokens)
    rows = table.gather(table.token_ids(sorted(tokens)))
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
