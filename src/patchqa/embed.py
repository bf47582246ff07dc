"""Tokenization and token-to-vector embedding with dataset standardization.

Two providers cover both deployment modes: vectors precomputed by an external
encoder and loaded from a file, and deterministic hash-seeded random vectors
that need no external artifacts. File-backed lookups fall back to the hashed
vector for out-of-vocabulary tokens, so coverage gaps never abort a run.
Providers are immutable after construction; lookups are pure.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FileBackedEmbedding",
    "HashSeededEmbedding",
    "SequenceMatrix",
    "TokenSequence",
    "prepare",
    "standardize",
    "text_vector",
    "tokenize",
]

_TOKEN_SPLIT = re.compile(r"[^a-z0-9_#.]+")


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]


@dataclass
class SequenceMatrix:
    """Fixed-shape embedded sequence; zero rows with mask 0 mark padding."""

    rows: np.ndarray  # (max_seq_len, dim)
    mask: np.ndarray  # (max_seq_len,) of 0.0/1.0
    truncated: bool = False


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on any character outside [a-z0-9_#.]."""
    tokens = tuple(t for t in _TOKEN_SPLIT.split(text.lower()) if t)
    return TokenSequence(tokens)


def _token_key(token: str, seed: int) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


class HashSeededEmbedding:
    """Deterministic pseudo-random unit-variance vectors keyed by (seed, token)."""

    def __init__(self, dim: int, seed: int = 0):
        if dim <= 0:
            raise ValueError("embedding dim must be positive")
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def lookup(self, token: str) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            rng = np.random.default_rng(_token_key(token, self.seed))
            vec = rng.standard_normal(self.dim)
            self._cache[token] = vec
        return vec


class FileBackedEmbedding:
    """Vectors loaded from a text file; unknown tokens use the hashed fallback.

    File format: first line ``dim <D>``; every following non-blank line is
    ``token v1 v2 ... vD`` with decimal floats. Duplicate tokens, wrong
    component counts and non-finite values are errors.
    """

    def __init__(self, dim: int, table: dict[str, np.ndarray], fallback_seed: int = 0):
        if dim <= 0:
            raise ValueError("embedding dim must be positive")
        self.dim = dim
        self._table = table
        self._fallback = HashSeededEmbedding(dim, fallback_seed)

    @classmethod
    def load(cls, path, fallback_seed: int = 0) -> "FileBackedEmbedding":
        table: dict[str, np.ndarray] = {}
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().split()
            if len(first) != 2 or first[0] != "dim":
                raise ValueError(f"{path}: first line must be 'dim <D>'")
            dim = int(first[1])
            if dim <= 0:
                raise ValueError(f"{path}: dim must be positive")
            for lineno, raw in enumerate(fh, start=2):
                if not raw.strip():
                    continue
                parts = raw.split()
                token = parts[0]
                if token in table:
                    raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
                if len(parts) != dim + 1:
                    raise ValueError(
                        f"{path}:{lineno}: expected {dim} components, got {len(parts) - 1}"
                    )
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                if not np.all(np.isfinite(vec)):
                    raise ValueError(f"{path}:{lineno}: non-finite component")
                table[token] = vec
        return cls(dim, table, fallback_seed)

    def lookup(self, token: str) -> np.ndarray:
        vec = self._table.get(token)
        if vec is None:
            return self._fallback.lookup(token)
        return vec


def prepare(seq: TokenSequence, provider, max_seq_len: int) -> SequenceMatrix:
    """Embed the first ``max_seq_len`` tokens row-wise, zero-padding the tail."""
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")
    if provider.dim <= 0:
        raise ValueError("provider dim must be positive")
    tokens = seq.tokens[:max_seq_len]
    rows = np.zeros((max_seq_len, provider.dim), dtype=np.float64)
    for i, token in enumerate(tokens):
        rows[i] = provider.lookup(token)
    mask = np.zeros(max_seq_len, dtype=np.float64)
    mask[: len(tokens)] = 1.0
    return SequenceMatrix(rows=rows, mask=mask, truncated=len(seq.tokens) > max_seq_len)


def standardize(vectors) -> np.ndarray:
    """Column-wise z-score over a set of equal-dim vectors.

    Uses the population (divide-by-N) standard deviation; zero-variance
    columns map to zero. Needs at least two vectors.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D collection of equal-dim vectors")
    if x.shape[0] < 2:
        raise ValueError("standardize needs at least 2 vectors")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    safe = np.where(std > 0.0, std, 1.0)
    return np.where(std > 0.0, (x - mean) / safe, 0.0)


def text_vector(text: str, provider) -> np.ndarray:
    """Mean of the token vectors; the zero vector for token-free text."""
    seq = tokenize(text)
    if not seq.tokens:
        return np.zeros(provider.dim, dtype=np.float64)
    return np.mean([provider.lookup(t) for t in seq.tokens], axis=0)
