"""Tokenization, token ids over one embedding table, and dataset standardization.

A run keeps one ``Embedding``: a ``(1 + vocab, dim)`` table whose row 0 is
the zero padding row. The first time a token is seen it gets the next row,
holding its vector from a vector file (precomputed by an external encoder)
if the file has one, else a vector hashed from (seed, token), so coverage
gaps never abort a run. A token's id is given at once, but its vector is
computed when the table is next read: that read hashes every token given an
id since the last one in one pass. A sequence is kept as the ids of its
tokens, zero-padded at the tail, so its mask is ``ids > 0``; the model gathers
table rows batch by batch, as an ``nn.Embedding`` layer does. Rows never
change once given, so ids and vectors are pure functions of the tokens, the
seed and the file.

A hashed vector is a documented function of (seed, token), scheme
``shake256-sum4``: the digest ``shake_256(seed_le8 + utf8(token))`` of
``16 * dim`` bytes, where ``seed_le8`` is ``seed mod 2**64`` as 8
little-endian bytes, is read as little-endian uint32 words ``w``, and
component ``j`` is ``((w[4j] + w[4j+1] + w[4j+2] + w[4j+3]) / 2**32 - 2) *
sqrt(3)``: a scaled sum of four uniforms, mean 0 and variance 1. The sum, the
division and the subtraction are exact in float64, and only the last multiply
rounds, so a vector is the same bit for bit on every numpy version.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCHEME",
    "Embedding",
    "TokenIds",
    "TokenSequence",
    "has_token",
    "prepare",
    "standardize",
    "text_vector",
    "tokenize",
]

_TOKEN_SPLIT = re.compile(r"[^a-z0-9_#.]+")
_TOKEN_CHAR = re.compile(r"[a-z0-9_#.]")

# The name of the hashed-vector formula; a checkpoint records it, so one
# trained under another formula is rejected rather than scored.
SCHEME = "shake256-sum4"
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]


@dataclass
class TokenIds:
    """Fixed-length table ids of a sequence; id 0 marks padding."""

    ids: np.ndarray  # (max_seq_len,) int32
    truncated: bool = False

    @property
    def mask(self) -> np.ndarray:
        """1.0 at real tokens and 0.0 at padding; perfbench's tracer reads it."""
        return (self.ids > 0).astype(np.float64)


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on any character outside [a-z0-9_#.]."""
    tokens = tuple(t for t in _TOKEN_SPLIT.split(text.lower()) if t)
    return TokenSequence(tokens)


def has_token(text: str) -> bool:
    """Whether ``tokenize(text)`` gives any token, without splitting the text."""
    return _TOKEN_CHAR.search(text.lower()) is not None


def _hashed_vectors(tokens, seed: int, dim: int) -> np.ndarray:
    """The (len(tokens), dim) hashed vectors of ``tokens``, scheme ``SCHEME``."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digests = b"".join(hashlib.shake_256(key + token.encode("utf-8")).digest(16 * dim)
                       for token in tokens)
    words = np.frombuffer(digests, dtype="<u4").reshape(len(tokens), dim, 4)
    # Sums of four uint32 words are integers below 2**34, exact in float64 in
    # any order; a matmul takes them faster than a reduction over 4 columns.
    return (words @ np.ones(4) / 2.0**32 - 2.0) * _SQRT3


class Embedding:
    """One table of token vectors, grown a row per new token.

    ``vectors`` maps tokens to file vectors; any other token gets its
    hashed vector, keyed by (seed, token).
    """

    def __init__(self, dim: int, seed: int = 0, vectors: dict[str, np.ndarray] | None = None):
        if dim <= 0:
            raise ValueError("embedding dim must be positive")
        self.dim = dim
        self.seed = seed
        self._vectors = vectors or {}
        self._ids: dict[str, int] = {}
        self._table = np.zeros((1, dim))  # the padding row, then one row per id
        self._pending: list[str] = []  # tokens given ids since the table was last built

    @classmethod
    def load(cls, path, seed: int = 0) -> "Embedding":
        """Read a vector file: first line ``dim <D>``; every following
        non-blank line is ``token v1 v2 ... vD`` with decimal floats.
        Duplicate tokens, wrong component counts and non-finite values are
        errors."""
        vectors: dict[str, np.ndarray] = {}
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().split()
            if len(first) != 2 or first[0] != "dim" or not first[1].isdecimal():
                raise ValueError(f"{path}: first line must be 'dim <D>'")
            dim = int(first[1])
            if dim <= 0:
                raise ValueError(f"{path}: dim must be positive")
            for lineno, raw in enumerate(fh, start=2):
                if not raw.strip():
                    continue
                parts = raw.split()
                token = parts[0]
                if token in vectors:
                    raise ValueError(f"{path}:{lineno}: duplicate token {token!r}")
                if len(parts) != dim + 1:
                    raise ValueError(
                        f"{path}:{lineno}: expected {dim} components, got {len(parts) - 1}"
                    )
                try:
                    vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not np.all(np.isfinite(vec)):
                    raise ValueError(f"{path}:{lineno}: non-finite component")
                vectors[token] = vec
        return cls(dim, seed, vectors)

    def ids(self, tokens) -> list[int]:
        """The table row of each token; a new token gets the next row, whose
        vector is computed on the next read of ``table``."""
        new = [token for token in dict.fromkeys(tokens) if token not in self._ids]
        self._ids.update(zip(new, itertools.count(len(self._ids) + 1)))
        self._pending += new
        return [self._ids[token] for token in tokens]

    @property
    def table(self) -> np.ndarray:
        """The (1 + vocab, dim) array of every row given so far. The first read
        after new tokens hashes them all in one pass and appends their rows,
        so read it once ids are assigned."""
        if self._pending:
            new, self._pending = self._pending, []
            hashed = [token for token in new if token not in self._vectors]
            rows = _hashed_vectors(hashed, self.seed, self.dim)
            if len(hashed) < len(new):  # the vector file holds the others
                drawn = dict(zip(hashed, rows))
                rows = np.array([drawn[token] if token in drawn else self._vectors[token]
                                 for token in new])
            self._table = np.concatenate([self._table, rows])
        return self._table


def prepare(seq: TokenSequence, provider: Embedding, max_seq_len: int) -> TokenIds:
    """Ids of the first ``max_seq_len`` tokens, zero-padded at the tail."""
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")
    tokens = seq.tokens[:max_seq_len]
    ids = np.zeros(max_seq_len, dtype=np.int32)
    ids[: len(tokens)] = provider.ids(tokens)
    return TokenIds(ids=ids, truncated=len(seq.tokens) > max_seq_len)


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


def text_vector(ids, table: np.ndarray) -> np.ndarray:
    """Mean of the table rows of ``ids``; no ids read the zero padding row."""
    return table[list(ids) or [0]].mean(axis=0)
