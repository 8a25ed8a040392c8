"""Frozen pre-trained word vectors with deterministic OOV initialization.

Vectors are never updated by training. An out-of-vocabulary token gets a
uniform(-0.05, 0.05) vector derived from a hash of the token mixed with the
table seed, so the same token maps to the same vector in every run and in
every lookup order. Stored arrays are marked read-only.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, ParseError

OOV_SCALE = 0.05


@dataclass
class EmbeddingTable:
    dim: int
    vocab: dict[str, np.ndarray]
    seed: int = 0
    oov_cache: dict[str, np.ndarray] = field(default_factory=dict)


def _freeze(vec: np.ndarray) -> np.ndarray:
    vec.setflags(write=False)
    return vec


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """Parse word2vec text format: header "V D", then V lines "token v1 .. vD"."""
    vocab: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: line 1: header must be 'V D', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}: line 1: non-integer header fields") from None
        if dim != expected_dim:
            raise ConfigError(
                f"{path}: embedding dim {dim} does not match expected {expected_dim}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            fields = [f for f in fields if f != ""]
            if len(fields) != dim + 1:
                raise ParseError(
                    f"{path}: line {lineno}: expected token + {dim} values, "
                    f"got {len(fields)} fields")
            try:
                vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric value") from None
            if not np.isfinite(vec).all():
                raise ParseError(f"{path}: line {lineno}: non-finite value")
            vocab[fields[0]] = _freeze(vec)
    if len(vocab) != count:
        raise ParseError(
            f"{path}: header promised {count} vectors, file held {len(vocab)}")
    return EmbeddingTable(dim=dim, vocab=vocab)


def _oov_vector(token: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    token_key = int.from_bytes(digest[:8], "big")
    rng = np.random.default_rng((seed, token_key))
    vec = (rng.random(dim) - 0.5) * (2.0 * OOV_SCALE)
    # rng.random() can return exactly 0.0; the contract is the open interval
    while np.any(np.abs(vec) >= OOV_SCALE):
        redo = np.abs(vec) >= OOV_SCALE
        vec[redo] = (rng.random(int(redo.sum())) - 0.5) * (2.0 * OOV_SCALE)
    return vec


def lookup(table: EmbeddingTable, token: str) -> np.ndarray:
    """Stored vector for in-vocab tokens; cached seeded OOV vector otherwise."""
    if not token:
        raise DomainError("lookup of an empty token")
    vec = table.vocab.get(token)
    if vec is not None:
        return vec
    vec = table.oov_cache.get(token)
    if vec is None:
        # insert-if-absent keeps concurrent lookups consistent: the vector is
        # a pure function of (seed, token), so a race computes the same value
        vec = table.oov_cache.setdefault(token, _freeze(_oov_vector(token, table.dim, table.seed)))
    return vec


def sentence_avg(table: EmbeddingTable, tokens: Sequence[str]) -> np.ndarray:
    """Componentwise mean of the tokens' vectors."""
    if len(tokens) == 0:
        raise DomainError("sentence_avg of an empty token list")
    acc = np.zeros(table.dim)
    for t in tokens:
        acc += lookup(table, t)
    return acc / len(tokens)
