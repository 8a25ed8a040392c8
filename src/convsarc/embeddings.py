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
BLOCK_CHARS = 1 << 18  # about 256 KB of lines per bulk parse


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
    """Parse word2vec text format: header "V D", then V lines "token v1 .. vD".

    Lines are read in blocks of about BLOCK_CHARS characters, and numpy's C
    parser reads each block's values in one call. A block it does not take
    whole is parsed again line by line, so every vector equals float() of
    its text and every error names the path and line.
    """
    vocab: dict[str, np.ndarray] = {}
    # surrogateescape keeps each byte that is not UTF-8 as a lone surrogate,
    # so the line holding it can be named; newlines are universal as before
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        _check_utf8(path, 1, header)
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
        lineno = 2
        while lines := fh.readlines(BLOCK_CHARS):
            block = _parse_block(lines, dim)
            if block is None:
                block = filter(None, (_parse_line(path, n, line, dim)
                                      for n, line in enumerate(lines, start=lineno)))
            vocab.update(block)
            lineno += len(lines)
    if len(vocab) != count:
        raise ParseError(
            f"{path}: header promised {count} vectors, file held {len(vocab)}")
    return EmbeddingTable(dim=dim, vocab=vocab)


def _parse_block(lines: list[str], dim: int):
    """(token, vector) pairs of a block whose every line numpy parses as
    _parse_line would, the vectors read-only rows of one matrix; None when
    any line needs _parse_line."""
    rows = [line.partition(" ") for line in lines if not line.isspace()]
    if not rows:
        return ()
    tokens = [tok for tok, _, _ in rows]
    rests = [rest for _, _, rest in rows]
    # an empty token means the line starts with a space; an empty rest is a
    # line without values, which loadtxt would skip rather than reject
    if "" in tokens or "" in rests or "\n" in rests:
        return None
    try:
        "".join(tokens).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate stands for a byte that is not UTF-8
        return None
    try:
        mat = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if mat.shape != (len(rows), dim) or not np.isfinite(mat).all():
        return None
    return zip(tokens, _freeze(mat))


def _parse_line(path, lineno: int, line: str, dim: int):
    """(token, vector) of one line, None for a blank line; a malformed line
    raises ParseError naming the path and line."""
    _check_utf8(path, lineno, line)
    if line.isspace():
        return None
    fields = [f for f in line.rstrip("\n").split(" ") if f != ""]
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
    return fields[0], _freeze(vec)


def _check_utf8(path, lineno: int, line: str) -> None:
    """ParseError naming the first byte of the line that is not UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: line {lineno}: not valid UTF-8 ({e.reason} "
                             f"at byte {e.start})") from None


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
