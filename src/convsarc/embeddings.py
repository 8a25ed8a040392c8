"""Frozen pre-trained word vectors with deterministic OOV initialization.

Vectors are never updated by training. The stored vectors are the rows of
one read-only N x D matrix, and the vocabulary maps each token to its row.
An out-of-vocabulary token gets a uniform(-0.05, 0.05) vector derived from a
hash of the token mixed with the table seed, so the same token maps to the
same vector in every run and in every lookup order.

A text file that is a regular file keeps a binary cache beside it,
<file>.convsarc-cache.npz, keyed by the sha1 of the file's bytes. A load
whose file hashes to a cache's key reads the cache instead of the text and
gets the same bits.
"""
from __future__ import annotations

import hashlib
import io
import os
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import open_input, open_output
from .errors import ConfigError, ConvsarcError, DomainError, ParseError

OOV_SCALE = 0.05
BLOCK_CHARS = 1 << 18  # about 256 KB of lines per bulk parse
CACHE_SUFFIX = ".convsarc-cache.npz"
CACHE_VERSION = 1
# The key has only to notice a changed file, not to resist a forger, who
# could write the cache itself. On a shared 2-CPU Xeon, sha1 cost less than
# sha256 and its speed drifted less with other load (ROADMAP item 7).
# CACHE_HASH also names the archive's key field.
CACHE_HASH = "sha1"
HASH_CHUNK = 1 << 20   # bytes read per hash update


@dataclass
class EmbeddingTable:
    """vocab maps each stored token to its row of matrix, a read-only
    len(vocab) x dim array; None stands for no rows."""
    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray | None = None
    seed: int = 0
    oov_cache: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.matrix is None:
            self.matrix = np.empty((0, self.dim))
        self.matrix = _freeze(self.matrix)

    @classmethod
    def from_vectors(cls, vectors: dict[str, np.ndarray], dim: int, seed: int = 0):
        """The table of {token: vector}, its rows in the dict's order."""
        matrix = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
        return cls(dim, {t: i for i, t in enumerate(vectors)}, matrix, seed)


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr made read-only and handed out as a view: the owner of the data
    could be made writeable again, a view of a read-only base cannot. arr
    may itself be a view, as np.load's reshaped arrays are, so every array
    down to the owner is made read-only."""
    base = arr
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return arr.view()


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """The vectors of a word2vec text file (see _parse_text), from the
    file's cache when one holds them for the file's bytes.

    A missing cache is parsed silently; a stale, corrupt or unreadable one,
    or one that cannot be written, costs a line on stderr and a parse. A
    text that fails to parse removes any cache beside it. A path that is not
    a regular file, such as a pipe, is parsed and never cached.
    """
    if not os.path.isfile(path):
        return _parse_text(path, expected_dim)
    cache = os.fspath(path) + CACHE_SUFFIX
    table = _cached_table(path, cache)
    if table is not None:
        _check_dim(path, table.dim, expected_dim)
        return table
    hasher = hashlib.new(CACHE_HASH, usedforsecurity=False)
    try:
        table = _parse_text(path, expected_dim, hasher)
    except ConvsarcError:  # a cache of other bytes can never be a hit for these
        with suppress(OSError):
            os.unlink(cache)
        raise
    _write_cache(cache, hasher.hexdigest(), table)
    return table


def _warn(cache: str, problem: str) -> None:
    print(f"warning: embedding cache {cache}: {problem}", file=sys.stderr)


class _Unusable(Exception):
    """Why a cache that could be read cannot stand in for its text."""


def _cached_table(path, cache: str) -> EmbeddingTable | None:
    """The table cache holds for the bytes now at path, or None. A second
    thread hashes the text while this one reads and checks the archive."""
    try:
        with np.load(cache, allow_pickle=False) as npz:
            if npz["version"].tolist() != CACHE_VERSION:
                raise _Unusable(f"its format version is not {CACHE_VERSION}")
            key = str(npz[CACHE_HASH])
            digest = _Digest(path)
            try:
                dim = int(npz["dim"])
                blob = npz["tokens"].tobytes().decode("utf-8")
                matrix = npz["matrix"]
                tokens = blob.split("\n") if blob else []
                if (matrix.dtype != np.float64 or matrix.shape != (len(tokens), dim)
                        or not np.isfinite(matrix).all()):
                    raise _Unusable("its matrix does not hold one finite float64 row per token")
                vocab = {t: i for i, t in enumerate(tokens)}
                if len(vocab) != len(tokens) or "" in vocab:
                    raise _Unusable("its tokens repeat or are empty")
            except Exception:  # a fault of the hash, or staleness, is named first
                digest.check(key)
                raise
            finally:  # on every way out, an interrupt's too
                digest.join()
            digest.check(key)
    except FileNotFoundError:
        return None
    except ConfigError:  # the text file cannot be read: the parse says so too
        raise
    except _Unusable as e:
        _warn(cache, f"{e}; parsing the text")
        return None
    except Exception as e:  # noqa: BLE001 - a cache that will not load is only a miss
        _warn(cache, f"unreadable ({type(e).__name__}: {e}); parsing the text")
        return None
    return EmbeddingTable(dim, vocab, matrix)


class _Digest(threading.Thread):
    """_file_digest(path) on a thread of its own, started at once. Its chunk
    buffer is allocated by the caller's thread."""

    def __init__(self, path):
        super().__init__(name="convsarc-digest")
        self.path, self.buf, self.value, self.error = path, bytearray(HASH_CHUNK), None, None
        self.start()

    def run(self) -> None:
        try:
            self.value = _file_digest(self.path, self.buf)
        except BaseException as e:  # noqa: BLE001 - check() raises it in the caller
            self.error = e

    def check(self, key: str) -> None:
        """Once the thread has ended, raise what the hash raised, or
        _Unusable when the digest is not key."""
        self.join()
        if self.error is not None:
            raise self.error
        if self.value != key:
            raise _Unusable(f"stale, {self.path} has changed since it was written")


def _file_digest(path, buf: bytearray) -> str:
    """The CACHE_HASH digest of the file's bytes, read into buf a chunk at a time."""
    hasher = hashlib.new(CACHE_HASH, usedforsecurity=False)
    view = memoryview(buf)
    with open_input(path, buffering=0) as fh:
        while n := fh.readinto(view):
            hasher.update(view[:n])
    return hasher.hexdigest()


def _write_cache(cache: str, digest: str, table: EmbeddingTable) -> None:
    """Write the table's cache through open_output, so that no reader sees
    half a file. The matrix goes to the archive from its own memory, uncopied."""
    import zipfile  # only a cache write needs it; np.load imports it on a read

    tokens = "\n".join(table.vocab).encode("utf-8")
    small = {"version": np.array(CACHE_VERSION), "dim": np.array(table.dim),
             CACHE_HASH: np.array(digest), "tokens": np.frombuffer(tokens, np.uint8)}
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": False, "shape": table.matrix.shape}
    try:
        with open_output(cache, "wb") as fh, zipfile.ZipFile(fh, "w") as npz:
            for name, arr in small.items():
                with npz.open(f"{name}.npy", "w") as member:
                    np.lib.format.write_array(member, arr, allow_pickle=False)
            with npz.open("matrix.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(np.ascontiguousarray(table.matrix).data)
    except OSError as e:
        _warn(cache, f"cannot write it ({e.strerror or e}); the text was parsed")


def _check_dim(path, dim: int, expected_dim: int) -> None:
    if dim != expected_dim:
        raise ConfigError(
            f"{path}: embedding dim {dim} does not match expected {expected_dim}")


class _Hashed(io.RawIOBase):
    """A binary file that feeds each byte read from it to a hasher."""

    def __init__(self, raw, hasher):
        self.raw, self.hasher = raw, hasher

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self.raw.readinto(buf)
        self.hasher.update(buf[:n])
        return n

    def close(self) -> None:
        self.raw.close()
        super().close()


def _parse_text(path, expected_dim: int, hasher=None) -> EmbeddingTable:
    """Parse word2vec text format: header "V D", then V lines "token v1 .. vD".

    Lines are read in blocks of about BLOCK_CHARS characters, and numpy's C
    parser reads each block's values in one call. A block it does not take
    whole, or that repeats a token, is parsed again line by line, so every
    vector equals float() of its text and every error, a repeated token
    included, names the path and line. A hasher is updated with exactly the
    bytes parsed. The rows go straight into the table's matrix.
    """
    vocab: dict[str, int] = {}
    raw = open_input(path, buffering=0)
    size = os.fstat(raw.fileno()).st_size  # 0 for a pipe
    if hasher is not None:
        raw = _Hashed(raw, hasher)
    # surrogateescape keeps each byte that is not UTF-8 as a lone surrogate,
    # so the line holding it can be named; newlines are universal as before
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8",
                          errors="surrogateescape") as fh:
        header = fh.readline()
        _check_utf8(path, 1, header)
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: line 1: header must be 'V D', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}: line 1: non-integer header fields") from None
        _check_dim(path, dim, expected_dim)
        # a line "t v .. v" takes at least 2 * dim + 1 bytes, so a header
        # promising more rows than the file can hold gets room only for those
        matrix = np.empty((max(0, min(count, size // (2 * dim + 1))), dim))
        lineno = 2
        while lines := fh.readlines(BLOCK_CHARS):
            block = _parse_block(lines, dim)
            if block is not None and vocab.keys().isdisjoint(block[0]):
                start = len(vocab)
                matrix = _room(matrix, start + len(block[0]), count)
                matrix[start:start + len(block[0])] = block[1]
                vocab.update(zip(block[0], range(start, start + len(block[0]))))
            else:
                # line by line, each token checked against the lines before
                # it, so that an error names the first bad line
                for n, line in enumerate(lines, start=lineno):
                    if parsed := _parse_line(path, n, line, dim, vocab):
                        matrix = _room(matrix, len(vocab) + 1, count)
                        matrix[len(vocab)] = parsed[1]
                        vocab[parsed[0]] = len(vocab)
            lineno += len(lines)
    if len(vocab) != count:
        raise ParseError(
            f"{path}: header promised {count} vectors, file held {len(vocab)}")
    return EmbeddingTable(dim, vocab, matrix)


def _room(matrix: np.ndarray, rows: int, count: int) -> np.ndarray:
    """matrix with room for rows rows: when full, it is resized in place to
    twice its rows, but to no more than count (the header's promise) unless
    rows are more. A file's matrix has room for count rows from the start,
    so only a pipe's grows."""
    if rows > len(matrix):
        matrix.resize((max(rows, min(2 * len(matrix), count)), matrix.shape[1]),
                      refcheck=False)
    return matrix


def _parse_block(lines: list[str], dim: int):
    """(tokens, matrix) of a block whose every line numpy parses as
    _parse_line would, one matrix row per token; None when any line needs
    _parse_line, as one whose token repeats does."""
    rows = [line.partition(" ") for line in lines if not line.isspace()]
    if not rows:
        return [], np.empty((0, dim))
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
    return (tokens, mat) if len(set(tokens)) == len(tokens) else None


def _parse_line(path, lineno: int, line: str, dim: int, vocab: dict[str, int]):
    """(token, vector) of one line, None for a blank line; a malformed line,
    or one whose token is in vocab, raises ParseError naming the path and line."""
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
    if fields[0] in vocab:
        raise ParseError(f"{path}: line {lineno}: token {fields[0]!r} repeats an earlier line")
    return fields[0], vec


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
    """Stored row for in-vocab tokens; cached seeded OOV vector otherwise.
    Both are read-only."""
    if not token:
        raise DomainError("lookup of an empty token")
    row = table.vocab.get(token)
    if row is not None:
        return table.matrix[row]
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
