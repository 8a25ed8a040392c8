import errno
import io
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convsarc import embeddings
from convsarc.embeddings import (EmbeddingTable, load_embeddings, lookup,
                                 sentence_avg)
from convsarc.errors import ConfigError, ConvsarcError, DomainError, ParseError


def write(tmp_path, content):
    """vecs.txt holding content, with no cache, so that a load parses it."""
    p = tmp_path / "vecs.txt"
    p.write_text(content, encoding="utf-8")
    cache_of(p).unlink(missing_ok=True)
    return p


def cache_of(path) -> Path:
    return Path(f"{path}{embeddings.CACHE_SUFFIX}")


def outcome(loaded):
    """Keys in order and each vector's bytes of a table, or an error's type
    and message."""
    if isinstance(loaded, ConvsarcError):
        return type(loaded), str(loaded)
    return loaded.dim, list(loaded.vocab), [loaded.matrix[i].tobytes() for i in loaded.vocab.values()]


def reload_matches(path, dim, first):
    """A second load of path, a cache hit when the first load succeeded,
    gives the first load's outcome (first: its table or its error)."""
    assert load_outcome(load_embeddings, path, dim) == outcome(first)


def test_load_small_file(tmp_path):
    table = load_embeddings(write(tmp_path, "2 3\na 1 2 3\nb 0 0 1\n"), 3)
    assert table.dim == 3
    assert np.array_equal(lookup(table, "a"), [1.0, 2.0, 3.0])
    assert np.array_equal(lookup(table, "b"), [0.0, 0.0, 1.0])


def test_load_row_arity_error_reports_line(tmp_path):
    with pytest.raises(ParseError, match="line 3"):
        load_embeddings(write(tmp_path, "2 3\na 1 2 3\nb 0 1\n"), 3)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_load_non_finite_value_reports_path_and_line(tmp_path, value):
    path = write(tmp_path, f"2 3\na 1 2 3\nfoo {value} 0 0\n")
    with pytest.raises(ParseError, match=r"vecs\.txt: line 3: non-finite"):
        load_embeddings(path, 3)


def test_load_empty_vocabulary(tmp_path):
    table = load_embeddings(write(tmp_path, "0 3\n"), 3)
    assert table.vocab == {}
    assert table.dim == 3


def test_load_dim_mismatch_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_embeddings(write(tmp_path, "1 3\na 1 2 3\n"), 100)


def test_load_header_count_mismatch(tmp_path):
    with pytest.raises(ParseError, match="promised"):
        load_embeddings(write(tmp_path, "3 3\na 1 2 3\n"), 3)


def test_a_header_promising_far_more_vectors_than_the_file_holds_allocates_for_none(tmp_path):
    path = write(tmp_path, "10000000000 3\na 1 2 3\nb 4 5 6\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="header promised 10000000000 vectors, file held 2$"):
            load_embeddings(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # room for the promised rows would be 240 GB


def test_a_cold_load_holds_one_copy_of_the_matrix(tmp_path):
    rows, dim = 20_000, 50
    body = "".join(f"t{i} {' '.join([str(i % 97 / 8)] * dim)}\n" for i in range(rows))
    path = write(tmp_path, f"{rows} {dim}\n{body}")
    tracemalloc.start()
    try:
        table = load_embeddings(path, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache_of(path).is_file()
    assert table.matrix.shape == (rows, dim)
    assert peak < 2 * table.matrix.nbytes, peak / table.matrix.nbytes


@pytest.mark.parametrize("count", [40, 60])
def test_a_pipe_of_many_blocks_loads_as_its_file_does(tmp_path, monkeypatch, count):
    # a pipe's size is unknown, so its matrix grows as its blocks arrive
    monkeypatch.setattr(embeddings, "BLOCK_CHARS", 40)
    text = f"{count} 2\n" + "".join(f"w{i} {i} {i / 7!r}\n" for i in range(40))
    path = write(tmp_path, text)
    fifo = tmp_path / "vecs.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(text, encoding="utf-8"),
                              daemon=True)
    writer.start()
    piped = load_outcome(load_embeddings, fifo, 2)
    writer.join(timeout=10)
    expected = load_outcome(load_embeddings, path, 2)
    if count != 40:
        expected = (ParseError, expected[1].replace(str(path), str(fifo)))
        assert "header promised 60 vectors, file held 40" in expected[1]
    assert piped == expected


def test_load_bad_header(tmp_path):
    with pytest.raises(ParseError, match="line 1"):
        load_embeddings(write(tmp_path, "oops\n"), 3)


def test_lookup_in_vocab_returns_stored_vector(tmp_path):
    table = load_embeddings(write(tmp_path, "1 2\nhello 0.25 -0.75\n"), 2)
    assert np.array_equal(lookup(table, "hello"), [0.25, -0.75])


def test_lookup_oov_in_open_interval():
    table = EmbeddingTable(dim=50, vocab={}, seed=0)
    vec = lookup(table, "unseen-token")
    assert vec.shape == (50,)
    assert np.all(vec > -0.05)
    assert np.all(vec < 0.05)


def test_lookup_oov_cached_identically():
    table = EmbeddingTable(dim=8, vocab={}, seed=0)
    first = lookup(table, "zzz")
    second = lookup(table, "zzz")
    assert first is second


def test_oov_stable_across_tables_and_orders():
    a = EmbeddingTable(dim=6, vocab={}, seed=5)
    b = EmbeddingTable(dim=6, vocab={}, seed=5)
    lookup(a, "one")
    va = lookup(a, "two")
    vb = lookup(b, "two")  # different insertion order, same vector
    lookup(b, "one")
    assert np.array_equal(va, vb)
    assert np.array_equal(lookup(a, "one"), lookup(b, "one"))


def test_oov_depends_on_seed():
    a = EmbeddingTable(dim=6, vocab={}, seed=1)
    b = EmbeddingTable(dim=6, vocab={}, seed=2)
    assert not np.array_equal(lookup(a, "tok"), lookup(b, "tok"))


def test_lookup_empty_token():
    with pytest.raises(DomainError):
        lookup(EmbeddingTable(dim=3, vocab={}, seed=0), "")


def test_vectors_are_frozen(tmp_path, monkeypatch):
    # several blocks, one of them parsed line by line (the 1_0)
    monkeypatch.setattr(embeddings, "BLOCK_CHARS", 12)
    body = "".join(f"t{i} {i} 2\n" for i in range(9)) + "u 1_0 3\n"
    path = write(tmp_path, "10 2\n" + body)
    table = load_embeddings(path, 2)
    reload_matches(path, 2, table)
    assert len(table.vocab) == 10
    for vec in table.matrix:
        with pytest.raises(ValueError):
            vec[0] = 9.0
    vec = lookup(table, "t3")
    with pytest.raises(ValueError):
        vec[0] = 9.0
    oov = lookup(table, "b")
    with pytest.raises(ValueError):
        oov[0] = 9.0


def test_stored_vectors_cannot_be_made_writeable(tmp_path, monkeypatch):
    # "u" is in a block that falls back to the per-line parse (the 1_0)
    monkeypatch.setattr(embeddings, "BLOCK_CHARS", 12)
    body = "".join(f"t{i} {i} 2\n" for i in range(6)) + "u 1_0 3\n"
    path = write(tmp_path, "7 2\n" + body)
    table = load_embeddings(path, 2)
    reload_matches(path, 2, table)
    for token in ("t0", "u", "not-in-vocab"):
        vec = lookup(table, token)
        with pytest.raises(ValueError):
            vec.setflags(write=True)
        with pytest.raises(ValueError):
            vec[0] = 9.0
    assert lookup(table, "u").tolist() == [10.0, 3.0]


def test_sentence_avg_single_token(tmp_path):
    table = load_embeddings(write(tmp_path, "1 3\na 1 2 3\n"), 3)
    assert np.array_equal(sentence_avg(table, ["a"]), [1.0, 2.0, 3.0])


def test_sentence_avg_two_tokens(tmp_path):
    table = load_embeddings(write(tmp_path, "2 3\na 1 2 3\nb 3 2 1\n"), 3)
    assert np.array_equal(sentence_avg(table, ["a", "b"]), [2.0, 2.0, 2.0])


def test_sentence_avg_empty_is_domain_error():
    with pytest.raises(DomainError):
        sentence_avg(EmbeddingTable(dim=3, vocab={}, seed=0), [])


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_sentence_avg_permutation_invariant(tokens, rnd):
    table = EmbeddingTable(dim=4, vocab={}, seed=9)
    base = sentence_avg(table, tokens)
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert np.allclose(base, sentence_avg(table, shuffled), atol=1e-12)


def test_sentence_avg_commutes_with_uniform_scaling(tmp_path):
    a = write(tmp_path, "2 2\nx 1 2\ny 3 -4\n")
    table = load_embeddings(a, 2)
    scaled = EmbeddingTable.from_vectors({k: lookup(table, k) * 2.5 for k in table.vocab}, 2)
    base = sentence_avg(table, ["x", "y", "x"])
    assert np.allclose(sentence_avg(scaled, ["x", "y", "x"]), base * 2.5,
                       atol=1e-12)


# --------------------------------------------------------------------------
# block parsing: lines are parsed in blocks of about BLOCK_CHARS characters,
# and a block numpy does not parse whole is parsed again line by line


def block_sizes(monkeypatch, block_chars):
    """Set the block size; the returned list collects each block's line count."""
    monkeypatch.setattr(embeddings, "BLOCK_CHARS", block_chars)
    sizes = []
    parse_block = embeddings._parse_block

    def spy(lines, dim):
        sizes.append(len(lines))
        return parse_block(lines, dim)
    monkeypatch.setattr(embeddings, "_parse_block", spy)
    return sizes


def test_error_on_first_line_of_second_block_names_its_line(tmp_path, monkeypatch):
    # a block ends once it holds more than 13 characters: two 7-character lines
    sizes = block_sizes(monkeypatch, 13)
    path = write(tmp_path, "4 2\na0 1 2\na1 3 4\na2 5 x\na3 7 8\n")
    with pytest.raises(ParseError, match=r"vecs\.txt: line 4: non-numeric value$") as err:
        load_embeddings(path, 2)
    assert sizes == [2, 2]
    reload_matches(path, 2, err.value)


def test_blank_lines_at_block_edges_are_skipped(tmp_path, monkeypatch):
    sizes = block_sizes(monkeypatch, 8)
    path = write(tmp_path, "3 2\na0 1 2\n \n\na1 3 4\n\t\na2 5 6")
    table = load_embeddings(path, 2)
    # blocks [a0, " "], [blank, a1, "\t"], [a2]: blank lines end and start blocks
    assert sizes == [2, 3, 1]
    reload_matches(path, 2, table)
    assert sizes == [2, 3, 1]  # the second load was a cache hit
    assert list(table.vocab) == ["a0", "a1", "a2"]
    assert np.array_equal(lookup(table, "a2"), [5.0, 6.0])


@pytest.mark.parametrize("line", ["a 1_0 2", "a  10 2", "a 10 2 ", " a 10 2",
                                  "a \\u0661\\u0660 2", "a 10\\t 2"])
def test_values_only_float_reads_still_load(tmp_path, line):
    line = line.encode().decode("unicode_escape")
    table = load_embeddings(write(tmp_path, f"2 2\nb 3 4\n{line}\n"), 2)
    assert list(table.vocab) == ["b", "a"]
    assert lookup(table, "a").tolist() == [10.0, 2.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lines, message", [
    ([" 1 2"], "line 3: expected token + 2 values, got 2 fields"),  # numpy sees "1 2"
    (["a"], "line 3: expected token + 2 values, got 1 fields"),
    (["a ", "c\t"], "line 3: expected token + 2 values, got 1 fields"),
    (["a 1 2 3"], "line 3: expected token + 2 values, got 4 fields"),
])
def test_lines_numpy_would_misread_fail_as_before(tmp_path, lines, message):
    path = write(tmp_path, "3 2\nb 3 4\n" + "\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"vecs.txt: {message}") + "$"):
        load_embeddings(path, 2)


REPEAT_AT_4 = r"vecs\.txt: line 4: token 'a' repeats an earlier line$"


@pytest.mark.parametrize("header", ["2 2", "3 2"])
def test_repeated_token_names_its_line(tmp_path, header):
    # "2 2" used to load with a = [5, 6]; "3 2" failed on the count, naming no line
    with pytest.raises(ParseError, match=REPEAT_AT_4):
        load_embeddings(write(tmp_path, f"{header}\na 1 2\nb 3 4\na 5 6\n"), 2)


@pytest.mark.parametrize("lines, message", [
    (["a 1 2", "b 1_0 4", "a 5 6"], REPEAT_AT_4),
    # the repeat comes before the malformed line, so it is the error
    (["b 1 2", "b 3 4", "a x 6"], r"vecs\.txt: line 3: token 'b' repeats an earlier line$"),
    (["a 1 2", "b 3 4", "b x 6"], r"vecs\.txt: line 4: non-numeric value$"),
], ids=["after a value only float reads", "before a malformed line", "on a malformed line"])
def test_repeated_token_in_a_line_by_line_block(tmp_path, monkeypatch, lines, message):
    sizes = block_sizes(monkeypatch, 1 << 18)
    path = write(tmp_path, "3 2\n" + "\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as err:
        load_embeddings(path, 2)
    assert sizes == [3]
    reload_matches(path, 2, err.value)


def test_repeated_token_across_blocks(tmp_path, monkeypatch):
    # a block ends once it holds more than 11 characters: two 6-character lines
    sizes = block_sizes(monkeypatch, 11)
    path = write(tmp_path, "3 2\na 1 2\nb 3 4\na 5 6\n")
    with pytest.raises(ParseError, match=REPEAT_AT_4) as err:
        load_embeddings(path, 2)
    assert sizes == [2, 1]
    reload_matches(path, 2, err.value)


def test_non_utf8_bytes_name_their_line(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"3 2\na 1 2\nb 3 4\n\xff\xfec 5 6\n")
    with pytest.raises(ParseError, match=r"vecs\.txt: line 4: not valid UTF-8 \(invalid "
                                         r"start byte at byte 0\)"):
        load_embeddings(path, 2)


def test_bulk_parse_is_bit_identical_to_float(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.uniform(-0.5, 0.5, 294).round(6),
                             rng.standard_normal(294) * 10.0 ** rng.integers(-300, 300, 294)])
    texts = [repr(float(v)) for v in values] + ["-0", "0.1", "1e-320", "2.5e+3", "+7", ".5", "5."]
    monkeypatch.setattr(embeddings, "BLOCK_CHARS", 256)
    body = "".join(f"w{i} {' '.join(texts[i:i + 7])}\n" for i in range(0, len(texts), 7))
    path = write(tmp_path, f"{len(texts) // 7} 7\n{body}")
    table = load_embeddings(path, 7)
    got = table.matrix.ravel()
    assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()
    reload_matches(path, 7, table)


def per_line_load_embeddings(path, expected_dim):
    """The per-line parser the block parse replaced, reading lines as text
    mode does (universal newlines) and decoding each line on its own, so that
    a byte that is not UTF-8 is a ParseError naming its line."""
    raw = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")

    def decoded(lineno, line):
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: line {lineno}: not valid UTF-8 ({e.reason} "
                             f"at byte {e.start})") from None

    lines = raw.splitlines(keepends=True) or [b""]
    vocab = {}
    header = decoded(1, lines[0])
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
    for lineno, line in enumerate(lines[1:], start=2):
        line = decoded(lineno, line)
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
        if fields[0] in vocab:
            raise ParseError(
                f"{path}: line {lineno}: token {fields[0]!r} repeats an earlier line")
        vocab[fields[0]] = vec
    if len(vocab) != count:
        raise ParseError(
            f"{path}: header promised {count} vectors, file held {len(vocab)}")
    return EmbeddingTable.from_vectors(vocab, dim)


DECIMALS = st.floats(-1e6, 1e6, allow_nan=False).map(repr) | st.sampled_from(
    ["0.5", "-0.125000", "3", "-0", "1e-320", "2.5E+3"])
ODD_VALUES = st.sampled_from(
    ["nan", "inf", "-Infinity", "1e999", "1_0", "\t1.5", "2.5\t", "١٢",
     "0x10", "abc", "", "1\x0c", "　1", "#1", "1,5"])
TOKENS = st.sampled_from(["a", "b", "tok", "café", "x\ty", "#", "1"])
BAD_BYTES = st.sampled_from([b"\xff", b"\xfe\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"])


PERTURBATIONS = st.lists(st.sampled_from(
    ["short", "long", "no values", "odd value", "spacing", "leading space",
     "trailing space", "bad token byte", "bad byte"]), min_size=1, max_size=2, unique=True)


@st.composite
def embedding_files(draw):
    """(file bytes, dim): mostly well-formed lines, the others with a blank
    line's whitespace or up to two perturbations each; LF or CRLF endings."""
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from([b"", b" ", b"\t", b"  \t"])))
            continue
        perturb = draw(PERTURBATIONS) if kind < 4 else []
        n = dim + ("long" in perturb) - ("short" in perturb)
        if "no values" in perturb:
            n = 0
        values = [draw(DECIMALS) for _ in range(n)]
        if values and "odd value" in perturb:
            values[draw(st.integers(0, n - 1))] = draw(ODD_VALUES)
        sep = draw(st.sampled_from(["  ", " \t", "\t"])) if "spacing" in perturb else " "
        token = draw(TOKENS).encode("utf-8")
        if "bad token byte" in perturb:
            token += draw(BAD_BYTES)
        line = token + (" " + sep.join(values)).encode("utf-8")
        if "leading space" in perturb:
            line = b" " + line
        if "trailing space" in perturb:
            line += draw(st.sampled_from([b" ", b"\t", b"  "]))
        if "bad byte" in perturb:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(BAD_BYTES) + line[cut:]
        lines.append(line)
    count = len([ln for ln in lines if ln.strip()])
    count = draw(st.sampled_from([count, count, count, max(count - 1, 0), count + 1]))
    ending = draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
    body = ending.join([f"{count} {dim}".encode()] + lines)
    if draw(st.booleans()):
        body += ending
    return body, dim


def load_outcome(load, path, dim):
    """outcome() of load(path, dim), with any Python warning an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return outcome(load(path, dim))
    except ConvsarcError as e:
        return outcome(e)


@given(embedding_files(), st.sampled_from([1, 24, 80, 1 << 18]))
@settings(max_examples=300, deadline=None)
def test_block_parse_matches_per_line_parse(tmp_path_factory, case, block_chars):
    body, dim = case
    path = tmp_path_factory.getbasetemp() / "differential_vecs.txt"
    path.write_bytes(body)
    # an earlier example may have cached this same body; the parse must run
    cache_of(path).unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "BLOCK_CHARS", block_chars)
        got = load_outcome(load_embeddings, path, dim)
    assert got == load_outcome(per_line_load_embeddings, path, dim)
    assert load_outcome(load_embeddings, path, dim) == got


# --------------------------------------------------------------------------
# the binary cache beside a regular file: <file>.convsarc-cache.npz, keyed by
# the sha1 of the bytes parsed


@pytest.fixture
def parses(monkeypatch):
    """The paths the text parser reads, in order."""
    calls = []
    parse = embeddings._parse_text

    def spy(path, *args):
        calls.append(path)
        return parse(path, *args)
    monkeypatch.setattr(embeddings, "_parse_text", spy)
    return calls


def random_vectors_file(tmp_path, count=40, dim=5):
    """A file of count random vectors written with repr(), so every bit counts."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-8, 8, (count, dim))
    body = "".join(f"w{count - i}é {' '.join(map(repr, row.tolist()))}\n"
                   for i, row in enumerate(values))
    return write(tmp_path, f"{count} {dim}\n{body}"), values


def test_a_cache_hit_gives_the_parsed_bits_in_file_order_read_only(tmp_path, parses, capsys):
    path, values = random_vectors_file(tmp_path)
    parsed = load_embeddings(path, 5)
    assert cache_of(path).is_file()
    hit = load_embeddings(path, 5)
    assert parses == [path]
    assert outcome(hit) == outcome(parsed)
    assert list(hit.vocab) == [f"w{40 - i}é" for i in range(40)]
    assert hit.matrix.tobytes() == values.tobytes()
    for token in ("w1é", "w40é"):
        vec = lookup(hit, token)
        with pytest.raises(ValueError):
            vec.setflags(write=True)
        with pytest.raises(ValueError):
            vec[0] = 9.0
    assert capsys.readouterr().err == ""
    assert sorted(tmp_path.iterdir()) == [path, cache_of(path)]  # no temporary file left


def test_a_file_edited_in_place_to_the_same_size_is_parsed_again(tmp_path, parses, capsys):
    path = write(tmp_path, "2 2\na 1 2\nb 3 4\n")
    load_embeddings(path, 2)
    before = path.stat()
    path.write_text("2 2\na 1 2\nb 3 5\n", encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert lookup(load_embeddings(path, 2), "b").tolist() == [3.0, 5.0]
    assert parses == [path, path]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "stale" in err[0] and str(cache_of(path)) in err[0]
    assert lookup(load_embeddings(path, 2), "b").tolist() == [3.0, 5.0]  # recached
    assert parses == [path, path]


def _rewrite_cache(cache, **changes):
    with np.load(cache, allow_pickle=False) as npz:
        fields = {name: npz[name] for name in npz.files}
    fields.update(changes)
    np.savez(cache, **fields)


def unreadable(read):
    """The problem read(cache) names: "unreadable (<type>: <message>)". The
    message is numpy's or zipfile's own, so its words may vary by version."""
    def problem(path, cache):
        with pytest.raises(Exception) as e:
            read(cache)
        return f"unreadable ({e.type.__name__}: {e.value})"
    return problem


def said(text):
    """A problem of fixed text; {path} stands for the text file's path."""
    return lambda path, cache: text.format(path=path)


def load_cache(cache):
    with np.load(cache, allow_pickle=False):
        pass


def load_tokens(cache):
    with np.load(cache, allow_pickle=False) as npz:
        npz["tokens"]


STALE = "stale, {path} has changed since it was written"
ROWS = "its matrix does not hold one finite float64 row per token"
REPEATS = "its tokens repeat or are empty"
NAN = np.array([[1.0, 2.0], [np.nan, 4.0]])
PICKLED = np.array(["a", "b"], dtype=object)

# name: (damage done to a good cache, the problem its warning names)
BAD_CACHES = {
    "truncated": (lambda c: c.write_bytes(c.read_bytes()[:len(c.read_bytes()) // 2]),
                  unreadable(load_cache)),
    "not a zip": (lambda c: c.write_bytes(b"not a cache"), unreadable(load_cache)),
    "foreign version": (lambda c: _rewrite_cache(c, version=np.array(99)),
                        said("its format version is not 1")),
    "wrong digest": (lambda c: _rewrite_cache(c, sha1=np.array("0" * 40)), said(STALE)),
    "wrong shape": (lambda c: _rewrite_cache(c, matrix=np.zeros((2, 3))), said(ROWS)),
    "float32": (lambda c: _rewrite_cache(c, matrix=np.zeros((2, 2), np.float32)), said(ROWS)),
    "nan": (lambda c: _rewrite_cache(c, matrix=NAN), said(ROWS)),
    "duplicate token": (lambda c: _rewrite_cache(c, tokens=np.frombuffer(b"a\na", np.uint8)),
                        said(REPEATS)),
    "empty token": (lambda c: _rewrite_cache(c, tokens=np.frombuffer(b"a\n", np.uint8)),
                    said(REPEATS)),
    "pickled tokens": (lambda c: _rewrite_cache(c, tokens=PICKLED), unreadable(load_tokens)),
    # two faults at once: a foreign version is named first, then staleness,
    # then the archive's own faults
    "stale and nan": (lambda c: _rewrite_cache(c, sha1=np.array("0" * 40), matrix=NAN),
                      said(STALE)),
    "stale and pickled tokens": (
        lambda c: _rewrite_cache(c, sha1=np.array("0" * 40), tokens=PICKLED), said(STALE)),
    "foreign version and stale": (
        lambda c: _rewrite_cache(c, version=np.array(99), sha1=np.array("0" * 40)),
        said("its format version is not 1")),
}


@pytest.mark.parametrize("damage, problem", BAD_CACHES.values(), ids=BAD_CACHES.keys())
def test_a_bad_cache_costs_one_stderr_line_and_a_parse(tmp_path, parses, capsys, damage,
                                                       problem):
    path = write(tmp_path, "2 2\na 1 2\nb 3 4\n")
    want = outcome(load_embeddings(path, 2))
    cache = cache_of(path)
    damage(cache)
    line = f"warning: embedding cache {cache}: {problem(path, cache)}; parsing the text\n"
    assert outcome(load_embeddings(path, 2)) == want
    assert parses == [path, path]
    assert capsys.readouterr().err == line
    assert outcome(load_embeddings(path, 2)) == want  # the parse wrote a good cache
    assert parses == [path, path] and capsys.readouterr().err == ""


def test_the_archives_checksum_guards_the_matrix(tmp_path, parses, capsys):
    path, values = random_vectors_file(tmp_path)
    want = outcome(load_embeddings(path, 5))
    cache = cache_of(path)
    body = bytearray(cache.read_bytes())
    at = body.index(values.tobytes()) + values.nbytes // 2
    body[at] ^= 0x10
    cache.write_bytes(bytes(body))
    assert outcome(load_embeddings(path, 5)) == want
    assert parses == [path, path]
    assert capsys.readouterr().err == (
        f"warning: embedding cache {cache}: unreadable (BadZipFile: Bad CRC-32 for file "
        "'matrix.npy'); parsing the text\n")


@pytest.mark.parametrize("case", ["hit", "stale", "damaged", "unreadable text"])
def test_no_thread_outlives_a_load(tmp_path, monkeypatch, case):
    path, _ = random_vectors_file(tmp_path)
    want = outcome(load_embeddings(path, 5))
    digest = embeddings._file_digest

    def slow_digest(*args):  # a hash still running when the archive has been read
        time.sleep(0.2)
        if case == "unreadable text":  # chmod 000 cannot stop root reading the file
            raise ConfigError(f"{path}: cannot read: Permission denied")
        return digest(*args)
    monkeypatch.setattr(embeddings, "_file_digest", slow_digest)
    if case == "stale":
        _rewrite_cache(cache_of(path), sha1=np.array("0" * 40))
    elif case == "damaged":
        _rewrite_cache(cache_of(path), matrix=NAN)
    before = threading.enumerate()
    if case == "unreadable text":
        with pytest.raises(ConfigError) as e:
            load_embeddings(path, 5)
        assert str(e.value) == f"{path}: cannot read: Permission denied"
    else:
        assert outcome(load_embeddings(path, 5)) == want
    assert threading.enumerate() == before
    assert threading.active_count() == len(before)


def cache_damage():
    """What to do to a good cache's bytes: replace them, cut them short or
    flip one byte. Offsets wrap around the cache's length."""
    return st.one_of(
        st.binary(max_size=300).map(lambda junk: lambda good: junk),
        st.integers(0, 1 << 16).map(lambda n: lambda good: good[:n % len(good)]),
        st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)).map(
            lambda f: lambda good: _flip(good, f[0] % len(good), f[1])))


def _flip(good: bytes, at: int, mask: int) -> bytes:
    body = bytearray(good)
    body[at] ^= mask
    return bytes(body)


@given(damage=cache_damage())
@settings(max_examples=60, deadline=None)
def test_any_cache_beside_a_good_text_loads_the_texts_bits(tmp_path_factory, damage):
    directory = tmp_path_factory.getbasetemp() / "fuzzed_cache"
    directory.mkdir(exist_ok=True)
    path, _ = random_vectors_file(directory, count=6, dim=3)
    want = outcome(load_embeddings(path, 3))
    cache = cache_of(path)
    cache.write_bytes(damage(cache.read_bytes()))
    err = io.StringIO()
    with redirect_stderr(err):
        assert outcome(load_embeddings(path, 3)) == want
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue()
    assert all(line.startswith(f"warning: embedding cache {cache}: ") for line in lines)


def test_a_file_that_changes_during_the_load_is_cached_under_the_bytes_parsed(
        tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "2 2\na 1 2\nb 3 4\n")
    parse = embeddings._parse_text

    def parse_then_edit(*args):
        table = parse(*args)
        path.write_text("2 2\na 1 2\nb 3 5\n", encoding="utf-8")
        return table
    monkeypatch.setattr(embeddings, "_parse_text", parse_then_edit)
    assert lookup(load_embeddings(path, 2), "b").tolist() == [3.0, 4.0]
    monkeypatch.setattr(embeddings, "_parse_text", parse)
    # the cache holds the first bytes' vectors, so the edited file misses it
    assert lookup(load_embeddings(path, 2), "b").tolist() == [3.0, 5.0]
    assert "stale" in capsys.readouterr().err


def test_a_file_that_no_longer_parses_loses_its_stale_cache(tmp_path, capsys):
    path = write(tmp_path, "2 2\na 1 2\nb 3 4\n")
    load_embeddings(path, 2)
    assert cache_of(path).is_file()
    path.write_text("2 2\na 1 2\nb 3\n", encoding="utf-8")  # its last line cut short
    errors, stderr = [], []
    for _ in range(2):
        with pytest.raises(ParseError, match="line 3") as e:
            load_embeddings(path, 2)
        errors.append(str(e.value))
        stderr.append(capsys.readouterr().err)
        assert not cache_of(path).exists()
    assert errors[0] == errors[1]
    assert "stale" in stderr[0] and stderr[1] == ""


def test_a_write_that_fails_partway_leaves_the_old_cache_whole(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "2 2\na 1 2\nb 3 4\n")
    load_embeddings(path, 2)
    old = cache_of(path).read_bytes()
    path.write_text("2 2\na 1 2\nb 3 5\n", encoding="utf-8")

    def disk_full(*args, **kwargs):  # the matrix is written after the small arrays
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", disk_full)
    assert lookup(load_embeddings(path, 2), "b").tolist() == [3.0, 5.0]
    assert cache_of(path).read_bytes() == old
    assert sorted(tmp_path.iterdir()) == [path, cache_of(path)]
    stale, unwritten = capsys.readouterr().err.splitlines()
    assert "stale" in stale and os.strerror(errno.ENOSPC) in unwritten


def test_a_cache_write_holds_no_second_copy_of_the_matrix(tmp_path):
    matrix = np.ones((20_000, 50))  # 8 MB
    table = EmbeddingTable(dim=50, vocab={f"t{i}": i for i in range(len(matrix))}, matrix=matrix)
    tracemalloc.start()
    try:
        embeddings._write_cache(str(tmp_path / "c.npz"), "0" * 64, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 2
    with np.load(tmp_path / "c.npz") as npz:
        assert npz["matrix"].tobytes() == matrix.tobytes()


@contextmanager
def read_only(directory, monkeypatch):
    """directory made read-only. root writes through mode bits, so opening a
    file there for writing is also refused, as it is for other users."""
    real_open = open

    def guarded(file, mode="r", *args, **kwargs):
        if (isinstance(file, (str, os.PathLike)) and Path(file).parent == directory
                and set(mode) & set("wxa+")):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return real_open(file, mode, *args, **kwargs)
    directory.chmod(0o555)
    try:
        with monkeypatch.context() as mp:
            mp.setattr("builtins.open", guarded)
            yield
    finally:
        directory.chmod(0o755)


def test_a_directory_that_cannot_be_written_still_loads(tmp_path, parses, capsys, monkeypatch):
    path = write(tmp_path, "2 2\na 1 2\nb 3 4\n")
    with read_only(tmp_path, monkeypatch):
        for n in (1, 2):
            assert lookup(load_embeddings(path, 2), "b").tolist() == [3.0, 4.0]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "cannot write" in err[0] and str(cache_of(path)) in err[0]
            assert list(tmp_path.iterdir()) == [path]
    assert parses == [path, path]


def test_a_pipe_is_parsed_and_never_cached(tmp_path, parses, capsys):
    fifo = tmp_path / "vecs.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(b"2 2\na 1 2\nb 3 4\n")
    for _ in range(2):
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        assert lookup(load_embeddings(fifo, 2), "b").tolist() == [3.0, 4.0]
        writer.join(timeout=10)
    assert parses == [fifo, fifo]
    assert list(tmp_path.iterdir()) == [fifo]
    assert capsys.readouterr().err == ""


def test_a_dim_mismatch_on_a_hit_is_the_text_paths_config_error(tmp_path, parses, capsys):
    path = write(tmp_path, "1 3\na 1 2 3\n")
    load_embeddings(path, 3)
    with pytest.raises(ConfigError) as hit:
        load_embeddings(path, 100)
    assert parses == [path]
    cache_of(path).unlink()
    with pytest.raises(ConfigError) as parsed:
        load_embeddings(path, 100)
    assert parses == [path, path]
    assert str(hit.value) == str(parsed.value)
    assert str(hit.value) == f"{path}: embedding dim 3 does not match expected 100"
    assert capsys.readouterr().err == ""


def test_a_malformed_file_fails_alike_on_every_load_and_leaves_no_cache(tmp_path, parses):
    path = write(tmp_path, "2 2\na 1 2\nb 3\n")
    errors = []
    for _ in range(3):
        with pytest.raises(ParseError) as err:
            load_embeddings(path, 2)
        errors.append(str(err.value))
    assert errors == [f"{path}: line 3: expected token + 2 values, got 2 fields"] * 3
    assert parses == [path] * 3
    assert list(tmp_path.iterdir()) == [path]


def test_importing_the_loader_loads_no_module_beyond_numpy_hashlib_and_data():
    # a cache write imports zipfile when it runs, not at import
    src = str(Path(embeddings.__file__).resolve().parents[1])
    code = ("import sys, hashlib, numpy, convsarc.data; before = set(sys.modules); "
            "import convsarc.embeddings; "
            "print(sorted(set(sys.modules) - before - {'convsarc.embeddings'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"
