import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convsarc import embeddings
from convsarc.embeddings import (EmbeddingTable, load_embeddings, lookup,
                                 sentence_avg)
from convsarc.errors import ConfigError, ConvsarcError, DomainError, ParseError


def write(tmp_path, content):
    p = tmp_path / "vecs.txt"
    p.write_text(content, encoding="utf-8")
    return p


def test_load_small_file(tmp_path):
    table = load_embeddings(write(tmp_path, "2 3\na 1 2 3\nb 0 0 1\n"), 3)
    assert table.dim == 3
    assert np.array_equal(table.vocab["a"], [1.0, 2.0, 3.0])
    assert np.array_equal(table.vocab["b"], [0.0, 0.0, 1.0])


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
    table = load_embeddings(write(tmp_path, "10 2\n" + body), 2)
    assert len(table.vocab) == 10
    for vec in table.vocab.values():
        with pytest.raises(ValueError):
            vec[0] = 9.0
    vec = lookup(table, "t3")
    with pytest.raises(ValueError):
        vec[0] = 9.0
    oov = lookup(table, "b")
    with pytest.raises(ValueError):
        oov[0] = 9.0


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
    scaled = EmbeddingTable(
        dim=2, vocab={k: v * 2.5 for k, v in table.vocab.items()}, seed=0)
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
    with pytest.raises(ParseError, match=r"vecs\.txt: line 4: non-numeric value$"):
        load_embeddings(path, 2)
    assert sizes == [2, 2]


def test_blank_lines_at_block_edges_are_skipped(tmp_path, monkeypatch):
    sizes = block_sizes(monkeypatch, 8)
    path = write(tmp_path, "3 2\na0 1 2\n \n\na1 3 4\n\t\na2 5 6")
    table = load_embeddings(path, 2)
    # blocks [a0, " "], [blank, a1, "\t"], [a2]: blank lines end and start blocks
    assert sizes == [2, 3, 1]
    assert list(table.vocab) == ["a0", "a1", "a2"]
    assert np.array_equal(table.vocab["a2"], [5.0, 6.0])


@pytest.mark.parametrize("line", ["a 1_0 2", "a  10 2", "a 10 2 ", " a 10 2",
                                  "a \\u0661\\u0660 2", "a 10\\t 2"])
def test_values_only_float_reads_still_load(tmp_path, line):
    line = line.encode().decode("unicode_escape")
    table = load_embeddings(write(tmp_path, f"2 2\nb 3 4\n{line}\n"), 2)
    assert list(table.vocab) == ["b", "a"]
    assert table.vocab["a"].tolist() == [10.0, 2.0]


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
    table = load_embeddings(write(tmp_path, f"{len(texts) // 7} 7\n{body}"), 7)
    got = np.concatenate(list(table.vocab.values()))
    assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()


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
        vocab[fields[0]] = vec
    if len(vocab) != count:
        raise ParseError(
            f"{path}: header promised {count} vectors, file held {len(vocab)}")
    return EmbeddingTable(dim=dim, vocab=vocab)


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
    """Keys in order and each vector's bytes, or the error's type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load(path, dim)
    except ConvsarcError as e:
        return type(e), str(e)
    return table.dim, list(table.vocab), [v.tobytes() for v in table.vocab.values()]


@given(embedding_files(), st.sampled_from([1, 24, 80, 1 << 18]))
@settings(max_examples=300, deadline=None)
def test_block_parse_matches_per_line_parse(tmp_path_factory, case, block_chars):
    body, dim = case
    path = tmp_path_factory.getbasetemp() / "differential_vecs.txt"
    path.write_bytes(body)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "BLOCK_CHARS", block_chars)
        got = load_outcome(load_embeddings, path, dim)
    assert got == load_outcome(per_line_load_embeddings, path, dim)
