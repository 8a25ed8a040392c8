import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convsarc.embeddings import (EmbeddingTable, load_embeddings, lookup,
                                 sentence_avg)
from convsarc.errors import ConfigError, DomainError, ParseError


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


def test_vectors_are_frozen(tmp_path):
    table = load_embeddings(write(tmp_path, "1 2\na 1 2\n"), 2)
    vec = lookup(table, "a")
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
