import ast
import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import convsarc
from convsarc import checkpoint, models, nn
from convsarc.data import SegmentedInstance
from convsarc.embeddings import EmbeddingTable, lookup, sentence_avg
from convsarc.errors import ConfigError, DomainError, NumericError
from convsarc.nn import (dropout_mask, finite_diff_grad, lstm_forward,
                         max_relative_error, new_rng, softmax)
from convsarc.models import (ATTENTION_VARIANTS, AttentionParams, AttentionRecord,
                             LABEL_TO_INDEX, MAX_PASS_ROWS, TOKENS_PER_WORD_ATTENTION_ROW,
                             VARIANTS, gradient_check_variant, init_params, load_checkpoint,
                             loss_and_grads, predict, save_checkpoint, score,
                             train_model, TrainSettings, _attend_backward, _attend_forward,
                             _batch_grads, _embed, _forward, _rows, _sentence_avgs,
                             _sub_batches)
from convsarc.synthetic import make_separable_corpus
from pass_memory import peak_bytes_per_token, traced_peak

EMBED = 6
HIDDEN = 4


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oov_table(dim=EMBED, seed=0):
    return EmbeddingTable(dim=dim, vocab={}, seed=seed)


def seeded_params(variant, seed=0, embed=EMBED, hidden=HIDDEN, **kw):
    return init_params(variant, embed, hidden, rng=new_rng(seed), **kw)


def seg(context, reply, label="S"):
    return SegmentedInstance(context_sentences=context,
                             reply_sentences=reply, label=label)


def probs_of(params, s, table):
    return predict(params, s, table)[1]


def probs_and_record(params, s, table):
    _, probs, record = predict(params, s, table)
    return probs, record


def zero_cell(embed, hidden):
    return init_params("reply_only", embed, hidden).cell("r")


def set_cell(params, side, cell):
    """Put cell in as side c's (context) or r's (reply) LSTM cell."""
    params.tensors().update({f"lstm_{side}.{k}": v for k, v in cell._asdict().items()})


def attention_block(dim, seed):
    """A seeded dim x dim attention block: sent_attn's context attention."""
    return seeded_params("sent_attn", seed=seed, hidden=dim).attention("attn_c")


def attend(hidden, ap):
    """(pooled, weights) of attention over the rows of a hidden-state matrix."""
    pooled, weights, _ = _attend_forward(hidden, ap, [len(hidden)])
    return pooled[0], weights


BASIC = seg([["alpha", "beta"], ["gamma", "delta", "eps"]],
            [["zeta", "eta"], ["theta"]])


# ------------------------------------------------------------------- init

def per_block_draws(variant, embed, hidden, att, rng, head_only=False):
    """The seeded tensors drawn block by block, as init_params drew them
    when each block had its own initializer: the context cell, the reply
    cell, attn_c, attn_r, wattn_c, wattn_r, then the classifier. Weights
    are uniform(-0.05, 0.05); a cell's forget-gate bias is 1.0."""
    t = {}
    for side in ("r",) if variant == "reply_only" else ("c", "r"):
        t[f"lstm_{side}.W"] = rng.uniform(-0.05, 0.05, (4 * hidden, embed))
        t[f"lstm_{side}.U"] = rng.uniform(-0.05, 0.05, (4 * hidden, hidden))
        t[f"lstm_{side}.b"] = rng.uniform(-0.05, 0.05, 4 * hidden)
        t[f"lstm_{side}.b"][hidden:2 * hidden] = 1.0  # gates i, f, o, g
    blocks = []
    if variant in ATTENTION_VARIANTS:
        blocks += [("attn_c", hidden), ("attn_r", hidden)]
    if variant == "hier_attn":
        blocks += [("wattn_c", embed), ("wattn_r", embed)]
    for name, input_dim in blocks:
        t[f"{name}.W_a"] = rng.uniform(-0.05, 0.05, (att, input_dim))
        t[f"{name}.b_a"] = np.zeros(att)
        t[f"{name}.u_s"] = rng.uniform(-0.05, 0.05, att)
    out_dim = hidden if variant == "reply_only" or head_only else 2 * hidden
    t["W_out"] = rng.uniform(-0.05, 0.05, (2, out_dim))
    t["b_out"] = np.zeros(2)
    return t


def test_only_init_params_initializes_model_tensors():
    # nn keeps no initializer of its own, so a second one cannot come back unnoticed
    for f in sorted(Path(nn.__file__).parent.glob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"))
        assigned = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        if f.name != "models.py":
            assert not assigned & {"INIT_SCALE", "FORGET_BIAS"}, f.name
        if f.name == "nn.py":
            assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "uniform"]
            cell = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                        and node.name == "LSTMCellParams")
            assert not [d for node in cell.body if isinstance(node, ast.FunctionDef)
                        for d in node.decorator_list
                        if isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")]


@pytest.mark.parametrize("variant,head_only",
                         [(v, False) for v in VARIANTS] + [("conditional", True)])
def test_init_params_draws_each_block_in_turn_bit_for_bit(variant, head_only):
    params = init_params(variant, EMBED, HIDDEN, att_dim=3, rng=new_rng(31),
                         conditional_reply_head_only=head_only)
    want = per_block_draws(variant, EMBED, HIDDEN, 3, new_rng(31), head_only)
    got = params.tensors()
    assert list(got) == list(want)
    for name, tensor in want.items():
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name], tensor), name


# ----------------------------------------------------------------- attend

def test_attend_single_vector_gets_full_weight():
    ap = attention_block(3, seed=1)
    h = np.array([0.3, -0.2, 0.5])
    pooled, weights = attend(h[None, :], ap)
    assert np.array_equal(weights, [1.0])
    assert np.allclose(pooled, h, atol=1e-12)


def test_attend_identical_vectors_split_evenly():
    ap = attention_block(2, seed=1)
    h = np.array([0.4, 0.1])
    pooled, weights = attend(np.stack([h, h]), ap)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)
    assert np.allclose(pooled, h, atol=1e-12)


def test_attend_hand_set_scores_match_softmax_oracle():
    # tanh inverts exactly: u_1 = 0.1, u_2 = 0.2, u_s = 10 -> scores [1, 2]
    ap = AttentionParams(W_a=np.array([[math.atanh(0.1), math.atanh(0.2)]]),
                         b_a=np.zeros(1), u_s=np.array([10.0]))
    pooled, weights = attend(np.eye(2), ap)
    assert weights[0] == pytest.approx(0.26894, abs=1e-5)
    assert weights[1] == pytest.approx(0.73106, abs=1e-5)
    assert np.allclose(pooled, weights, atol=1e-12)


def test_attend_empty_sequence_is_domain_error():
    ap = attention_block(2, seed=0)
    with pytest.raises(DomainError):
        attend(np.zeros((0, 2)), ap)


def quadratic_attend_backward(ap, cache, dv):
    """_attend_backward with each row's h_i . dv read from the full
    rows x runs matrix H dv^T, as it was computed before."""
    H, alpha, starts, lengths = cache
    run = np.repeat(np.arange(len(lengths)), lengths)
    dalpha = (H @ dv.T)[np.arange(H.shape[0]), run]
    ds = alpha * (dalpha - np.repeat(np.add.reduceat(alpha * dalpha, starts), lengths))
    U = np.tanh(H @ ap.W_a.T + ap.b_a)
    da = (ds[:, None] * ap.u_s) * (1.0 - U * U)
    grads = {"W_a": da.T @ H, "b_a": da.sum(axis=0), "u_s": U.T @ ds}
    return grads, da @ ap.W_a + alpha[:, None] * np.repeat(dv, lengths, axis=0)


@pytest.mark.parametrize("width", [HIDDEN, EMBED])  # sentence-level, word-level
@pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [6], [3, 1, 5, 2, 1, 7, 4]])
def test_attend_backward_equals_the_quadratic_form(width, lengths):
    rng = new_rng(sum(lengths) + width)
    ap = AttentionParams(rng.uniform(-1, 1, (HIDDEN, width)), rng.uniform(-1, 1, HIDDEN),
                         rng.uniform(-1, 1, HIDDEN))
    H = rng.uniform(-1, 1, (sum(lengths), width))
    dv = rng.uniform(-1, 1, (len(lengths), width))
    _, _, cache = _attend_forward(H, ap, lengths)
    want_grads, want_dH = quadratic_attend_backward(ap, cache, dv)
    grads, dH = _attend_backward(ap, cache, dv)
    assert_grads_close(grads, want_grads, atol=1e-12)
    assert np.allclose(dH, want_dH, atol=1e-12, rtol=0)


# ------------------------------------------------------------- reply_only

def test_reply_only_zero_params_gives_even_scores():
    params = init_params("reply_only", EMBED, HIDDEN)  # all zeros
    probs = probs_of(params, BASIC, oov_table())
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_reply_only_deterministic():
    params = seeded_params("reply_only")
    table = oov_table()
    a = probs_of(params, BASIC, table)
    b = probs_of(params, BASIC, table)
    assert np.array_equal(a, b)


def test_reply_only_matches_manual_unroll():
    params = seeded_params("reply_only", seed=3, embed=4, hidden=2)
    table = oov_table(dim=4, seed=5)
    s = seg([], [["one", "two"]])
    cell = params.cell("r")
    # per-gate slices of the stacked tensors, in i, f, o, g order
    W_i, W_f, W_o, W_g = np.split(cell.W, 4)
    U_i, U_f, U_o, U_g = np.split(cell.U, 4)
    b_i, b_f, b_o, b_g = np.split(cell.b, 4)
    h = np.zeros(2)
    c = np.zeros(2)
    for tok in ("one", "two"):
        x = lookup(table, tok)
        i = sigmoid(W_i @ x + U_i @ h + b_i)
        f = sigmoid(W_f @ x + U_f @ h + b_f)
        o = sigmoid(W_o @ x + U_o @ h + b_o)
        g = np.tanh(W_g @ x + U_g @ h + b_g)
        c = f * c + i * g
        h = o * np.tanh(c)
    t = params.tensors()
    expected = softmax(t["W_out"] @ h + t["b_out"])
    got = probs_of(params, s, table)
    assert np.allclose(got, expected, atol=1e-12)


def test_reply_only_rejects_empty_reply():
    params = seeded_params("reply_only")
    with pytest.raises(DomainError):
        probs_of(params, seg([], []), oov_table())


def test_encode_checks_variant_tag():
    params = seeded_params("concat")
    params.variant = "reply-only"  # not a known variant tag
    with pytest.raises(ConfigError):
        probs_of(params, BASIC, oov_table())


# ------------------------------------------------------------------ concat

def test_concat_classifier_width_is_sum_of_hiddens():
    params = seeded_params("concat")
    assert params.tensors()["W_out"].shape == (2, 2 * HIDDEN)


def test_concat_untied_parameters_are_order_sensitive():
    params = seeded_params("concat", seed=9)
    table = oov_table()
    a = probs_of(params, seg([["one", "two"]], [["three"]]), table)
    b = probs_of(params, seg([["three"]], [["one", "two"]]), table)
    assert np.abs(a - b).max() > 1e-12


def test_concat_zero_context_cell_reduces_to_reply_block():
    params = seeded_params("concat", seed=2)
    set_cell(params, "c", zero_cell(EMBED, HIDDEN))
    table = oov_table()
    probs = probs_of(params, BASIC, table)
    # context block contributes exactly zero, so only the reply block matters
    xs = np.array([lookup(table, t) for s in BASIC.reply_sentences for t in s])
    _, fin, _ = lstm_forward(params.cell("r"), xs, [len(xs)])
    t = params.tensors()
    expected = softmax(t["W_out"][:, HIDDEN:] @ fin.h[0] + t["b_out"])
    assert np.allclose(probs, expected, atol=1e-12)


def test_concat_rejects_empty_context():
    params = seeded_params("concat")
    with pytest.raises(DomainError, match="reply_only"):
        probs_of(params, seg([], [["a"]]), oov_table())


# ------------------------------------------------------------- conditional

def test_conditional_zero_context_state_matches_reply_pathway():
    cond = seeded_params("conditional", seed=4)
    set_cell(cond, "c", zero_cell(EMBED, HIDDEN))  # final state (0, 0)
    table = oov_table()
    probs = probs_of(cond, BASIC, table)

    reply_only = init_params("reply_only", EMBED, HIDDEN)
    set_cell(reply_only, "r", cond.cell("r"))
    reply_only.tensors()["W_out"] = cond.tensors()["W_out"][:, HIDDEN:]
    reply_only.tensors()["b_out"] = cond.tensors()["b_out"]
    expected = probs_of(reply_only, BASIC, table)
    assert np.allclose(probs, expected, atol=1e-12)


def test_conditional_contexts_change_output():
    params = seeded_params("conditional", seed=6)
    table = oov_table()
    a = probs_of(params, seg([["sunny", "day"]], [["reply", "here"]]), table)
    b = probs_of(params, seg([["gloomy", "night"]], [["reply", "here"]]), table)
    assert np.abs(a - b).max() > 1e-12


def test_conditional_gradient_reaches_context_cell_through_memory_handoff():
    # classifier sees only h_r, so lstm_c's only path is the cell state
    params = seeded_params("conditional", seed=8,
                           conditional_reply_head_only=True)
    assert params.tensors()["W_out"].shape == (2, HIDDEN)
    rng = new_rng(1)
    params = params.replace_tensors(
        {k: rng.uniform(-0.5, 0.5, v.shape) for k, v in params.tensors().items()})
    tokens = sorted({t for s in BASIC.context_sentences + BASIC.reply_sentences
                     for t in s})
    table = EmbeddingTable.from_vectors({t: rng.uniform(-1, 1, EMBED) for t in tokens}, EMBED)
    _, _, _, analytic = _forward(params, [BASIC], table, labels=[0])
    context_grads = {k: v for k, v in analytic.items() if k.startswith("lstm_c.")}
    assert any(np.abs(v).max() > 1e-8 for v in context_grads.values())

    def loss_fn(tensors):
        return _forward(params.replace_tensors(tensors), [BASIC], table, labels=[0])[2][0]

    numeric = finite_diff_grad(loss_fn, params.tensors(), 1e-5)
    errs = max_relative_error(analytic, numeric)
    assert max(errs.values()) < 1e-4


def test_conditional_dim_mismatch_is_config_error():
    params = seeded_params("conditional", seed=4)
    set_cell(params, "c", zero_cell(EMBED, HIDDEN + 1))
    with pytest.raises(ConfigError):
        probs_of(params, BASIC, oov_table())


# --------------------------------------------------------------- sent_attn

def test_sent_attn_single_sentences_get_unit_weights():
    params = seeded_params("sent_attn")
    probs, record = probs_and_record(params, seg([["a", "b"]], [["c"]]), oov_table())
    assert np.array_equal(record.context_weights, [1.0])
    assert np.array_equal(record.reply_weights, [1.0])
    assert probs.shape == (2,)


def test_sent_attn_weights_sum_to_one():
    params = seeded_params("sent_attn", seed=3)
    probs, record = probs_and_record(params, BASIC, oov_table())
    assert record.context_weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert record.reply_weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(record.context_weights >= 0)


def test_sent_attn_matches_attend_oracle_composition():
    params = seeded_params("sent_attn", seed=7)
    table = oov_table(seed=2)
    s = seg([["a", "b"], ["c"], ["d", "e"]], [["f"], ["g", "h"]])
    probs, record = probs_and_record(params, s, table)

    sc = np.array([sentence_avg(table, x) for x in s.context_sentences])
    sr = np.array([sentence_avg(table, x) for x in s.reply_sentences])
    hs_c, _, _ = lstm_forward(params.cell("c"), sc, [len(sc)])
    hs_r, _, _ = lstm_forward(params.cell("r"), sr, [len(sr)])
    v_c, w_c = attend(hs_c, params.attention("attn_c"))
    v_r, w_r = attend(hs_r, params.attention("attn_r"))
    t = params.tensors()
    expected = softmax(t["W_out"] @ np.concatenate([v_c, v_r]) + t["b_out"])
    assert np.allclose(probs, expected, atol=1e-12)
    assert np.allclose(record.context_weights, w_c, atol=1e-12)
    assert np.allclose(record.reply_weights, w_r, atol=1e-12)


def test_sent_attn_invariant_to_token_order_within_sentence():
    params = seeded_params("sent_attn", seed=5)
    table = oov_table(seed=1)
    a = probs_of(params, seg([["x", "y", "z"]], [["r", "s"]]), table)
    b = probs_of(params, seg([["z", "x", "y"]], [["s", "r"]]), table)
    assert np.allclose(a, b, atol=1e-12)


def test_sent_attn_sensitive_to_sentence_order():
    params = seeded_params("sent_attn", seed=5)
    table = oov_table(seed=1)
    a = probs_of(params, seg([["x", "y"], ["z", "w"]], [["r"]]), table)
    b = probs_of(params, seg([["z", "w"], ["x", "y"]], [["r"]]), table)
    assert np.abs(a - b).max() > 1e-12


# --------------------------------------------------- word_attn / hier_attn

def test_word_attn_single_token_reply_weight():
    params = seeded_params("word_attn")
    probs, record = probs_and_record(params, seg([["a", "b"]], [["only"]]),
                                     oov_table())
    assert np.array_equal(record.reply_weights, [1.0])
    assert record.context_weights.shape == (2,)  # one weight per token


def test_hier_attn_uniform_word_attention_reduces_to_sent_attn():
    hier = seeded_params("hier_attn", seed=11)
    for block in (hier.attention("wattn_c"), hier.attention("wattn_r")):
        block.W_a[:] = 0.0
        block.b_a[:] = 0.0
        block.u_s[:] = 0.0  # flat scores -> uniform word weights
    sent = init_params("sent_attn", EMBED, HIDDEN)
    # every sent_attn block taken from hier: both cells, both attentions, W_out, b_out
    for name in sent.tensors():
        sent.tensors()[name] = hier.tensors()[name]
    table = oov_table(seed=4)
    ph, rh = probs_and_record(hier, BASIC, table)
    ps, rs = probs_and_record(sent, BASIC, table)
    assert np.allclose(ph, ps, atol=1e-12)
    assert np.allclose(rh.context_weights, rs.context_weights, atol=1e-12)
    for beta in rh.context_word_weights:
        assert np.allclose(beta, np.full(len(beta), 1.0 / len(beta)), atol=1e-12)


def test_hier_attn_all_weight_vectors_normalized():
    params = seeded_params("hier_attn", seed=13)
    _, record = probs_and_record(params, BASIC, oov_table())
    assert record.context_weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert record.reply_weights.sum() == pytest.approx(1.0, abs=1e-12)
    for beta in record.context_word_weights + record.reply_word_weights:
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(beta >= 0)


# ------------------------------------------------------------ gradient check

@pytest.mark.parametrize("variant", ["conditional", "hier_attn"])
def test_gradient_check_spot(variant):
    errs = gradient_check_variant(variant, embed_dim=6, hidden_dim=4, seed=1)
    assert max(errs.values()) < 1e-4


@pytest.mark.parametrize("variant", ["conditional", "hier_attn"])
def test_gradient_check_oracle_equals_its_labelled_forward(monkeypatch, variant):
    # the finite-difference loss runs the forward pass alone; with labels
    # the same pass also runs backward, and the error dicts are equal
    forward_only = gradient_check_variant(variant, embed_dim=6, hidden_dim=4, seed=1)
    forward = models._forward
    monkeypatch.setattr(models, "_forward", lambda params, segs, table, labels=None:
                        forward(params, segs, table, labels=[0]))
    assert gradient_check_variant(variant, embed_dim=6, hidden_dim=4, seed=1) == forward_only


def test_gradient_check_rectangular_attention_dims():
    # att_dim != hidden_dim would expose transposition bugs that square
    # shapes mask; hier covers both the word and sentence attention blocks
    errs = gradient_check_variant("hier_attn", embed_dim=6, hidden_dim=4,
                                  att_dim=3, seed=2)
    assert max(errs.values()) < 1e-4


# ----------------------------------------------------------------- predict

def test_predict_returns_label_probs_record():
    params = seeded_params("sent_attn", seed=3)
    label, probs, record = predict(params, BASIC, oov_table())
    assert label in ("S", "NS")
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert isinstance(record, AttentionRecord)


def test_predict_tie_resolves_to_ns():
    params = init_params("reply_only", EMBED, HIDDEN)  # zero params: 0.5/0.5
    label, probs, record = predict(params, BASIC, oov_table())
    assert np.allclose(probs, [0.5, 0.5])
    assert label == "NS"
    assert record is None  # no attention for this variant


# ---------------------------------------------------------------- training

def corpus_and_table():
    corpus = make_separable_corpus(16, seed=21)
    table = oov_table(dim=EMBED, seed=0)
    return corpus, table


def test_train_is_bitwise_deterministic():
    corpus, table = corpus_and_table()
    settings = TrainSettings(variant="reply_only", hidden_dim=HIDDEN, lr=0.2,
                             l2=1e-4, dropout=0.5, batch_size=4, epochs=3,
                             patience=3, seed=17)
    a = train_model(corpus, corpus, table, settings)
    b = train_model(corpus, corpus, table, settings)
    for name, tensor in a.params.tensors().items():
        assert np.array_equal(tensor, b.params.tensors()[name]), name
    assert a.log == b.log


def test_train_keeps_best_dev_epoch():
    corpus, table = corpus_and_table()
    settings = TrainSettings(variant="reply_only", hidden_dim=HIDDEN, lr=0.3,
                             l2=0.0, dropout=0.0, batch_size=4, epochs=6,
                             patience=6, seed=2)
    result = train_model(corpus, corpus, table, settings)
    best_f1 = max(e["dev_macro_f1"] for e in result.log)
    assert result.log[result.best_epoch - 1]["dev_macro_f1"] == best_f1
    assert best_f1 >= result.log[0]["dev_macro_f1"]


def test_train_returns_the_best_epochs_tensors_bit_for_bit(syn_table):
    # sgd_step updates the tensors in place, so the best epoch's are a copy
    corpus = make_separable_corpus(16, seed=7)
    settings = TrainSettings(variant="reply_only", hidden_dim=8, lr=1.0, l2=1e-4,
                             dropout=0.5, batch_size=4, epochs=8, patience=None, seed=5)
    full = train_model(corpus, corpus, syn_table, settings)
    assert full.best_epoch < settings.epochs
    upto = train_model(corpus, corpus, syn_table,
                       dataclasses.replace(settings, epochs=full.best_epoch))
    for name, tensor in full.params.tensors().items():
        assert tensor.tobytes() == upto.params.tensors()[name].tobytes(), name


def test_train_without_hidden_dim_uses_the_embedding_dim():
    corpus, table = corpus_and_table()
    result = train_model(corpus, corpus, table, TrainSettings(
        variant="sent_attn", hidden_dim=None, epochs=1, seed=0))
    assert result.params.hidden_dim == table.dim == EMBED
    assert result.params.tensors()["attn_c.W_a"].shape == (EMBED, EMBED)  # att_dim follows


def test_train_rejects_empty_splits():
    corpus, table = corpus_and_table()
    with pytest.raises(ConfigError):
        train_model([], corpus, table, TrainSettings(variant="reply_only",
                                                     hidden_dim=4))
    with pytest.raises(ConfigError):
        train_model(corpus, [], table, TrainSettings(variant="reply_only",
                                                     hidden_dim=4))


def test_only_train_settings_declares_the_training_settings():
    owned = {f.name for f in dataclasses.fields(TrainSettings)}
    allowed = {
        # narrows the library's None-or-int to an int: the CLI always stops early
        "RunConfig": {"patience"},
        # what a trained model was built with, read back from its checkpoint
        "ModelParams": {"variant", "conditional_reply_head_only", "max_context"},
        # the seed of the table's out-of-vocabulary vectors
        "EmbeddingTable": {"seed"},
    }
    for f in sorted(Path(convsarc.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"convsarc.{f.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__ and cls is not TrainSettings):
                own = set(vars(cls).get("__annotations__", {}))
                assert own & owned <= allowed.get(cls.__name__, set()), cls.__name__


def test_train_nonfinite_loss_reports_coordinates(monkeypatch):
    corpus, table = corpus_and_table()

    def bad_forward(params, segs, *args, **kwargs):
        return None, None, np.full(len(segs), float("nan")), {}

    monkeypatch.setattr("convsarc.models._forward", bad_forward)
    settings = TrainSettings(variant="reply_only", hidden_dim=4, epochs=1,
                             patience=1, dropout=0.0, seed=0)
    with pytest.raises(NumericError, match="epoch 1, batch 0"):
        train_model(corpus, corpus, table, settings)


def test_loss_and_grads_covers_all_tensors():
    params = seeded_params("sent_attn", seed=1)
    loss, grads = loss_and_grads(params, BASIC, oov_table(), "S")
    assert math.isfinite(loss)
    assert set(grads) == set(params.tensors())


# ------------------------------------------------------------------ batching

# unsorted lengths on both sides; the second reply is a single token
BATCH = [seg([["a", "b", "c"], ["d"]], [["e", "f"], ["g"]], "S"),
         seg([["h"]], [["i"]], "NS"),
         seg([["j", "k"], ["l", "m", "n", "o"], ["p"]], [["q", "r", "s"]], "S"),
         seg([["t", "u"]], [["v", "w"], ["x", "y", "z"]], "NS")]


def batch_setup(variant, seed=0):
    """Healthy magnitudes (as in gradient_check_variant), so agreement
    within 1e-10 is a real check rather than a comparison of tiny numbers."""
    rng = new_rng(seed)
    tokens = sorted({t for s in BATCH for sent in s.context_sentences + s.reply_sentences
                     for t in sent})
    table = EmbeddingTable.from_vectors({t: rng.uniform(-1, 1, EMBED) for t in tokens},
                                        EMBED, seed)
    params = seeded_params(variant, seed=seed)
    params = params.replace_tensors(
        {k: rng.uniform(-0.5, 0.5, v.shape) for k, v in params.tensors().items()})
    return params, table


def out_dim(params):
    return params.tensors()["W_out"].shape[1]


def per_instance_mean(params, segs, table, rng=None, dropout=0.0):
    """Mean loss and gradients one instance at a time; with rng, each
    instance draws its own dropout mask from it in turn."""
    losses, total = [], None
    for s in segs:
        mask = None if rng is None else dropout_mask((1, out_dim(params)), dropout, rng)
        loss, grads = loss_and_grads(params, s, table, s.label, mask)
        losses.append(loss)
        total = grads if total is None else {k: total[k] + grads[k] for k in grads}
    return np.array(losses), {k: v / len(segs) for k, v in total.items()}


def assert_grads_close(got, want, atol=1e-10):
    assert set(got) == set(want)
    for name in want:
        assert np.allclose(got[name], want[name], atol=atol, rtol=0), name


def assert_records_close(variant, record, record_one):
    """A batched attention record against predict's for the same instance."""
    if record_one is None:
        assert record is None
        return
    pairs = [(record.context_weights, record_one.context_weights),
             (record.reply_weights, record_one.reply_weights)]
    if variant == "hier_attn":
        pairs += zip(record.context_word_weights + record.reply_word_weights,
                     record_one.context_word_weights + record_one.reply_word_weights)
    for got, want in pairs:
        assert np.allclose(got, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_loss_and_grads_equal_per_instance_mean(variant):
    params, table = batch_setup(variant)
    labels = [LABEL_TO_INDEX[s.label] for s in BATCH]
    probs, records, losses, grads = _forward(params, BATCH, table, labels=labels)
    want_losses, want_grads = per_instance_mean(params, BATCH, table)
    assert np.allclose(losses, want_losses, atol=1e-10, rtol=0)
    assert_grads_close(grads, want_grads)
    for s, p, record in zip(BATCH, probs, records):
        _, p_one, record_one = predict(params, s, table)
        assert np.allclose(p, p_one, atol=1e-12, rtol=0)
        assert_records_close(variant, record, record_one)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_dropout_draws_the_per_instance_stream(variant):
    params, table = batch_setup(variant, seed=3)
    labels = [LABEL_TO_INDEX[s.label] for s in BATCH]
    mask = dropout_mask((len(BATCH), out_dim(params)), 0.5, new_rng(11))
    _, _, losses, grads = _forward(params, BATCH, table, labels=labels, mask=mask)
    want_losses, want_grads = per_instance_mean(params, BATCH, table,
                                                rng=new_rng(11), dropout=0.5)
    assert np.allclose(losses, want_losses, atol=1e-10, rtol=0)
    assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("variant", VARIANTS)
def test_passes_take_their_instances_rows_of_the_batch_mask(variant, monkeypatch):
    # at cap 9 the passes of BATCH * 2 are not in the batch's order
    monkeypatch.setattr("convsarc.models.MAX_PASS_ROWS", 9)
    params, table = batch_setup(variant, seed=7)
    segs = BATCH * 2
    plan = _sub_batches(segs, variant)
    assert [i for run in plan for i in run] != list(range(len(segs)))
    labels = [LABEL_TO_INDEX[s.label] for s in segs]
    mask = dropout_mask((len(segs), out_dim(params)), 0.5, new_rng(12))
    losses, grads = _batch_grads(params, segs, labels, table, mask)
    want_losses, want_grads = per_instance_mean(params, segs, table,
                                                rng=new_rng(12), dropout=0.5)
    assert np.allclose(losses, want_losses, atol=1e-10, rtol=0)
    assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_larger_than_pass_cap_sums_sub_batches(variant, monkeypatch):
    # BATCH * 2 holds 26 sentences and 24 reply tokens: 3 passes at cap 9
    monkeypatch.setattr("convsarc.models.MAX_PASS_ROWS", 9)
    params, table = batch_setup(variant, seed=4)
    segs = BATCH * 2
    assert len(_sub_batches(segs, variant)) > 2
    labels = [LABEL_TO_INDEX[s.label] for s in segs]
    losses, grads = _batch_grads(params, segs, labels, table)
    want_losses, want_grads = per_instance_mean(params, segs, table)
    assert np.allclose(losses, want_losses, atol=1e-10, rtol=0)
    assert_grads_close(grads, want_grads)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_gradients_match_finite_differences(variant):
    params, table = batch_setup(variant, seed=5)
    segs = BATCH[:3]
    labels = [LABEL_TO_INDEX[s.label] for s in segs]
    _, _, _, analytic = _forward(params, segs, table, labels=labels)

    def loss_fn(tensors):
        return float(np.mean(_forward(params.replace_tensors(tensors), segs, table,
                                      labels=labels)[2]))

    numeric = finite_diff_grad(loss_fn, params.tensors(), 1e-5)
    assert max(max_relative_error(analytic, numeric).values()) < 1e-4


def scaled_copy_sum(params, segs, labels, table, mask):
    """_batch_grads as it summed passes before: a scaled copy of each pass's
    gradients, added into a new dict."""
    losses, grads = np.empty(len(segs)), None
    for run in _sub_batches(segs, params.variant):
        _, _, losses[run], run_grads = _forward(
            params, [segs[i] for i in run], table, labels=[labels[i] for i in run],
            mask=mask[run])
        share = len(run) / len(segs)
        if grads is None:
            grads = {name: share * g for name, g in run_grads.items()}
        else:
            for name, g in run_grads.items():
                grads[name] += share * g
    return losses, grads


def assert_same_bits(got, want):
    """Two (losses, gradients) pairs are bit-identical."""
    assert np.array_equal(got[0], want[0])
    assert set(got[1]) == set(want[1])
    for name in want[1]:
        assert np.array_equal(got[1][name], want[1][name]), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_passes_add_their_gradients_in_place_with_the_same_bits(variant, monkeypatch):
    params, table = batch_setup(variant, seed=8)
    labels = [LABEL_TO_INDEX[s.label] for s in BATCH]
    # one pass: its gradients as they are, unscaled
    _, _, want_losses, want_grads = _forward(params, BATCH, table, labels=labels)
    assert_same_bits(_batch_grads(params, BATCH, labels, table), (want_losses, want_grads))
    monkeypatch.setattr("convsarc.models.MAX_PASS_ROWS", 9)
    segs = BATCH * 2
    assert len(_sub_batches(segs, variant)) > 2
    labels = [LABEL_TO_INDEX[s.label] for s in segs]
    mask = dropout_mask((len(segs), out_dim(params)), 0.5, new_rng(13))
    assert_same_bits(_batch_grads(params, segs, labels, table, mask),
                     scaled_copy_sum(params, segs, labels, table, mask))


def test_scoring_runs_in_sub_batches_with_the_same_labels(monkeypatch):
    # probabilities and attention records too, each at its caller's position
    # although the passes are not in the batch's order
    segs = BATCH * 3
    monkeypatch.setattr("convsarc.models.MAX_PASS_ROWS", 9)
    for variant in VARIANTS:
        params, table = batch_setup(variant, seed=6)
        want = [predict(params, s, table) for s in segs]
        plan = _sub_batches(segs, variant)
        assert len(plan) > 2
        assert [i for run in plan for i in run] != list(range(len(segs)))
        labels, probs, records = score(params, segs, table)
        assert labels == [label for label, _, _ in want]
        for p, record, (_, p_one, record_one) in zip(probs, records, want):
            assert np.allclose(p, p_one, atol=1e-12, rtol=0)
            assert_records_close(variant, record, record_one)


def twitter_batch():
    """16 threads shaped like a twitter mini-batch: 5 one-sentence context
    tweets of 13 tokens and a 13-token reply each, so 1,248 tokens, 96
    sentences and 208 reply tokens."""
    tweet = [f"w{k}" for k in range(13)]
    return [seg([tweet] * 5, [tweet]) for _ in range(16)]


def token_runs(indices, segs, cap=500):
    """The pass plan that counts every token of both sides, as it was
    before passes were sized by the rows a variant caches."""
    indices = list(indices)
    tokens = sum(len(t) for i in indices
                 for t in segs[i].context_sentences + segs[i].reply_sentences)
    passes = min(len(indices), -(-tokens // cap))
    return [run.tolist() for run in np.array_split(indices, max(passes, 1)) if run.size]


def test_reply_only_and_sent_attn_run_a_twitter_batch_as_one_pass():
    # hier_attn too: 96 sentences plus a third of 1,248 tokens is 512 rows
    segs = twitter_batch()
    assert len(token_runs(range(16), segs)) == 3
    for variant in ("reply_only", "sent_attn", "hier_attn"):
        assert _sub_batches(segs, variant) == [list(range(16))]
    for variant in ("concat", "conditional", "word_attn"):
        assert len(_sub_batches(segs, variant)) == 2


# a batch of up to 24 instances, each (context sentence lengths, reply
# sentence lengths); up to 720 context tokens, so some exceed the cap alone
BATCH_SHAPES = st.lists(st.tuples(st.lists(st.integers(1, 120), max_size=6),
                                  st.lists(st.integers(1, 60), max_size=3)), max_size=24)


@given(BATCH_SHAPES, st.sampled_from(VARIANTS))
@settings(max_examples=150, deadline=None)
def test_pass_plan_keeps_the_cap_and_partitions_the_batch(shapes, variant):
    segs = [seg([["c"] * n for n in context], [["r"] * n for n in reply])
            for context, reply in shapes]
    rows = [_rows(s, variant) for s in segs]
    plan = _sub_batches(segs, variant)
    assert sorted(i for run in plan for i in run) == list(range(len(segs)))
    for run in plan:
        assert run and run == sorted(run)
        assert len(run) == 1 or sum(rows[i] for i in run) <= MAX_PASS_ROWS
    if segs and sum(rows) <= MAX_PASS_ROWS:
        assert plan == [list(range(len(segs)))]


def test_uneven_instances_keep_the_cap():
    # instances of 401, 401, 10 and 10 rows: an equal-count split into two
    # passes puts 802 rows in the first
    segs = [seg([["c"] * n], [["r"]]) for n in (400, 400, 9, 9)]
    for variant in ("concat", "conditional", "word_attn"):
        assert _sub_batches(segs, variant) == [[0, 2, 3], [1]]
    # hier_attn at three times the tokens: 403, 403, 12 and 12 rows
    segs = [seg([["c"] * n], [["r"]]) for n in (1200, 1200, 27, 27)]
    assert [_rows(s, "hier_attn") for s in segs] == [403, 403, 12, 12]
    assert _sub_batches(segs, "hier_attn") == [[0, 2, 3], [1]]


# Per extra token, the growth of the peak of a labelled 16-thread Twitter
# pass when MAX_PASS_ROWS was 500 and nn.lstm_backward kept five steps x
# hidden scratch arrays; hier_attn's row was five tokens then.
BYTES_PER_ROW_AT_500 = {
    100: {"concat": 8022, "conditional": 8021, "word_attn": 8697, "hier_attn": 5 * 1480},
    300: {"concat": 24022, "conditional": 24021, "word_attn": 26030, "hier_attn": 5 * 4422},
}


@pytest.mark.parametrize("dim", [100, 300])
@pytest.mark.parametrize("variant", ["concat", "conditional", "word_attn", "hier_attn"])
def test_a_pass_at_the_cap_holds_no_more_than_a_500_row_pass_did(variant, dim):
    per_row = peak_bytes_per_token(variant, dim)
    if variant == "hier_attn":
        per_row *= TOKENS_PER_WORD_ATTENTION_ROW
    assert per_row > 0
    assert MAX_PASS_ROWS * per_row <= 500 * BYTES_PER_ROW_AT_500[dim][variant], per_row


def test_word_attention_token_caches_at_most_its_share_of_a_token_row():
    # hier_attn counts TOKENS_PER_WORD_ATTENTION_ROW tokens as one row
    for dim in (100, 300):
        per = {v: peak_bytes_per_token(v, dim) for v in ("hier_attn", "word_attn", "concat")}
        assert per["hier_attn"] > 0
        assert TOKENS_PER_WORD_ATTENTION_ROW * per["hier_attn"] <= min(per["word_attn"],
                                                                       per["concat"]), (dim, per)


@pytest.mark.parametrize("dim", [100, 300])
def test_sent_attn_word_averages_hold_one_word_position_at_a_time(dim):
    assert peak_bytes_per_token("sent_attn", dim) < 8 * dim
    # The pass's peak comes later, over the sentence steps, so the averages'
    # own peak is measured too: it grows by a row index per word, where a
    # gather of all the words at once would hold 8 * dim bytes for each.
    table = EmbeddingTable.from_vectors({f"w{k}": np.full(dim, k / 7) for k in range(26)}, dim)
    peaks = [traced_peak(_sentence_avgs, table, [[f"w{k}" for k in range(n)]] * 96)[1]
             for n in (13, 26)]
    assert (peaks[1] - peaks[0]) / (96 * 13) < dim


# a -0.0 component, and magnitudes at which the order of a sum changes its bits
GATHER_VECTORS = {"a": [1e16, -0.0, 0.1], "b": [1.0, 3.3, -1e-300],
                  "c": [-1e16, 2.5, 7e-17], "d": [0.3, -0.0, 1e300]}


@given(st.lists(st.lists(st.sampled_from([*GATHER_VECTORS, "oov1", "oov2"]),
                         min_size=1, max_size=7), min_size=1, max_size=8))
@example([["a"]])
@example([["d"], ["oov1"], ["a", "b", "c", "a"], ["oov2", "b", "oov2"], ["c", "a"]])
@settings(max_examples=80, deadline=None)
def test_gathers_give_the_bits_of_per_token_lookups(sentences):
    table = EmbeddingTable.from_vectors(
        {t: np.array(v) for t, v in GATHER_VECTORS.items()}, 3, seed=4)
    expected = np.array([sentence_avg(table, s) for s in sentences])
    assert _sentence_avgs(table, sentences).tobytes() == expected.tobytes()
    tokens = [t for s in sentences for t in s]
    expected = np.array([lookup(table, t) for t in tokens])
    assert _embed(table, tokens).tobytes() == expected.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_instance_of_no_rows_reaches_the_forward_refusal(variant):
    # reply_only never reads the context, so a context alone gives it no rows
    empty = seg([["a", "b"]], []) if variant == "reply_only" else seg([], [])
    assert _rows(empty, variant) == 0
    params, table = batch_setup(variant)
    segs = [BATCH[0], empty, BATCH[1]]
    with pytest.raises(DomainError):
        _batch_grads(params, segs, [0, 1, 0], table)
    with pytest.raises(DomainError):
        score(params, segs, table)


# --------------------------------------------------------------- checkpoints

@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_roundtrip_bitwise(tmp_path, variant):
    params = seeded_params(variant, seed=23)
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.variant == variant
    for name, tensor in params.tensors().items():
        assert np.array_equal(tensor, loaded.tensors()[name]), name
    save_checkpoint(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_checkpoint_version_mismatch_fails_loudly(tmp_path):
    params = seeded_params("reply_only")
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    doc = path.read_text(encoding="utf-8").replace(
        f'"format_version": {checkpoint.VERSIONS["lstm"]}', '"format_version": 1')
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ConfigError, match="format_version"):
        load_checkpoint(path)


@pytest.mark.parametrize("max_context", [None, 0, 7])
def test_checkpoint_keeps_the_context_window(tmp_path, max_context):
    params = seeded_params("sent_attn")
    params.max_context = max_context
    assert params.replace_tensors(params.tensors()).max_context == max_context
    path = tmp_path / "model.json"
    save_checkpoint(params, path)
    assert json.loads(path.read_text(encoding="utf-8"))["max_context"] == max_context
    assert load_checkpoint(path).max_context == max_context
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["max_context"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: checkpoint lacks field 'max_context'"):
        load_checkpoint(path)
    # a version-2 file, written before the window was stored, fails loudly
    path.write_text(json.dumps({**doc, "format_version": 2}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: checkpoint format_version 2"):
        load_checkpoint(path)


def test_checkpoint_without_dims_is_config_error_naming_path(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["dims"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: .*dims"):
        load_checkpoint(path)


def test_checkpoint_corrupt_tensor_data_is_config_error_naming_path(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["tensors"]["lstm_r.W"]["data"] = "AAAA"  # 3 bytes, not whole float64s
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: malformed"):
        load_checkpoint(path)


def test_checkpoint_tensor_of_wrong_shape_is_config_error_naming_path(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["tensors"]["lstm_r.b"]["shape"] = [2, 2 * HIDDEN]  # same 4H values
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: .*shapes"):
        load_checkpoint(path)


def test_checkpoint_unknown_variant_is_config_error_naming_path(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["variant"] = "mystery_attn"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: unknown variant 'mystery_attn'"):
        load_checkpoint(path)


def test_checkpoint_tensor_data_outside_base64_alphabet_is_config_error(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["tensors"]["lstm_r.b"]["data"] = "!!" + doc["tensors"]["lstm_r.b"]["data"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: malformed"):
        load_checkpoint(path)


def test_checkpoint_head_only_flag_must_be_boolean(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("conditional"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["conditional_reply_head_only"] = "yes"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: .*conditional_reply_head_only"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_value_is_config_error_naming_path(tmp_path, value):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    w_out = seeded_params("reply_only").tensors()["W_out"].copy()
    w_out[1, 2] = value
    doc["tensors"]["W_out"]["data"] = checkpoint.encode(w_out)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: malformed checkpoint: non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("embed_dim", 10 ** 13), ("hidden_dim", 0),
                                        ("att_dim", -3), ("att_dim", 5), ("embed_dim", None)])
def test_checkpoint_dims_that_do_not_fit_the_tensors_are_config_error(tmp_path, key, value):
    path = tmp_path / "model.json"
    save_checkpoint(seeded_params("reply_only"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["dims"][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: malformed checkpoint: dims .* do not fit"):
        load_checkpoint(path)


@pytest.mark.parametrize("content", ["not json at all", "[1, 2]"])
def test_checkpoint_not_a_json_object_is_config_error_naming_path(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"model\.json: "):
        load_checkpoint(path)


def test_predict_label_invariant_under_logit_shift():
    params = seeded_params("reply_only", seed=29)
    table = oov_table()
    base_label, base_probs, _ = predict(params, BASIC, table)
    shifted = seeded_params("reply_only", seed=29)
    shifted.tensors()["b_out"] = shifted.tensors()["b_out"] + 7.5  # same on both logits
    label, probs, _ = predict(shifted, BASIC, table)
    assert label == base_label
    assert np.allclose(probs, base_probs, atol=1e-12)
