import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convsarc.errors import DomainError, NumericError, ShapeError
from convsarc.models import AttentionParams, _project
from convsarc.nn import (LSTMCellParams, LSTMState, cross_entropy,
                         dropout_mask, finite_diff_grad, lstm_backward,
                         lstm_forward, new_rng, sgd_step, sigmoid, softmax)


def rand_cell(input_dim, hidden_dim, seed=0, scale=0.5):
    rng = new_rng(seed)
    t = LSTMCellParams.zeros(input_dim, hidden_dim).tensors()
    return LSTMCellParams.from_tensors(
        {k: rng.uniform(-scale, scale, v.shape) for k, v in t.items()})


def one_step(p, x, prev):
    """A single step of the cell as a one-step lstm_forward."""
    return lstm_forward(p, [x], prev)[1]


def gate_blocks(p):
    """The per-gate (W, U, b) slices of the stacked tensors, in i, f, o, g order."""
    return zip(np.split(p.W, 4), np.split(p.U, 4), np.split(p.b, 4))


def reference_step(p, x, h_prev, c_prev):
    """Independent re-implementation of the four gate equations."""
    (W_i, U_i, b_i), (W_f, U_f, b_f), (W_o, U_o, b_o), (W_g, U_g, b_g) = gate_blocks(p)
    i = 1 / (1 + np.exp(-(W_i @ x + U_i @ h_prev + b_i)))
    f = 1 / (1 + np.exp(-(W_f @ x + U_f @ h_prev + b_f)))
    o = 1 / (1 + np.exp(-(W_o @ x + U_o @ h_prev + b_o)))
    g = np.tanh(W_g @ x + U_g @ h_prev + b_g)
    c = f * c_prev + i * g
    return o * np.tanh(c), c


# ------------------------------------------------------- one-step lstm_forward

def test_lstm_step_all_zero():
    p = LSTMCellParams.zeros(3, 2)
    out = one_step(p, np.zeros(3), LSTMState.zeros(2))
    # sigmoid(0)=0.5 and tanh(0)=0 force both outputs to zero
    assert np.allclose(out.h, 0.0)
    assert np.allclose(out.c, 0.0)


def test_lstm_step_saturated_forget_gate_wipes_memory():
    p = LSTMCellParams.zeros(1, 1)
    p.b[:] = [100.0, -100.0, 100.0, 0.0]  # i, f, o, g
    out = one_step(p, np.zeros(1), LSTMState(np.zeros(1), np.array([5.0])))
    assert abs(out.c[0]) < 1e-12
    assert abs(out.h[0]) < 1e-12


def test_lstm_step_matches_independent_gate_equations():
    p = rand_cell(3, 2, seed=0)
    rng = new_rng(1)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 2)
    c_prev = rng.uniform(-1, 1, 2)
    h_expect, c_expect = reference_step(p, x, h_prev, c_prev)

    out = one_step(p, x, LSTMState(h_prev, c_prev))
    assert np.allclose(out.c, c_expect, atol=1e-12, rtol=0)
    assert np.allclose(out.h, h_expect, atol=1e-12, rtol=0)


def test_lstm_step_shape_error_names_tensor():
    p = LSTMCellParams.zeros(3, 2)
    with pytest.raises(ShapeError, match="x"):
        one_step(p, np.zeros(4), LSTMState.zeros(2))
    with pytest.raises(ShapeError, match="init.h"):
        one_step(p, np.zeros(3), LSTMState(np.zeros(5), np.zeros(2)))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_lstm_step_hidden_state_strictly_bounded(seed):
    rng = new_rng(seed)
    p = rand_cell(4, 3, seed=seed, scale=2.0)
    out = one_step(p, rng.uniform(-5, 5, 4),
                   LSTMState(rng.uniform(-1, 1, 3), rng.uniform(-3, 3, 3)))
    assert np.all(np.abs(out.h) < 1.0)
    assert np.all(np.isfinite(out.c))


def test_lstm_init_matches_per_gate_draws():
    # stacking the gates must not change the seeded initial weights: the
    # stacked draws equal twelve per-gate draws in i, f, o, g order
    p = LSTMCellParams.init(3, 2, new_rng(4))
    rng = new_rng(4)
    for name, shape in (("W", (2, 3)), ("U", (2, 2)), ("b", (2,))):
        per_gate = [rng.uniform(-0.05, 0.05, shape) for _ in range(4)]
        if name == "b":
            per_gate[1] = np.ones(2)
        assert np.array_equal(p.tensors()[name], np.concatenate(per_gate)), name


# ------------------------------------------------------------- lstm_forward

def test_lstm_run_empty_sequence_returns_init():
    p = rand_cell(3, 2)
    init = LSTMState(np.array([0.1, -0.2]), np.array([0.3, 0.4]))
    hs, final, cache = lstm_forward(p, [], init)
    assert hs.shape == (0, 2)
    assert final is init
    assert len(cache) == 0


def test_lstm_run_single_input_equals_step():
    p = rand_cell(3, 2)
    x = new_rng(2).uniform(-1, 1, 3)
    hs, final, _ = lstm_forward(p, [x])
    h_ref, c_ref = reference_step(p, x, np.zeros(2), np.zeros(2))
    assert len(hs) == 1
    assert np.array_equal(hs[0], final.h)
    assert np.allclose(hs[0], h_ref, atol=1e-12, rtol=0)
    assert np.allclose(final.c, c_ref, atol=1e-12, rtol=0)


def test_lstm_run_zero_params_all_zero_states():
    p = LSTMCellParams.zeros(3, 2)
    hs, final, _ = lstm_forward(p, [np.ones(3)] * 3)
    assert all(np.allclose(h, 0.0) for h in hs)
    assert np.allclose(final.h, 0.0)


def test_lstm_run_reports_bad_step_index():
    p = LSTMCellParams.zeros(3, 2)
    with pytest.raises(ShapeError, match="step 1"):
        lstm_forward(p, [np.zeros(3), np.zeros(4)])


def test_lstm_forward_matches_stepwise_reference():
    p = rand_cell(4, 3, seed=5)
    rng = new_rng(6)
    xs = rng.uniform(-1, 1, (5, 4))
    init = LSTMState(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    hs, final, cache = lstm_forward(p, xs, init)
    h, c = init.h, init.c
    for t, x in enumerate(xs):
        h, c = reference_step(p, x, h, c)
        assert np.allclose(hs[t], h, atol=1e-12, rtol=0)
    assert np.allclose(final.c, c, atol=1e-12, rtol=0)
    assert len(cache) == 5


def test_lstm_backward_matches_finite_differences():
    p = rand_cell(3, 2, seed=7)
    rng = new_rng(8)
    xs = rng.uniform(-1, 1, (4, 3))
    c0 = rng.uniform(-1, 1, 2)
    w_steps = rng.uniform(-1, 1, (4, 2))  # loss weights on every hidden state
    w_h, w_c = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)

    def loss(t):
        cell = LSTMCellParams.from_tensors(t)
        hs, final, _ = lstm_forward(cell, t["x"], LSTMState(np.zeros(2), t["c0"]))
        return float(np.sum(w_steps * hs) + w_h @ final.h + w_c @ final.c)

    _, _, cache = lstm_forward(p, xs, LSTMState(np.zeros(2), c0))
    grads, dx, (_, dc0) = lstm_backward(p, cache, dh_steps=w_steps,
                                        dh_final=w_h, dc_final=w_c)
    numeric = finite_diff_grad(loss, {**p.tensors(), "x": xs, "c0": c0})
    for name in ("W", "U", "b"):
        assert np.allclose(grads[name], numeric[name], atol=1e-8, rtol=0), name
    assert np.allclose(dx, numeric["x"], atol=1e-8, rtol=0)
    assert np.allclose(dc0, numeric["c0"], atol=1e-8, rtol=0)


def test_packed_batch_equals_single_sequence_calls():
    # unsorted lengths, one of them empty, and a per-row initial state (the
    # conditional variant hands each reply its own context memory)
    p = rand_cell(3, 2, seed=9)
    rng = new_rng(10)
    lengths = [3, 1, 0, 5, 3, 2]
    B, N = len(lengths), sum(lengths)
    xs = rng.uniform(-1, 1, (N, 3))
    init = LSTMState(rng.uniform(-1, 1, (B, 2)), rng.uniform(-1, 1, (B, 2)))
    dh_steps = rng.uniform(-1, 1, (N, 2))
    dh_final, dc_final = rng.uniform(-1, 1, (B, 2)), rng.uniform(-1, 1, (B, 2))
    hs, final, cache = lstm_forward(p, xs, init, lengths)
    assert len(cache) == N
    grads, dx, (dh0, dc0) = lstm_backward(p, cache, dh_steps, dh_final, dc_final)
    total = {k: np.zeros_like(v) for k, v in grads.items()}
    start = 0
    for b, n in enumerate(lengths):
        rows = slice(start, start + n)
        start += n
        hs_b, final_b, cache_b = lstm_forward(p, xs[rows], LSTMState(init.h[b], init.c[b]))
        g_b, dx_b, (dh0_b, dc0_b) = lstm_backward(p, cache_b, dh_steps[rows],
                                                  dh_final[b], dc_final[b])
        for got, want in ((hs[rows], hs_b), (final.h[b], final_b.h), (final.c[b], final_b.c),
                          (dx[rows], dx_b), (dh0[b], dh0_b), (dc0[b], dc0_b)):
            assert np.allclose(got, want, atol=1e-12, rtol=0)
        for k in total:
            total[k] += g_b[k]
    for k in total:
        assert np.allclose(grads[k], total[k], atol=1e-12, rtol=0), k


def test_lstm_backward_without_dx_gives_the_same_other_gradients():
    p = rand_cell(3, 2, seed=11)
    rng = new_rng(12)
    lengths = [2, 4, 1]
    xs = rng.uniform(-1, 1, (sum(lengths), 3))
    dh_final = rng.uniform(-1, 1, (len(lengths), 2))
    full = lstm_backward(p, lstm_forward(p, xs, None, lengths)[2], dh_final=dh_final)
    grads, dx, (dh0, dc0) = lstm_backward(p, lstm_forward(p, xs, None, lengths)[2],
                                          dh_final=dh_final, need_dx=False)
    assert dx is None and full[1].shape == xs.shape
    for k, v in full[0].items():
        assert np.array_equal(grads[k], v), k
    assert np.array_equal(dh0, full[2][0]) and np.array_equal(dc0, full[2][1])


def test_lstm_forward_rejects_lengths_that_do_not_cover_the_inputs():
    p = LSTMCellParams.zeros(3, 2)
    with pytest.raises(ShapeError, match="lengths"):
        lstm_forward(p, np.zeros((4, 3)), None, [2, 1])
    with pytest.raises(ShapeError, match="lengths"):
        lstm_forward(p, np.zeros((1, 3)), None, [2, -1])


# ------------------------------------- tanh MLP of the attention projection

def attention_projection(W, b, h):
    """tanh(W h + b), the projection attention scores are computed from."""
    ap = AttentionParams(W_a=W, b_a=b, u_s=np.zeros(len(b)))
    return _project(np.atleast_2d(h), ap)[0]


def test_mlp_tanh_zero_params():
    assert np.allclose(attention_projection(np.zeros((2, 3)), np.zeros(2), np.ones(3)), 0.0)


def test_mlp_tanh_identity_matches_calculator():
    out = attention_projection(np.eye(1), np.zeros(1), np.array([0.5]))
    assert out[0] == pytest.approx(0.46211715726000974, abs=1e-12)


def test_mlp_tanh_saturates_inside_unit_interval():
    out = attention_projection(np.eye(2), np.zeros(2), np.array([0.0, 1000.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    assert out[1] < 1.0 or out[1] == pytest.approx(1.0)


# ------------------------------------------------------------------ softmax

def test_softmax_single_score_is_one():
    assert np.array_equal(softmax([12.3]), [1.0])


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_two_scores_match_direct_computation():
    out = softmax([1.0, 2.0])
    assert out[0] == pytest.approx(0.26894, abs=1e-5)
    assert out[1] == pytest.approx(0.73106, abs=1e-5)


def test_softmax_empty_is_domain_error():
    with pytest.raises(DomainError):
        softmax([])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-30, 30))
@settings(max_examples=100, deadline=None)
def test_softmax_normalized_and_shift_invariant(scores, shift):
    out = softmax(scores)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12
    shifted = softmax([s + shift for s in scores])
    assert np.allclose(out, shifted, atol=1e-12)


def test_softmax_handles_large_scores():
    out = softmax([1000.0, 1000.0])
    assert np.allclose(out, [0.5, 0.5])


# ------------------------------------------------------------- cross_entropy

def test_cross_entropy_perfect_prediction():
    assert cross_entropy([1.0, 0.0], 0) == 0.0


def test_cross_entropy_even_split_is_ln2():
    assert cross_entropy([0.5, 0.5], 1) == pytest.approx(0.693147, abs=1e-6)


def test_cross_entropy_point_one():
    assert cross_entropy([0.9, 0.1], 1) == pytest.approx(2.302585, abs=1e-6)


def test_cross_entropy_probability_floor():
    assert cross_entropy([1.0, 0.0], 1) == pytest.approx(-math.log(1e-12))


def test_cross_entropy_bad_index():
    with pytest.raises(DomainError):
        cross_entropy([0.5, 0.5], 2)


# ----------------------------------------------------------------- sgd_step

def test_sgd_step_basic_arithmetic():
    out = sgd_step({"w": np.array([1.0])}, {"w": np.array([2.0])}, lr=0.1, l2=0.0)
    assert out["w"][0] == pytest.approx(0.8)


def test_sgd_step_pure_decay():
    out = sgd_step({"w": np.array([1.0])}, {"w": np.array([0.0])}, lr=0.1, l2=0.5)
    assert out["w"][0] == pytest.approx(0.95)


def test_sgd_step_identity_fixed_point():
    w = {"a": np.array([1.0, -2.0]), "b": np.array([[3.0]])}
    g = {"a": np.zeros(2), "b": np.zeros((1, 1))}
    out = sgd_step(w, g, lr=0.1, l2=0.0)
    for k in w:
        assert np.array_equal(out[k], w[k])


@given(st.floats(0.01, 10.0), st.floats(1e-4, 0.5))
@settings(max_examples=50, deadline=None)
def test_sgd_step_l2_strictly_shrinks_nonzero_weights(w, l2):
    out = sgd_step({"w": np.array([w])}, {"w": np.array([0.0])}, lr=0.1, l2=l2)
    assert 0.0 < out["w"][0] < w


def test_sgd_step_shape_mismatch():
    with pytest.raises(ShapeError, match="w"):
        sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, lr=0.1, l2=0.0)


# ------------------------------------------------------------- dropout_mask

def test_dropout_rate_zero_is_identity():
    assert np.array_equal(dropout_mask(5, 0.0, new_rng(0)), np.ones(5))


def test_dropout_half_rate_zero_fraction():
    mask = dropout_mask(10_000, 0.5, new_rng(42))
    zero_frac = np.mean(mask == 0.0)
    assert 0.48 <= zero_frac <= 0.52
    assert set(np.unique(mask)) <= {0.0, 2.0}


def test_dropout_deterministic_for_same_seed():
    a = dropout_mask(100, 0.3, new_rng(7))
    b = dropout_mask(100, 0.3, new_rng(7))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
def test_dropout_rejects_bad_rate(rate):
    with pytest.raises(DomainError):
        dropout_mask(10, rate, new_rng(0))


# --------------------------------------------------------- finite_diff_grad

def test_finite_diff_quadratic():
    grads = finite_diff_grad(lambda p: float(p["w"][0] ** 2),
                             {"w": np.array([3.0])}, epsilon=1e-5)
    assert grads["w"][0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant_loss():
    grads = finite_diff_grad(lambda p: 1.25, {"w": np.zeros((2, 2))})
    assert np.array_equal(grads["w"], np.zeros((2, 2)))


def test_finite_diff_nonfinite_loss_names_coordinate():
    def loss(p):
        return float("nan") if p["w"][1] != 0.5 else 0.0

    with pytest.raises(NumericError, match=r"w\[1\]"):
        finite_diff_grad(loss, {"w": np.array([0.0, 0.5])})


def test_sigmoid_midpoint():
    assert sigmoid(np.array([0.0]))[0] == 0.5
