import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from convsarc.errors import DomainError, NumericError, ShapeError
from convsarc.models import AttentionParams, _project, init_params
from convsarc.nn import (BACKWARD_BLOCK_ROWS, LSTMCache, LSTMCellParams, LSTMState, _pack,
                         _sorted_rows, cross_entropy, dropout_mask,
                         finite_diff_grad, lstm_backward, lstm_forward,
                         new_rng, sgd_step, softmax)
from pass_memory import traced_peak


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def zero_cell(input_dim, hidden_dim):
    return init_params("reply_only", input_dim, hidden_dim).cell("r")


def seeded_cell(input_dim, hidden_dim, rng):
    """A cell as init_params draws it: the reply cell is its first block."""
    return init_params("reply_only", input_dim, hidden_dim, rng=rng).cell("r")


def rand_cell(input_dim, hidden_dim, seed=0, scale=0.5):
    rng = new_rng(seed)
    t = zero_cell(input_dim, hidden_dim)._asdict()
    return LSTMCellParams(*(rng.uniform(-scale, scale, v.shape) for v in t.values()))


def one_step(p, x, prev):
    """A single step of the cell as a one-step lstm_forward; prev and the
    result hold 1 x hidden rows."""
    return lstm_forward(p, x[None], [1], prev)[1]


def zero_state(hidden_dim):
    return LSTMState(np.zeros((1, hidden_dim)), np.zeros((1, hidden_dim)))


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
    p = zero_cell(3, 2)
    out = one_step(p, np.zeros(3), zero_state(2))
    # sigmoid(0)=0.5 and tanh(0)=0 force both outputs to zero
    assert np.allclose(out.h, 0.0)
    assert np.allclose(out.c, 0.0)


def test_lstm_step_saturated_forget_gate_wipes_memory():
    p = zero_cell(1, 1)
    p.b[:] = [100.0, -100.0, 100.0, 0.0]  # i, f, o, g
    out = one_step(p, np.zeros(1), LSTMState(np.zeros((1, 1)), np.array([[5.0]])))
    assert abs(out.c[0, 0]) < 1e-12
    assert abs(out.h[0, 0]) < 1e-12


def test_lstm_step_matches_independent_gate_equations():
    p = rand_cell(3, 2, seed=0)
    rng = new_rng(1)
    x = rng.uniform(-1, 1, 3)
    h_prev = rng.uniform(-1, 1, 2)
    c_prev = rng.uniform(-1, 1, 2)
    h_expect, c_expect = reference_step(p, x, h_prev, c_prev)

    out = one_step(p, x, LSTMState(h_prev[None], c_prev[None]))
    assert np.allclose(out.c, c_expect, atol=1e-12, rtol=0)
    assert np.allclose(out.h, h_expect, atol=1e-12, rtol=0)


def test_lstm_step_shape_error_names_tensor():
    p = zero_cell(3, 2)
    with pytest.raises(ShapeError, match="x"):
        one_step(p, np.zeros(4), zero_state(2))
    with pytest.raises(ShapeError, match="init.h"):
        one_step(p, np.zeros(3), LSTMState(np.zeros((1, 5)), np.zeros((1, 2))))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_lstm_step_hidden_state_strictly_bounded(seed):
    rng = new_rng(seed)
    p = rand_cell(4, 3, seed=seed, scale=2.0)
    out = one_step(p, rng.uniform(-5, 5, 4),
                   LSTMState(rng.uniform(-1, 1, (1, 3)), rng.uniform(-3, 3, (1, 3))))
    assert np.all(np.abs(out.h) < 1.0)
    assert np.all(np.isfinite(out.c))


def test_lstm_init_matches_per_gate_draws():
    # stacking the gates must not change the seeded initial weights: the
    # stacked draws equal twelve per-gate draws in i, f, o, g order
    p = seeded_cell(3, 2, new_rng(4))
    rng = new_rng(4)
    for name, shape in (("W", (2, 3)), ("U", (2, 2)), ("b", (2,))):
        per_gate = [rng.uniform(-0.05, 0.05, shape) for _ in range(4)]
        if name == "b":
            per_gate[1] = np.ones(2)
        assert np.array_equal(p._asdict()[name], np.concatenate(per_gate)), name


# ------------------------------------------------------------- lstm_forward

def test_lstm_run_empty_sequence_returns_init():
    p = rand_cell(3, 2)
    init = LSTMState(np.array([[0.1, -0.2]]), np.array([[0.3, 0.4]]))
    hs, final, cache = lstm_forward(p, np.zeros((0, 3)), [0], init)
    assert hs.shape == (0, 2)
    # the final state is a copy of the initial row, equal in value
    assert np.array_equal(final.h, init.h) and np.array_equal(final.c, init.c)
    assert len(cache) == 0


def test_lstm_run_single_input_equals_step():
    p = rand_cell(3, 2)
    x = new_rng(2).uniform(-1, 1, 3)
    hs, final, _ = lstm_forward(p, x[None], [1])
    h_ref, c_ref = reference_step(p, x, np.zeros(2), np.zeros(2))
    assert len(hs) == 1
    assert np.array_equal(hs[0], final.h[0])
    assert np.allclose(hs[0], h_ref, atol=1e-12, rtol=0)
    assert np.allclose(final.c, c_ref, atol=1e-12, rtol=0)


def test_lstm_run_zero_params_all_zero_states():
    p = zero_cell(3, 2)
    hs, final, _ = lstm_forward(p, np.ones((3, 3)), [3])
    assert all(np.allclose(h, 0.0) for h in hs)
    assert np.allclose(final.h, 0.0)


def test_lstm_run_reports_bad_step_index():
    # the steps are the rows of one matrix, so a step of the wrong width is
    # a matrix of the wrong width
    p = zero_cell(3, 2)
    with pytest.raises(ShapeError, match=r"x has shape \(2, 4\), expected \(steps, 3\)"):
        lstm_forward(p, np.zeros((2, 4)), [2])


def test_lstm_forward_matches_stepwise_reference():
    p = rand_cell(4, 3, seed=5)
    rng = new_rng(6)
    xs = rng.uniform(-1, 1, (5, 4))
    init = LSTMState(rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, (1, 3)))
    hs, final, cache = lstm_forward(p, xs, [5], init)
    h, c = init.h[0], init.c[0]
    for t, x in enumerate(xs):
        h, c = reference_step(p, x, h, c)
        assert np.allclose(hs[t], h, atol=1e-12, rtol=0)
    assert np.allclose(final.c, c, atol=1e-12, rtol=0)
    assert len(cache) == 5


def test_lstm_backward_matches_finite_differences():
    p = rand_cell(3, 2, seed=7)
    rng = new_rng(8)
    xs = rng.uniform(-1, 1, (4, 3))
    c0 = rng.uniform(-1, 1, (1, 2))
    w_steps = rng.uniform(-1, 1, (4, 2))  # loss weights on every hidden state
    w_h, w_c = rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2))

    def loss(t):
        cell = LSTMCellParams(t["W"], t["U"], t["b"])
        hs, final, _ = lstm_forward(cell, t["x"], [4], LSTMState(np.zeros((1, 2)), t["c0"]))
        return float(np.sum(w_steps * hs) + np.sum(w_h * final.h) + np.sum(w_c * final.c))

    _, _, cache = lstm_forward(p, xs, [4], LSTMState(np.zeros((1, 2)), c0))
    grads, dx, (_, dc0) = lstm_backward(p, cache, dh_steps=w_steps,
                                        dh_final=w_h, dc_final=w_c)
    numeric = finite_diff_grad(loss, {**p._asdict(), "x": xs, "c0": c0})
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
    hs, final, cache = lstm_forward(p, xs, lengths, init)
    assert len(cache) == N
    grads, dx, (dh0, dc0) = lstm_backward(p, cache, dh_steps, dh_final, dc_final)
    total = {k: np.zeros_like(v) for k, v in grads.items()}
    start = 0
    for b, n in enumerate(lengths):
        rows = slice(start, start + n)
        start += n
        one = slice(b, b + 1)
        hs_b, final_b, cache_b = lstm_forward(p, xs[rows], [n],
                                              LSTMState(init.h[one], init.c[one]))
        g_b, dx_b, (dh0_b, dc0_b) = lstm_backward(p, cache_b, dh_steps[rows],
                                                  dh_final[one], dc_final[one])
        for got, want in ((hs[rows], hs_b), (final.h[one], final_b.h), (final.c[one], final_b.c),
                          (dx[rows], dx_b), (dh0[one], dh0_b), (dc0[one], dc0_b)):
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
    full = lstm_backward(p, lstm_forward(p, xs, lengths)[2], dh_final=dh_final)
    grads, dx, (dh0, dc0) = lstm_backward(p, lstm_forward(p, xs, lengths)[2],
                                          dh_final=dh_final, need_dx=False)
    assert dx is None and full[1].shape == xs.shape
    for k, v in full[0].items():
        assert np.array_equal(grads[k], v), k
    assert np.array_equal(dh0, full[2][0]) and np.array_equal(dc0, full[2][1])


def test_lstm_forward_rejects_lengths_that_do_not_cover_the_inputs():
    p = zero_cell(3, 2)
    with pytest.raises(ShapeError, match="lengths"):
        lstm_forward(p, np.zeros((4, 3)), [2, 1])
    with pytest.raises(ShapeError, match="lengths"):
        lstm_forward(p, np.zeros((1, 3)), [2, -1])


def test_lstm_backward_refuses_a_used_cache():
    # the first call overwrites the cache's gates; a second one would return
    # wrong gradients, so it raises instead
    p = rand_cell(3, 2, seed=13)
    xs = new_rng(14).uniform(-1, 1, (5, 3))
    _, _, cache = lstm_forward(p, xs, [2, 3])
    lstm_backward(p, cache, dh_final=np.ones((2, 2)))
    assert len(cache) == 5
    with pytest.raises(DomainError, match="cache"):
        lstm_backward(p, cache, dh_final=np.ones((2, 2)))


@pytest.mark.parametrize("shape", [(1, 2), (6, 4), (9, 2)])
def test_lstm_backward_rejects_dh_steps_of_the_wrong_shape(shape):
    # a 3-sequence pass of 6 steps at hidden 2 takes a 6 x 2 dh_steps
    p = rand_cell(3, 2, seed=16)
    _, _, cache = lstm_forward(p, new_rng(17).uniform(-1, 1, (6, 3)), [1, 2, 3])
    with pytest.raises(ShapeError, match=re.escape(
            f"dh_steps has shape {shape}, expected (6, 2)")):
        lstm_backward(p, cache, dh_steps=np.ones(shape))
    lstm_backward(p, cache, dh_steps=np.ones((6, 2)))  # the refusal left the cache unused


@pytest.mark.parametrize("need_dx", [False, True])
def test_lstm_backward_holds_two_hidden_rows_per_step_and_one_block(need_dx):
    # besides the cache and what it returns: the forget gates and previous
    # hidden states (steps x hidden each), one index per step, the scratch
    # of one block, a few B x hidden rows of state gradients, and numpy's
    # buffers for the strided gate columns, np.getbufsize() floats each
    D = H = 50
    lengths = [60 + 7 * k for k in range(16)]  # unsorted, several blocks of steps
    B, N = len(lengths), sum(lengths)
    assert N > 3 * BACKWARD_BLOCK_ROWS
    p = seeded_cell(D, H, new_rng(18))
    rng = new_rng(19)
    xs, dh_steps = rng.uniform(-1, 1, (N, D)), rng.uniform(-1, 1, (N, H))
    dh_final, dc_final = rng.uniform(-1, 1, (B, H)), rng.uniform(-1, 1, (B, H))
    _, _, cache = lstm_forward(p, xs, lengths)
    (grads, dx, state), peak = traced_peak(lstm_backward, p, cache, dh_steps, dh_final,
                                           dc_final, need_dx)
    returned = sum(a.nbytes for a in [*grads.values(), *state, *([dx] if need_dx else [])])
    scratch = 8 * (N * (2 * H + 1) + 2 * BACKWARD_BLOCK_ROWS * H + 4 * B * H
                   + 3 * np.getbufsize())
    assert peak <= returned + scratch + 16 * 1024, (peak - returned) / (8 * N)


# ------------------------------------ lstm_forward/lstm_backward vs reference
#
# ref_lstm_forward and ref_lstm_backward are the row-layout step loops the
# optimised functions replaced: the forward works on the packed rows' column
# slices with the transposed U, and the backward computes every gate factor,
# tanh(c) and previous hidden state inside the time loop. The optimised
# functions do the same multiplications in the same order, so:
#   * a one-sequence pass gives the same bits (its steps are single rows);
#   * lstm_backward on a reference cache gives the same bits;
#   * a batched forward may differ in the last digit, because a step of
#     several rows multiplies by a contiguous copy of U.T, which takes
#     another BLAS kernel.

def ref_lstm_forward(params, inputs, lengths, init=None):
    H = params.hidden_dim
    X = np.asarray(inputs, dtype=np.float64)
    lengths = [int(n) for n in lengths]
    B, N = len(lengths), X.shape[0]
    order, sizes, perm, final_rows = _pack(lengths)
    hs = np.empty((B + N, H))
    cs = np.empty((B + N, H))
    if init is None:
        hs[:B] = cs[:B] = 0.0
    else:
        hs[:B] = _sorted_rows("init.h", init.h, order, H)
        cs[:B] = _sorted_rows("init.c", init.c, order, H)
    Xp = X if perm is None else X[perm]
    gates = Xp @ params.W.T
    gates += params.b
    UT = params.U.T
    p = r = 0
    for n in sizes:
        a = gates[r:r + n]
        a += hs[p:p + n] @ UT
        ifo = a[:, :3 * H]
        np.negative(ifo, out=ifo)
        np.exp(ifo, out=ifo)
        ifo += 1.0
        np.reciprocal(ifo, out=ifo)
        g = a[:, 3 * H:]
        np.tanh(g, out=g)
        c = cs[B + r:B + r + n]
        np.multiply(a[:, H:2 * H], cs[p:p + n], out=c)
        c += a[:, :H] * g
        h = hs[B + r:B + r + n]
        np.tanh(c, out=h)
        h *= a[:, 2 * H:3 * H]
        p, r = B + r, r + n
    cache = LSTMCache(Xp, gates, hs[:B].copy(), cs, sizes, order, perm)
    if perm is None:
        out = hs[B:]
    else:
        out = np.empty((N, H))
        out[perm] = hs[B:]
    return out, LSTMState(hs[final_rows], cs[final_rows]), cache


def ref_lstm_backward(params, cache, dh_steps=None, dh_final=None, dc_final=None,
                      need_dx=True):
    H = params.hidden_dim
    B = len(cache.order)
    c, perm, sizes = cache.c, cache.perm, cache.sizes
    dA = cache.gates
    h_prev = np.empty((len(cache), H))
    dh_next = _sorted_rows("dh_final", dh_final, cache.order, H)
    dc_next = _sorted_rows("dc_final", dc_final, cache.order, H)
    starts = (np.cumsum(sizes) - sizes).tolist()
    if sizes:
        tanh_c = np.tanh(c[B + starts[-1]:])
    for t in range(len(sizes) - 1, -1, -1):
        n, r = sizes[t], starts[t]
        p = B + starts[t - 1] if t else 0
        a = dA[r:r + n]
        i, f, o, g = (a[:, k * H:(k + 1) * H] for k in range(4))
        dh = dh_next[:n]
        if dh_steps is not None:
            dh = dh + (dh_steps[r:r + n] if perm is None else dh_steps[perm[r:r + n]])
        dc = np.square(tanh_c)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        dc += dc_next[:n]
        np.multiply(dc, f, out=dc_next[:n])
        da_g = np.square(g)
        np.subtract(1.0, da_g, out=da_g)
        da_g *= i
        ifo = a[:, :3 * H]
        ifo *= 1.0 - ifo
        i *= g
        f *= c[p:p + n]
        o *= tanh_c
        o *= dh
        a.reshape(n, 4, H)[:, :2] *= dc[:, None]
        np.multiply(da_g, dc, out=g)
        if t:
            tanh_c = np.tanh(c[p:p + sizes[t - 1]])
            np.multiply(tanh_c[:n], dA[p - B:p - B + n, 2 * H:3 * H], out=h_prev[r:r + n])
        else:
            h_prev[:n] = cache.h0[:n]
        np.matmul(a, params.U, out=dh_next[:n])
    grads = {"W": dA.T @ cache.x, "U": dA.T @ h_prev, "b": dA.sum(axis=0)}
    dX = None
    if need_dx:
        dX = dA @ params.W
        if perm is not None:
            packed, dX = dX, np.empty_like(dX)
            dX[perm] = packed
    dh0 = np.empty_like(dh_next)
    dc0 = np.empty_like(dc_next)
    dh0[cache.order] = dh_next
    dc0[cache.order] = dc_next
    return grads, dX, (dh0, dc0)


@st.composite
def lstm_cases(draw, max_batch=8):
    """A cell as init_params draws it, a batch of sequences and the
    gradients flowing into it; each optional input is sometimes absent."""
    D, H = draw(st.integers(1, 130)), draw(st.integers(1, 130))
    lengths = draw(st.lists(st.integers(0, 39), min_size=1, max_size=max_batch))
    rng = new_rng(draw(st.integers(0, 2**32 - 1)))
    B, N = len(lengths), sum(lengths)
    maybe = st.booleans()
    return dict(
        params=seeded_cell(D, H, rng), lengths=lengths,
        inputs=rng.uniform(-1, 1, (N, D)),
        init=LSTMState(rng.uniform(-1, 1, (B, H)), rng.uniform(-1, 1, (B, H)))
        if draw(maybe) else None,
        dh_steps=rng.uniform(-1, 1, (N, H)) if draw(maybe) else None,
        dh_final=rng.uniform(-1, 1, (B, H)) if draw(maybe) else None,
        dc_final=rng.uniform(-1, 1, (B, H)) if draw(maybe) else None,
        need_dx=draw(maybe))


def run_both(case, forward, backward):
    """(hidden states, final h, final c, grads W, U, b, dx, dh0, dc0) of one
    forward and backward pass over the case."""
    p = case["params"]
    hs, final, cache = forward(p, case["inputs"], case["lengths"], case["init"])
    grads, dx, (dh0, dc0) = backward(p, cache, case["dh_steps"], case["dh_final"],
                                     case["dc_final"], case["need_dx"])
    return [hs, final.h, final.c, grads["W"], grads["U"], grads["b"], dx, dh0, dc0]


def assert_same_bits(got, want):
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), k
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b), k


@given(lstm_cases(max_batch=1))
@settings(max_examples=40, deadline=None)
def test_lstm_single_sequence_pass_is_bit_identical_to_reference(case):
    assert_same_bits(run_both(case, lstm_forward, lstm_backward),
                     run_both(case, ref_lstm_forward, ref_lstm_backward))


@given(lstm_cases())
@settings(max_examples=40, deadline=None)
def test_lstm_backward_on_a_reference_cache_is_bit_identical(case):
    assert_same_bits(run_both(case, ref_lstm_forward, lstm_backward),
                     run_both(case, ref_lstm_forward, ref_lstm_backward))


def assert_close(got, want, rel=1e-12):
    """Each array within rel of the reference's largest magnitude."""
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), k
        if a is not None and a.size:
            assert a.shape == b.shape, k
            assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b)), k


@given(lstm_cases())
@settings(max_examples=40, deadline=None)
def test_lstm_batched_pass_agrees_with_reference(case):
    assert_close(run_both(case, lstm_forward, lstm_backward),
                 run_both(case, ref_lstm_forward, ref_lstm_backward))


@pytest.mark.parametrize("lengths", [[0, 0, 0], [0, 3, 0, 1, 0], [1, 1, 1], [1], [4, 0]])
def test_lstm_edge_batches_match_reference(lengths):
    # every sequence empty, empty ones among non-empty ones, and T = 1
    p = seeded_cell(5, 4, new_rng(15))
    rng = new_rng(16)
    B, N = len(lengths), sum(lengths)
    case = dict(params=p, lengths=lengths, inputs=rng.uniform(-1, 1, (N, 5)),
                init=LSTMState(rng.uniform(-1, 1, (B, 4)), rng.uniform(-1, 1, (B, 4))),
                dh_steps=rng.uniform(-1, 1, (N, 4)), dh_final=rng.uniform(-1, 1, (B, 4)),
                dc_final=rng.uniform(-1, 1, (B, 4)), need_dx=True)
    got = run_both(case, lstm_forward, lstm_backward)
    assert_close(got, run_both(case, ref_lstm_forward, ref_lstm_backward))
    hs, fh, fc, gW, gU, gb, dx, dh0, dc0 = got
    assert hs.shape == (N, 4) and dx.shape == (N, 5)
    empty = [b for b, n in enumerate(lengths) if n == 0]
    # an empty sequence ends in its initial state, and its final-state
    # gradients pass straight back to that state
    assert np.array_equal(fh[empty], case["init"].h[empty])
    assert np.array_equal(fc[empty], case["init"].c[empty])
    assert np.array_equal(dh0[empty], case["dh_final"][empty])
    assert np.array_equal(dc0[empty], case["dc_final"][empty])
    if N == 0:
        assert not (gW.any() or gU.any() or gb.any())


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
    assert cross_entropy([[1.0, 0.0]], [0])[0] == 0.0


def test_cross_entropy_even_split_is_ln2():
    assert cross_entropy([[0.5, 0.5]], [1])[0] == pytest.approx(0.693147, abs=1e-6)


def test_cross_entropy_point_one():
    assert cross_entropy([[0.9, 0.1]], [1])[0] == pytest.approx(2.302585, abs=1e-6)


def test_cross_entropy_probability_floor():
    assert cross_entropy([[1.0, 0.0]], [1])[0] == pytest.approx(-math.log(1e-12))


def test_cross_entropy_bad_index():
    with pytest.raises(DomainError):
        cross_entropy([[0.5, 0.5]], [2])


def test_cross_entropy_gives_one_floored_loss_per_row():
    rng = new_rng(3)
    probs = rng.dirichlet([1.0, 1.0, 1.0], 50)
    labels = rng.integers(0, 3, 50)
    probs[0], labels[0] = [1.0, 0.0, 0.0], 1
    want = [-math.log(max(p[y], 1e-12)) for p, y in zip(probs, labels)]
    assert np.allclose(cross_entropy(probs, labels), want, rtol=1e-15, atol=0)


def test_cross_entropy_needs_one_label_per_row():
    with pytest.raises(ShapeError):
        cross_entropy([0.5, 0.5], [1])
    with pytest.raises(ShapeError):
        cross_entropy([[0.5, 0.5]], [0, 1])


# ----------------------------------------------------------------- sgd_step

def test_sgd_step_basic_arithmetic():
    out = {"w": np.array([1.0])}
    sgd_step(out, {"w": np.array([2.0])}, lr=0.1, l2=0.0)
    assert out["w"][0] == pytest.approx(0.8)


def test_sgd_step_pure_decay():
    out = {"w": np.array([1.0])}
    sgd_step(out, {"w": np.array([0.0])}, lr=0.1, l2=0.5)
    assert out["w"][0] == pytest.approx(0.95)


def test_sgd_step_identity_fixed_point():
    w = {"a": np.array([1.0, -2.0]), "b": np.array([[3.0]])}
    g = {"a": np.zeros(2), "b": np.zeros((1, 1))}
    out = {k: v.copy() for k, v in w.items()}
    sgd_step(out, g, lr=0.1, l2=0.0)
    for k in w:
        assert np.array_equal(out[k], w[k])


@given(st.floats(0.01, 10.0), st.floats(1e-4, 0.5))
@settings(max_examples=50, deadline=None)
def test_sgd_step_l2_strictly_shrinks_nonzero_weights(w, l2):
    out = {"w": np.array([w])}
    sgd_step(out, {"w": np.array([0.0])}, lr=0.1, l2=l2)
    assert 0.0 < out["w"][0] < w


def test_sgd_step_shape_mismatch():
    with pytest.raises(ShapeError, match="w"):
        sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, lr=0.1, l2=0.0)


def test_sgd_step_updates_in_place_to_the_bits_of_the_expression():
    rng = new_rng(3)
    shapes = {"W": (8, 5), "b": (8,), "u": (3,), "one": (1, 1)}
    w = {k: rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
         for k, shape in shapes.items()}
    w["b"][:2] = [0.0, -0.0]
    g = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
    g["b"][1] = -0.0
    expected = {k: w[k] - 0.05 * (g[k] + 1e-4 * w[k]) for k in w}
    grads = {k: v.copy() for k, v in g.items()}
    arrays = dict(w)
    sgd_step(w, grads, lr=0.05, l2=1e-4)
    for k in w:
        assert w[k] is arrays[k]
        assert w[k].tobytes() == expected[k].tobytes(), k
        assert grads[k].tobytes() == g[k].tobytes(), k  # the grads are left as they were


def test_a_refused_sgd_step_changes_no_tensor():
    w = {"a": np.ones(2), "z": np.ones(3)}
    with pytest.raises(ShapeError, match="z"):
        sgd_step(w, {"a": np.ones(2), "z": np.ones(4)}, lr=0.1, l2=0.0)
    assert w["a"].tolist() == [1.0, 1.0]


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
