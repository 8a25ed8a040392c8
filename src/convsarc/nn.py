"""Numerical core: LSTM cell, softmax cross-entropy, SGD with L2, inverted
dropout, and a central-difference gradient oracle.

Everything runs at float64. Parameters travel as flat ``{name: ndarray}``
dicts so the optimizer and the finite-difference checker stay agnostic of
which architecture produced them. Gate equations follow the standard
formulation: i, f, o sigmoid gates, tanh candidate, no peepholes. The four
gates are stacked in one pre-activation, split in i, f, o, g order:

    a = W x + U h + b                     [a_i, a_f, a_o, a_g] = a
    i, f, o = sigmoid(a_i, a_f, a_o)      g = tanh(a_g)
    c' = f * c + i * g                    h' = o * tanh(c')
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericError, ShapeError

Array = np.ndarray

PROB_FLOOR = 1e-12
INIT_SCALE = 0.05  # uniform(-0.05, 0.05), same range as OOV embeddings
FORGET_BIAS = 1.0


def new_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical seed + call sequence gives identical streams."""
    return np.random.default_rng(seed)


@dataclass
class LSTMCellParams:
    """Weights for one LSTM cell with the four gates stacked in i, f, o, g
    order: W (4*hidden x input), U (4*hidden x hidden), b (4*hidden)."""

    W: Array
    U: Array
    b: Array

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[1]

    def tensors(self) -> dict[str, Array]:
        return {"W": self.W, "U": self.U, "b": self.b}

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int) -> "LSTMCellParams":
        n = 4 * hidden_dim
        return cls(np.zeros((n, input_dim)), np.zeros((n, hidden_dim)), np.zeros(n))

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int,
             rng: np.random.Generator) -> "LSTMCellParams":
        """Uniform(-0.05, 0.05) weights; forget-gate bias starts at 1.0."""
        n = 4 * hidden_dim
        p = cls(*(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
                  for shape in ((n, input_dim), (n, hidden_dim), n)))
        p.b[hidden_dim:2 * hidden_dim] = FORGET_BIAS
        return p


@dataclass
class LSTMState:
    h: Array  # one row per sequence: B x hidden
    c: Array  # B x hidden


@dataclass
class LSTMCache:
    """What lstm_backward needs from a forward pass over a batch of
    sequences. The sequences are sorted by length, longest first, and their
    steps stored as time-major packed rows: step t holds one row for each of
    the n_t sequences still running, with no padding. Its length is the
    total number of steps."""

    x: Array  # packed inputs, steps x input
    gates: Array  # packed activated gates i, f, o, g: steps x 4*hidden
    h0: Array  # each sequence's initial hidden state, sorted
    c: Array  # each sequence's initial cell state (sorted), then the packed steps
    sizes: list[int]  # n_t; step t's previous states are the first n_t rows of step t-1's
    order: Array  # order[j] is the caller's index of the j-th sorted sequence
    perm: Array | None  # packed row r came from the caller's row perm[r]; None: same order
    used: bool = False  # lstm_backward has overwritten gates

    def __len__(self) -> int:
        return self.x.shape[0]


def _sorted_rows(name: str, v, order: Array, dim: int) -> Array:
    """A fresh (B x dim) copy of per-sequence rows in sorted order; v is
    None (zeros) or one row per sequence in the caller's order."""
    if v is None:
        return np.zeros((len(order), dim))
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (len(order), dim):
        raise ShapeError(f"{name} has shape {v.shape}, expected ({len(order)}, {dim})")
    return v[order]


def _pack(lengths: list[int]):
    """Sorted order, step sizes n_t, packed-to-caller row permutation (None
    when they agree), and each sequence's final-state row in the state
    buffers (initial states first, then the packed steps), caller's order."""
    B = len(lengths)
    if B == 1:  # the same layout, without the index arithmetic
        T = lengths[0]
        return np.zeros(1, dtype=np.intp), [1] * T, None, np.array([T])
    lengths = np.array(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    ls = lengths[order]
    T = int(ls[0]) if B else 0
    sizes = np.searchsorted(-ls, -np.arange(T), side="left")  # n_t = #{b: ls[b] > t}
    starts = np.cumsum(sizes) - sizes
    step = np.repeat(np.arange(T), sizes)
    rank = np.arange(step.shape[0]) - starts[step]
    perm = (np.cumsum(lengths) - lengths)[order][rank] + step
    last = np.arange(B)  # a sequence of no steps ends in its initial state
    ran = np.flatnonzero(ls)
    last[ran] += B + starts[ls[ran] - 1]
    final_rows = np.empty(B, dtype=np.intp)
    final_rows[order] = last
    return order, sizes.tolist(), perm, final_rows


def lstm_forward(params: LSTMCellParams, inputs: Array, lengths: Sequence[int],
                 init: LSTMState | None = None) -> tuple[Array, LSTMState, LSTMCache]:
    """Run the cell over a batch of sequences whose input vectors are the
    consecutive rows of the steps x input matrix inputs, lengths[b] rows
    for sequence b.

    Returns (steps x hidden matrix of hidden states in the rows' order,
    final state, cache for lstm_backward). init (zeros when None) and the
    final state hold one row per sequence (B x hidden); a sequence of no
    steps ends in its initial state.
    """
    H = params.hidden_dim
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeError(f"x has shape {X.shape}, expected (steps, {params.input_dim})")
    lengths = [int(n) for n in lengths]
    if min(lengths, default=0) < 0 or sum(lengths) != X.shape[0]:
        raise ShapeError(f"lengths {lengths} do not add up to the {X.shape[0]} input rows")
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
    del X, inputs  # the packed copy replaces the caller's rows
    gates = Xp @ params.W.T  # input projection for every step at once
    gates += params.b
    UT = params.U.T
    # a step of several rows stages its pre-activations as one contiguous
    # 4 x n x hidden block, so each gate is one contiguous operand; their
    # recurrent product takes a C-contiguous copy of U.T, the faster BLAS
    # operand for more than one row. A single row is already contiguous per
    # gate and keeps the transposed view, so a one-sequence pass is unchanged.
    UTc = np.ascontiguousarray(UT) if sizes and sizes[0] > 1 else UT
    p = r = 0  # first row of the previous step's states; first packed row of this step
    for n in sizes:
        a = gates[r:r + n]
        if n == 1:
            a += hs[p:p + 1] @ UT
            blk = a.reshape(4, 1, H)
        else:
            blk = np.add(a.reshape(n, 4, H).transpose(1, 0, 2),
                         (hs[p:p + n] @ UTc).reshape(n, 4, H).transpose(1, 0, 2),
                         out=np.empty((4, n, H)))
        ifo = blk[:3]
        np.negative(ifo, out=ifo)
        np.exp(ifo, out=ifo)
        ifo += 1.0
        np.reciprocal(ifo, out=ifo)
        np.tanh(blk[3], out=blk[3])
        c = cs[B + r:B + r + n]
        np.multiply(blk[1], cs[p:p + n], out=c)
        c += blk[0] * blk[3]
        h = hs[B + r:B + r + n]
        np.tanh(c, out=h)
        h *= blk[2]
        if n > 1:
            a.reshape(n, 4, H)[:] = blk.transpose(1, 0, 2)
        p, r = B + r, r + n
    # hidden states are not cached: lstm_backward recomputes them from c and o
    cache = LSTMCache(Xp, gates, hs[:B].copy(), cs, sizes, order, perm)
    if perm is None:
        out = hs[B:]
    else:
        out = np.empty((N, H))
        out[perm] = hs[B:]
    return out, LSTMState(hs[final_rows], cs[final_rows]), cache


def lstm_backward(params: LSTMCellParams, cache: LSTMCache,
                  dh_steps: Array | None = None,
                  dh_final: Array | None = None,
                  dc_final: Array | None = None,
                  need_dx: bool = True
                  ) -> tuple[dict[str, Array], Array | None, tuple[Array, Array]]:
    """Backprop through time over a cached forward pass; it overwrites the
    cache's gate buffer, so each cache is used once: a second call raises
    DomainError.

    dh_steps (steps x hidden, in the forward inputs' row order) is the
    gradient flowing into each h_t from outside the recurrence (e.g.
    attention over all states); dh_final / dc_final flow into each
    sequence's last h and c (e.g. classifier input, or a downstream encoder
    seeded from this cell's memory), B x hidden like the final state.
    Returns (parameter grads summed over the batch, steps x input gradient
    of the inputs, or None unless need_dx, gradient w.r.t. the initial
    state, B x hidden).
    """
    if cache.used:
        raise DomainError("lstm_backward overwrote this cache's gates already; "
                          "run lstm_forward again")
    H = params.hidden_dim
    B, N = len(cache.order), len(cache)
    if dh_steps is not None and np.shape(dh_steps) != (N, H):
        raise ShapeError(f"dh_steps has shape {np.shape(dh_steps)}, expected ({N}, {H})")
    dh_next = _sorted_rows("dh_final", dh_final, cache.order, H)
    dc_next = _sorted_rows("dc_final", dc_final, cache.order, H)
    cache.used = True  # after every check: a refused call leaves the cache usable
    c, perm, sizes = cache.c, cache.perm, np.array(cache.sizes, dtype=np.intp)
    dA = cache.gates  # activated gates, turned into dA (steps x 4*hidden) in place
    i, f, o, g = (dA[:, k * H:(k + 1) * H] for k in range(4))
    # Everything that does not depend on the recurrence is computed for all
    # rows at once, before the loop. prev[r] is the state row (initial
    # states first, then the packed steps) that packed row r continued from;
    # the rows of step 0 come first and continue from the initial states.
    starts = np.cumsum(sizes) - sizes
    step = np.repeat(np.arange(len(sizes)), sizes)
    prev = np.arange(N) - starts[step]  # each row's rank in its step
    n0 = int(sizes[0]) if N else 0
    prev[n0:] += B + starts[step[n0:] - 1]
    tanh_c = np.tanh(c[B:])
    tmp = tanh_c * o  # each row's h, as the forward pass computed it
    h_prev = np.empty((N, H))  # each row's previous hidden state, for dU
    h_prev[:n0] = cache.h0[:n0]
    np.take(tmp, prev[n0:] - B, axis=0, out=h_prev[n0:])
    k_c = np.square(tanh_c)  # dc = k_c dh + dc_next
    np.subtract(1.0, k_c, out=k_c)
    k_c *= o
    f_keep = f.copy()  # dc_next = dc f
    # each gate pre-activation's derivative over the factor dc (dh for o),
    # written over the gates: i(1-i) g, f(1-f) c_prev, o(1-o) tanh(c), (1-g^2) i;
    # tmp and then tanh_c serve as scratch
    o *= np.subtract(1.0, o, out=tmp)
    o *= tanh_c
    k_g = np.square(g, out=tmp)
    np.subtract(1.0, k_g, out=k_g)
    k_g *= i
    i *= np.subtract(1.0, i, out=tanh_c)
    i *= g
    g[:] = k_g
    f *= np.subtract(1.0, f, out=tanh_c)
    f *= np.take(c, prev, axis=0, out=tanh_c)
    del tanh_c, tmp, k_g  # free the scratch before the loop
    if dh_steps is not None and perm is not None:
        dh_steps = dh_steps[perm]
    for n, r in zip(reversed(cache.sizes), reversed(starts.tolist())):
        a = dA[r:r + n].reshape(n, 4, H)
        dh = dh_next[:n]
        if dh_steps is not None:
            dh = dh + dh_steps[r:r + n]
        dc = k_c[r:r + n] * dh
        dc += dc_next[:n]
        np.multiply(dc, f_keep[r:r + n], out=dc_next[:n])
        a[:, :2] *= dc[:, None]
        a[:, 2] *= dh
        a[:, 3] *= dc
        np.matmul(dA[r:r + n], params.U, out=dh_next[:n])
    del dh_steps
    grads = {"W": dA.T @ cache.x, "U": dA.T @ h_prev, "b": dA.sum(axis=0)}
    del h_prev
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


def softmax(scores) -> Array:
    """Max-subtraction stabilized softmax of a vector, or of each row of a
    matrix; each output sums to 1 within 1e-12."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ShapeError(f"scores must be a vector or a matrix, got shape {scores.shape}")
    if scores.shape[-1] == 0:
        raise DomainError("softmax of an empty score vector")
    if not np.all(np.isfinite(scores)):
        raise NumericError("softmax scores contain non-finite entries")
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs, labels) -> Array:
    """-ln(probs[b, labels[b]]) for each row b of the B x classes matrix
    probs, with a 1e-12 probability floor: B losses."""
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    if probs.ndim != 2 or labels.shape != probs.shape[:1]:
        raise ShapeError(f"probs of shape {probs.shape} need one label each, got {labels.shape}")
    if not ((0 <= labels) & (labels < probs.shape[1])).all():
        raise DomainError(f"labels {labels.tolist()} out of range for {probs.shape[1]} classes")
    return -np.log(np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR))


def sgd_step(params: dict[str, Array], grads: dict[str, Array],
             lr: float, l2: float) -> dict[str, Array]:
    """w <- w - lr * (g + l2 * w) for every tensor; returns new arrays."""
    if lr <= 0:
        raise DomainError(f"lr must be positive, got {lr}")
    if l2 < 0:
        raise DomainError(f"l2 must be nonnegative, got {l2}")
    out: dict[str, Array] = {}
    for name, w in params.items():
        if name not in grads:
            raise ShapeError(f"missing gradient for tensor {name}")
        g = grads[name]
        if np.shape(g) != np.shape(w):
            raise ShapeError(
                f"gradient for {name} has shape {np.shape(g)}, expected {np.shape(w)}")
        out[name] = w - lr * (g + l2 * w)
    return out


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> Array:
    """Inverted-dropout mask of the given shape (a length, or a tuple): 0
    with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def finite_diff_grad(loss_fn: Callable[[dict[str, Array]], float],
                     params: dict[str, Array],
                     epsilon: float = 1e-5) -> dict[str, Array]:
    """Central differences (L(w+e) - L(w-e)) / 2e per scalar parameter.

    loss_fn must be deterministic (dropout off). This is the oracle the
    analytic gradients are checked against; it never shares code with them.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    work = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
    grads = {k: np.zeros_like(v) for k, v in work.items()}
    for name, tensor in work.items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + epsilon
            up = loss_fn(work)
            tensor[idx] = orig - epsilon
            down = loss_fn(work)
            tensor[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss at {name}{list(idx)}")
            grads[name][idx] = (up - down) / (2.0 * epsilon)
    return grads


def max_relative_error(analytic: dict[str, Array],
                       numeric: dict[str, Array]) -> dict[str, float]:
    """Per-tensor max of |a - n| / max(|a|, |n|, 1e-6).

    The 1e-6 floor keeps central-difference noise (~1e-11 absolute at
    eps=1e-5) from swamping the ratio where the true gradient is near zero.
    """
    out: dict[str, float] = {}
    for name in analytic:
        a = np.asarray(analytic[name], dtype=np.float64)
        n = np.asarray(numeric[name], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        out[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return out
