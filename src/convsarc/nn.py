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


def sigmoid(x: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-x))


def _as_vector(name: str, v, dim: int | None = None) -> Array:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeError(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


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
    def from_tensors(cls, t: dict[str, Array]) -> "LSTMCellParams":
        return cls(*(np.asarray(t[k], dtype=np.float64) for k in ("W", "U", "b")))

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
    h: Array
    c: Array

    @classmethod
    def zeros(cls, hidden_dim: int) -> "LSTMState":
        return cls(np.zeros(hidden_dim), np.zeros(hidden_dim))


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
    single: bool  # the caller passed one sequence without lengths

    def __len__(self) -> int:
        return self.x.shape[0]


def _stack_steps(inputs, dim: int) -> Array:
    if isinstance(inputs, np.ndarray) and inputs.ndim == 2 and inputs.shape[1] == dim:
        return np.asarray(inputs, dtype=np.float64)
    X = np.empty((len(inputs), dim))
    for t, x in enumerate(inputs):
        try:
            X[t] = _as_vector("x", x, dim)
        except ShapeError as e:
            raise ShapeError(f"step {t}: {e}") from None
    return X


def _sorted_rows(name: str, v, order: Array, dim: int) -> Array:
    """A fresh (B x dim) copy of per-sequence rows in sorted order; v is
    None (zeros), one vector for every sequence, or one row per sequence in
    the caller's order."""
    if v is None:
        return np.zeros((len(order), dim))
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        return np.tile(_as_vector(name, v, dim), (len(order), 1))
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


def lstm_forward(params: LSTMCellParams, inputs: Sequence,
                 init: LSTMState | None = None, lengths: Sequence[int] | None = None
                 ) -> tuple[Array, LSTMState, LSTMCache]:
    """Run the cell over a batch of sequences whose input vectors are the
    consecutive rows of inputs (a sequence of vectors or a steps x input
    matrix), lengths[b] rows for sequence b. Without lengths, inputs is one
    sequence.

    Returns (steps x hidden matrix of hidden states in the rows' order,
    final state, cache for lstm_backward). init and the final state hold
    one row per sequence (B x hidden); a vector init is every sequence's.
    Without lengths they are vectors, and an empty sequence returns init
    untouched as the final state.
    """
    H = params.hidden_dim
    X = _stack_steps(inputs, params.input_dim)
    single = lengths is None
    lengths = [X.shape[0]] if single else [int(n) for n in lengths]
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
    p = r = 0  # first row of the previous step's states; first packed row of this step
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
    # hidden states are not cached: lstm_backward recomputes them from c and o
    cache = LSTMCache(Xp, gates, hs[:B].copy(), cs, sizes, order, perm, single)
    if perm is None:
        out = hs[B:]
    else:
        out = np.empty((N, H))
        out[perm] = hs[B:]
    if single:
        final = LSTMState(hs[final_rows[0]], cs[final_rows[0]])
        if not N and init is not None:
            final = init
    else:
        final = LSTMState(hs[final_rows], cs[final_rows])
    return out, final, cache


def lstm_backward(params: LSTMCellParams, cache: LSTMCache,
                  dh_steps: Array | None = None,
                  dh_final: Array | None = None,
                  dc_final: Array | None = None,
                  need_dx: bool = True
                  ) -> tuple[dict[str, Array], Array | None, tuple[Array, Array]]:
    """Backprop through time over a cached forward pass; it overwrites the
    cache's gate buffer, so each cache is used once.

    dh_steps (steps x hidden, in the forward inputs' row order) is the
    gradient flowing into each h_t from outside the recurrence (e.g.
    attention over all states); dh_final / dc_final flow into each
    sequence's last h and c (e.g. classifier input, or a downstream encoder
    seeded from this cell's memory), shaped like the final state. Returns
    (parameter grads summed over the batch, steps x input gradient of the
    inputs, or None unless need_dx, gradient w.r.t. the initial state shaped
    like the final state).
    """
    H = params.hidden_dim
    B = len(cache.order)
    c, perm, sizes = cache.c, cache.perm, cache.sizes
    dA = cache.gates  # activated gates, turned into dA (steps x 4*hidden) in place
    h_prev = np.empty((len(cache), H))  # each row's previous hidden state, for dU
    dh_next = _sorted_rows("dh_final", dh_final, cache.order, H)
    dc_next = _sorted_rows("dc_final", dc_final, cache.order, H)
    starts = (np.cumsum(sizes) - sizes).tolist()
    if sizes:
        tanh_c = np.tanh(c[B + starts[-1]:])  # of the last step; then carried back
    for t in range(len(sizes) - 1, -1, -1):
        n, r = sizes[t], starts[t]
        p = B + starts[t - 1] if t else 0  # the previous step's rows of c
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
        # each gate pre-activation's derivative times the factor it multiplies,
        # written over the gates: da_i = dc g i (1-i), da_f = dc c_prev f (1-f),
        # da_o = dh tanh(c) o (1-o), da_g = dc i (1-g^2)
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
        # o * tanh(c) of the previous step, as the forward pass computed it
        if t:
            tanh_c = np.tanh(c[p:p + sizes[t - 1]])
            np.multiply(tanh_c[:n], dA[p - B:p - B + n, 2 * H:3 * H], out=h_prev[r:r + n])
        else:
            h_prev[:n] = cache.h0[:n]
        np.matmul(a, params.U, out=dh_next[:n])
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
    if cache.single:
        dh0, dc0 = dh0[0], dc0[0]
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


def cross_entropy(predicted, true_class: int) -> float:
    """-ln(predicted[true_class]) with a 1e-12 probability floor."""
    predicted = _as_vector("predicted", predicted)
    if not 0 <= true_class < predicted.shape[0]:
        raise DomainError(
            f"true_class {true_class} out of range for {predicted.shape[0]} classes")
    return float(-np.log(max(float(predicted[true_class]), PROB_FLOOR)))


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
