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
    """What lstm_backward needs from a forward pass over T steps. Row t of h
    and c is the state before step t; its length is T."""

    x: Array  # T x input
    h: Array  # (T+1) x hidden
    c: Array  # (T+1) x hidden
    gates: Array  # T x 4*hidden, activated i, f, o, g
    tanh_c: Array  # T x hidden

    def __len__(self) -> int:
        return self.x.shape[0]


def _stack_steps(inputs: Sequence, dim: int) -> Array:
    X = np.empty((len(inputs), dim))
    for t, x in enumerate(inputs):
        try:
            X[t] = _as_vector("x", x, dim)
        except ShapeError as e:
            raise ShapeError(f"step {t}: {e}") from None
    return X


def lstm_forward(params: LSTMCellParams, inputs: Sequence,
                 init: LSTMState | None = None
                 ) -> tuple[Array, LSTMState, LSTMCache]:
    """Run the cell over a sequence of input vectors (or a T x input matrix).

    Returns (T x hidden matrix of hidden states, final state, cache for
    lstm_backward). An empty sequence returns init untouched as the final
    state.
    """
    H = params.hidden_dim
    X = _stack_steps(inputs, params.input_dim)
    if init is None:
        init = LSTMState.zeros(H)
    T = X.shape[0]
    hs = np.empty((T + 1, H))
    cs = np.empty((T + 1, H))
    tanh_c = np.empty((T, H))
    hs[0] = _as_vector("init.h", init.h, H)
    cs[0] = _as_vector("init.c", init.c, H)
    gates = X @ params.W.T + params.b  # input projection for every step at once
    for t in range(T):
        a = gates[t]
        a += params.U @ hs[t]
        a[:3 * H] = sigmoid(a[:3 * H])
        a[3 * H:] = np.tanh(a[3 * H:])
        i, f, o, g = a[:H], a[H:2 * H], a[2 * H:3 * H], a[3 * H:]
        cs[t + 1] = f * cs[t] + i * g
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = o * tanh_c[t]
    final = LSTMState(hs[T], cs[T]) if T else init
    return hs[1:], final, LSTMCache(X, hs, cs, gates, tanh_c)


def lstm_backward(params: LSTMCellParams, cache: LSTMCache,
                  dh_steps: Array | None = None,
                  dh_final: Array | None = None,
                  dc_final: Array | None = None
                  ) -> tuple[dict[str, Array], Array, tuple[Array, Array]]:
    """Backprop through time over a cached forward pass.

    dh_steps (T x hidden) is the gradient flowing into each h_t from outside
    the recurrence (e.g. attention over all states); dh_final / dc_final
    flow into the last step's h and c (e.g. classifier input, or a
    downstream encoder seeded from this cell's memory). Returns (parameter
    grads, T x input gradient of the inputs, gradient w.r.t. the initial
    state).
    """
    H = params.hidden_dim
    T = len(cache)
    i, f, o, g = np.split(cache.gates, 4, axis=1)
    tanh_c = cache.tanh_c
    # each gate pre-activation's derivative times the factor it multiplies:
    # da_i = dc * g i (1-i), da_f = dc * c_prev f (1-f), da_o = dh * tanh(c) o (1-o),
    # da_g = dc * i (1-g^2)
    local = np.hstack([g * i * (1.0 - i), cache.c[:-1] * f * (1.0 - f),
                       tanh_c * o * (1.0 - o), i * (1.0 - g ** 2)])
    dc_dh = o * (1.0 - tanh_c ** 2)
    dh_next = np.zeros(H) if dh_final is None else np.asarray(dh_final, dtype=np.float64)
    dc_next = np.zeros(H) if dc_final is None else np.asarray(dc_final, dtype=np.float64)
    dA = np.empty((T, 4 * H))
    for t in range(T - 1, -1, -1):
        dh = dh_next if dh_steps is None else dh_next + dh_steps[t]
        dc = dc_next + dh * dc_dh[t]
        dA[t] = np.concatenate((dc, dc, dh, dc)) * local[t]
        dh_next = dA[t] @ params.U
        dc_next = dc * f[t]
    grads = {"W": dA.T @ cache.x, "U": dA.T @ cache.h[:-1], "b": dA.sum(axis=0)}
    return grads, dA @ params.W, (dh_next, dc_next)


def softmax(scores) -> Array:
    """Max-subtraction stabilized softmax; output sums to 1 within 1e-12."""
    scores = _as_vector("scores", scores)
    if scores.shape[0] == 0:
        raise DomainError("softmax of an empty score vector")
    if not np.all(np.isfinite(scores)):
        raise NumericError("softmax scores contain non-finite entries")
    e = np.exp(scores - np.max(scores))
    return e / e.sum()


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


def dropout_mask(length: int, rate: float, rng: np.random.Generator) -> Array:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(length)
    keep = rng.random(length) >= rate
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
