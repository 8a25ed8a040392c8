"""Classification architectures over (context, reply) pairs.

Six variants share an LSTM/attention vocabulary:

  reply_only   LSTM over reply tokens, final hidden state classified.
  concat       separate LSTMs over context and reply tokens; final hidden
               states concatenated.
  conditional  reply LSTM's memory state is initialized with the context
               LSTM's final cell state.
  sent_attn    per side: sentences become averaged word embeddings, an LSTM
               reads the sentence sequence, and attention pools its hidden
               states into one vector.
  word_attn    per side: attention pools the token-level LSTM hidden states.
  hier_attn    word-level attention builds each sentence vector as a
               weighted average of its word embeddings, then sent_attn's
               sentence-level machinery runs on top.

Attention pooling over states h_1..h_n with parameters (W_a, b_a, u_s):
u_i = tanh(W_a h_i + b_a), weights = softmax(u_i . u_s), pooled = sum_i w_i h_i.

Gradients are hand-derived per architecture (no autodiff); every variant is
checked against the central-difference oracle in nn.finite_diff_grad.
Probabilities and logits are ordered (S, NS).
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ConversationInstance, SegmentedInstance, segment_instance
from .embeddings import EmbeddingTable, lookup, sentence_avg
from .errors import ConfigError, DomainError, NumericError
from .nn import (LSTMCellParams, LSTMState, cross_entropy, dropout_mask,
                 finite_diff_grad, lstm_backward, lstm_forward,
                 max_relative_error, new_rng, sgd_step, softmax, INIT_SCALE)
from . import evaluate

VARIANTS = ("reply_only", "concat", "conditional",
            "sent_attn", "word_attn", "hier_attn")
ATTENTION_VARIANTS = ("sent_attn", "word_attn", "hier_attn")
LABEL_TO_INDEX = {"S": 0, "NS": 1}  # probability/logit order is (S, NS)

CHECKPOINT_VERSION = 2  # 2: LSTM gates stacked into W, U, b


@dataclass
class AttentionParams:
    """Attention MLP (W_a, b_a) plus the learned context vector u_s."""

    W_a: np.ndarray  # att_dim x input_dim
    b_a: np.ndarray  # att_dim
    u_s: np.ndarray  # att_dim

    @property
    def input_dim(self) -> int:
        return self.W_a.shape[1]

    @property
    def att_dim(self) -> int:
        return self.W_a.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"W_a": self.W_a, "b_a": self.b_a, "u_s": self.u_s}

    @classmethod
    def init(cls, input_dim: int, att_dim: int,
             rng: np.random.Generator | None) -> "AttentionParams":
        if rng is None:
            return cls(np.zeros((att_dim, input_dim)), np.zeros(att_dim),
                       np.zeros(att_dim))
        return cls(rng.uniform(-INIT_SCALE, INIT_SCALE, (att_dim, input_dim)),
                   np.zeros(att_dim),
                   rng.uniform(-INIT_SCALE, INIT_SCALE, att_dim))


@dataclass
class AttentionRecord:
    """Normalized attention weights for one instance. context_weights and
    reply_weights are over sentences (sent_attn, hier_attn) or over tokens
    (word_attn); hier_attn additionally carries per-sentence word weights."""

    context_weights: np.ndarray
    reply_weights: np.ndarray
    context_word_weights: list[np.ndarray] | None = None
    reply_word_weights: list[np.ndarray] | None = None


@dataclass
class ModelParams:
    """All trainable tensors for one variant. Embeddings are not here: they
    stay frozen."""

    variant: str
    lstm_r: LSTMCellParams
    W_out: np.ndarray  # 2 x out_dim
    b_out: np.ndarray  # 2
    lstm_c: LSTMCellParams | None = None
    attn_c: AttentionParams | None = None
    attn_r: AttentionParams | None = None
    wattn_c: AttentionParams | None = None
    wattn_r: AttentionParams | None = None
    conditional_reply_head_only: bool = False

    def tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        if self.lstm_c is not None:
            out.update({f"lstm_c.{k}": v for k, v in self.lstm_c.tensors().items()})
        out.update({f"lstm_r.{k}": v for k, v in self.lstm_r.tensors().items()})
        for name in ("attn_c", "attn_r", "wattn_c", "wattn_r"):
            block = getattr(self, name)
            if block is not None:
                out.update({f"{name}.{k}": v for k, v in block.tensors().items()})
        out["W_out"] = self.W_out
        out["b_out"] = self.b_out
        return out

    def replace_tensors(self, t: dict[str, np.ndarray]) -> "ModelParams":
        def take(prefix):
            return {k.split(".", 1)[1]: np.asarray(t[k], dtype=np.float64)
                    for k in t if k.startswith(prefix + ".")}

        def attn(prefix):
            if getattr(self, prefix) is None:
                return None
            sub = take(prefix)
            return AttentionParams(sub["W_a"], sub["b_a"], sub["u_s"])

        return ModelParams(
            variant=self.variant,
            lstm_r=LSTMCellParams.from_tensors(take("lstm_r")),
            W_out=np.asarray(t["W_out"], dtype=np.float64),
            b_out=np.asarray(t["b_out"], dtype=np.float64),
            lstm_c=LSTMCellParams.from_tensors(take("lstm_c")) if self.lstm_c is not None else None,
            attn_c=attn("attn_c"), attn_r=attn("attn_r"),
            wattn_c=attn("wattn_c"), wattn_r=attn("wattn_r"),
            conditional_reply_head_only=self.conditional_reply_head_only)

    @property
    def hidden_dim(self) -> int:
        return self.lstm_r.hidden_dim

    @property
    def embed_dim(self) -> int:
        return self.lstm_r.input_dim


def init_params(variant: str, embed_dim: int, hidden_dim: int,
                att_dim: int | None = None,
                rng: np.random.Generator | None = None,
                conditional_reply_head_only: bool = False) -> ModelParams:
    """Fresh parameters for a variant; rng=None gives all-zero tensors
    (used as a checkpoint skeleton)."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant '{variant}' (choose from {VARIANTS})")
    att_dim = att_dim if att_dim is not None else hidden_dim

    def cell():
        if rng is None:
            return LSTMCellParams.zeros(embed_dim, hidden_dim)
        return LSTMCellParams.init(embed_dim, hidden_dim, rng)

    lstm_c = cell() if variant != "reply_only" else None
    lstm_r = cell()
    attn_c = attn_r = wattn_c = wattn_r = None
    if variant in ("sent_attn", "word_attn", "hier_attn"):
        attn_c = AttentionParams.init(hidden_dim, att_dim, rng)
        attn_r = AttentionParams.init(hidden_dim, att_dim, rng)
    if variant == "hier_attn":
        wattn_c = AttentionParams.init(embed_dim, att_dim, rng)
        wattn_r = AttentionParams.init(embed_dim, att_dim, rng)

    if variant == "reply_only" or (variant == "conditional" and conditional_reply_head_only):
        out_dim = hidden_dim
    else:
        out_dim = 2 * hidden_dim
    if rng is None:
        W_out = np.zeros((2, out_dim))
    else:
        W_out = rng.uniform(-INIT_SCALE, INIT_SCALE, (2, out_dim))
    return ModelParams(variant=variant, lstm_r=lstm_r, W_out=W_out,
                       b_out=np.zeros(2), lstm_c=lstm_c,
                       attn_c=attn_c, attn_r=attn_r,
                       wattn_c=wattn_c, wattn_r=wattn_r,
                       conditional_reply_head_only=conditional_reply_head_only)


# --------------------------------------------------------------------------
# attention pooling


def _attend_forward(H: np.ndarray, ap: AttentionParams):
    """Pool the rows of H (n x d); returns (pooled, weights, cache)."""
    U = np.tanh(H @ ap.W_a.T + ap.b_a)  # n x att_dim
    alpha = softmax(U @ ap.u_s)
    v = alpha @ H
    return v, alpha, (H, U, alpha)


def _attend_backward(ap: AttentionParams, cache, dv: np.ndarray):
    H, U, alpha = cache
    dalpha = H @ dv
    dH = np.outer(alpha, dv)
    ds = alpha * (dalpha - float(alpha @ dalpha))  # softmax jacobian
    du_s = U.T @ ds
    dU = np.outer(ds, ap.u_s)
    da = dU * (1.0 - U ** 2)
    grads = {"W_a": da.T @ H, "b_a": da.sum(axis=0), "u_s": du_s}
    dH += da @ ap.W_a
    return grads, dH


# --------------------------------------------------------------------------
# forward / backward per variant


def _embed(table: EmbeddingTable, tokens: Sequence[str]) -> np.ndarray:
    """len(tokens) x dim matrix of the tokens' vectors."""
    return np.array([lookup(table, t) for t in tokens]).reshape(len(tokens), table.dim)


def _accumulate(grads: dict, prefix: str, block: dict) -> None:
    for k, v in block.items():
        grads[f"{prefix}.{k}"] += v


def _forward(params: ModelParams, seg: SegmentedInstance, table: EmbeddingTable,
             label: int | None = None, dropout_rate: float = 0.0,
             rng: np.random.Generator | None = None):
    """Forward pass for any variant; when label is given, also runs the
    hand-derived backward pass. Returns (probs, record, loss, grads)."""
    variant = params.variant
    reply_tokens = [t for s in seg.reply_sentences for t in s]
    if not reply_tokens:
        raise DomainError("reply has no tokens")
    record = None
    back = None  # closure finishing the backward pass from dv

    if variant == "reply_only":
        er = _embed(table, reply_tokens)
        _, fin_r, cache_r = lstm_forward(params.lstm_r, er)
        v = fin_r.h

        def back(grads, dv):
            g_r, _, _ = lstm_backward(params.lstm_r, cache_r, dh_final=dv)
            _accumulate(grads, "lstm_r", g_r)

    elif variant in ("concat", "conditional"):
        context_tokens = [t for s in seg.context_sentences for t in s]
        if not context_tokens:
            raise DomainError(
                f"variant '{variant}' needs a nonempty context; "
                "use reply_only for context-free instances")
        ec = _embed(table, context_tokens)
        er = _embed(table, reply_tokens)
        _, fin_c, cache_c = lstm_forward(params.lstm_c, ec)
        if variant == "concat":
            _, fin_r, cache_r = lstm_forward(params.lstm_r, er)
            v = np.concatenate([fin_c.h, fin_r.h])

            def back(grads, dv):
                H = params.hidden_dim
                g_c, _, _ = lstm_backward(params.lstm_c, cache_c, dh_final=dv[:H])
                g_r, _, _ = lstm_backward(params.lstm_r, cache_r, dh_final=dv[H:])
                _accumulate(grads, "lstm_c", g_c)
                _accumulate(grads, "lstm_r", g_r)
        else:
            if params.lstm_c.hidden_dim != params.lstm_r.hidden_dim:
                raise ConfigError("conditional encoding needs equal hidden dims")
            # the reply cell starts from the context cell's final memory state
            init_r = LSTMState(np.zeros(params.lstm_r.hidden_dim), fin_c.c)
            _, fin_r, cache_r = lstm_forward(params.lstm_r, er, init_r)
            head_only = params.conditional_reply_head_only
            v = fin_r.h if head_only else np.concatenate([fin_c.h, fin_r.h])

            def back(grads, dv):
                H = params.hidden_dim
                dv_c, dv_r = (None, dv) if head_only else (dv[:H], dv[H:])
                g_r, _, (_, dc0) = lstm_backward(params.lstm_r, cache_r, dh_final=dv_r)
                g_c, _, _ = lstm_backward(params.lstm_c, cache_c,
                                          dh_final=dv_c, dc_final=dc0)
                _accumulate(grads, "lstm_c", g_c)
                _accumulate(grads, "lstm_r", g_r)

    elif variant in ("sent_attn", "word_attn"):
        if not seg.context_sentences:
            raise DomainError(f"{variant} needs a nonempty context")
        if variant == "sent_attn":
            # each sentence becomes the average of its word embeddings
            inputs_c = [sentence_avg(table, s) for s in seg.context_sentences]
            inputs_r = [sentence_avg(table, s) for s in seg.reply_sentences]
        else:
            inputs_c = _embed(table, [t for s in seg.context_sentences for t in s])
            inputs_r = _embed(table, reply_tokens)
        hs_c, _, cache_c = lstm_forward(params.lstm_c, inputs_c)
        hs_r, _, cache_r = lstm_forward(params.lstm_r, inputs_r)
        v_c, alpha_c, ac = _attend_forward(hs_c, params.attn_c)
        v_r, alpha_r, ar = _attend_forward(hs_r, params.attn_r)
        v = np.concatenate([v_c, v_r])
        record = AttentionRecord(alpha_c, alpha_r)

        def back(grads, dv):
            H = params.hidden_dim
            for side, cell, cache, ap, acache in (
                    ("c", params.lstm_c, cache_c, params.attn_c, ac),
                    ("r", params.lstm_r, cache_r, params.attn_r, ar)):
                dvs = dv[:H] if side == "c" else dv[H:]
                ga, dH = _attend_backward(ap, acache, dvs)
                g_l, _, _ = lstm_backward(cell, cache, dh_steps=dH)
                _accumulate(grads, f"attn_{side}", ga)
                _accumulate(grads, f"lstm_{side}", g_l)

    elif variant == "hier_attn":
        if not seg.context_sentences:
            raise DomainError("hier_attn needs at least one context sentence")
        sides = {}
        for side, sentences, wap in (("c", seg.context_sentences, params.wattn_c),
                                     ("r", seg.reply_sentences, params.wattn_r)):
            svecs, wws, wcaches = [], [], []
            for sent in sentences:
                sv, beta, wc = _attend_forward(_embed(table, sent), wap)
                svecs.append(sv)
                wws.append(beta)
                wcaches.append(wc)
            cell = params.lstm_c if side == "c" else params.lstm_r
            ap = params.attn_c if side == "c" else params.attn_r
            hs, _, cache = lstm_forward(cell, svecs)
            vs, alpha, acache = _attend_forward(hs, ap)
            sides[side] = (vs, alpha, wws, cache, acache, wcaches)
        v = np.concatenate([sides["c"][0], sides["r"][0]])
        record = AttentionRecord(sides["c"][1], sides["r"][1],
                                 context_word_weights=sides["c"][2],
                                 reply_word_weights=sides["r"][2])

        def back(grads, dv):
            H = params.hidden_dim
            for side in ("c", "r"):
                _, _, _, cache, acache, wcaches = sides[side]
                cell = params.lstm_c if side == "c" else params.lstm_r
                ap = params.attn_c if side == "c" else params.attn_r
                wap = params.wattn_c if side == "c" else params.wattn_r
                dvs = dv[:H] if side == "c" else dv[H:]
                ga, dH = _attend_backward(ap, acache, dvs)
                g_l, dx, _ = lstm_backward(cell, cache, dh_steps=dH)
                _accumulate(grads, f"attn_{side}", ga)
                _accumulate(grads, f"lstm_{side}", g_l)
                # word embeddings are frozen: their gradient is dropped, but
                # the word-attention parameters still learn
                for j, wc in enumerate(wcaches):
                    gw, _ = _attend_backward(wap, wc, dx[j])
                    _accumulate(grads, f"wattn_{side}", gw)
    else:
        raise ConfigError(f"unknown variant '{variant}'")

    mask = None
    v_used = v
    if dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("dropout requires an rng")
        mask = dropout_mask(len(v), dropout_rate, rng)
        v_used = v * mask
    logits = params.W_out @ v_used + params.b_out
    probs = softmax(logits)
    if label is None:
        return probs, record, None, None

    loss = cross_entropy(probs, label)
    grads = {k: np.zeros_like(t) for k, t in params.tensors().items()}
    dz = probs.copy()
    dz[label] -= 1.0
    grads["W_out"] += np.outer(dz, v_used)
    grads["b_out"] += dz
    dv = params.W_out.T @ dz
    if mask is not None:
        dv = dv * mask
    back(grads, dv)
    return probs, record, loss, grads


def predict(params: ModelParams, seg: SegmentedInstance, table: EmbeddingTable
            ) -> tuple[str, np.ndarray, AttentionRecord | None]:
    """Label, class probabilities (S, NS), and the attention record when the
    variant has attention. A tie at exactly 0.5 resolves to NS."""
    probs, record, _, _ = _forward(params, seg, table)
    label = "S" if probs[0] > 0.5 else "NS"
    return label, probs, record


def loss_and_grads(params, seg, table, label: str,
                   dropout_rate: float = 0.0,
                   rng: np.random.Generator | None = None):
    _, _, loss, grads = _forward(params, seg, table,
                                 label=LABEL_TO_INDEX[label],
                                 dropout_rate=dropout_rate, rng=rng)
    return loss, grads


# --------------------------------------------------------------------------
# training


@dataclass
class TrainSettings:
    variant: str = "sent_attn"
    hidden_dim: int = 100
    att_dim: int | None = None
    lr: float = 0.05
    l2: float = 1e-4
    dropout: float = 0.5
    batch_size: int = 16
    epochs: int = 30
    patience: int | None = 10
    seed: int = 13
    max_context: int | None = None
    conditional_reply_head_only: bool = False


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict]
    best_epoch: int


def _dev_macro_f1(params, segs, gold, table) -> float:
    preds = [predict(params, seg, table)[0] for seg in segs]
    metrics = evaluate.prf1(gold, preds)
    return (metrics.per_class["S"].f1 + metrics.per_class["NS"].f1) / 2.0


def train_model(train_insts: Sequence[ConversationInstance],
                dev_insts: Sequence[ConversationInstance],
                table: EmbeddingTable,
                settings: TrainSettings) -> TrainResult:
    """Mini-batch cross-entropy training with dropout and L2. After each
    epoch the dev macro-F1 is evaluated and the best epoch's parameters are
    retained. Fully deterministic for a fixed seed, config, and corpus."""
    if settings.variant not in VARIANTS:
        raise ConfigError(f"unknown variant '{settings.variant}'")
    if not train_insts:
        raise ConfigError("empty training split")
    if not dev_insts:
        raise ConfigError("empty dev split")
    rng = new_rng(settings.seed)
    params = init_params(settings.variant, table.dim, settings.hidden_dim,
                         settings.att_dim, rng,
                         settings.conditional_reply_head_only)
    train_segs = [segment_instance(i, settings.max_context) for i in train_insts]
    train_labels = [LABEL_TO_INDEX[i.label] for i in train_insts]
    dev_segs = [segment_instance(i, settings.max_context) for i in dev_insts]
    dev_gold = [i.label for i in dev_insts]

    best_params, best_f1, best_epoch = params, -1.0, 0
    epochs_since_best = 0
    log: list[dict] = []
    n = len(train_segs)
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b_start in range(0, n, settings.batch_size):
            batch = order[b_start:b_start + settings.batch_size]
            acc = {k: np.zeros_like(t) for k, t in params.tensors().items()}
            for idx in batch:
                where = (f"epoch {epoch}, batch {b_start // settings.batch_size}, "
                         f"instance {idx}")
                try:
                    _, _, loss, grads = _forward(
                        params, train_segs[idx], table, label=train_labels[idx],
                        dropout_rate=settings.dropout, rng=rng)
                except NumericError as e:
                    raise NumericError(f"{where}: {e}") from None
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at {where}")
                epoch_loss += loss
                for k in acc:
                    acc[k] += grads[k] / len(batch)
            params = params.replace_tensors(
                sgd_step(params.tensors(), acc, settings.lr, settings.l2))
        dev_f1 = _dev_macro_f1(params, dev_segs, dev_gold, table)
        log.append({"epoch": epoch, "train_loss": epoch_loss / n,
                    "dev_macro_f1": dev_f1})
        if dev_f1 > best_f1:
            best_params, best_f1, best_epoch = params, dev_f1, epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if settings.patience is not None and epochs_since_best >= settings.patience:
            break
    return TrainResult(best_params, log, best_epoch)


def training_accuracy(params, insts, table, max_context=None) -> float:
    segs = [segment_instance(i, max_context) for i in insts]
    hits = sum(1 for seg, inst in zip(segs, insts)
               if predict(params, seg, table)[0] == inst.label)
    return hits / len(insts)


# --------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path) -> None:
    """Self-describing deterministic checkpoint: variant, dims, and all
    tensors as little-endian float64 bytes."""
    tensors = {}
    for name, t in params.tensors().items():
        tensors[name] = {
            "shape": list(t.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(t, dtype="<f8").tobytes()).decode("ascii"),
        }
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "lstm",
        "variant": params.variant,
        "conditional_reply_head_only": params.conditional_reply_head_only,
        "dims": {
            "embed_dim": params.embed_dim,
            "hidden_dim": params.hidden_dim,
            "att_dim": params.attn_r.att_dim if params.attn_r is not None else None,
        },
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> ModelParams:
    """Read a save_checkpoint file; a malformed one raises ConfigError
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: not a JSON checkpoint: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{path}: checkpoint format_version {version} not supported "
            f"(expected {CHECKPOINT_VERSION})")
    if doc.get("kind") != "lstm":
        raise ConfigError(f"{path}: not an lstm checkpoint")
    try:
        dims = doc["dims"]
        skeleton = init_params(doc["variant"], dims["embed_dim"], dims["hidden_dim"],
                               dims["att_dim"], rng=None,
                               conditional_reply_head_only=doc["conditional_reply_head_only"])
        loaded = {}
        for name, spec in doc["tensors"].items():
            arr = np.frombuffer(base64.b64decode(spec["data"]), dtype="<f8")
            loaded[name] = arr.reshape(spec["shape"]).astype(np.float64)
    except KeyError as e:
        raise ConfigError(f"{path}: checkpoint lacks field {e}") from None
    except (TypeError, ValueError, AttributeError) as e:  # bad types, base64 or shapes
        raise ConfigError(f"{path}: malformed checkpoint: {e}") from None
    expected = {k: t.shape for k, t in skeleton.tensors().items()}
    if expected != {k: t.shape for k, t in loaded.items()}:
        raise ConfigError(f"{path}: tensor set or shapes do not match variant "
                          f"'{doc['variant']}'")
    return skeleton.replace_tensors(loaded)


# --------------------------------------------------------------------------
# gradient checking


def _toy_instance() -> SegmentedInstance:
    return SegmentedInstance(
        context_sentences=[["alpha", "beta", "gamma"],
                           ["delta", "epsilon"],
                           ["zeta", "eta", "theta", "iota", "kappa"]],
        reply_sentences=[["lam", "mu", "nu"], ["xi", "omicron"]],
        label="S")


def gradient_check_variant(variant: str, embed_dim: int = 10,
                           hidden_dim: int = 8, att_dim: int | None = None,
                           seed: int = 0, epsilon: float = 1e-5
                           ) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients
    for every trainable tensor of the variant, at toy scale."""
    rng = new_rng(seed)
    seg = _toy_instance()
    tokens = sorted({t for s in seg.context_sentences + seg.reply_sentences
                     for t in s})
    # healthy magnitudes keep the finite differences well-conditioned
    vocab = {t: rng.uniform(-1.0, 1.0, embed_dim) for t in tokens}
    table = EmbeddingTable(dim=embed_dim, vocab=vocab, seed=seed)
    params = init_params(variant, embed_dim, hidden_dim, att_dim, rng)
    params = params.replace_tensors(
        {k: rng.uniform(-0.5, 0.5, v.shape) for k, v in params.tensors().items()})
    _, _, _, analytic = _forward(params, seg, table, label=0)

    def loss_fn(tensors):
        return _forward(params.replace_tensors(tensors), seg, table, label=0)[2]

    numeric = finite_diff_grad(loss_fn, params.tensors(), epsilon)
    return max_relative_error(analytic, numeric)
