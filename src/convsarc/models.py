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
from itertools import accumulate
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


def _project(H: np.ndarray, ap: AttentionParams) -> np.ndarray:
    """tanh(W_a h + b_a) for each row h of H: n x att_dim."""
    U = H @ ap.W_a.T
    U += ap.b_a
    return np.tanh(U, out=U)


def _attend_forward(H: np.ndarray, ap: AttentionParams, lengths=None):
    """Pool each run of lengths[b] consecutive rows of H (n x d), or all
    rows when lengths is None. Returns (pooled, weights of every row,
    cache); pooled has one row per run, or is a vector without lengths."""
    single = lengths is None
    lengths = np.array([H.shape[0]] if single else lengths, dtype=np.intp)
    if not (lengths > 0).all():
        raise DomainError("attention over an empty sequence")
    starts = lengths.cumsum() - lengths
    scores = _project(H, ap) @ ap.u_s
    if not np.isfinite(scores).all():
        raise NumericError("attention scores contain non-finite entries")
    # a softmax within each run
    alpha = scores - np.maximum.reduceat(scores, starts).repeat(lengths)
    np.exp(alpha, out=alpha)
    alpha /= np.add.reduceat(alpha, starts).repeat(lengths)
    pooled = np.add.reduceat(alpha[:, None] * H, starts, axis=0)
    return (pooled[0] if single else pooled), alpha, (H, alpha, starts, lengths)


def _attend_backward(ap: AttentionParams, cache, dv: np.ndarray):
    """Grads of the attention parameters (summed over runs) and dH, from dv
    shaped like the pooled output. The cache is used once: its hidden
    states are released before dH is built."""
    H, alpha, starts, lengths = cache
    del cache
    dv = np.atleast_2d(dv)
    run = np.repeat(np.arange(len(lengths)), lengths)
    dalpha = (H @ dv.T)[np.arange(H.shape[0]), run]  # h_i . dv of its run
    # softmax jacobian within each run
    ds = alpha * (dalpha - np.repeat(np.add.reduceat(alpha * dalpha, starts), lengths))
    da = _project(H, ap)  # U, recomputed rather than cached
    du_s = da.T @ ds
    da *= da  # da = (ds u_s^T) * (1 - U^2), built over U
    np.subtract(1.0, da, out=da)
    da *= ds[:, None]
    da *= ap.u_s
    grads = {"W_a": da.T @ H, "b_a": da.sum(axis=0), "u_s": du_s}
    del H
    dH = da @ ap.W_a
    del da
    pooled_part = np.repeat(dv, lengths, axis=0)
    pooled_part *= alpha[:, None]
    dH += pooled_part
    return grads, dH


# --------------------------------------------------------------------------
# forward / backward over a batch


def _embed(table: EmbeddingTable, tokens: Sequence[str]) -> np.ndarray:
    """len(tokens) x dim matrix of the tokens' vectors."""
    return np.array([lookup(table, t) for t in tokens]).reshape(len(tokens), table.dim)


def _prefixed(prefix: str, block: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in block.items()}


def _runs(values, lengths) -> list:
    """values (an array or a list) cut into consecutive runs of the given
    lengths."""
    return [values[e - n:e] for e, n in zip(accumulate(lengths), lengths)]


def _forward(params: ModelParams, segs: Sequence[SegmentedInstance],
             table: EmbeddingTable, labels: Sequence[int] | None = None,
             dropout_rate: float = 0.0, rng: np.random.Generator | None = None):
    """Forward pass of any variant over a batch of instances; when labels
    are given, also runs the hand-derived backward pass. Each LSTM and
    attention block runs once for the batch, over the instances' rows
    concatenated. Returns (B x 2 probabilities, per-instance attention
    records, per-instance losses, gradients of the batch's mean loss)."""
    variant = params.variant
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant '{variant}'")
    B, H = len(segs), params.hidden_dim
    sides = {"r": [seg.reply_sentences for seg in segs]}
    if not all(any(sents) for sents in sides["r"]):
        raise DomainError("reply has no tokens")
    if variant != "reply_only":
        sides = {"c": [seg.context_sentences for seg in segs], **sides}
        if not all(any(sents) for sents in sides["c"]):
            raise DomainError(
                f"variant '{variant}' needs a nonempty context; "
                "use reply_only for context-free instances")
    if variant == "conditional" and params.lstm_c.hidden_dim != params.lstm_r.hidden_dim:
        raise ConfigError("conditional encoding needs equal hidden dims")
    attention = variant in ATTENTION_VARIANTS

    # each side's LSTM inputs: one row per step, the instances' rows in turn
    inputs, lengths, word = {}, {}, {}
    for side, per_inst in sides.items():
        sentences = [s for sents in per_inst for s in sents]
        if variant == "sent_attn":  # a sentence is its words' average
            inputs[side] = np.array([sentence_avg(table, s) for s in sentences])
            lengths[side] = [len(sents) for sents in per_inst]
        elif variant == "hier_attn":  # a sentence is its words' attention pooling
            n_words = [len(s) for s in sentences]
            inputs[side], beta, wcache = _attend_forward(
                _embed(table, [t for s in sentences for t in s]),
                getattr(params, f"wattn_{side}"), n_words)
            word[side] = (wcache, _runs(beta, n_words))
            lengths[side] = [len(sents) for sents in per_inst]
        else:  # a step per token
            inputs[side] = _embed(table, [t for s in sentences for t in s])
            lengths[side] = [sum(map(len, sents)) for sents in per_inst]

    finals, caches, attn = {}, {}, {}
    for side in sides:  # context first: conditional's reply cell starts from its memory
        init = None
        if variant == "conditional" and side == "r":
            init = LSTMState(np.zeros((B, H)), finals["c"].c)
        hs, finals[side], caches[side] = lstm_forward(
            getattr(params, f"lstm_{side}"), inputs.pop(side), init, lengths[side])
        if attention:
            attn[side] = _attend_forward(hs, getattr(params, f"attn_{side}"), lengths[side])
        del hs  # attention's cache keeps what it needs

    records = [None] * B
    pooled = list(sides)  # the sides whose vectors the classifier reads, in order
    if attention:
        v = np.hstack([attn[side][0] for side in pooled])
        alphas = {side: _runs(attn[side][1], lengths[side]) for side in sides}
        betas = {side: _runs(word[side][1], lengths[side]) if word else [None] * B
                 for side in sides}
        records = [AttentionRecord(alphas["c"][b], alphas["r"][b],
                                   betas["c"][b], betas["r"][b]) for b in range(B)]
    else:
        if variant == "conditional" and params.conditional_reply_head_only:
            pooled = ["r"]
        v = np.hstack([finals[side].h for side in pooled])

    mask = None
    v_used = v
    if dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("dropout requires an rng")
        # one B x out_dim draw takes the stream of B out_dim draws in turn
        mask = dropout_mask(v.shape, dropout_rate, rng)
        v_used = v * mask
    probs = softmax(v_used @ params.W_out.T + params.b_out)
    if labels is None:
        return probs, records, None, None

    losses = np.array([cross_entropy(p, y) for p, y in zip(probs, labels)])
    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    grads = {"W_out": dz.T @ v_used, "b_out": dz.sum(axis=0)}
    dv = dz @ params.W_out
    if mask is not None:
        dv *= mask
    dvs = dict(zip(pooled, np.hsplit(dv, len(pooled))))
    dh_steps = {}  # popped into lstm_backward, which frees it when done
    dc_final = None
    for side in reversed(sides):  # reply first: its initial memory feeds the context cell
        if attention:
            ga, dh_steps[side] = _attend_backward(getattr(params, f"attn_{side}"),
                                                  attn.pop(side)[2], dvs[side])
            grads.update(_prefixed(f"attn_{side}", ga))
        g_l, dx, (_, dc_final) = lstm_backward(
            getattr(params, f"lstm_{side}"), caches.pop(side), dh_steps.pop(side, None),
            None if attention else dvs.get(side),
            dc_final if variant == "conditional" else None,
            need_dx=variant == "hier_attn")
        grads.update(_prefixed(f"lstm_{side}", g_l))
        if variant == "hier_attn":
            # word embeddings are frozen: their gradient is dropped, but the
            # word-attention parameters still learn
            gw, _ = _attend_backward(getattr(params, f"wattn_{side}"), word.pop(side)[0], dx)
            grads.update(_prefixed(f"wattn_{side}", gw))
    return probs, records, losses, grads


def _label(probs: np.ndarray) -> str:
    """A tie at exactly 0.5 resolves to NS."""
    return "S" if probs[0] > 0.5 else "NS"


def predict(params: ModelParams, seg: SegmentedInstance, table: EmbeddingTable
            ) -> tuple[str, np.ndarray, AttentionRecord | None]:
    """Label, class probabilities (S, NS), and the attention record when the
    variant has attention. A tie at exactly 0.5 resolves to NS."""
    probs, records, _, _ = _forward(params, [seg], table)
    return _label(probs[0]), probs[0], records[0]


def loss_and_grads(params, seg, table, label: str,
                   dropout_rate: float = 0.0,
                   rng: np.random.Generator | None = None):
    _, _, losses, grads = _forward(params, [seg], table,
                                   labels=[LABEL_TO_INDEX[label]],
                                   dropout_rate=dropout_rate, rng=rng)
    return float(losses[0]), grads


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


# Cap on the tokens one forward/backward pass holds, chosen from measured
# peak memory: a batch of T tokens (a training batch, or a scoring pass)
# runs as ceil(T / MAX_PASS_TOKENS) consecutive sub-batches of about equal
# size, which bounds the cached activations whatever the batch size.
MAX_PASS_TOKENS = 500


def _tokens(seg: SegmentedInstance) -> int:
    return sum(map(len, seg.context_sentences)) + sum(map(len, seg.reply_sentences))


def _sub_batches(indices, segs: Sequence[SegmentedInstance]) -> list[list[int]]:
    """indices cut into the fewest runs of about equal size that keep each
    run near MAX_PASS_TOKENS on average."""
    indices = list(indices)
    tokens = sum(_tokens(segs[i]) for i in indices)
    passes = min(len(indices), -(-tokens // MAX_PASS_TOKENS))
    return [run.tolist() for run in np.array_split(indices, max(passes, 1))]


def _predict_labels(params, segs, table) -> list[str]:
    labels = []
    for run in _sub_batches(range(len(segs)), segs):
        probs = _forward(params, [segs[i] for i in run], table)[0]
        labels.extend(_label(p) for p in probs)
    return labels


def _batch_grads(params, segs, labels, table, dropout_rate, rng):
    """Per-instance losses and the gradients of the batch's mean loss, run
    as sub-batches under MAX_PASS_TOKENS whose gradients are summed."""
    losses, grads = [], None
    for run in _sub_batches(range(len(segs)), segs):
        _, _, run_losses, run_grads = _forward(
            params, [segs[i] for i in run], table, labels=[labels[i] for i in run],
            dropout_rate=dropout_rate, rng=rng)
        losses.append(run_losses)
        share = len(run) / len(segs)  # run_grads are the run's mean
        if grads is None:
            grads = {name: share * g for name, g in run_grads.items()}
        else:
            for name, g in run_grads.items():
                grads[name] += share * g
    return np.concatenate(losses), grads


def _dev_macro_f1(params, segs, gold, table) -> float:
    metrics = evaluate.prf1(gold, _predict_labels(params, segs, table))
    return (metrics.per_class["S"].f1 + metrics.per_class["NS"].f1) / 2.0


def train_model(train_insts: Sequence[ConversationInstance],
                dev_insts: Sequence[ConversationInstance],
                table: EmbeddingTable,
                settings: TrainSettings) -> TrainResult:
    """Mini-batch cross-entropy training with dropout and L2. After each
    epoch the dev macro-F1 is evaluated and the best epoch's parameters are
    retained. Fully deterministic for a fixed seed, config, and corpus.

    A mini-batch runs as one batched pass (or a few, under MAX_PASS_TOKENS,
    whose gradients are summed); the dropout draws come in the instances'
    order within the batch, as they would one instance at a time."""
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
        for k, b_start in enumerate(range(0, n, settings.batch_size)):
            batch = order[b_start:b_start + settings.batch_size]
            try:
                losses, grads = _batch_grads(
                    params, [train_segs[i] for i in batch], [train_labels[i] for i in batch],
                    table, settings.dropout, rng)
            except NumericError as e:
                raise NumericError(f"epoch {epoch}, batch {k}: {e}") from None
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {k}, instance {batch[bad[0]]}")
            epoch_loss += float(losses.sum())
            params = params.replace_tensors(
                sgd_step(params.tensors(), grads, settings.lr, settings.l2))
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
    preds = _predict_labels(params, segs, table)
    return sum(p == inst.label for p, inst in zip(preds, insts)) / len(insts)


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
    _, _, _, analytic = _forward(params, [seg], table, labels=[0])

    def loss_fn(tensors):
        return _forward(params.replace_tensors(tensors), [seg], table, labels=[0])[2][0]

    numeric = finite_diff_grad(loss_fn, params.tensors(), epsilon)
    return max_relative_error(analytic, numeric)
