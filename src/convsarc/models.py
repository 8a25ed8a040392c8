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

from itertools import accumulate
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import ConversationInstance, SegmentedInstance, segment_instance
from .embeddings import EmbeddingTable, lookup, sentence_avg
from .errors import ConfigError, DomainError, NumericError
from .nn import (LSTMCellParams, LSTMState, cross_entropy, dropout_mask,
                 finite_diff_grad, lstm_backward, lstm_forward,
                 max_relative_error, new_rng, sgd_step, softmax, INIT_SCALE)
from . import checkpoint, evaluate

VARIANTS = ("reply_only", "concat", "conditional",
            "sent_attn", "word_attn", "hier_attn")
ATTENTION_VARIANTS = ("sent_attn", "word_attn", "hier_attn")
LABEL_TO_INDEX = {"S": 0, "NS": 1}  # probability/logit order is (S, NS)


class AttentionParams(NamedTuple):
    """Attention MLP (W_a, att_dim x input_dim; b_a) plus the learned
    context vector u_s."""

    W_a: np.ndarray
    b_a: np.ndarray
    u_s: np.ndarray


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
    """All trainable tensors for one variant, under the names gradients, SGD
    and checkpoints use: lstm_c.W, lstm_r.U, attn_c.u_s, wattn_r.b_a, ...,
    W_out (2 x out_dim), b_out. Embeddings are not here: they stay frozen."""

    variant: str
    by_name: dict[str, np.ndarray]
    conditional_reply_head_only: bool = False

    def tensors(self) -> dict[str, np.ndarray]:
        """The name -> tensor dict itself, not a copy."""
        return self.by_name

    def replace_tensors(self, t: dict[str, np.ndarray]) -> "ModelParams":
        """The same variant with the tensors of t under this one's names."""
        t = {k: np.asarray(t[k], dtype=np.float64) for k in self.by_name}
        return ModelParams(self.variant, t, self.conditional_reply_head_only)

    def cell(self, side: str) -> LSTMCellParams:
        """A view of side c's (context) or r's (reply) LSTM cell."""
        return LSTMCellParams(*(self.by_name[f"lstm_{side}.{k}"] for k in "WUb"))

    def attention(self, name: str) -> AttentionParams:
        """A view of the attention block name (attn_c, wattn_r, ...)."""
        return AttentionParams(*(self.by_name[f"{name}.{k}"] for k in AttentionParams._fields))

    @property
    def hidden_dim(self) -> int:
        return self.by_name["lstm_r.U"].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.by_name["lstm_r.W"].shape[1]


def init_params(variant: str, embed_dim: int, hidden_dim: int,
                att_dim: int | None = None,
                rng: np.random.Generator | None = None,
                conditional_reply_head_only: bool = False) -> ModelParams:
    """Fresh parameters for a variant; rng=None gives all-zero tensors
    (used as a checkpoint skeleton)."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant '{variant}' (choose from {VARIANTS})")
    att_dim = att_dim if att_dim is not None else hidden_dim

    def uniform(*shape):
        return np.zeros(shape) if rng is None else rng.uniform(-INIT_SCALE, INIT_SCALE, shape)

    t = {}
    for side in ("r",) if variant == "reply_only" else ("c", "r"):
        cell = (LSTMCellParams.zeros(embed_dim, hidden_dim) if rng is None
                else LSTMCellParams.init(embed_dim, hidden_dim, rng))
        t.update(_prefixed(f"lstm_{side}", cell.tensors()))
    blocks = ([("attn_c", hidden_dim), ("attn_r", hidden_dim)]
              if variant in ATTENTION_VARIANTS else [])
    if variant == "hier_attn":
        blocks += [("wattn_c", embed_dim), ("wattn_r", embed_dim)]
    for name, input_dim in blocks:
        t[f"{name}.W_a"] = uniform(att_dim, input_dim)
        t[f"{name}.b_a"] = np.zeros(att_dim)
        t[f"{name}.u_s"] = uniform(att_dim)
    one_side = variant == "reply_only" or (
        variant == "conditional" and conditional_reply_head_only)
    t["W_out"] = uniform(2, hidden_dim if one_side else 2 * hidden_dim)
    t["b_out"] = np.zeros(2)
    return ModelParams(variant, t, conditional_reply_head_only)


# --------------------------------------------------------------------------
# attention pooling


def _project(H: np.ndarray, ap: AttentionParams) -> np.ndarray:
    """tanh(W_a h + b_a) for each row h of H: n x att_dim."""
    U = H @ ap.W_a.T
    U += ap.b_a
    return np.tanh(U, out=U)


def _attend_forward(H: np.ndarray, ap: AttentionParams, lengths: Sequence[int]):
    """Pool each run of lengths[b] consecutive rows of H (n x d). Returns
    (pooled, one row per run; weights of every row; cache)."""
    lengths = np.array(lengths, dtype=np.intp)
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
    return pooled, alpha, (H, alpha, starts, lengths)


def _attend_backward(ap: AttentionParams, cache, dv: np.ndarray):
    """Grads of the attention parameters (summed over runs) and dH, from dv
    (one row per run, like the pooled output). The cache is used once: its
    hidden states are released before dH is built."""
    H, alpha, starts, lengths = cache
    del cache
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
             mask: np.ndarray | None = None):
    """Forward pass of any variant over a batch of instances; when labels
    are given, also runs the hand-derived backward pass. Each LSTM and
    attention block runs once for the batch, over the instances' rows
    concatenated; mask (B x out_dim, from dropout_mask) scales the
    classifier's input. Returns (B x 2 probabilities, per-instance attention
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
    attention = variant in ATTENTION_VARIANTS
    # views of the blocks each side uses, built once for the pass
    cells = {side: params.cell(side) for side in sides}
    attns = {side: params.attention(f"attn_{side}") for side in sides if attention}
    wattns = {side: params.attention(f"wattn_{side}") for side in sides
              if variant == "hier_attn"}
    if variant == "conditional" and cells["c"].hidden_dim != cells["r"].hidden_dim:
        raise ConfigError("conditional encoding needs equal hidden dims")

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
                wattns[side], n_words)
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
            cells[side], inputs.pop(side), lengths[side], init)
        if attention:
            attn[side] = _attend_forward(hs, attns[side], lengths[side])
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

    v_used = v if mask is None else v * mask
    W_out = params.by_name["W_out"]
    probs = softmax(v_used @ W_out.T + params.by_name["b_out"])
    if labels is None:
        return probs, records, None, None

    losses = cross_entropy(probs, labels)
    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    grads = {"W_out": dz.T @ v_used, "b_out": dz.sum(axis=0)}
    dv = dz @ W_out
    if mask is not None:
        dv *= mask
    dvs = dict(zip(pooled, np.hsplit(dv, len(pooled))))
    dh_steps = {}  # popped into lstm_backward, which frees it when done
    dc_final = None
    for side in reversed(sides):  # reply first: its initial memory feeds the context cell
        if attention:
            ga, dh_steps[side] = _attend_backward(attns[side], attn.pop(side)[2], dvs[side])
            grads.update(_prefixed(f"attn_{side}", ga))
        g_l, dx, (_, dc_final) = lstm_backward(
            cells[side], caches.pop(side), dh_steps.pop(side, None),
            None if attention else dvs.get(side),
            dc_final if variant == "conditional" else None,
            need_dx=variant == "hier_attn")
        grads.update(_prefixed(f"lstm_{side}", g_l))
        if variant == "hier_attn":
            # word embeddings are frozen: their gradient is dropped, but the
            # word-attention parameters still learn
            gw, _ = _attend_backward(wattns[side], word.pop(side)[0], dx)
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


def loss_and_grads(params, seg, table, label: str, mask: np.ndarray | None = None):
    _, _, losses, grads = _forward(params, [seg], table,
                                   labels=[LABEL_TO_INDEX[label]], mask=mask)
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


# Cap on the cached rows one forward/backward pass holds, chosen from
# measured peak memory: every pass of a batch (a training batch, or the
# instances being scored) holds at most MAX_PASS_ROWS rows, unless it is one
# instance larger than the cap, which bounds the cached activations whatever
# the batch size. A row is one LSTM step or one attention input: reply_only
# steps over reply tokens only and never reads the context; sent_attn steps
# over sentences, whose word averages cache nothing per token; the other
# variants cache a row per token of both sides (hier_attn's word attention
# does so before its sentence LSTM).
MAX_PASS_ROWS = 500


def _rows(seg: SegmentedInstance, variant: str) -> int:
    """The rows a pass of variant caches for seg."""
    if variant == "sent_attn":
        return len(seg.context_sentences) + len(seg.reply_sentences)
    reply = sum(map(len, seg.reply_sentences))
    if variant == "reply_only":
        return reply
    return sum(map(len, seg.context_sentences)) + reply


def _sub_batches(segs: Sequence[SegmentedInstance], variant: str) -> list[list[int]]:
    """The positions of segs cut into passes, each in ascending order, of at
    most MAX_PASS_ROWS rows of variant; an instance larger than the cap runs
    alone. The passes are filled in turn with the instances sorted by rows,
    smallest first, so a batch within the cap is one pass."""
    rows = [_rows(seg, variant) for seg in segs]
    passes, total = [], 0
    for i in sorted(range(len(segs)), key=rows.__getitem__):
        if not passes or total + rows[i] > MAX_PASS_ROWS:
            passes.append([])
            total = 0
        passes[-1].append(i)
        total += rows[i]
    return [sorted(run) for run in passes]


def score(params: ModelParams, segs: Sequence[SegmentedInstance], table: EmbeddingTable
          ) -> tuple[list[str], np.ndarray, list[AttentionRecord | None]]:
    """predict for a batch of instances, run as the passes of _sub_batches:
    labels, B x 2 probabilities (S, NS), and attention records (None
    without attention), in the order of segs."""
    probs, records = np.empty((len(segs), 2)), [None] * len(segs)
    for run in _sub_batches(segs, params.variant):
        probs[run], run_records, _, _ = _forward(params, [segs[i] for i in run], table)
        for i, record in zip(run, run_records):
            records[i] = record
    return [_label(p) for p in probs], probs, records


def _batch_grads(params, segs, labels, table, mask=None):
    """Per-instance losses and the gradients of the batch's mean loss, run
    as the passes of _sub_batches whose gradients are summed; each pass
    takes its instances' rows of the batch's dropout mask (B x out_dim)."""
    losses, grads = np.empty(len(segs)), None
    for run in _sub_batches(segs, params.variant):
        _, _, losses[run], run_grads = _forward(
            params, [segs[i] for i in run], table, labels=[labels[i] for i in run],
            mask=None if mask is None else mask[run])
        share = len(run) / len(segs)  # run_grads are the run's mean
        if grads is None:
            grads = {name: share * g for name, g in run_grads.items()}
        else:
            for name, g in run_grads.items():
                grads[name] += share * g
    return losses, grads


def _dev_macro_f1(params, segs, gold, table) -> float:
    metrics = evaluate.prf1(gold, score(params, segs, table)[0])
    return (metrics.per_class["S"].f1 + metrics.per_class["NS"].f1) / 2.0


def train_model(train_insts: Sequence[ConversationInstance],
                dev_insts: Sequence[ConversationInstance],
                table: EmbeddingTable,
                settings: TrainSettings) -> TrainResult:
    """Mini-batch cross-entropy training with dropout and L2. After each
    epoch the dev macro-F1 is evaluated and the best epoch's parameters are
    retained. Fully deterministic for a fixed seed, config, and corpus.

    A mini-batch draws its dropout mask, one row per instance in the
    batch's order, and then runs as the passes of _sub_batches, each within
    MAX_PASS_ROWS, whose gradients are summed. The mask is the stream the
    instances would draw one at a time, whatever the passes."""
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
    n, out_dim = len(train_segs), params.by_name["W_out"].shape[1]
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for k, b_start in enumerate(range(0, n, settings.batch_size)):
            batch = order[b_start:b_start + settings.batch_size]
            mask = dropout_mask((len(batch), out_dim), settings.dropout, rng)
            try:
                losses, grads = _batch_grads(
                    params, [train_segs[i] for i in batch], [train_labels[i] for i in batch],
                    table, mask)
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


# --------------------------------------------------------------------------
# checkpoints


def _dims(named: dict[str, np.ndarray]) -> dict:
    """The dims a checkpoint of these tensors records."""
    return {"embed_dim": named["lstm_r.W"].shape[1], "hidden_dim": named["lstm_r.U"].shape[1],
            "att_dim": named["attn_r.W_a"].shape[0] if "attn_r.W_a" in named else None}


def save_checkpoint(params: ModelParams, path) -> None:
    """Self-describing deterministic checkpoint: variant, dims, and all
    tensors as little-endian float64 bytes."""
    named = params.tensors()
    checkpoint.write("lstm", {
        "variant": params.variant,
        "conditional_reply_head_only": params.conditional_reply_head_only,
        "dims": _dims(named),
        "tensors": {name: {"shape": list(t.shape), "data": checkpoint.encode(t)}
                    for name, t in named.items()},
    }, path)


def load_checkpoint(path, doc: dict | None = None) -> ModelParams:
    """Read a save_checkpoint file, or take doc, its contents as
    checkpoint.read returned them; a malformed one raises ConfigError
    naming the path."""
    doc = checkpoint.read(path, "lstm", doc)
    with checkpoint.parsing(path):
        dims, head_only, variant = doc["dims"], doc["conditional_reply_head_only"], doc["variant"]
        if not isinstance(head_only, bool):
            raise TypeError(f"conditional_reply_head_only must be a boolean, got {head_only!r}")
        if variant not in VARIANTS:
            raise ConfigError(f"{path}: unknown variant {variant!r} (choose from {VARIANTS})")
        loaded = {name: checkpoint.decode(spec["data"]).reshape(spec["shape"])
                  for name, spec in doc["tensors"].items()}
        if dims != _dims(loaded):  # so nothing is allocated from dims the data do not fill
            raise ValueError(f"dims {dims} do not fit the tensors")
        skeleton = init_params(variant, dims["embed_dim"], dims["hidden_dim"], dims["att_dim"],
                               rng=None, conditional_reply_head_only=head_only)
    if {k: t.shape for k, t in skeleton.tensors().items()} != {
            k: t.shape for k, t in loaded.items()}:
        raise ConfigError(f"{path}: tensor set or shapes do not match variant '{variant}'")
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
