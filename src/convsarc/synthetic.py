"""Synthetic corpora for capacity checks and attention sanity experiments.

Two generators:

* a separable corpus whose label is decided by a single reply token, so any
  variant with enough capacity can reach 100% training accuracy;
* a planted-cue corpus whose label is decided by one context sentence
  containing a cue token at a uniformly random position, with the cue index
  recorded as the human trigger annotation. A sound sentence-attention
  model should concentrate its context attention there.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import ConversationInstance, open_output

FILLER_VOCAB = (
    "stone", "river", "cloud", "meadow", "lantern", "copper", "violet",
    "harbor", "winter", "maple", "candle", "garden", "marble", "sparrow",
    "thunder", "velvet", "amber", "willow", "ember", "prairie",
)
POSITIVE_REPLY_CUE = "wonderful"
NEGATIVE_REPLY_CUE = "dreadful"
CONTEXT_CUE = "meteor"


def _filler(rng: np.random.Generator, n: int) -> list[str]:
    return [FILLER_VOCAB[i] for i in rng.integers(0, len(FILLER_VOCAB), n)]


def make_separable_corpus(n: int = 50, seed: int = 7) -> list[ConversationInstance]:
    """Balanced corpus whose label is carried by one reply token."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        label = "S" if k % 2 == 0 else "NS"
        cue = POSITIVE_REPLY_CUE if label == "S" else NEGATIVE_REPLY_CUE
        reply = _filler(rng, 4)
        reply[int(rng.integers(0, len(reply)))] = cue
        context = [" ".join(_filler(rng, 3)) for _ in range(2)]
        out.append(ConversationInstance(
            id=f"sep-{k:03d}", platform="twitter", context=context,
            reply=" ".join(reply), label=label))
    return out


def make_planted_cue_corpus(n: int = 500, n_context: int = 5,
                            seed: int = 11) -> list[ConversationInstance]:
    """Balanced corpus where sarcasm is decided by a cue token planted in
    exactly one context sentence (uniform position); that sentence index is
    stored as the human trigger."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        label = "S" if k % 2 == 0 else "NS"
        sentences = [_filler(rng, int(rng.integers(3, 6))) for _ in range(n_context)]
        triggers = None
        if label == "S":
            cue_sentence = int(rng.integers(0, n_context))
            sent = sentences[cue_sentence]
            sent[int(rng.integers(0, len(sent)))] = CONTEXT_CUE
            triggers = [cue_sentence]
        reply = _filler(rng, int(rng.integers(3, 6)))
        out.append(ConversationInstance(
            id=f"cue-{k:03d}", platform="twitter",
            context=[" ".join(s) for s in sentences],
            reply=" ".join(reply), label=label, human_triggers=triggers))
    return out


def synthetic_vocabulary() -> list[str]:
    return sorted(set(FILLER_VOCAB) | {POSITIVE_REPLY_CUE, NEGATIVE_REPLY_CUE,
                                       CONTEXT_CUE})


def write_embedding_file(path, tokens: Sequence[str], dim: int,
                         seed: int = 3, scale: float = 0.5) -> None:
    """Random word2vec-text-format vectors for the given tokens."""
    rng = np.random.default_rng(seed)
    with open_output(path) as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for tok in tokens:
            vec = rng.uniform(-scale, scale, dim)
            fh.write(tok + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
