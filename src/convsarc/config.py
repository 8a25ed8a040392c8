"""Run configuration: a flat key-value JSON document, overridable per key
from the command line. Defaults follow the training setup the experiments
use (dropout 0.5, mini-batch 16, frozen embeddings of 100 dims for Twitter
and 300 for forums, context cutoffs of 5 tweets / 10 sentences)."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict, fields

from .data import context_cutoff
from .errors import ConfigError

MODEL_CHOICES = ("reply_only", "concat", "conditional",
                 "sent_attn", "word_attn", "hier_attn", "svm")
TASK_CHOICES = ("reply_only", "context_and_reply")
PLATFORM_CHOICES = ("forum", "twitter")

_PLATFORM_EMBED_DIM = {"twitter": 100, "forum": 300}

_STRING_KEYS = ("variant", "task", "platform", "corpus", "raw_tweets",
                "embeddings", "lexicons", "checkpoint", "outdir")
_INT_KEYS = ("embed_dim", "hidden_dim", "att_dim", "batch_size", "epochs",
             "patience", "seed", "max_context", "min_ngram_count")
_FLOAT_KEYS = ("dropout", "l2", "lr")


def _check_type(source: str, key: str, val) -> None:
    if val is None and key in ("corpus", "raw_tweets", "embeddings", "lexicons",
                               "checkpoint", "outdir", "embed_dim", "hidden_dim",
                               "att_dim", "max_context"):
        return
    if key in _STRING_KEYS and not isinstance(val, str):
        raise ConfigError(f"{source}: {key} must be a string, got {val!r}")
    if key in _INT_KEYS and (not isinstance(val, int) or isinstance(val, bool)):
        raise ConfigError(f"{source}: {key} must be an integer, got {val!r}")
    if key in _FLOAT_KEYS and (not isinstance(val, (int, float)) or isinstance(val, bool)):
        raise ConfigError(f"{source}: {key} must be a number, got {val!r}")
    if key == "conditional_reply_head_only" and not isinstance(val, bool):
        raise ConfigError(f"{source}: {key} must be a boolean, got {val!r}")


@dataclass
class RunConfig:
    variant: str = "sent_attn"
    task: str = "context_and_reply"
    platform: str = "forum"
    corpus: str | None = None
    raw_tweets: str | None = None
    embeddings: str | None = None
    lexicons: str | None = None
    checkpoint: str | None = None
    outdir: str | None = None
    embed_dim: int | None = None    # default: 100 twitter / 300 forum
    hidden_dim: int | None = None   # default: embed_dim
    att_dim: int | None = None      # default: hidden_dim
    dropout: float = 0.5
    l2: float = 1e-4
    lr: float = 0.05
    batch_size: int = 16
    epochs: int = 30
    patience: int = 10
    seed: int = 13
    max_context: int | None = None  # default: 10 forum / 5 twitter
    min_ngram_count: int = 2
    conditional_reply_head_only: bool = False

    # ---- resolved defaults ----

    @property
    def resolved_embed_dim(self) -> int:
        return self.embed_dim if self.embed_dim is not None \
            else _PLATFORM_EMBED_DIM[self.platform]

    @property
    def resolved_hidden_dim(self) -> int:
        return self.hidden_dim if self.hidden_dim is not None \
            else self.resolved_embed_dim

    @property
    def resolved_max_context(self) -> int:
        return context_cutoff(self.platform, self.max_context)

    # ---- IO ----

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ConfigError(f"config file {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path}: invalid JSON ({e.msg})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path}: must be a flat JSON object")
        return cls().updated(doc, source=str(path))

    def updated(self, overrides: dict, source: str = "command line") -> "RunConfig":
        values = asdict(self)
        known = self.field_names()
        for key, val in overrides.items():
            if key not in known:
                raise ConfigError(f"{source}: unknown config key '{key}'")
            _check_type(source, key, val)
            values[key] = val
        return RunConfig(**values)

    def echo(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    # ---- validation ----

    def validate(self, need: tuple[str, ...] = ()) -> None:
        """Full validation up front: no command touches its outputs until
        the whole config is known to be good."""
        if self.variant not in MODEL_CHOICES:
            raise ConfigError(f"variant: '{self.variant}' not in {MODEL_CHOICES}")
        if self.task not in TASK_CHOICES:
            raise ConfigError(f"task: '{self.task}' not in {TASK_CHOICES}")
        if self.platform not in PLATFORM_CHOICES:
            raise ConfigError(f"platform: '{self.platform}' not in {PLATFORM_CHOICES}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout: {self.dropout} outside [0, 1)")
        if not 0 < self.lr < math.inf:  # NaN fails every comparison
            raise ConfigError(f"lr: {self.lr} must be positive and finite")
        if not 0 <= self.l2 < math.inf:
            raise ConfigError(f"l2: {self.l2} must be nonnegative and finite")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: {self.batch_size} must be >= 1")
        if self.epochs < 1:
            raise ConfigError(f"epochs: {self.epochs} must be >= 1")
        if self.patience < 1:
            raise ConfigError(f"patience: {self.patience} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} must be nonnegative")
        if self.min_ngram_count < 1:
            raise ConfigError(f"min_ngram_count: {self.min_ngram_count} must be >= 1")
        for dim_field in ("embed_dim", "hidden_dim", "att_dim", "max_context"):
            val = getattr(self, dim_field)
            if val is not None and val < 1:
                raise ConfigError(f"{dim_field}: {val} must be >= 1")
        for path_field in need:
            val = getattr(self, path_field)
            if val is None:
                raise ConfigError(f"{path_field}: path required for this command")
            if not os.path.exists(val):
                raise ConfigError(f"{path_field}: path does not exist: {val}")
