"""Run configuration: a flat key-value JSON document, overridable per key
from the command line. Defaults follow the training setup the experiments
use (dropout 0.5, mini-batch 16, frozen embeddings of 100 dims for Twitter
and 300 for forums, context cutoffs of 5 tweets / 10 sentences)."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict
from typing import get_args, get_type_hints

from .data import PLATFORMS, read_text, refuse_lone_surrogates
from .errors import ConfigError
from .features import TASKS
from .models import VARIANTS, TrainSettings

CHOICES = {"variant": VARIANTS + ("svm",), "task": TASKS, "platform": PLATFORMS}

_PLATFORM_EMBED_DIM = {"twitter": 100, "forum": 300}
# how a type error names each field type, and the values it accepts
_TYPE_NAMES = {str: ("a string", str), int: ("an integer", int),
               float: ("a number", (int, float)), bool: ("a boolean", bool)}


@dataclass
class RunConfig(TrainSettings):
    """TrainSettings, plus the inputs, outputs and options of the commands."""
    task: str = "context_and_reply"
    platform: str = "forum"
    corpus: str | None = None
    raw_tweets: str | None = None
    embeddings: str | None = None
    lexicons: str | None = None
    checkpoint: str | None = None
    outdir: str | None = None
    embed_dim: int | None = None    # default: 100 twitter / 300 forum
    patience: int = 10              # no None: the CLI always stops early

    # ---- resolved defaults ----

    @property
    def resolved_embed_dim(self) -> int:
        return self.embed_dim if self.embed_dim is not None \
            else _PLATFORM_EMBED_DIM[self.platform]

    # ---- IO ----

    @classmethod
    def field_types(cls) -> dict[str, tuple[type, bool]]:
        """Each key's type, and whether it may be None, from the annotations."""
        return {k: (get_args(t)[0], True) if get_args(t) else (t, False)
                for k, t in get_type_hints(cls).items()}

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The defaults updated by the JSON object in path; a file that is not
        one, or holds a key, type or value that validate refuses, raises
        ConfigError naming path."""
        text = read_text(path)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path}: invalid JSON ({e.msg})") from None
        except RecursionError:  # nested deeper than the parser's recursion limit
            raise ConfigError(f"config file {path}: invalid JSON (nested too deeply)") from None
        refuse_lone_surrogates(text, path)
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path}: must be a flat JSON object")
        cfg = cls().updated(doc, source=str(path))
        try:
            cfg.validate()
        except ConfigError as e:
            raise ConfigError(f"config file {path}: {e}") from None
        return cfg

    def updated(self, overrides: dict, source: str = "command line") -> "RunConfig":
        values = asdict(self)
        types = self.field_types()
        for key, val in overrides.items():
            if key not in types:
                raise ConfigError(f"{source}: unknown config key '{key}'")
            kind, optional = types[key]
            name, accepted = _TYPE_NAMES[kind]
            if not ((val is None and optional) or (
                    isinstance(val, accepted) and (kind is bool or not isinstance(val, bool)))):
                raise ConfigError(f"{source}: {key} must be {name}, got {val!r}")
            values[key] = val
        return RunConfig(**values)

    def echo(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    # ---- validation ----

    def validate(self, need: tuple[str, ...] = ()) -> None:
        """Full validation up front: no command touches its outputs until
        the whole config is known to be good."""
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key}: '{getattr(self, key)}' not in {choices}")
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
