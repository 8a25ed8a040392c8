"""In-memory span recorder that traces convsarc from the outside.

Public functions are wrapped at the module attribute their caller goes
through: ``convsarc.models`` imports ``lstm_backward`` from ``nn`` by name,
so the wrapper is installed on ``convsarc.models.lstm_backward``; the CLI
dispatches through its ``COMMANDS`` table, so the wrapper replaces the
table entry. The program itself is not modified. A target a refactor has
removed is reported as absent, and a probe that no longer fits a changed
signature records nothing, so neither crashes a run.

A span is ``[name, start, end, parent, variant, info]``; ``parent`` is the
index of the enclosing span or -1, and ``variant`` is the model variant the
benchmark was training or scoring when the span opened.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _lstm_work(flops_per_unit):
    """Steps and computed FLOPs of one LSTM pass; D and H come from the
    cell parameters, a step costs flops_per_unit * H * (D + H)."""
    def probe(args, kwargs, result):
        cell, seq = args[0], args[1]
        h, d = cell.hidden_dim, cell.input_dim
        return {"steps": len(seq), "flops": flops_per_unit * h * (d + h) * len(seq)}
    return probe


def _lookup_oov(args, kwargs, result):
    return {"oov": int(args[1] not in args[0].vocab)}


def _vectors(args, kwargs, result):
    return {"vectors": len(result.vocab)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _n_features(args, kwargs, result):
    return {"n_features": len(result.registry)}


# (span name, module, attribute path, probe). Forward: 8 matrix-vector
# products of 4 gates; backward: 8 outer-product accumulations plus 8
# transposed products.
TARGETS = (
    ("nn.lstm_forward", "convsarc.models", "lstm_forward", _lstm_work(8)),
    ("nn.lstm_backward", "convsarc.models", "lstm_backward", _lstm_work(16)),
    ("nn.sgd_step", "convsarc.models", "sgd_step", None),
    ("models.train_model", "convsarc.models", "train_model", None),
    ("models.predict", "convsarc.models", "predict", None),
    ("models.save_checkpoint", "convsarc.models", "save_checkpoint", _file_bytes),
    ("models.load_checkpoint", "convsarc.models", "load_checkpoint", None),
    ("embeddings.lookup", "convsarc.models", "lookup", _lookup_oov),
    ("embeddings.lookup", "convsarc.embeddings", "lookup", _lookup_oov),
    ("embeddings.sentence_avg", "convsarc.models", "sentence_avg", None),
    ("embeddings.load_embeddings", "convsarc.cli", "load_embeddings", _vectors),
    ("data.load_corpus", "convsarc.data", "load_corpus", None),
    ("data.segment_instance", "convsarc.data", "segment_instance", None),
    ("data.segment_instance", "convsarc.models", "segment_instance", None),
    ("data.segment_instance", "convsarc.features", "segment_instance", None),
    ("data.build_twitter_instances", "convsarc.data", "build_twitter_instances", None),
    ("data.stratified_split", "convsarc.data", "stratified_split", None),
    ("features.assemble", "convsarc.features", "assemble", None),
    ("features.FeatureRegistry.build", "convsarc.features", "FeatureRegistry.build", None),
    ("features.svm_train", "convsarc.features", "svm_train", _n_features),
    ("features.svm_predict", "convsarc.features", "svm_predict", None),
    ("evaluate.prf1", "convsarc.evaluate", "prf1", None),
    ("evaluate.export_heatmap", "convsarc.evaluate", "export_heatmap", None),
    ("evaluate.attention_overlap", "convsarc.evaluate", "attention_overlap", None),
) + tuple((f"cli.{cmd}", "convsarc.cli", f"COMMANDS[{cmd}]", None)
          for cmd in ("prepare", "train", "eval", "predict", "attention"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.variant: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.variant, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if probe is not None:
                try:
                    rec[5] = probe(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    pass
            return result
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; record the ones that no longer exist."""
        for name, module, path, probe in targets:
            try:
                self._install_one(name, importlib.import_module(module), path, probe)
            except (ImportError, AttributeError, KeyError, TypeError):
                self.absent.append(f"{module}.{path}")

    def _install_one(self, name, module, path, probe):
        if path.endswith("]"):
            table_name, key = path[:-1].split("[")
            table = getattr(module, table_name)
            original = table[key]
            table[key] = self.wrap(original, name, probe)
            self._restore.append(lambda: table.__setitem__(key, original))
            return
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement = classmethod(self.wrap(static.__func__, name, probe))
        else:
            replacement = self.wrap(static, name, probe)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, static))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def summarize(spans: list[list]) -> dict:
    """Per (name, variant): calls, total and self seconds, summed probe info,
    and the time spent in predict calls made inside train_model."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "info": defaultdict(float)})
    for i, (name, start, end, parent, variant, info) in enumerate(spans):
        for key in ((name, variant), (name, None)) if variant else ((name, None),):
            agg = out[key]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for k, v in (info or {}).items():
                agg["info"][k] += v
        if name == "models.predict" and variant and _inside(spans, i, "models.train_model"):
            out[("models.predict.in_training", variant)]["s"] += end - start
    return out


def _inside(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
