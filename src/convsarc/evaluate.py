"""Per-class precision/recall/F1, attention-vs-human overlap, and
deterministic SVG heatmap export.

Metrics are reported in percent. metrics_to_dict gives the structured
report's object (one per model/task); the human-readable table mirrors the
P/R/F1-per-class layout used throughout the experiments.
"""
from __future__ import annotations

from dataclasses import dataclass
from html import escape
from typing import Sequence

import numpy as np

from .data import LABELS, open_output
from .errors import DomainError


@dataclass
class ClassScores:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    undefined: tuple[str, ...] = ()


@dataclass
class ClassMetrics:
    per_class: dict[str, ClassScores]
    total: int


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _class_scores(gold: Sequence[str], predicted: Sequence[str],
                  positive: str) -> ClassScores:
    tp = fp = fn = tn = 0
    for g, p in zip(gold, predicted):
        if p == positive:
            if g == positive:
                tp += 1
            else:
                fp += 1
        else:
            if g == positive:
                fn += 1
            else:
                tn += 1
    undefined = []
    if tp + fp > 0:
        precision = 100.0 * tp / (tp + fp)
    else:
        precision = 0.0
        undefined.append("precision")
    if tp + fn > 0:
        recall = 100.0 * tp / (tp + fn)
    else:
        recall = 0.0
        undefined.append("recall")
    if precision + recall == 0:
        undefined.append("f1")
    return ClassScores(tp, fp, fn, tn, precision, recall,
                       f1_score(precision, recall), tuple(undefined))


def prf1(gold: Sequence[str], predicted: Sequence[str]) -> ClassMetrics:
    """Per-class precision, recall, and F1 (percent) from confusion counts.
    Zero-denominator ratios come back as 0 with the metric name flagged."""
    if len(gold) != len(predicted):
        raise DomainError(
            f"gold has {len(gold)} labels, predictions have {len(predicted)}")
    if not gold:
        raise DomainError("cannot score an empty label list")
    return ClassMetrics(
        per_class={lab: _class_scores(gold, predicted, lab) for lab in LABELS},
        total=len(gold))


def attention_overlap(pairs: Sequence[tuple]) -> float:
    """Fraction of (context attention weights, human triggers) pairs whose
    argmax weight falls on a trigger sentence. Ties go to the lowest index."""
    if not pairs:
        raise DomainError("attention_overlap of an empty list")
    hits = 0
    for weights, triggers in pairs:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size == 0:
            raise DomainError("an instance has no context weights")
        if not triggers:
            raise DomainError("instance has no human trigger annotation")
        if int(np.argmax(weights)) in set(triggers):
            hits += 1
    return hits / len(pairs)


_SVG_ROW_H = 34
_SVG_BAR_W = 560


def export_heatmap(sentences: Sequence[str], weights, path,
                   human_triggers: Sequence[int] | None = None) -> None:
    """Write a standalone SVG heatmap: one row per sentence, bar opacity
    linear in its attention weight, the weight printed to 3 decimals, and
    human-trigger rows outlined. Identical inputs give identical bytes."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[0] != len(sentences):
        raise DomainError(
            f"{weights.shape[0]} weights for {len(sentences)} sentences")
    triggers = set(human_triggers) if human_triggers else set()
    height = 16 + _SVG_ROW_H * len(sentences)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="1200" height="{height}" '
        f'font-family="monospace" font-size="13">',
    ]
    for i, (text, w) in enumerate(zip(sentences, weights)):
        y = 8 + i * _SVG_ROW_H
        stroke = 'stroke="#000000" stroke-width="2"' if i in triggers else 'stroke="none"'
        lines.append(
            f'<rect x="8" y="{y}" width="{_SVG_BAR_W}" height="{_SVG_ROW_H - 6}" '
            f'fill="#d62728" fill-opacity="{w:.6f}" {stroke}/>')
        lines.append(
            f'<text x="{_SVG_BAR_W + 16}" y="{y + 19}">{w:.3f}</text>')
        lines.append(
            f'<text x="{_SVG_BAR_W + 72}" y="{y + 19}">{escape(text, quote=False)}</text>')
    lines.append("</svg>")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def metrics_to_dict(name: str, metrics: ClassMetrics) -> dict:
    doc: dict = {"name": name, "total": metrics.total, "classes": {}}
    for lab, sc in metrics.per_class.items():
        doc["classes"][lab] = {
            "precision": round(sc.precision, 2),
            "recall": round(sc.recall, 2),
            "f1": round(sc.f1, 2),
            "tp": sc.tp, "fp": sc.fp, "fn": sc.fn, "tn": sc.tn,
        }
        if sc.undefined:
            doc["classes"][lab]["undefined"] = list(sc.undefined)
    return doc


def format_table(rows: Sequence[tuple[str, ClassMetrics]]) -> str:
    """Human-readable table: one row per experiment, P/R/F1 per class."""
    header = (f"{'Experiment':<28}"
              f"{'S-P':>8}{'S-R':>8}{'S-F1':>8}"
              f"{'NS-P':>8}{'NS-R':>8}{'NS-F1':>8}")
    out = [header, "-" * len(header)]
    for name, m in rows:
        s, ns = m.per_class["S"], m.per_class["NS"]
        out.append(f"{name:<28}"
                   f"{s.precision:>8.2f}{s.recall:>8.2f}{s.f1:>8.2f}"
                   f"{ns.precision:>8.2f}{ns.recall:>8.2f}{ns.f1:>8.2f}")
    return "\n".join(out)
