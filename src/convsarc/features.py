"""Discrete features and the linear SVM baseline.

Feature families: binary bag-of-ngrams (1/2/3-grams), lexicon category
booleans and sentiment counts, a context/reply sentiment-incongruity flag,
and surface sarcasm indicators (interjections, tag questions, punctuation,
all-caps words, quotes, emoticons, superlatives, intensifiers).

Feature vectors are sparse {name: value} maps with no zero entries.
Context-side names carry a "c|" prefix, reply-side names "r|". The SVM is
trained by deterministic epoch-wise subgradient descent on the
class-weighted hinge loss with an L2 penalty.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import (ConversationInstance, EMOTICONS, load_resource_list, read_list,
                   segment_instance)
from .errors import ConfigError, DomainError, ParseError
from .models import TrainSettings
from .nn import new_rng
from . import checkpoint

FeatureVector = dict[str, float]

TASKS = ("reply_only", "context_and_reply")
NGRAM_PREFIXES = ("ng1:", "ng2:", "ng3:")

INTERJECTIONS = frozenset(load_resource_list("interjections.txt"))
INTENSIFIERS = frozenset(load_resource_list("intensifiers.txt"))
SUPERLATIVES = frozenset(load_resource_list("superlatives.txt"))

_ALPHA_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


@dataclass
class LexiconSet:
    """LIWC-style categories plus sentiment and negation word lists."""

    categories: dict[str, frozenset[str]]
    positive: frozenset[str]
    negative: frozenset[str]
    negations: frozenset[str]


def load_lexicons(directory) -> LexiconSet:
    """The lexicons of a directory: categories.tsv of "category<TAB>token"
    lines, and positive.txt, negative.txt and negations.txt of one token per
    line. A missing file is a ConfigError naming it."""
    path = Path(directory, "categories.tsv")
    cats: dict[str, set[str]] = {}
    for lineno, line in read_list(path):
        name, tab, token = line.partition("\t")
        name, token = name.strip(), token.strip().lower()
        if not (tab and name and token):
            raise ParseError(f"{path}: line {lineno}: expected 'category<TAB>token'")
        cats.setdefault(name, set()).add(token)
    if not cats:
        raise ConfigError(f"{path}: no categories loaded")
    words = {}
    for key in ("positive", "negative", "negations"):
        path = Path(directory, f"{key}.txt")
        words[key] = frozenset(line.lower() for _, line in read_list(path))
        if not words[key]:
            raise ConfigError(f"{path}: lexicon file is empty")
    return LexiconSet(categories={k: frozenset(v) for k, v in cats.items()}, **words)


def ngram_features(tokens: Sequence[str]) -> FeatureVector:
    """Binary presence of all unigrams, bigrams, and trigrams."""
    names = [f"ng1:{a}" for a in tokens]
    names += [f"ng2:{a}_{b}" for a, b in zip(tokens, tokens[1:])]
    names += [f"ng3:{a}_{b}_{c}" for a, b, c in zip(tokens, tokens[1:], tokens[2:])]
    return dict.fromkeys(names, 1.0)


def lexicon_features(lowered: list[str], side: str, lex: LexiconSet) -> FeatureVector:
    """Category booleans plus positive/negative/negation counts of the
    lowercased tokens; the reply side also gets a both-polarities flag."""
    fv: FeatureVector = {}
    for name, words in sorted(lex.categories.items()):
        if not words.isdisjoint(lowered):
            fv[f"cat:{name}"] = 1.0
    pos = sum(1 for t in lowered if t in lex.positive)
    neg = sum(1 for t in lowered if t in lex.negative)
    negation = sum(1 for t in lowered if t in lex.negations)
    if pos:
        fv["pos_count"] = float(pos)
    if neg:
        fv["neg_count"] = float(neg)
    if negation:
        fv["negation_count"] = float(negation)
    if side == "reply" and pos > 0 and neg > 0:
        fv["both_polarities"] = 1.0
    return fv


def _tag_question_re(patterns: Iterable[Sequence[str]]) -> re.Pattern:
    """One pattern for the nonempty token patterns, each matched as whole
    tokens of a space-joined list of tokens that hold no whitespace and
    tried longest first, so findall counts non-overlapping matches, left to
    right, each the longest pattern that starts at its position. No pattern
    at all never matches."""
    pats = sorted((p for p in patterns if p), key=len, reverse=True)
    alternatives = "|".join(" ".join(map(re.escape, p)) for p in pats) or "(?!)"
    return re.compile(rf"(?<!\S)(?:{alternatives})(?!\S)")


TAG_QUESTION_RE = _tag_question_re(p.split() for p in load_resource_list("tag_questions.txt"))


def indicator_features(tokens: Sequence[str], lowered: list[str],
                       raw_text: str) -> FeatureVector:
    """Surface sarcasm indicator counts. tokens are the casefolded token
    list and lowered the same tokens lowercased; raw_text is the
    pre-casefold original so capitalization and punctuation survive."""
    counts = {
        "ind:interjection": sum(1 for t in lowered if t in INTERJECTIONS),
        "ind:tag_question": len(TAG_QUESTION_RE.findall(" ".join(lowered))),
        "ind:exclamation": raw_text.count("!"),
        "ind:question": raw_text.count("?"),
        "ind:allcaps": sum(1 for w in _ALPHA_WORD_RE.findall(raw_text)
                           if len(w) >= 2 and w.isupper()),
        "ind:quote_pairs": raw_text.count('"') // 2
                           + min(raw_text.count("“"), raw_text.count("”")),
        "ind:emoticon": sum(1 for t in tokens if t in EMOTICONS),
        "ind:superlative": sum(1 for t in lowered
                               if t in SUPERLATIVES
                               or (t.isalpha() and len(t) >= 5 and t.endswith("est"))),
        "ind:intensifier": sum(1 for t in lowered if t in INTENSIFIERS),
    }
    return {k: float(v) for k, v in counts.items() if v}


def _namespace(prefix: str, fv: FeatureVector) -> FeatureVector:
    return {f"{prefix}|{k}": v for k, v in fv.items()}


def _side_features(tokens: Sequence[str], raw_text: str, side: str,
                   lex: LexiconSet) -> tuple[FeatureVector, FeatureVector]:
    """One side's n-gram, lexicon and indicator features, and its lexicon
    features alone; its tokens are lowercased once for both feature sets."""
    lowered = [t.lower() for t in tokens]
    lex_fv = lexicon_features(lowered, side, lex)
    return ({**ngram_features(tokens), **lex_fv,
             **indicator_features(tokens, lowered, raw_text)}, lex_fv)


def assemble(inst: ConversationInstance, mode: str, lex: LexiconSet,
             max_context: int | None = None) -> FeatureVector:
    """Full feature vector for one instance. reply_only uses reply-side
    features; context_and_reply adds namespaced context-side features and
    the incongruity flag."""
    if mode not in TASKS:
        raise DomainError(f"unknown task mode '{mode}'")
    seg = segment_instance(inst, max_context)
    reply_fv, reply_lex = _side_features([t for s in seg.reply_sentences for t in s],
                                         inst.reply, "reply", lex)
    fv = _namespace("r", reply_fv)
    if mode == "context_and_reply":
        context_fv, context_lex = _side_features(
            [t for s in seg.context_sentences for t in s], " ".join(seg.context_texts),
            "context", lex)
        fv.update(_namespace("c", context_fv))
        c, r = (f.get("pos_count", 0.0) - f.get("neg_count", 0.0) for f in (context_lex, reply_lex))
        if c * r < 0:  # both sides have net polarity, of opposite signs
            fv["incongruity"] = 1.0
    return fv


class FeatureRegistry:
    """Stable feature-name to id mapping shared across instances; a repeated
    name keeps its first id."""

    def __init__(self, names: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        for name in names:
            self._ids.setdefault(name, len(self._ids))

    def vectorize(self, fv: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        """Feature ids and values of fv's registered names, in fv's order."""
        ids = self._ids
        names = [name for name in fv if name in ids]
        return (np.fromiter(map(ids.__getitem__, names), dtype=np.intp, count=len(names)),
                np.fromiter(map(fv.__getitem__, names), dtype=np.float64, count=len(names)))

    @property
    def names(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    @classmethod
    def build(cls, vectors: Iterable[FeatureVector],
              min_ngram_count: int = 2) -> "FeatureRegistry":
        """Single-threaded pre-pass over the training vectors. N-gram
        features must appear in at least min_ngram_count instances; the
        other families are always kept."""
        counts = Counter(chain.from_iterable(vectors))  # names in first-seen order
        return cls(name for name, n in counts.items()
                   if n >= min_ngram_count or not _is_ngram(name))


def _is_ngram(name: str) -> bool:
    bare = name.split("|", 1)[-1]
    return bare.startswith(NGRAM_PREFIXES)


@dataclass
class SvmModel:
    registry: FeatureRegistry
    weights: np.ndarray  # indexed by feature id
    bias: float
    class_weights: dict[str, Fraction]
    objective_history: list[float] = field(default_factory=list)


# w.x and ||x||^2 are summed left to right from zero in the vector's order,
# so the rounding of every margin and of the step bound, and with them the
# whole SGD trajectory, depends on neither the numpy nor the Python version:
# np.dot and np.sum add in pairwise or SIMD order, and Python's sum()
# compensates float sums from 3.12 on. A cumulative sum adds in order; the
# trailing + 0.0 turns an all -0.0 total into the +0.0 that a sum starting
# from 0 gives.
def _ordered_sums(products: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each added left to right from zero."""
    if not products.shape[-1]:
        return np.zeros(products.shape[:-1])
    return products.cumsum(axis=-1)[..., -1] + 0.0


def _ordered_dot(w: np.ndarray, ids: np.ndarray, vals: np.ndarray) -> float:
    return float(_ordered_sums(w[ids] * vals))


def _padded(arrays: Sequence[tuple[np.ndarray, np.ndarray]], n_features: int
            ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows grouped by the bit length of their entry count, each group as its
    row numbers and id and value matrices as wide as its longest row, so a
    group holds at most twice its entries. A row's padding follows its
    entries and points at an extra zero weight (id n_features), so it adds
    +0.0."""
    groups: dict[int, list[int]] = {}
    for row, (ids, _) in enumerate(arrays):
        groups.setdefault(len(ids).bit_length(), []).append(row)
    out = []
    for rows in groups.values():
        width = max(len(arrays[row][0]) for row in rows)
        ids_mat = np.full((len(rows), width), n_features, dtype=np.intp)
        vals_mat = np.zeros((len(rows), width))
        for i, row in enumerate(rows):
            ids, vals = arrays[row]
            ids_mat[i, :len(ids)] = ids
            vals_mat[i, :len(vals)] = vals
        out.append((np.array(rows, dtype=np.intp), ids_mat, vals_mat))
    return out


def _objective(w: np.ndarray, b: float,
               groups: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
               ys: np.ndarray, cws: np.ndarray, l2: float) -> float:
    """(l2/2)||w||^2 + mean_i cw_i max(0, 1 - y_i (w.x_i + b)) over _padded
    rows: each row's _ordered_dot a group at a time, and the class-weighted
    hinge terms summed in order."""
    penalty = 0.5 * l2 * float(w @ w)
    padded_w = np.append(w, 0.0)
    dots = np.empty(len(ys))
    for rows, ids_mat, vals_mat in groups:
        dots[rows] = _ordered_sums(padded_w[ids_mat] * vals_mat)
    hinge = 1.0 - ys * (dots + b)
    terms = cws * np.where(hinge > 0.0, hinge, 0.0)
    return penalty + float(_ordered_sums(terms)) / len(terms)


def class_weight_map(labels: Iterable[str]) -> dict[str, Fraction]:
    """Weights inversely proportional to class size: N_total / (2 N_k).
    Exact rationals, so weight ratios are exact (e.g. sizes 100/300 give
    exactly 3:1); the trainer converts to float once."""
    counts = Counter(labels)
    if len(counts) < 2:
        raise ConfigError(
            f"training data contains a single class {sorted(counts)}; need both S and NS")
    total = sum(counts.values())
    return {k: Fraction(total, 2 * n) for k, n in counts.items()}


def svm_train(train: Sequence[tuple[FeatureVector, str]],
              settings: TrainSettings | None = None) -> SvmModel:
    """Class-weighted primal hinge-loss SVM via seeded epoch-wise subgradient
    descent, as settings' epochs, l2, seed and min_ngram_count say. The bias
    is not regularized. Each instance is held as arrays of feature ids and
    values, and each step updates only its features' weights after the decay."""
    settings = settings or TrainSettings()
    if not train:
        raise ConfigError("empty training set")
    registry = FeatureRegistry.build((fv for fv, _ in train),
                                     settings.min_ngram_count)
    class_weights = class_weight_map(label for _, label in train)
    arrays = [registry.vectorize(fv) for fv, _ in train]
    max_norm2 = max((float(_ordered_sums(v * v)) for _, v in arrays), default=0.0)
    lr = 1.0 / (settings.l2 + max(max_norm2, 1e-12))  # the stable step bound
    ys = [1.0 if label == "S" else -1.0 for _, label in train]
    cws = [float(class_weights[label]) for _, label in train]
    # (lr * cw) * y, grouped as the per-feature update always grouped it
    steps = [lr * cw * y for cw, y in zip(cws, ys)]
    decay = 1.0 - lr * settings.l2
    groups = _padded(arrays, len(registry))
    y_arr, cw_arr = np.array(ys), np.array(cws)
    w = np.zeros(len(registry))
    b = 0.0
    rng = new_rng(settings.seed)
    history = []
    for _ in range(settings.epochs):
        for idx in rng.permutation(len(arrays)).tolist():
            ids, vals = arrays[idx]
            margin = ys[idx] * (_ordered_dot(w, ids, vals) + b)
            w *= decay
            if margin < 1.0:
                w[ids] += steps[idx] * vals
                b += steps[idx]
        history.append(_objective(w, b, groups, y_arr, cw_arr, settings.l2))
    return SvmModel(registry, w, b, class_weights, history)


def svm_predict(model: SvmModel, fv: FeatureVector) -> tuple[str, float]:
    """Sign of w.x + b; a score of exactly 0 resolves to NS."""
    score = _ordered_dot(model.weights, *model.registry.vectorize(fv)) + model.bias
    return ("S" if score > 0.0 else "NS"), score


def save_svm_checkpoint(model: SvmModel, task: str, max_context: int | None,
                        path) -> None:
    checkpoint.write("svm", {
        "task": task,
        "max_context": max_context,
        "features": model.registry.names,
        "weights": checkpoint.encode(model.weights),
        "bias": model.bias,
        "class_weights": {k: float(v) for k, v in model.class_weights.items()},
    }, path)


def load_svm_checkpoint(path, doc: dict | None = None) -> tuple[SvmModel, str, int | None]:
    """Read a save_svm_checkpoint file, or take doc, its contents as
    checkpoint.read returned them; a malformed one raises ConfigError
    naming the path."""
    doc = checkpoint.read(path, "svm", doc)
    with checkpoint.parsing(path):
        weights = checkpoint.decode(doc["weights"])
        bias = float(checkpoint.number(doc["bias"], "bias"))
        names = doc["features"]
        if not np.isfinite(bias):
            raise ValueError(f"bias {bias} is not finite")
        model = SvmModel(FeatureRegistry(names), weights, bias,
                         {k: Fraction(checkpoint.number(v, f"class weight {k!r}"))
                          for k, v in doc["class_weights"].items()})
        task, max_context = doc["task"], checkpoint.window(doc["max_context"])
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names) == len(weights)):
        raise ConfigError(f"{path}: malformed checkpoint: feature names do not "
                          f"match the {len(weights)} weights")
    if task not in TASKS:
        raise ConfigError(f"{path}: malformed checkpoint: task {task!r}")
    return model, task, max_context
