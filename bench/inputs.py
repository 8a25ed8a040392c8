"""Seeded input generator for the convsarc benchmark.

Everything the program reads during a benchmark run is made here from the
workload seed: conversation corpora, raw tweet records, a lexicon directory
and word2vec text files. The same seed and sizes give byte-identical files.

Token draws follow a Zipfian distribution over an in-vocabulary word list;
a fixed share of draws comes from a separate list of words that have no
vector in any embedding file, so every corpus has the same OOV share.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OOV_SHARE = 0.05
ZIPF_EXPONENT = 1.1
SARCASM_TAGS = ("#sarcasm", "#sarcastic", "#irony")

# Real words at the head of the vocabulary, so lexicon, indicator and
# tag-question features fire the way they do on real text.
FUNCTION_WORDS = (
    "the", "a", "to", "and", "of", "is", "it", "that", "you", "i", "in",
    "this", "for", "on", "was", "with", "they", "but", "be", "have", "not",
    "never", "no", "isn't", "don't", "so", "really", "very", "totally",
    "oh", "yeah", "wow", "lol", "best", "worst", "great", "love", "happy",
    "good", "wonderful", "terrible", "hate", "awful", "sad", "bad", "just",
    "what",
)
# Punctuation the tokenizer splits off: it has vectors but is never drawn.
PUNCTUATION = (".", "!", "?", ",")
POSITIVE = ("great", "love", "happy", "good", "wonderful", "best")
NEGATIVE = ("terrible", "hate", "awful", "sad", "bad", "worst")
NEGATIONS = ("not", "never", "no")
CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"


@dataclass
class Vocabulary:
    words: list[str]  # in-vocabulary, Zipf rank order
    oov: list[str]    # words no embedding file holds
    probs: np.ndarray


def _pseudo_words(rng: np.random.Generator, n: int, taken: set[str],
                  syllables=(2, 4)) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        k = int(rng.integers(syllables[0], syllables[1] + 1))
        w = "".join(CONSONANTS[rng.integers(len(CONSONANTS))]
                    + VOWELS[rng.integers(len(VOWELS))] for _ in range(k))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def make_vocabulary(rng: np.random.Generator, n_words: int,
                    n_oov: int) -> Vocabulary:
    taken = set(FUNCTION_WORDS)
    words = list(FUNCTION_WORDS) + _pseudo_words(rng, n_words, taken)
    oov = _pseudo_words(rng, n_oov, taken, syllables=(3, 5))
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    probs = ranks ** -ZIPF_EXPONENT
    return Vocabulary(words, oov, probs / probs.sum())


def _tokens(rng: np.random.Generator, vocab: Vocabulary, n: int) -> list[str]:
    idx = rng.choice(len(vocab.words), size=n, p=vocab.probs)
    oov = rng.random(n) < OOV_SHARE
    return [vocab.oov[rng.integers(len(vocab.oov))] if o else vocab.words[i]
            for i, o in zip(idx, oov)]


class _Deck:
    """Seeded draws that deal every value of lo..hi once, in shuffled order,
    before dealing any again. Any run of draws then sums to nearly the same
    total whatever the seed, so the work per measured instance does not
    swing from seed to seed."""

    def __init__(self, rng: np.random.Generator, lo: int, hi: int):
        self.rng, self.values, self.pending = rng, list(range(lo, hi + 1)), []

    def draw(self) -> int:
        if not self.pending:
            self.pending = [int(v) for v in self.rng.permutation(self.values)]
        return self.pending.pop()


class _Writer:
    """Tweets and reply threads with lengths dealt from decks."""

    def __init__(self, rng: np.random.Generator, vocab: Vocabulary):
        self.rng, self.vocab = rng, vocab
        self.tweet_len = _Deck(rng, 5, 20)
        self.thread_len = _Deck(rng, 1, 3)

    def tweet(self, sarcastic: bool = False) -> str:
        rng = self.rng
        toks = _tokens(rng, self.vocab, self.tweet_len.draw())
        if sarcastic and rng.random() < 0.5:
            toks[int(rng.integers(len(toks)))] = "GREAT"
        if rng.random() < 0.3:
            toks.append(str(rng.choice(["!", "?", "!!"])))
        return " ".join(toks)


def make_corpus(rng: np.random.Generator, vocab: Vocabulary, n: int,
                prefix: str) -> list[dict]:
    """Twitter-shaped corpus records alternating S and NS: five context
    tweets and a reply each. S instances carry one human trigger."""
    w = _Writer(rng, vocab)
    out = []
    for k in range(n):
        label = "S" if k % 2 == 0 else "NS"
        rec = {"id": f"{prefix}{k:05d}", "platform": "twitter",
               "context": [w.tweet() for _ in range(5)],
               "reply": w.tweet(sarcastic=label == "S"), "label": label}
        if label == "S":
            rec["human_triggers"] = [int(rng.integers(5))]
        out.append(rec)
    return out


def make_raw_tweets(rng: np.random.Generator, vocab: Vocabulary,
                    n_conversations: int) -> tuple[list[dict], dict]:
    """Raw tweet records threaded by reply_to, with every drop reason of the
    self-labeling filter. Returns (records, counts of planted drops)."""
    w = _Writer(rng, vocab)
    rows: list[dict] = []
    drops = {"retweet": 0, "quote": 0, "duplicate": 0, "hashtag_url_only": 0,
             "nonfinal_sarcasm_tag": 0, "no_context": 0}

    def add(text, parent, retweet=False, quote=False):
        rid = f"t{len(rows):06d}"
        rows.append({"id": rid, "text": text, "retweet": retweet,
                     "quote": quote, "reply_to": parent})
        return rid

    for k in range(n_conversations):
        parent = None
        for _ in range(w.thread_len.draw()):
            parent = add(w.tweet(), parent)
        sarcastic = k % 2 == 0
        text = w.tweet(sarcastic)
        if sarcastic:
            n_tags = 2 if rng.random() < 0.2 else 1
            text += " " + " ".join(rng.choice(SARCASM_TAGS, n_tags, replace=False))
        elif rng.random() < 0.2:
            text += " #happy"
        add(text, parent)
        reason = k % 12
        if reason == 1:
            add(text, parent, retweet=True)
            drops["retweet"] += 1
        elif reason == 3:
            add(w.tweet(), parent, quote=True)
            drops["quote"] += 1
        elif reason == 5:
            add(text, parent)
            drops["duplicate"] += 1
        elif reason == 7:
            add(f"#tbt #fun http://t.co/{k:x} {_tokens(rng, vocab, 1)[0]}", parent)
            drops["hashtag_url_only"] += 1
        elif reason == 9:
            add(f"{SARCASM_TAGS[k % 3]} {w.tweet()}", parent)
            drops["nonfinal_sarcasm_tag"] += 1
        elif reason == 11:
            add(w.tweet(), None)
            drops["no_context"] += 1
    return rows, drops


def write_jsonl(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_lexicons(rng: np.random.Generator, vocab: Vocabulary, d: Path) -> None:
    """A lexicon directory in the documented format."""
    d.mkdir(parents=True, exist_ok=True)
    pool = vocab.words[len(FUNCTION_WORDS):len(FUNCTION_WORDS) + 400]
    lines = []
    for c in range(6):
        for w in rng.choice(pool, 15, replace=False):
            lines.append(f"cat{c}\t{w}\n")
    (d / "categories.tsv").write_text("".join(lines), encoding="utf-8")
    extra = rng.choice(pool, 40, replace=False)
    (d / "positive.txt").write_text(
        "\n".join(list(POSITIVE) + list(extra[:20])) + "\n", encoding="utf-8")
    (d / "negative.txt").write_text(
        "\n".join(list(NEGATIVE) + list(extra[20:])) + "\n", encoding="utf-8")
    (d / "negations.txt").write_text("\n".join(NEGATIONS) + "\n", encoding="utf-8")


def write_embeddings(rng: np.random.Generator, tokens: list[str], dim: int,
                     path: Path) -> None:
    """word2vec text file: one vector per token, six decimals per value."""
    pool = [f"{v:.6f}" for v in rng.uniform(-0.5, 0.5, 4096)]
    codes = rng.integers(0, len(pool), size=(len(tokens), dim))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for tok, row in zip(tokens, codes.tolist()):
            fh.write(tok + " " + " ".join(map(pool.__getitem__, row)) + "\n")


def distractor_words(rng: np.random.Generator, vocab: Vocabulary,
                     n: int) -> list[str]:
    """Words that no corpus uses, to pad a large embedding file."""
    taken = set(vocab.words) | set(vocab.oov)
    return [f"{w}{i % 10}" for i, w in
            enumerate(_pseudo_words(rng, n, taken, syllables=(2, 5)))]
