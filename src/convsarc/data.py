"""Corpus ingestion and preprocessing.

Covers the whole path from raw records to model-ready token sequences:
rule-based tokenization and sentence splitting, selective casefolding
(all-caps words keep their case), Twitter self-labeling filters, context
truncation, stratified splitting, and the line-delimited corpus format.

Corpus records are one JSON object per line with fields: id, platform
("forum" | "twitter"), context (array of strings, oldest first), reply,
label ("S" | "NS"), and optional human_triggers (0-based indices of the
segmented context sentences flagged as provoking the reply).
"""
from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ParseError, ValidationError

RESOURCE_DIR = Path(__file__).parent / "resources"

PLATFORMS = ("forum", "twitter")
LABELS = ("S", "NS")
SARCASM_HASHTAGS = frozenset({"#sarcasm", "#sarcastic", "#irony"})
FORUM_CONTEXT_CUTOFF = 10  # sentences
TWITTER_CONTEXT_CUTOFF = 5  # tweets
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train / dev / test

_TERMINAL_PUNCT = ".,!?;:"
_QUOTE_CHARS = "\"'“”‘’«»"
# A run of sentence marks, the whitespace after it (group 2) and one more
# character; group 1 is the run's word, from its start to the run's first
# mark. A match starts only at a word and its group 1 ends only at the start
# of a run, so no run is rescanned: the regex takes linear time on any text.
_BOUNDARY_RE = re.compile(r"(?<!\S)(\S*?(?<![.!?])[.!?])[.!?]*(\s+)(?=\S)")
_URL_RE = re.compile(r"^(?:https?://|www\.)", re.IGNORECASE)
_JSON_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def open_input(path, mode: str = "rb", **kwargs):
    """open(path, mode, **kwargs) for reading; a path that cannot be opened,
    such as a directory, raises ConfigError naming it."""
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise ConfigError(f"{path}: cannot read: {e.strerror or e}") from None


@contextmanager
def open_output(path, mode: str = "w"):
    """A file to write path's new contents to: UTF-8 text with "\\n" newlines,
    or bytes with mode "wb". It is a temporary file in path's directory,
    renamed over path when the block completes. On any exception it is
    removed and path is left as it was; an OSError names path."""
    tmp = os.path.join(os.path.dirname(path), f".{os.getpid()}.{threading.get_ident()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.strerror and e.filename in (None, tmp):
            e.filename, e.filename2 = os.fspath(path), None
        raise


def read_text(path) -> str:
    """The text of a UTF-8 file, its newlines made universal as text mode
    makes them; a byte that is not UTF-8 raises ParseError naming the path
    and line."""
    with open_input(path) as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line_start = raw.rfind(b"\n", 0, e.start) + 1
        lineno = raw.count(b"\n", 0, line_start) + 1
        raise ParseError(f"{path}: line {lineno}: not valid UTF-8 ({e.reason} "
                         f"at byte {e.start - line_start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_list(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a UTF-8 list file, read
    by read_text, that is neither blank nor a "#" comment."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_resource_list(name: str) -> tuple[str, ...]:
    """Entries of a bundled resource list file."""
    return tuple(line for _, line in read_list(RESOURCE_DIR / name))


EMOTICONS = frozenset(load_resource_list("emoticons.txt"))
_LONGEST_EMOTICON = max(map(len, EMOTICONS), default=0)
ABBREVIATIONS = frozenset(load_resource_list("abbreviations.txt"))


@dataclass
class ConversationInstance:
    """One labeled (context, reply) pair with provenance."""

    id: str
    platform: str
    context: list[str]
    reply: str
    label: str
    human_triggers: list[int] | None = None


@dataclass
class SegmentedInstance:
    """Tokenized view of an instance: one token list per sentence, plus the
    raw context sentences (aligned 1:1 with context_sentences) and the human
    triggers re-indexed into them (None when none survives truncation)."""

    context_sentences: list[list[str]]
    reply_sentences: list[list[str]]
    label: str
    context_texts: list[str] = field(default_factory=list)
    triggers: list[int] | None = None
    id: str = ""  # the instance's id, which data errors name


@dataclass
class LabeledTweet:
    """A tweet that survived the self-labeling filters."""

    id: str
    text: str
    label: str
    reply_to: str | None


def tokenize(text: str) -> list[str]:
    """Whitespace splitting plus minimal rules shared by both platforms:
    terminal punctuation (.,!?;:) becomes its own token; hashtags, mentions,
    URLs, and emoticons survive whole; internal apostrophes are kept.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk[-1] in _TERMINAL_PUNCT:
            tokens.extend(_split_chunk(chunk))
        else:  # nothing to split off: the chunk is one token
            tokens.append(chunk)
    return tokens


def _split_chunk(chunk: str) -> list[str]:
    if _URL_RE.match(chunk):
        return [chunk]
    # the body keeps a character and its longest prefix that is an emoticon;
    # only a body no longer than the longest emoticon can be one
    end = len(chunk.rstrip(_TERMINAL_PUNCT)) or 1
    if end < _LONGEST_EMOTICON:
        for k in range(min(len(chunk), _LONGEST_EMOTICON), end, -1):
            if chunk[:k] in EMOTICONS:
                end = k
                break
    return [chunk[:end], *chunk[end:]]


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence boundaries: a run of .!? followed by whitespace
    and an uppercase letter, digit, or quote ends a sentence, unless the
    preceding word is a known abbreviation. Never splits inside a token.
    """
    sentences: list[str] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        nxt = text[m.end()]
        if (nxt.isupper() or nxt.isdigit() or nxt in _QUOTE_CHARS) \
                and m[1].lower() not in ABBREVIATIONS:
            sentences.append(text[start:m.start(2)].strip())
            start = m.end()
    sentences.append(text[start:].strip())
    return [s for s in sentences if s]


def casefold_selective(tokens: Sequence[str]) -> list[str]:
    """Lowercase every token except those whose alphabetic characters are
    all uppercase; tokens with no alphabetic characters pass through."""
    return [t if t == t.lower() or all(c.isupper() for c in t if c.isalpha()) else t.lower()
            for t in tokens]


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _validate_tweet_record(rec, path, lineno: int) -> tuple[str, str, bool, bool, str | None]:
    _require_object(rec, path, lineno)
    rid = rec.get("id")
    if not isinstance(rid, str) or not rid:
        raise _field_error(path, lineno, "id", "must be a nonempty string")
    text = rec.get("text")
    if not isinstance(text, str) or not text.strip():
        raise _field_error(path, lineno, "text", "must be a nonempty string")
    for key in ("retweet", "quote"):
        if not isinstance(rec.get(key, False), bool):
            raise _field_error(path, lineno, key, "must be a boolean")
    reply_to = rec.get("reply_to")
    if reply_to is not None and not isinstance(reply_to, str):
        raise _field_error(path, lineno, "reply_to", "must be a string or null")
    return rid, text, rec.get("retweet", False), rec.get("quote", False), reply_to


def twitter_filter(records: Iterable[tuple[int, object]], path) -> list[LabeledTweet]:
    """Apply the self-labeling rules to the (line number, record) pairs of path.

    Rejects retweets, quotes, exact duplicates (after whitespace
    normalization), and tweets with fewer than three non-hashtag non-URL
    tokens. A tweet is sarcastic only if it ends in a run of sarcasm
    hashtags (#sarcasm, #sarcastic, #irony); one with a sarcasm hashtag
    anywhere else is dropped. Label hashtags are stripped from the stored
    text; non-sarcastic tweets keep any other hashtag (#happy, #love, ...).
    An id repeated with any field changed raises ParseError naming both lines.
    """
    seen: set[str] = set()
    first: dict[str, tuple[int, tuple]] = {}  # id -> (line, fields) of its first record
    accepted: list[LabeledTweet] = []
    for lineno, rec in records:
        rid, text, retweet, quote, reply_to = fields = _validate_tweet_record(rec, path, lineno)
        first_line, first_fields = first.setdefault(rid, (lineno, fields))
        if first_fields != fields:
            raise ParseError(f"{path}: line {lineno}: id '{rid}' repeats line {first_line} "
                             "with other fields")
        if retweet or quote:
            continue
        norm = _normalize_ws(text)
        if norm in seen:
            continue
        seen.add(norm)
        tokens = tokenize(norm)
        content = [t for t in tokens
                   if not t.startswith("#") and not _URL_RE.match(t)]
        if len(content) < 3:
            continue
        tags = [t.lower() in SARCASM_HASHTAGS for t in tokens]
        n = sum(tags)
        if n == 0:
            accepted.append(LabeledTweet(rid, norm, "NS", reply_to))
        elif all(tags[-n:]):
            # tokenize splits only trailing punctuation off a chunk, so each
            # tag of the final run is a whole chunk of the single-spaced norm
            accepted.append(LabeledTweet(rid, norm.rsplit(" ", n)[0], "S", reply_to))
    return accepted


def build_twitter_instances(records: Sequence[tuple[int, object]],
                            path) -> list[ConversationInstance]:
    """The tweets twitter_filter accepts, with context assembled along reply-to
    chains. Context tweets are taken verbatim from the raw set (they need
    not pass the label filter themselves); tweets without any resolvable
    context are dropped, matching a conversation-only corpus.
    """
    labeled = twitter_filter(records, path)  # validates every record
    by_id = {r["id"]: (_normalize_ws(r["text"]), r.get("reply_to")) for _, r in records}
    instances = []
    for tweet in labeled:
        chain: list[str] = []
        visited = {tweet.id}
        cur = tweet.reply_to
        while cur is not None and cur in by_id and cur not in visited:
            visited.add(cur)
            text, parent = by_id[cur]
            chain.append(text)
            cur = parent
        if not chain:
            continue
        chain.reverse()  # oldest first
        instances.append(ConversationInstance(
            id=tweet.id, platform="twitter", context=chain,
            reply=tweet.text, label=tweet.label))
    return instances


def _sentence_texts(text: str, platform: str) -> list[str]:
    """Raw sentence units that hold a token. Each tweet is a single
    sentence; forum text is split by rule. tokenize gives every
    whitespace-separated chunk a token, so a unit has tokens exactly when it
    is not all whitespace."""
    units = [text] if platform == "twitter" else split_sentences(text)
    return [u for u in units if u and not u.isspace()]


def _context_texts(inst: ConversationInstance) -> list[str]:
    return [u for utterance in inst.context
            for u in _sentence_texts(utterance, inst.platform)]


def context_cutoff(platform: str, max_context: int | None = None) -> int:
    if max_context is not None:
        if max_context < 0:  # texts[-cutoff:] would drop the oldest sentences
            raise DomainError(f"max_context: {max_context} must be nonnegative")
        return max_context
    return FORUM_CONTEXT_CUTOFF if platform == "forum" else TWITTER_CONTEXT_CUTOFF


def segment_instance(inst: ConversationInstance,
                     max_context: int | None = None) -> SegmentedInstance:
    """Tokenized, casefolded view of an instance. Truncation keeps only the
    most recent context sentences (10 forum / 5 twitter by default, or
    max_context), and only those are tokenized; the reply is never
    truncated."""
    texts = _context_texts(inst)
    cutoff = context_cutoff(inst.platform, max_context)
    kept = texts[-cutoff:] if cutoff else []
    dropped = len(texts) - len(kept)
    triggers = [t - dropped for t in inst.human_triggers or () if t >= dropped]
    return SegmentedInstance(
        context_sentences=[casefold_selective(tokenize(u)) for u in kept],
        reply_sentences=[casefold_selective(tokenize(u))
                         for u in _sentence_texts(inst.reply, inst.platform)],
        label=inst.label, context_texts=kept, triggers=triggers or None, id=inst.id)


def _field_error(path, lineno: int, field: str, message: str) -> ParseError:
    return ParseError(f"{path}: line {lineno}: field '{field}' {message}")


def _require_object(obj, path, lineno: int) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: line {lineno}: record must be an object")


def refuse_lone_surrogates(text: str, path, first_lineno: int = 1) -> None:
    """Raise ParseError naming the path and line if a string of the valid
    JSON text holds a lone surrogate, which only a \\u escape can make and
    no UTF-8 encoder takes. Text without a \\u escape is not scanned."""
    if "\\u" not in text:
        return
    for lineno, line in enumerate(text.split("\n"), start=first_lineno):
        for literal in _JSON_STRING_RE.findall(line):
            try:
                json.loads(literal).encode("utf-8")
            except UnicodeEncodeError as e:
                raise ParseError(f"{path}: line {lineno}: string holds a lone surrogate "
                                 f"(\\u{ord(e.object[e.start]):04x})") from None


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each nonblank line of a UTF-8
    JSON-lines file, its newlines made universal by read_text; a line that
    is not UTF-8, not JSON or holds a lone surrogate raises ParseError
    naming the path and line."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from None
        except RecursionError:  # nested deeper than the parser's recursion limit
            raise ParseError(f"{path}: line {lineno}: invalid JSON (nested too deeply)") from None
        refuse_lone_surrogates(line, path, lineno)
        yield lineno, obj


def load_corpus(path) -> list[ConversationInstance]:
    """Read and validate a line-delimited corpus file."""
    instances: list[ConversationInstance] = []
    seen_ids: set[str] = set()
    for lineno, obj in read_jsonl(path):
        _require_object(obj, path, lineno)
        inst = _parse_record(obj, path, lineno)
        if inst.id in seen_ids:
            raise ParseError(f"{path}: line {lineno}: duplicate id '{inst.id}'")
        seen_ids.add(inst.id)
        if inst.human_triggers is not None:
            n_sent = len(_context_texts(inst))
            bad = [t for t in inst.human_triggers if t >= n_sent]
            if bad:
                raise ValidationError(
                    f"{path}: line {lineno}: human_triggers {bad} out of range "
                    f"for {n_sent} context sentences (id '{inst.id}')")
        instances.append(inst)
    return instances


def _parse_record(obj: dict, path, lineno: int) -> ConversationInstance:
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        raise _field_error(path, lineno, "id", "must be a nonempty string")
    platform = obj.get("platform")
    if platform not in PLATFORMS:
        raise _field_error(path, lineno, "platform", f"must be one of {PLATFORMS}")
    context = obj.get("context")
    if not isinstance(context, list) or any(not isinstance(c, str) for c in context):
        raise _field_error(path, lineno, "context", "must be an array of strings")
    reply = obj.get("reply")
    if not isinstance(reply, str) or not reply.strip():
        raise _field_error(path, lineno, "reply", "must be a nonempty string")
    label = obj.get("label")
    if label not in LABELS:
        raise _field_error(path, lineno, "label", f"must be one of {LABELS}")
    triggers = obj.get("human_triggers")
    if triggers is not None:
        if (not isinstance(triggers, list) or not triggers
                or any(not isinstance(t, int) or isinstance(t, bool) or t < 0
                       for t in triggers)):
            raise _field_error(path, lineno, "human_triggers",
                               "must be a nonempty array of nonnegative integers")
    return ConversationInstance(rid, platform, list(context), reply, label,
                                list(triggers) if triggers is not None else None)


def write_jsonl(path, rows, ensure_ascii: bool = True) -> None:
    """Each row as a line of sorted-key JSON, written by open_output."""
    with open_output(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=ensure_ascii) + "\n")


def save_corpus(instances: Sequence[ConversationInstance], path) -> None:
    """The instances as corpus records in raw UTF-8, without null human_triggers."""
    write_jsonl(path, ({k: v for k, v in vars(inst).items() if v is not None}
                       for inst in instances), ensure_ascii=False)


def largest_remainder_counts(n: int, fractions: Sequence[float]) -> list[int]:
    """Integer allocation of n by the given fractions; leftovers go to the
    largest fractional parts, earlier buckets winning ties."""
    ideals = [f * n for f in fractions]
    base = [int(x) for x in ideals]
    rem = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(ideals[i] - base[i]), i))
    for i in order[:rem]:
        base[i] += 1
    return base


def stratified_split(instances: Sequence[ConversationInstance], seed: int
                     ) -> tuple[list[ConversationInstance],
                                list[ConversationInstance],
                                list[ConversationInstance]]:
    """Per-class seeded shuffle, then an 80/10/10 largest-remainder split.
    The three parts are disjoint and exhaustive."""
    by_label: dict[str, list[ConversationInstance]] = {lab: [] for lab in LABELS}
    for inst in instances:
        by_label[inst.label].append(inst)
    for lab in LABELS:
        if len(by_label[lab]) < 10:
            raise ConfigError(
                f"class {lab} has {len(by_label[lab])} instances; "
                "at least 10 per class are required to split")
    rng = np.random.default_rng(seed)
    train: list[ConversationInstance] = []
    dev: list[ConversationInstance] = []
    test: list[ConversationInstance] = []
    for lab in LABELS:
        group = by_label[lab]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n_train, n_dev, _ = largest_remainder_counts(len(group), SPLIT_FRACTIONS)
        train.extend(shuffled[:n_train])
        dev.extend(shuffled[n_train:n_train + n_dev])
        test.extend(shuffled[n_train + n_dev:])
    return train, dev, test
