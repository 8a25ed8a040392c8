"""Differential tests: the optimised corpus, feature and SVM code against
plain-Python reference forms of the same functions.

The references below are the straightforward loops these functions were
first written as. The optimised code must give exactly their results: the
same tokens, the same feature dicts in the same order, and SVM weights,
bias, objective history and margins equal to the last bit.
"""
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from convsarc import data, features
from convsarc.data import ConversationInstance
from convsarc.features import FeatureRegistry, SvmModel
from convsarc.models import TrainSettings

# -- references ---------------------------------------------------------------


def ref_split_chunk(chunk):
    if data._URL_RE.match(chunk):
        return [chunk]
    trail = []
    body = chunk
    while len(body) > 1 and body[-1] in data._TERMINAL_PUNCT and body not in data.EMOTICONS:
        trail.append(body[-1])
        body = body[:-1]
    tokens = [body] if body else []
    tokens.extend(reversed(trail))
    return tokens


def ref_tokenize(text):
    tokens = []
    for chunk in text.split():
        tokens.extend(ref_split_chunk(chunk))
    return tokens


def ref_casefold_selective(tokens):
    out = []
    for t in tokens:
        alpha = [c for c in t if c.isalpha()]
        if not alpha:
            out.append(t)
        elif all(c.isupper() for c in alpha):
            out.append(t)
        else:
            out.append(t.lower())
    return out


def ref_split_sentences(text):
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] not in ".!?":
            i += 1
            continue
        run_end = i
        while run_end + 1 < n and text[run_end + 1] in ".!?":
            run_end += 1
        nxt = run_end + 1
        if nxt < n and text[nxt].isspace():
            m = nxt
            while m < n and text[m].isspace():
                m += 1
            if m < n and (text[m].isupper() or text[m].isdigit() or text[m] in data._QUOTE_CHARS) \
                    and not ref_is_abbreviation(text, start, i):
                piece = text[start:run_end + 1].strip()
                if piece:
                    sentences.append(piece)
                start = m
                i = m
                continue
        i = run_end + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def ref_is_abbreviation(text, start, dot_pos):
    w_start = dot_pos
    while w_start > start and not text[w_start - 1].isspace():
        w_start -= 1
    return text[w_start:dot_pos + 1].lower() in data.ABBREVIATIONS


def ref_twitter_filter(records):
    seen = set()
    accepted = []
    for lineno, rec in records:
        rid, text, retweet, quote, reply_to = data._validate_tweet_record(rec, "raw.jsonl", lineno)
        if retweet or quote:
            continue
        norm = data._normalize_ws(text)
        if norm in seen:
            continue
        seen.add(norm)
        tokens = data.tokenize(norm)
        content = [t for t in tokens
                   if not t.startswith("#") and not data._URL_RE.match(t)]
        if len(content) < 3:
            continue
        lowered = [t.lower() for t in tokens]
        tag_positions = [i for i, t in enumerate(lowered) if t in data.SARCASM_HASHTAGS]
        if tag_positions:
            if tag_positions[-1] != len(tokens) - 1:
                continue
            run_start = len(tokens)
            while run_start > 0 and lowered[run_start - 1] in data.SARCASM_HASHTAGS:
                run_start -= 1
            if any(p < run_start for p in tag_positions):
                continue
            accepted.append(data.LabeledTweet(rid, ref_strip_trailing_tags(norm), "S", reply_to))
        else:
            accepted.append(data.LabeledTweet(rid, norm, "NS", reply_to))
    return accepted


def ref_strip_trailing_tags(norm):
    while True:
        head, _, last = norm.rpartition(" ")
        if last.lower() in data.SARCASM_HASHTAGS:
            norm = head
        else:
            return norm


def ref_sentence_units(text, platform):
    units = [text] if platform == "twitter" else ref_split_sentences(text)
    out = []
    for u in units:
        toks = ref_casefold_selective(ref_tokenize(u))
        if toks:
            out.append((u, toks))
    return out


def ref_context_units(inst):
    units = []
    for utterance in inst.context:
        units.extend(ref_sentence_units(utterance, inst.platform))
    return units


def ref_segment(inst, max_context):
    """(context token lists, reply token lists, context texts): tokenize
    everything, then truncate."""
    units = ref_context_units(inst)
    context = [toks for _, toks in units]
    texts = [raw for raw, _ in units]
    cutoff = data.context_cutoff(inst.platform, max_context)
    context = context[-cutoff:] if cutoff else []
    texts = texts[-cutoff:] if cutoff else []
    reply = [toks for _, toks in ref_sentence_units(inst.reply, inst.platform)]
    return context, reply, texts


def ref_count_tag_questions(lowered, patterns):
    count = 0
    i = 0
    n = len(lowered)
    while i < n:
        matched = 0
        for pat in patterns:
            if lowered[i:i + len(pat)] == list(pat):
                matched = max(matched, len(pat))
        if matched:
            count += 1
            i += matched
        else:
            i += 1
    return count


def ref_ngram_features(tokens):
    fv = {}
    for n, prefix in ((1, "ng1:"), (2, "ng2:"), (3, "ng3:")):
        for i in range(len(tokens) - n + 1):
            fv[prefix + "_".join(tokens[i:i + n])] = 1.0
    return fv


def ref_registry_names(vectors, min_ngram_count):
    counts = {}
    for fv in vectors:
        for name in fv:
            counts[name] = counts.get(name, 0) + 1
    names, seen = [], set()
    for fv in vectors:
        for name in fv:
            if features._is_ngram(name) and counts[name] < min_ngram_count:
                continue
            if name not in seen:
                seen.add(name)
                names.append(name)
    return names


def ref_vectorize(fv, registry):
    ids = {name: fid for fid, name in enumerate(registry.names)}
    out = {}
    for name, value in fv.items():
        if name in ids:
            out[ids[name]] = value
    return out


def ref_sparse_dot(w, x):
    return sum(w[fid] * val for fid, val in x.items())


def ref_hinge_objective(weights, bias, rows, l2):
    penalty = 0.5 * l2 * float(weights @ weights)
    loss = 0.0
    for x, y, cw in rows:
        loss += cw * max(0.0, 1.0 - y * (ref_sparse_dot(weights, x) + bias))
    return penalty + loss / len(rows)


def objective(weights, bias, rows, l2):
    """features._objective of (x, y, cw) rows, each x as (ids, values)."""
    groups = features._padded([x for x, _, _ in rows], len(weights))
    return features._objective(weights, bias, groups, np.array([y for _, y, _ in rows]),
                               np.array([cw for _, _, cw in rows]), l2)


def ref_svm_train(train, config):
    """(feature names, weights, bias, objective history): one Python step
    per feature of every instance in every epoch."""
    registry = FeatureRegistry(ref_registry_names([fv for fv, _ in train],
                                                  config.min_ngram_count))
    class_weights = features.class_weight_map(label for _, label in train)
    rows = [(ref_vectorize(fv, registry), 1.0 if label == "S" else -1.0,
             float(class_weights[label])) for fv, label in train]
    norms = []
    for x, _, _ in rows:
        norm2 = 0.0  # added in order: sum() compensates floats from Python 3.12 on
        for v in x.values():
            norm2 += v * v
        norms.append(norm2)
    max_norm2 = max(norms, default=0.0)
    lr = 1.0 / (config.l2 + max(max_norm2, 1e-12))
    w = np.zeros(len(registry))
    b = 0.0
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        for idx in rng.permutation(len(rows)):
            x, y, cw = rows[idx]
            margin = y * (ref_sparse_dot(w, x) + b)
            w *= 1.0 - lr * config.l2
            if margin < 1.0:
                for fid, val in x.items():
                    w[fid] += lr * cw * y * val
                b += lr * cw * y
        history.append(ref_hinge_objective(w, b, rows, config.l2))
    return registry.names, w, b, history


def bits(x):
    return struct.pack("<d", x)


# -- tokenizer ------------------------------------------------------------------

# cased and uncased non-ASCII letters: titlecase, dotted capital I (whose
# lower() is two characters), sharp s, a ligature, a Roman numeral (upper
# and lower case but not alphabetic) and a CJK character
PIECES = ["ǅ", "İ", "ß", "ﬁ", "Ⅻ", "ⅻ", "中", "Σ", "É", "é", "a", "B", "cD", "EF",
          "don't", "#Sarcasm", "@User", ":)", ":p", ":-(", ":D", "!", "?", ".", ",",
          ";", ":", "...", "?!", "http://x.example/A.b?", "www.Foo.com.", "HTTPS://Q.", "1",
          "_", "'", '"']
SPACES = [" ", "  ", "\t", "\n", "\u00a0", "\u3000"]

words = st.lists(st.sampled_from(PIECES), min_size=1, max_size=4).map("".join)
texts = st.lists(st.tuples(words, st.sampled_from(SPACES)), max_size=10).map(
    lambda pairs: "".join(w + s for w, s in pairs))


@given(texts)
@settings(max_examples=150, deadline=None)
def test_tokenize_and_casefold_match_reference(text):
    tokens = data.tokenize(text)
    assert tokens == ref_tokenize(text)
    assert data.casefold_selective(tokens) == ref_casefold_selective(tokens)


@given(st.lists(st.text(max_size=6)))
@settings(max_examples=200, deadline=None)
@example(["ǅ", "İ", "ß", "ﬁ", "Ⅻ", "中", "ǅA", "Ⅻa", "İS", "SS", ""])
def test_casefold_matches_reference_on_any_text(tokens):
    assert data.casefold_selective(tokens) == ref_casefold_selective(tokens)


# emoticons that end in a mark, some longer than any bundled one and some the
# prefix of another; no bundled emoticon ends in a mark, so only these reach
# the rule that stops stripping a chunk's trailing marks at its longest
# emoticon prefix
MARK_EMOTICONS = frozenset({":.", "o.O!", ";-)?", ";-)?!", "x_x!", "x_x!!!"})


@given(st.lists(st.sampled_from(sorted(MARK_EMOTICONS) + ["a", ":", ";-)", "x_x", "o.O", ".",
                                                          "!", "?", ",", " "]),
                max_size=12).map("".join))
@settings(max_examples=200, deadline=None)
@example("x_x!!!!.")
@example(";-)?!!")
@example("o.O!?")
def test_tokenize_stops_at_an_emoticon_that_ends_in_a_mark(text):
    emoticons = data.EMOTICONS | MARK_EMOTICONS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "EMOTICONS", emoticons)
        mp.setattr(data, "_LONGEST_EMOTICON", max(map(len, emoticons)))
        assert data.tokenize(text) == ref_tokenize(text)


# sentence marks, abbreviations, quotes, uppercase and digit starts (Latin,
# Arabic-Indic) and the whitespace that str.isspace() and a regex's \s both accept,
# \x1c and \x85 among it
SENTENCE_PIECES = ["Dr.", "dr.", "e.g.", "Mr", "Smith", "smith", "É", "é", "١", "7", "ǅ", "x",
                   ".", "!", "?", "?!", "...", "!.", "'", '"', "“", "«", ":)", "a.b"]
SENTENCE_SPACES = [" ", "  ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000", ""]
sentence_texts = st.lists(st.tuples(st.sampled_from(SENTENCE_PIECES),
                                    st.sampled_from(SENTENCE_SPACES)), max_size=14).map(
    lambda pairs: "".join(w + s for w, s in pairs))


@given(st.one_of(sentence_texts, texts))
@settings(max_examples=300, deadline=None)
@example("Dr. Smith came. Then he left.")
@example("What?! You did it. no way")
@example('He left. "Fine," she said. \'Then\' 2 more.')
@example("Done. Élan here. Then ١ more.")
@example("The end.   ")
@example("One.\x1cTwo.\xa0Three.\x1c")
@example("wow?!. Yes a!!b!! C e.g.. D x.y.z. E ... F")
def test_split_sentences_matches_reference(text):
    assert data.split_sentences(text) == ref_split_sentences(text)


TWEET_PIECES = ["oh", "Great", "day", "again", "#sarcasm", "#Sarcasm", "#IRONY", "#sarcastic",
                "#sarcasm.", "#irony!", "#sarcasm#irony", "#happy", "#", "http://t.co/x",
                "www.x.com.", "!", "?!", ":)", "@you"]
tweet_texts = st.lists(st.tuples(st.sampled_from(TWEET_PIECES),
                                 st.sampled_from([" ", "  ", "\t", "\xa0"])),
                       min_size=1, max_size=9).map(lambda pairs: "".join(w + s for w, s in pairs))


@given(st.lists(st.tuples(tweet_texts, st.booleans(), st.booleans()), max_size=8))
@settings(max_examples=200, deadline=None)
@example([("thanks for nothing #irony #sarcasm", False, False)])
@example([("what a day #sarcasm.", False, False)])
@example([("oh #Sarcasm what a day", False, False)])
@example([("what a day #sarcasm#irony", False, False)])
@example([("what a   day #IRONY", False, False), ("what a day  #IRONY", False, False),
          ("what a day again", True, False)])
def test_twitter_filter_matches_reference(rows):
    records = [{"id": f"t{i}", "text": text, "retweet": retweet, "quote": quote,
                "reply_to": f"t{i - 1}" if i else None}
               for i, (text, retweet, quote) in enumerate(rows)]
    numbered = list(enumerate(records, start=1))
    assert data.twitter_filter(numbered, "raw.jsonl") == ref_twitter_filter(numbered)


utterances = st.one_of(texts, st.sampled_from(["", "   ", "\t\n"]),
                       st.lists(st.sampled_from(["Yes.", "no!", "Mr. Smith came.", "A? B",
                                                 "e.g. this", "\"Quoted.\" Then"]),
                                max_size=4).map(" ".join))


@given(st.sampled_from(data.PLATFORMS), st.lists(utterances, max_size=8), texts,
       st.sampled_from([None, 0, 1, 2, 3, 12]))
@settings(max_examples=100, deadline=None)
def test_segmentation_matches_reference(platform, context, reply, max_context):
    inst = ConversationInstance("x", platform, context, reply or "r", "S")
    seg = data.segment_instance(inst, max_context)
    context_ref, reply_ref, texts_ref = ref_segment(inst, max_context)
    assert seg.context_sentences == context_ref
    assert seg.reply_sentences == reply_ref
    assert seg.context_texts == texts_ref
    inst.human_triggers = [0, 3, 7]
    total = len(ref_context_units(inst))
    kept = min(total, data.context_cutoff(platform, max_context))
    shifted = [t - (total - kept) for t in inst.human_triggers if t >= total - kept]
    assert data.segment_instance(inst, max_context).triggers == (shifted or None)


# -- tag questions and feature families -------------------------------------------

TAG_WORDS = ["is", "it", "not", "x"]


def tag_questions(lowered):
    return features.indicator_features(lowered, lowered, "").get("ind:tag_question", 0.0)


patterns = st.lists(st.lists(st.sampled_from(TAG_WORDS), max_size=4), max_size=6)


@given(st.lists(st.sampled_from(TAG_WORDS), max_size=16), patterns)
@settings(max_examples=200, deadline=None)
@example(["is", "it", "not", "is", "not", "it", "it"],
         [["is", "it", "not"], ["is", "not", "it"], ["is", "it"], ["is"], []])
@example(["is", "not", "is", "it", "not"], [["is", "not"], ["is", "not", "it"], ["not", "is"]])
@example(["is", "it", "is", "it"], [["is"], ["is", "it", "is"]])
@example(["is", "it"], [[]])  # no nonempty pattern: nothing matches
@example(["ist", "i.t", "is"], [["i.t"], ["i.t", "is"]])  # tokens match literally
def test_tag_question_index_matches_linear_scan(lowered, pats):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "TAG_QUESTION_RE", features._tag_question_re(pats))
        assert tag_questions(lowered) == ref_count_tag_questions(lowered, pats)


BUNDLED = [p.split() for p in data.load_resource_list("tag_questions.txt")]


@given(st.lists(st.sampled_from(sorted({t for p in BUNDLED for t in p}) + ["x"]),
                max_size=16))
@settings(max_examples=150, deadline=None)
def test_bundled_tag_questions_match_linear_scan(lowered):
    assert tag_questions(lowered) == ref_count_tag_questions(lowered, BUNDLED)


def test_bundled_tag_questions_all_indexed():
    assert BUNDLED and all(tag_questions(p) == 1.0 for p in BUNDLED)


@given(st.lists(st.sampled_from(["a", "b", "a_b", "_", "c"]), max_size=8))
@settings(max_examples=150, deadline=None)
def test_ngram_features_match_reference_in_order(tokens):
    fv = features.ngram_features(tokens)
    ref = ref_ngram_features(tokens)
    assert list(fv.items()) == list(ref.items())


def test_lexicon_categories_match_any_scan(tiny_lexicons):
    for tokens in (["LOVE", "x"], ["never"], ["x", "y"], [], ["Always", "hate"]):
        lowered = [t.lower() for t in tokens]
        fv = features.lexicon_features(lowered, "reply", tiny_lexicons)
        expected = [f"cat:{name}" for name, words in sorted(tiny_lexicons.categories.items())
                    if any(t in words for t in lowered)]
        assert [k for k in fv if k.startswith("cat:")] == expected


def ref_net_polarity(tokens, lex):
    lowered = [t.lower() for t in tokens]
    return (sum(1 for t in lowered if t in lex.positive)
            - sum(1 for t in lowered if t in lex.negative))


def ref_assemble(inst, mode, lex, max_context=None):
    """assemble as first written: the incongruity flag from each side's own
    lowercased polarity counts."""
    seg = data.segment_instance(inst, max_context)
    reply_tokens = [t for s in seg.reply_sentences for t in s]
    reply_lowered = [t.lower() for t in reply_tokens]
    fv = {}
    fv.update(features._namespace("r", features.ngram_features(reply_tokens)))
    fv.update(features._namespace("r", features.lexicon_features(reply_lowered, "reply", lex)))
    fv.update(features._namespace(
        "r", features.indicator_features(reply_tokens, reply_lowered, inst.reply)))
    if mode == "context_and_reply":
        context_tokens = [t for s in seg.context_sentences for t in s]
        context_lowered = [t.lower() for t in context_tokens]
        context_raw = " ".join(seg.context_texts)
        fv.update(features._namespace("c", features.ngram_features(context_tokens)))
        fv.update(features._namespace(
            "c", features.lexicon_features(context_lowered, "context", lex)))
        fv.update(features._namespace(
            "c", features.indicator_features(context_tokens, context_lowered, context_raw)))
        if ref_net_polarity(context_tokens, lex) * ref_net_polarity(reply_tokens, lex) < 0:
            fv["incongruity"] = 1.0
    return fv


LEXICON = features.LexiconSet(
    categories={"affect": frozenset({"love", "hate"}), "certain": frozenset({"never"})},
    positive=frozenset({"love", "great", "happy"}),
    negative=frozenset({"hate", "terrible", "sad"}),
    negations=frozenset({"not", "never"}))
# lexicon words in several cases, among the tokenizer's hard pieces
polar_words = st.sampled_from(["love", "Love", "LOVE", "great!", "Happy", "hate", "HATE",
                               "terrible.", "Sad", "not", "never", "yeah", "right?"])
polar_texts = st.lists(st.one_of(polar_words, words), max_size=10).map(" ".join)


@given(st.sampled_from(data.PLATFORMS), st.sampled_from(features.TASKS),
       st.lists(st.one_of(polar_texts, utterances), max_size=6), polar_texts,
       st.sampled_from([None, 0, 1, 3]))
@settings(max_examples=150, deadline=None)
def test_assemble_matches_reference_in_order(platform, mode, context, reply, max_context):
    inst = ConversationInstance("x", platform, context, reply or "r", "S")
    fv = features.assemble(inst, mode, LEXICON, max_context)
    assert list(fv.items()) == list(ref_assemble(inst, mode, LEXICON, max_context).items())


# -- SVM -------------------------------------------------------------------------

# n-gram names, which the min_ngram_count cutoff drops, and names it keeps;
# enough of them that the order of a margin's additions changes its rounding
NAMES = ([f"r|ng1:w{i}" for i in range(10)] + ["r|ng2:a_b", "c|ng1:a", "c|ng3:a_b_c", "ng1:z"]
         + [f"r|cat:k{i}" for i in range(8)]
         + ["r|pos_count", "c|ind:question", "incongruity", "r|ind:allcaps"])
# non-binary values, signed zeros, and ones whose products round
VALUES = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 0.1, -0.0, 0.0, 1e-3, 7.25]),
                   st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False))
vectors = st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=20)
training_sets = st.tuples(vectors, vectors, st.lists(
    st.tuples(vectors, st.sampled_from(["S", "NS"])), max_size=10)).map(
        lambda t: [(t[0], "S"), (t[1], "NS")] + t[2])
configs = st.builds(TrainSettings, epochs=st.integers(1, 5),
                    l2=st.sampled_from([0.0, 1e-4, 0.01, 0.3]),
                    seed=st.integers(0, 3), min_ngram_count=st.integers(1, 3))


@given(training_sets, configs, st.lists(vectors, max_size=3))
@settings(max_examples=100, deadline=None)
@example([({}, "S"), ({}, "NS")], TrainSettings(epochs=2, seed=0), [{}])
@example([({"r|cat:x": -0.0}, "S"), ({"r|cat:x": 1.0}, "NS"), ({}, "S")],
         TrainSettings(epochs=3, l2=0.01, seed=0), [{"r|cat:x": -0.0}])
# ten values of 0.1: a compensated sum of their squares (Python 3.12's sum())
# rounds ||x||^2, and with it the step bound, differently from an in-order one
@example([(dict.fromkeys(NAMES[-12:-2], 0.1), "S"), ({}, "NS")],
         TrainSettings(epochs=2, seed=0), [])
def test_svm_train_matches_reference_bit_for_bit(train, config, unseen):
    names, w, b, history = ref_svm_train(train, config)
    model = features.svm_train(train, config)
    assert model.registry.names == names
    assert model.weights.tobytes() == w.tobytes()
    assert bits(model.bias) == bits(b)
    assert [bits(h) for h in model.objective_history] == [bits(h) for h in history]
    for fv in [fv for fv, _ in train] + unseen:
        label, margin = features.svm_predict(model, fv)
        ref_margin = ref_sparse_dot(w, ref_vectorize(fv, model.registry)) + b
        assert bits(margin) == bits(ref_margin)
        assert label == ("S" if ref_margin > 0.0 else "NS")


rows = st.lists(st.tuples(st.dictionaries(st.integers(0, 19), VALUES, max_size=16),
                          st.sampled_from([1.0, -1.0]),
                          st.sampled_from([0.5, 1.0, 1.5, 2.75])), min_size=1, max_size=8)


@given(rows, st.lists(VALUES, min_size=20, max_size=20), VALUES,
       st.sampled_from([0.0, 1e-4, 0.5]))
@settings(max_examples=60, deadline=None)
def test_hinge_objective_matches_reference(rows, weights, bias, l2):
    w = np.array(weights)
    array_rows = [((np.array(list(x), dtype=np.intp), np.array(list(x.values()))), y, cw)
                  for x, y, cw in rows]
    assert bits(objective(w, bias, array_rows, l2)) == \
        bits(ref_hinge_objective(w, bias, rows, l2))


@pytest.mark.parametrize("bias", [0.0, -0.0, 1.5])
def test_svm_margin_of_signed_zero_products(bias):
    # every product is -0.0: a sum that starts from 0 is +0.0
    model = SvmModel(FeatureRegistry(["a", "b"]), np.array([-1.0, 2.0]), bias,
                     {"S": 1, "NS": 1})
    fv = {"a": 0.0, "b": -0.0}
    ref = ref_sparse_dot(model.weights, ref_vectorize(fv, model.registry)) + bias
    assert bits(features.svm_predict(model, fv)[1]) == bits(ref)


def test_padding_stays_under_twice_the_entries():
    # one long row among short ones widens only its own group
    lengths = (0, 1, 3, 2, 900, 5, 0)
    arrays = [(np.arange(n), np.ones(n)) for n in lengths]
    groups = features._padded(arrays, 1000)
    assert sorted(r for rows, _, _ in groups for r in rows.tolist()) == list(range(len(lengths)))
    assert sum(ids.size for _, ids, _ in groups) < 2 * sum(lengths)
