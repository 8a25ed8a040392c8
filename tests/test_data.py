import json
import time

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from convsarc import data
from convsarc.data import (ConversationInstance, build_twitter_instances,
                           casefold_selective, largest_remainder_counts,
                           load_corpus, save_corpus, segment_instance,
                           split_sentences, stratified_split, tokenize,
                           twitter_filter)
from convsarc.errors import ConfigError, DomainError, ParseError, ValidationError

# -- tokenize ---------------------------------------------------------------


def test_tokenize_apostrophe_and_question():
    assert tokenize("don't they?") == ["don't", "they", "?"]


def test_tokenize_hashtag_preserved():
    assert tokenize("hooray for gerrymandering #sarcasm") == \
        ["hooray", "for", "gerrymandering", "#sarcasm"]


def test_tokenize_emoticon_preserved():
    assert tokenize("great :)") == ["great", ":)"]


def test_tokenize_mention_and_url():
    assert tokenize("@user see http://x.example/a.b?q=1 now") == \
        ["@user", "see", "http://x.example/a.b?q=1", "now"]


def test_tokenize_terminal_punct_cluster():
    assert tokenize("are you kidding me?!") == ["are", "you", "kidding", "me", "?", "!"]


def test_tokenize_multiple_exclamations():
    assert tokenize("day!!!") == ["day", "!", "!", "!"]


def test_tokenize_emoticon_then_period():
    assert tokenize("nice :p.") == ["nice", ":p", "."]


def test_tokenize_whitespace_only():
    assert tokenize("   \t ") == []


def test_tokenize_takes_linear_time_on_a_long_mark_run():
    # stripping a run one mark at a time copies the chunk at each step and
    # takes seconds on this; stripping it once takes ms
    t0 = time.perf_counter()
    assert tokenize("a" + "!" * 200_000) == ["a"] + ["!"] * 200_000
    assert time.perf_counter() - t0 < 1.0


# -- split_sentences --------------------------------------------------------


def test_split_two_sentences_with_punct_run():
    out = split_sentences("Are you kidding me?! You think that is fine.")
    assert out == ["Are you kidding me?!", "You think that is fine."]


def test_split_abbreviation_guard():
    assert split_sentences("i.e. this stays together") == ["i.e. this stays together"]
    assert split_sentences("Ask Dr. Smith about it.") == ["Ask Dr. Smith about it."]


def test_split_no_terminator_single_sentence():
    assert split_sentences("no boundary here at all") == ["no boundary here at all"]


def test_split_before_quote_and_digit():
    assert split_sentences('He left. "Why?" she asked.') == \
        ['He left.', '"Why?" she asked.']
    assert split_sentences("It rained. 40 days straight.") == \
        ["It rained.", "40 days straight."]


def test_split_lowercase_continuation_not_split():
    assert split_sentences("version 2.0 shipped today") == ["version 2.0 shipped today"]


@pytest.mark.parametrize("text", ["!" * 50_000 + "x", "a." * 50_000 + " B", "Mr. A " * 50_000,
                                  ("x" + "?" * 40) * 2_000 + " Y"],
                         ids=["one-run", "dotted-word", "abbreviations", "many-runs"])
def test_split_takes_linear_time_on_long_runs(text):
    # a scan that restarts inside a run of marks, or rereads the sentence so
    # far at each abbreviation, takes seconds on these; one pass takes ms
    t0 = time.perf_counter()
    split_sentences(text)
    assert time.perf_counter() - t0 < 1.0


# -- casefold_selective ------------------------------------------------------


def test_casefold_keeps_allcaps():
    toks = ["GREAT", "i'm", "SO", "happy"]
    assert casefold_selective(toks) == toks


def test_casefold_lowers_mixed_case():
    assert casefold_selective(["Hello"]) == ["hello"]


def test_casefold_passes_non_alphabetic():
    assert casefold_selective(["!!"]) == ["!!"]


@given(st.lists(st.text(
    alphabet="abcDEF!?# '", min_size=1, max_size=12).filter(str.split),
    min_size=0, max_size=8))
@settings(max_examples=80, deadline=None)
def test_tokenize_casefold_idempotent_on_own_output(chunks):
    text = " ".join(chunks)
    first = casefold_selective(tokenize(text))
    second = casefold_selective(tokenize(" ".join(first)))
    assert first == second


# -- twitter_filter ----------------------------------------------------------


RAW = "raw.jsonl"


def numbered(records):
    """(line number, record) pairs, as data.read_jsonl gives a file's lines."""
    return list(enumerate(records, start=1))


def filtered(records):
    return twitter_filter(numbered(records), RAW)


def tweet(tid, text, retweet=False, quote=False, reply_to=None):
    return {"id": tid, "text": text, "retweet": retweet, "quote": quote,
            "reply_to": reply_to}


def test_filter_rejects_leading_hashtag():
    out = filtered([tweet("1", "#sarcasm is something that I love")])
    assert out == []


def test_filter_accepts_and_strips_terminal_hashtag():
    out = filtered([tweet("1", "one more reason to feel really great #sarcasm")])
    assert len(out) == 1
    assert out[0].label == "S"
    assert out[0].text == "one more reason to feel really great"
    assert "#sarcasm" not in out[0].text


def test_filter_rejects_retweets_and_quotes():
    assert filtered([tweet("1", "some perfectly fine text", retweet=True)]) == []
    assert filtered([tweet("1", "some perfectly fine text", quote=True)]) == []


def test_filter_rejects_duplicates_after_whitespace_normalization():
    out = filtered([tweet("1", "same   text here"),
                    tweet("2", "same text  here")])
    assert [t.id for t in out] == ["1"]


def test_filter_rejects_short_or_hashtag_only():
    assert filtered([tweet("1", "#wow #such http://u.example")]) == []
    assert filtered([tweet("2", "too short #happy")]) == []


def test_filter_keeps_sentiment_hashtags_for_ns():
    out = filtered([tweet("1", "what a lovely sunny morning #happy")])
    assert len(out) == 1
    assert out[0].label == "NS"
    assert "#happy" in out[0].text


def test_filter_strips_trailing_tag_run():
    out = filtered([tweet("1", "thanks for all the help #irony #sarcasm")])
    assert len(out) == 1
    assert out[0].label == "S"
    assert out[0].text == "thanks for all the help"


def test_filter_parse_error_names_record():
    with pytest.raises(ParseError, match="^raw.jsonl: line 1: field 'text' must be"):
        filtered([{"id": "t9", "text": 5}])


def test_filter_drops_an_exact_repeat_and_refuses_a_changed_one():
    first = tweet("n0", "just a normal answer here")
    out = filtered([first, tweet("n1", "another normal answer here"), dict(first)])
    assert [t.id for t in out] == ["n0", "n1"]
    changed = tweet("n0", "a different answer here")
    with pytest.raises(ParseError, match="^raw.jsonl: line 3: id 'n0' repeats line 1 with other"):
        filtered([first, tweet("n1", "another normal answer here"), changed])
    with pytest.raises(ParseError, match="^raw.jsonl: line 2: id 'n0' repeats line 1 "):
        filtered([first, dict(first, retweet=True)])


@given(st.lists(st.tuples(
    st.sampled_from(["clear skies ahead today", "more rain again today",
                     "what a great plan #sarcasm", "so #sarcasm goes here",
                     "lovely #irony", "fine day #happy or not"]),
    st.booleans()), min_size=0, max_size=12))
@settings(max_examples=60, deadline=None)
def test_filter_output_invariant_no_sarcasm_tags_survive(rows):
    records = [tweet(str(i), text, retweet=rt) for i, (text, rt) in enumerate(rows)]
    for out in filtered(records):
        lowered = out.text.lower()
        for tag in ("#sarcasm", "#sarcastic", "#irony"):
            assert tag not in lowered
        if out.label == "S":
            src = next(r for r in records if r["id"] == out.id)
            last = src["text"].split()[-1].lower()
            assert last in ("#sarcasm", "#sarcastic", "#irony")


# -- thread assembly ---------------------------------------------------------


def test_build_twitter_instances_walks_reply_chain():
    records = [
        tweet("a", "the oldest message in this thread"),
        tweet("b", "a middle message replying first", reply_to="a"),
        tweet("c", "one more reason to feel really great #sarcasm", reply_to="b"),
        tweet("d", "floating tweet with no parent link #happy"),
    ]
    out = build_twitter_instances(numbered(records), RAW)
    # b is a legitimate NS reply; a and d have no parent and drop out
    assert [i.id for i in out] == ["b", "c"]
    inst = out[1]
    assert inst.context == ["the oldest message in this thread",
                            "a middle message replying first"]
    assert inst.label == "S"
    assert inst.reply == "one more reason to feel really great"


def test_build_twitter_instances_validates_each_record_once(monkeypatch):
    validate, lines = data._validate_tweet_record, []

    def spy(rec, path, lineno):
        lines.append(lineno)
        return validate(rec, path, lineno)
    monkeypatch.setattr(data, "_validate_tweet_record", spy)
    records = [
        tweet("a", "the oldest message in this thread"),
        tweet("b", "a middle message replying first", reply_to="a"),
        tweet("c", "a retweet of the middle message", retweet=True, reply_to="b"),
    ]
    assert [i.id for i in build_twitter_instances(numbered(records), RAW)] == ["b"]
    assert lines == list(range(1, len(records) + 1))


def test_build_twitter_instances_survives_cycles():
    records = [
        tweet("a", "first message going around", reply_to="b"),
        tweet("b", "second message going around", reply_to="a"),
    ]
    out = build_twitter_instances(numbered(records), RAW)
    assert {i.id for i in out} == {"a", "b"}
    assert all(len(i.context) == 1 for i in out)


# sarcasm tags inside the text and in its final run, some followed by
# punctuation or joined into one chunk; hashtags and URLs that leave too
# few content tokens
TWEET_TEXTS = [body + end
               for body in ("so great a day", "Again @you so", "so #sarcasm a day", "! so #happy",
                            "http://t.co/x so a day")
               for end in ("", " #sarcasm", " #Irony #SARCASTIC", " #sarcasm.", " #irony!",
                           " #sarcasm#irony", " #sarcasm day")]
BAD_VALUES = [None, 0, 1.5, True, "", "  ", [], {}, "x"]


@st.composite
def raw_tweet_records(draw):
    """Raw tweet records, some valid, some with a field missing or of the
    wrong type, some repeating an earlier record exactly or with a change;
    reply_to links may form cycles."""
    records = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["valid"] * 14 + ["repeat"] * 3 + ["bad_field", "junk"]))
        if kind == "junk":
            records.append(draw(st.sampled_from([None, 3, "text", ["a"]])))
            continue
        if kind == "repeat" and any(isinstance(r, dict) for r in records):
            rec = dict(draw(st.sampled_from([r for r in records if isinstance(r, dict)])))
            change = draw(st.sampled_from([None, "text", "retweet", "reply_to"]))
            if change == "text":  # a reply of the same label under the same id
                rec["text"] = f"so {rec.get('text')}"
            elif change:
                rec[change] = draw(st.sampled_from([False, True, None, "t0"]))
            records.append(rec)
            continue
        rec = {"id": f"t{len(records)}", "text": draw(st.sampled_from(TWEET_TEXTS)),
               "retweet": draw(st.integers(0, 3)) == 0, "quote": draw(st.integers(0, 5)) == 0,
               # earlier, later and missing ids: chains, cycles and orphans
               "reply_to": draw(st.sampled_from(
                   [None] + [f"t{i}" for i in range(len(records) + 2)]))}
        if kind == "bad_field":
            key = draw(st.sampled_from(sorted(rec)))
            if draw(st.booleans()):
                del rec[key]
            else:
                rec[key] = draw(st.sampled_from(BAD_VALUES))
        records.append(rec)
    return records


@given(raw_tweet_records())
@settings(max_examples=200, deadline=None)
@example([tweet("t0", "so great a day"), tweet("t1", "again a day #sarcasm", reply_to="t0"),
          tweet("t1", "so again a day #sarcasm", reply_to="t0")])
def test_raw_tweets_give_distinct_instances_with_context_or_parse_error(records):
    try:
        instances = build_twitter_instances(numbered(records), RAW)
    except ParseError:
        return
    ids = [inst.id for inst in instances]
    assert len(ids) == len(set(ids))
    for inst in instances:
        assert inst.context and all(u.strip() for u in inst.context)
        assert inst.reply.strip() and inst.label in ("S", "NS")


# -- truncation ---------------------------------------------------------------


def seg_with_context(n, platform):
    """segment_instance of n one-token context sentences tok0..tok{n-1}."""
    return segment_instance(ConversationInstance(
        id="x", platform=platform, context=[f"tok{i}" for i in range(n)],
        reply="hi there", label="NS"))


def test_truncate_forum_keeps_last_ten():
    out = seg_with_context(12, "forum")
    assert len(out.context_sentences) == 10
    assert out.context_sentences[0] == ["tok2"]
    assert out.reply_sentences == [["hi", "there"]]


def test_truncate_twitter_keeps_last_five():
    out = seg_with_context(7, "twitter")
    assert len(out.context_sentences) == 5
    assert out.context_sentences[0] == ["tok2"]


def test_truncate_short_context_unchanged():
    out = seg_with_context(3, "forum")
    assert len(out.context_sentences) == 3


def test_segment_instance_forum_splits_and_truncates(forum_instance):
    seg = segment_instance(forum_instance)
    assert seg.context_sentences[0][0] == "the"
    assert len(seg.context_sentences) == 3  # two sentences + one sentence
    assert seg.reply_sentences[0][0] == "GREAT"
    texts = seg.context_texts
    assert len(texts) == len(seg.context_sentences)
    assert texts[0] == "The weather was terrible today."


def test_effective_triggers_shift_with_truncation():
    inst = ConversationInstance(
        id="x", platform="twitter",
        context=[f"tweet number {i} here" for i in range(7)],
        reply="a reply", label="S", human_triggers=[1, 6])
    # 7 tweets truncate to the last 5: index 6 -> 4, index 1 drops out
    assert segment_instance(inst).triggers == [4]
    assert segment_instance(inst, max_context=7).triggers == [1, 6]


def test_negative_context_window_is_refused():
    # texts[-(-1):] would keep all but the oldest sentence
    inst = ConversationInstance(id="x", platform="forum", context=["One. Two. Three."],
                                reply="a reply", label="S")
    assert segment_instance(inst, 0).context_texts == []
    with pytest.raises(DomainError, match="max_context: -1 must be nonnegative"):
        segment_instance(inst, -1)


# -- stratified splitting ------------------------------------------------------


def make_instances(n_s, n_ns):
    out = []
    for i in range(n_s):
        out.append(ConversationInstance(f"s{i}", "forum", [], f"reply {i}", "S"))
    for i in range(n_ns):
        out.append(ConversationInstance(f"n{i}", "forum", [], f"reply {i}", "NS"))
    return out


def count_labels(instances):
    return (sum(1 for i in instances if i.label == "S"),
            sum(1 for i in instances if i.label == "NS"))


def test_split_50_50_gives_40_5_5():
    train, dev, test = stratified_split(make_instances(50, 50), seed=0)
    assert count_labels(train) == (40, 40)
    assert count_labels(dev) == (5, 5)
    assert count_labels(test) == (5, 5)


def test_split_deterministic_for_seed():
    insts = make_instances(30, 40)
    a = stratified_split(insts, seed=3)
    b = stratified_split(insts, seed=3)
    assert [i.id for i in a[0]] == [i.id for i in b[0]]
    assert [i.id for i in a[2]] == [i.id for i in b[2]]


def test_split_corpus_scale_counts_match_largest_remainder():
    assert largest_remainder_counts(12_215, (0.8, 0.1, 0.1)) == [9772, 1222, 1221]
    assert largest_remainder_counts(13_776, (0.8, 0.1, 0.1)) == [11021, 1378, 1377]


def test_split_rejects_small_class():
    with pytest.raises(ConfigError):
        stratified_split(make_instances(9, 50), seed=0)


@given(st.integers(10, 120), st.integers(10, 120), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_split_partitions_exactly(n_s, n_ns, seed):
    insts = make_instances(n_s, n_ns)
    train, dev, test = stratified_split(insts, seed)
    ids = [i.id for part in (train, dev, test) for i in part]
    assert sorted(ids) == sorted(i.id for i in insts)
    for count, part in ((n_s, 0), (n_ns, 1)):
        got = (count_labels(train)[part], count_labels(dev)[part],
               count_labels(test)[part])
        ideal = (0.8 * count, 0.1 * count, 0.1 * count)
        assert all(abs(g - i) <= 1.0 for g, i in zip(got, ideal))


# -- corpus io ----------------------------------------------------------------


def write_lines(tmp_path, lines):
    p = tmp_path / "corpus.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def record(rid="r1", **kw):
    rec = {"id": rid, "platform": "forum", "context": ["Some context here."],
           "reply": "a reply", "label": "NS"}
    rec.update(kw)
    return json.dumps(rec)


def test_load_corpus_valid_two_lines(tmp_path):
    p = write_lines(tmp_path, [record("a"), record("b", label="S")])
    out = load_corpus(p)
    assert [i.id for i in out] == ["a", "b"]
    assert out[1].label == "S"


def test_load_corpus_missing_label_names_field(tmp_path):
    rec = json.loads(record())
    del rec["label"]
    with pytest.raises(ParseError, match="'label'"):
        load_corpus(write_lines(tmp_path, [json.dumps(rec)]))


def test_load_corpus_duplicate_id(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        load_corpus(write_lines(tmp_path, [record("a"), record("a")]))


def test_load_corpus_trigger_out_of_range(tmp_path):
    bad = record("a", human_triggers=[5])
    with pytest.raises(ValidationError, match="human_triggers"):
        load_corpus(write_lines(tmp_path, [bad]))


def test_load_corpus_reports_line_number(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(write_lines(tmp_path, [record("a"), "{broken"]))


@pytest.mark.parametrize("escape", ["\\ud800", "\\udfff", "x\\ude00\\ud83d"])
def test_load_corpus_refuses_a_lone_surrogate_naming_the_line(tmp_path, escape):
    bad = record("b").replace('"a reply"', f'"{escape} a reply"')
    with pytest.raises(ParseError, match="corpus.jsonl: line 2: .*lone surrogate"):
        load_corpus(write_lines(tmp_path, [record("a"), bad]))


def test_load_corpus_takes_escaped_surrogate_pairs_and_backslashes(tmp_path):
    p = write_lines(tmp_path, [record("a", reply="smile \U0001f600"),
                               record("b", reply="a \\ud800 b")])
    assert [i.reply for i in load_corpus(p)] == ["smile \U0001f600", "a \\ud800 b"]
    assert "\\ud83d\\ude00" in p.read_text(encoding="utf-8")


def test_load_corpus_splits_lines_on_every_newline_convention(tmp_path):
    p = tmp_path / "corpus.jsonl"
    p.write_bytes("\r\n".join([record("a"), "", record("b")]).encode() + b"\r{broken")
    with pytest.raises(ParseError, match="line 4"):
        load_corpus(p)


def test_save_load_roundtrip(tmp_path):
    insts = [ConversationInstance("a", "twitter", ["ctx tweet one"],
                                  "reply text", "S", [0])]
    p = tmp_path / "c.jsonl"
    save_corpus(insts, p)
    out = load_corpus(p)
    assert out == insts


def test_open_output_replaces_a_symlink_with_a_file_of_the_usual_mode(tmp_path):
    # a new output gets the mode open() gives, not a private temporary file's
    (tmp_path / "fresh").write_text("", encoding="utf-8")
    shared = tmp_path / "shared.txt"
    shared.write_text("kept\n", encoding="utf-8")
    link = tmp_path / "out.txt"
    link.symlink_to(shared)
    with data.open_output(link) as fh:
        fh.write("new\r\n")
    assert not link.is_symlink() and link.read_bytes() == b"new\r\n"
    assert shared.read_text(encoding="utf-8") == "kept\n"
    assert link.stat().st_mode == (tmp_path / "fresh").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out.txt", "shared.txt"]

