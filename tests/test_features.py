import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from convsarc import checkpoint
from convsarc.data import ConversationInstance
from convsarc.errors import ConfigError, ConvsarcError, ParseError
from convsarc.features import (FeatureRegistry, LexiconSet, assemble,
                               class_weight_map, indicator_features,
                               lexicon_features, load_lexicons, ngram_features,
                               load_svm_checkpoint, save_svm_checkpoint,
                               svm_predict, svm_train)
from convsarc.models import TrainSettings
from test_differential import objective

# -- n-grams -----------------------------------------------------------------


def test_ngrams_abc():
    fv = ngram_features(["a", "b", "c"])
    assert fv == {"ng1:a": 1.0, "ng1:b": 1.0, "ng1:c": 1.0,
                  "ng2:a_b": 1.0, "ng2:b_c": 1.0, "ng3:a_b_c": 1.0}


def test_ngrams_presence_not_count():
    fv = ngram_features(["a", "a"])
    assert fv == {"ng1:a": 1.0, "ng2:a_a": 1.0}


def test_ngrams_empty():
    assert ngram_features([]) == {}


# -- lexicon features ----------------------------------------------------------


def test_lexicon_counts_and_both_polarities(tiny_lexicons):
    fv = lexicon_features(["i", "love", "this", "terrible", "day"],
                          "reply", tiny_lexicons)
    assert fv["pos_count"] == 1.0
    assert fv["neg_count"] == 1.0
    assert fv["both_polarities"] == 1.0
    assert fv["cat:affect"] == 1.0


def test_lexicon_no_hits_no_entries(tiny_lexicons):
    assert lexicon_features(["xyz", "qrs"], "reply", tiny_lexicons) == {}


def test_lexicon_negation_and_positive(tiny_lexicons):
    fv = lexicon_features(["not", "happy"], "reply", tiny_lexicons)
    assert fv["negation_count"] == 1.0
    assert fv["pos_count"] == 1.0


def test_both_polarities_only_on_reply_side(tiny_lexicons):
    fv = lexicon_features(["love", "terrible"], "context", tiny_lexicons)
    assert "both_polarities" not in fv
    assert fv["pos_count"] == 1.0 and fv["neg_count"] == 1.0


def test_lexicon_matches_allcaps_tokens(tiny_lexicons):
    # casefolding keeps GREAT whole; the lexicon still counts it
    inst = ConversationInstance("x", "twitter", ["a context"], "GREAT", "S")
    fv = assemble(inst, "reply_only", tiny_lexicons)
    assert fv["r|pos_count"] == 1.0


# -- incongruity ----------------------------------------------------------------


def sentiment_incongruity(context_tokens, reply_tokens, lex):
    """Whether assemble sets the incongruity flag for one context tweet and
    a reply made of these tokens."""
    inst = ConversationInstance("x", "twitter", [" ".join(context_tokens)],
                                " ".join(reply_tokens), "S")
    fv = assemble(inst, "context_and_reply", lex)
    assert fv.get("incongruity", 1.0) == 1.0
    return "incongruity" in fv


def test_incongruity_opposite_signs(tiny_lexicons):
    ctx = ["terrible", "awful", "happy"]  # net -1
    rep = ["love"]  # net +1
    assert sentiment_incongruity(ctx, rep, tiny_lexicons) is True


def test_incongruity_same_sign(tiny_lexicons):
    assert sentiment_incongruity(["love"], ["happy"], tiny_lexicons) is False


def test_incongruity_neutral_side_never_triggers(tiny_lexicons):
    assert sentiment_incongruity(["chair"], ["love"], tiny_lexicons) is False
    assert sentiment_incongruity(["love", "terrible"], ["love"], tiny_lexicons) is False


# -- indicators -------------------------------------------------------------------


def indicators(tokens, raw_text):
    return indicator_features(tokens, [t.lower() for t in tokens], raw_text)


def test_indicators_interjection_and_exclamation():
    fv = indicators(["yeah", ",", "right", "!"], "yeah , right !")
    assert fv["ind:interjection"] == 1.0
    assert fv["ind:exclamation"] == 1.0
    assert "ind:tag_question" not in fv


def test_indicators_allcaps_and_triple_exclamation():
    raw = "GREAT i'm SO happy; shattered phone on this WONDERFUL day!!!"
    tokens = ["GREAT", "i'm", "SO", "happy", ";", "shattered", "phone", "on",
              "this", "WONDERFUL", "day", "!", "!", "!"]
    fv = indicators(tokens, raw)
    assert fv["ind:allcaps"] == 3.0
    assert fv["ind:exclamation"] == 3.0


def test_indicators_tag_question():
    fv = indicators(["is", "not", "it", "?"], "is not it?")
    assert fv["ind:tag_question"] == 1.0
    assert fv["ind:question"] == 1.0


def test_indicators_emoticon_superlative_intensifier():
    fv = indicators(["the", "greatest", "day", "really", ":)"],
                    "the greatest day really :)")
    assert fv["ind:emoticon"] == 1.0
    assert fv["ind:superlative"] == 1.0
    assert fv["ind:intensifier"] == 1.0


def test_indicators_quote_pairs():
    fv = indicators(['"content', '"'], '"content?!"')
    assert fv["ind:quote_pairs"] == 1.0


# -- assemble --------------------------------------------------------------------


def test_assemble_reply_only_has_no_context_features(forum_instance, tiny_lexicons):
    fv = assemble(forum_instance, "reply_only", tiny_lexicons)
    assert fv
    assert all(not k.startswith("c|") for k in fv)
    assert "incongruity" not in fv


def test_assemble_empty_context_equals_reply_only(tiny_lexicons):
    inst = ConversationInstance("x", "forum", [], "GREAT plan, really.", "S")
    both = assemble(inst, "context_and_reply", tiny_lexicons)
    reply = assemble(inst, "reply_only", tiny_lexicons)
    assert both == reply


def test_assemble_deterministic(forum_instance, tiny_lexicons):
    a = assemble(forum_instance, "context_and_reply", tiny_lexicons)
    b = assemble(forum_instance, "context_and_reply", tiny_lexicons)
    assert a == b


def test_assemble_context_side_features_present(forum_instance, tiny_lexicons):
    fv = assemble(forum_instance, "context_and_reply", tiny_lexicons)
    assert any(k.startswith("c|") for k in fv)
    # context is net negative (terrible), reply net positive (GREAT)
    assert fv.get("incongruity") == 1.0


def test_assemble_no_zero_values(forum_instance, tiny_lexicons):
    fv = assemble(forum_instance, "context_and_reply", tiny_lexicons)
    assert all(v != 0 for v in fv.values())


# -- registry --------------------------------------------------------------------


def test_registry_assigns_stable_ids():
    reg = FeatureRegistry(["x", "y", "x"])
    assert reg.vectorize({"x": 1.0})[0].tolist() == [0]  # the repeat keeps x's first id
    assert reg.names.index("y") == 1
    assert len(reg) == 2


def test_registry_build_applies_ngram_cutoff():
    vectors = [{"ng1:rare": 1.0, "ng1:common": 1.0, "ind:exclamation": 2.0},
               {"ng1:common": 1.0}]
    reg = FeatureRegistry.build(vectors, min_ngram_count=2)
    assert "ng1:common" in reg.names
    assert "ng1:rare" not in reg.names  # below the cutoff
    assert "ind:exclamation" in reg.names  # non-ngram always kept


def test_vectorize_skips_unregistered():
    reg = FeatureRegistry(["a"])
    ids, vals = reg.vectorize({"a": 1.0, "b": 2.0})
    assert ids.tolist() == [0]
    assert vals.tolist() == [1.0]


# -- lexicon loading ---------------------------------------------------------------


def test_load_lexicons(lexicon_dir):
    lex = load_lexicons(lexicon_dir)
    assert "affect" in lex.categories
    assert "love" in lex.positive
    assert "not" in lex.negations


def test_load_lexicons_bad_category_line(lexicon_dir):
    (lexicon_dir / "categories.tsv").write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_lexicons(lexicon_dir)


LEXICON_PIECES = [b"affect\tlove", b"# note", b" #x\ty", b"  ", b"\t", b"word", b"a\tb\tc",
                  b"\tlove", b"affect\t", b"\xe9", b"\xc3\xa9", b"\x00", b"\n", b"\r\n", b"\r"]


@given(st.sampled_from(["categories.tsv", "positive.txt", "negative.txt", "negations.txt"]),
       st.one_of(st.binary(max_size=48),
                 st.lists(st.sampled_from(LEXICON_PIECES), max_size=10).map(b"".join)))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_bytes_in_a_lexicon_file_load_or_name_that_file(lexicon_dir, name, content):
    path = lexicon_dir / name
    original = path.read_bytes()
    path.write_bytes(content)
    try:
        assert isinstance(load_lexicons(lexicon_dir), LexiconSet)
    except ConvsarcError as e:
        assert str(e).startswith(f"{path}: "), e
    finally:
        path.write_bytes(original)


def test_missing_lexicon_file_is_a_config_error_naming_it(lexicon_dir):
    (lexicon_dir / "negations.txt").unlink()
    with pytest.raises(ConfigError, match="negations.txt: cannot read"):
        load_lexicons(lexicon_dir)


# -- svm ---------------------------------------------------------------------------


def slow_toy():
    """Separable toy with disjoint per-sample features. The large-norm
    samples cap the stable step low, so the small ones need many epochs."""
    data = []
    for i in range(4):
        data.append(({f"s{i}": 0.7}, "S"))
        data.append(({f"n{i}": 0.7}, "NS"))
    data.append(({"big_s": 2.0}, "S"))
    data.append(({"big_n": 2.0}, "NS"))
    return data


def test_class_weights_inverse_proportional():
    cw = class_weight_map(["S"] * 100 + ["NS"] * 300)
    assert cw["S"] / cw["NS"] == Fraction(3, 1)
    assert cw["S"] * 100 == cw["NS"] * 300  # both are N_total / 2 exactly


def test_separable_toy_reaches_perfect_accuracy():
    train = slow_toy()
    model = svm_train(train, TrainSettings(epochs=30, l2=0.0, seed=0))
    acc = sum(1 for fv, lab in train if svm_predict(model, fv)[0] == lab)
    assert acc == len(train)


def test_hinge_objective_non_increasing_at_bound_step():
    model = svm_train(slow_toy(), TrainSettings(epochs=30, l2=0.0, seed=0))
    hist = model.objective_history
    assert hist[0] > 0.0  # the toy really takes several epochs
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
    assert hist[-1] == 0.0


def test_zero_features_leave_weights_zero():
    train = [({}, "S")] * 5 + [({}, "NS")] * 5
    model = svm_train(train, TrainSettings(epochs=5, l2=0.0, seed=1))
    assert np.all(model.weights == 0.0)


def test_single_class_is_config_error():
    with pytest.raises(ConfigError):
        svm_train([({"a": 1.0}, "S")] * 5, TrainSettings())


def test_predict_sign_and_tie_rule():
    reg = FeatureRegistry(["a"])
    from convsarc.features import SvmModel
    model = SvmModel(reg, np.array([2.0]), 0.0, {"S": Fraction(1), "NS": Fraction(1)})
    assert svm_predict(model, {"a": 1.0}) == ("S", 2.0)
    assert svm_predict(model, {"a": -0.25}) == ("NS", -0.5)
    assert svm_predict(model, {})[0] == "NS"  # exact zero resolves to NS


def test_svm_checkpoint_roundtrip(tmp_path):
    train = slow_toy()
    model = svm_train(train, TrainSettings(epochs=10, l2=0.0, seed=0))
    path = tmp_path / "svm.json"
    save_svm_checkpoint(model, "reply_only", 10, path)
    loaded, task, max_context = load_svm_checkpoint(path)
    assert task == "reply_only"
    assert max_context == 10
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    for fv, lab in train:
        assert svm_predict(loaded, fv) == svm_predict(model, fv)


def test_svm_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "svm.json"
    model = svm_train(slow_toy(), TrainSettings(epochs=2, l2=0.0, seed=0))
    save_svm_checkpoint(model, "reply_only", None, path)
    doc = path.read_text(encoding="utf-8").replace('"format_version": 1',
                                                   '"format_version": 99')
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ConfigError, match="format_version"):
        load_svm_checkpoint(path)


def saved_svm_doc(tmp_path):
    path = tmp_path / "svm.json"
    model = svm_train(slow_toy(), TrainSettings(epochs=2, l2=0.0, seed=0))
    save_svm_checkpoint(model, "reply_only", None, path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_svm_checkpoint_without_weights_is_config_error_naming_path(tmp_path):
    path = tmp_path / "svm.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "svm"}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"svm\.json: .*weights"):
        load_svm_checkpoint(path)


def test_svm_checkpoint_corrupt_weights_is_config_error_naming_path(tmp_path):
    path, doc = saved_svm_doc(tmp_path)
    doc["weights"] = "AAAA"  # 3 bytes, not whole float64s
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"svm\.json: malformed"):
        load_svm_checkpoint(path)


def test_svm_checkpoint_bad_base64_is_config_error_naming_path(tmp_path):
    path, doc = saved_svm_doc(tmp_path)
    doc["weights"] = "not base64!"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"svm\.json: malformed"):
        load_svm_checkpoint(path)


@pytest.mark.parametrize("field, value", [("bias", [1.0]), ("class_weights", 3),
                                          ("class_weights", {"S": float("inf")}),
                                          ("features", ["a"]), ("task", 7),
                                          ("max_context", "5")])
def test_svm_checkpoint_field_of_wrong_type_is_config_error_naming_path(
        tmp_path, field, value):
    path, doc = saved_svm_doc(tmp_path)
    doc[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"svm\.json: malformed"):
        load_svm_checkpoint(path)


@pytest.mark.parametrize("field", ["weights", "bias"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_svm_checkpoint_non_finite_value_is_config_error_naming_path(tmp_path, field, value):
    path, doc = saved_svm_doc(tmp_path)
    doc[field] = (checkpoint.encode(np.full(len(doc["features"]), value))
                  if field == "weights" else value)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"svm\.json: malformed checkpoint: .*(non-)?finite"):
        load_svm_checkpoint(path)


@pytest.mark.parametrize("content", ["not json at all", "[1, 2]"])
def test_svm_checkpoint_not_a_json_object_is_config_error_naming_path(tmp_path, content):
    path = tmp_path / "svm.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"svm\.json: "):
        load_svm_checkpoint(path)


@given(st.integers(10, 400), st.integers(10, 400))
@settings(max_examples=50, deadline=None)
def test_class_weight_identity_exact(n_s, n_ns):
    cw = class_weight_map(["S"] * n_s + ["NS"] * n_ns)
    assert cw["S"] * n_s == cw["NS"] * n_ns


def test_hinge_objective_of_zero_model():
    data = [((np.array([0]), np.array([1.0])), 1.0, 1.0),
            ((np.array([1]), np.array([1.0])), -1.0, 1.0)]
    assert objective(np.zeros(2), 0.0, data, l2=0.0) == pytest.approx(1.0)
