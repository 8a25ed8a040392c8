import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convsarc

from convsarc import checkpoint, evaluate, models
from convsarc.cli import COMMANDS, _build_parser, _config_from_args, main
from convsarc.config import RunConfig
from convsarc.data import context_cutoff, load_corpus, save_corpus, segment_instance
from convsarc.embeddings import load_embeddings
from convsarc.nn import new_rng
from convsarc.synthetic import (make_planted_cue_corpus, make_separable_corpus,
                                synthetic_vocabulary, write_embedding_file)

EMBED_DIM = 12


def make_raw_tweets(path):
    """12 sarcastic + 12 plain replies, each threaded onto its own parent."""
    rows = []
    for i in range(12):
        rows.append({"id": f"p{i}", "text": f"parent message number {i} right here",
                     "retweet": False, "quote": False, "reply_to": None})
        rows.append({"id": f"s{i}", "text": f"oh what a wonderful surprise {i} #sarcasm",
                     "retweet": False, "quote": False, "reply_to": f"p{i}"})
        rows.append({"id": f"q{i}", "text": f"parent for plain reply {i} over here",
                     "retweet": False, "quote": False, "reply_to": None})
        rows.append({"id": f"n{i}", "text": f"just a normal answer number {i}",
                     "retweet": False, "quote": False, "reply_to": f"q{i}"})
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture
def workdir(tmp_path):
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, synthetic_vocabulary(), dim=EMBED_DIM, seed=3)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(make_separable_corpus(40, seed=7), corpus)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_prepare_from_raw_tweets(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    make_raw_tweets(raw)
    out = tmp_path / "prep"
    assert run("prepare", "--raw-tweets", raw, "--outdir", out,
               "--platform", "twitter", "--seed", 1) == 0
    for name in ("corpus.jsonl", "train.jsonl", "dev.jsonl", "test.jsonl",
                 "config.json"):
        assert (out / name).exists()
    train = load_corpus(out / "train.jsonl")
    assert sum(1 for i in train if i.label == "S") == 10
    assert sum(1 for i in train if i.label == "NS") == 10
    assert all(i.context for i in train)
    assert "prepared 24 instances" in capsys.readouterr().out


def test_prepare_from_corpus_file(workdir):
    out = workdir / "prep"
    assert run("prepare", "--corpus", workdir / "corpus.jsonl",
               "--outdir", out, "--seed", 2) == 0
    splits = [len(load_corpus(out / f"{p}.jsonl")) for p in ("train", "dev", "test")]
    assert splits == [32, 4, 4]


def test_train_eval_predict_roundtrip(workdir, capsys):
    run_dir = workdir / "run"
    code = run("train", "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt",
               "--variant", "reply_only", "--platform", "twitter",
               "--embed-dim", EMBED_DIM, "--hidden-dim", 6,
               "--epochs", 2, "--patience", 2, "--dropout", 0.0,
               "--seed", 3, "--outdir", run_dir)
    assert code == 0
    assert (run_dir / "checkpoint.json").exists()
    assert (run_dir / "train_log.jsonl").exists()
    echoed = json.loads((run_dir / "config.json").read_text())
    assert echoed["variant"] == "reply_only"
    assert echoed["hidden_dim"] == 6

    eval_dir = workdir / "eval"
    code = run("eval", "--checkpoint", run_dir / "checkpoint.json",
               "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt",
               "--platform", "twitter", "--embed-dim", EMBED_DIM,
               "--seed", 3, "--outdir", eval_dir)
    assert code == 0
    out = capsys.readouterr().out
    assert "Experiment" in out and "reply_only" in out
    assert (eval_dir / "metrics.jsonl").exists()
    report = json.loads((eval_dir / "metrics.jsonl").read_text())
    assert set(report["classes"]) == {"S", "NS"}

    pred_dir = workdir / "pred"
    code = run("predict", "--checkpoint", run_dir / "checkpoint.json",
               "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt",
               "--platform", "twitter", "--embed-dim", EMBED_DIM,
               "--seed", 3, "--outdir", pred_dir)
    assert code == 0
    lines = (pred_dir / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 40
    row = json.loads(lines[0])
    assert {"id", "gold", "label", "p_s", "p_ns"} <= set(row)
    assert row["p_s"] + row["p_ns"] == pytest.approx(1.0)


def test_train_svm_and_eval(workdir, lexicon_dir, capsys):
    run_dir = workdir / "svm_run"
    code = run("train", "--corpus", workdir / "corpus.jsonl",
               "--lexicons", lexicon_dir, "--variant", "svm",
               "--task", "reply_only", "--platform", "twitter",
               "--epochs", 10, "--l2", 0.0, "--seed", 0, "--outdir", run_dir)
    assert code == 0
    assert (run_dir / "checkpoint.json").exists()
    assert "svm_reply_only" in capsys.readouterr().out

    eval_dir = workdir / "svm_eval"
    code = run("eval", "--checkpoint", run_dir / "checkpoint.json",
               "--corpus", workdir / "corpus.jsonl",
               "--lexicons", lexicon_dir, "--platform", "twitter",
               "--seed", 0, "--outdir", eval_dir)
    assert code == 0
    assert (eval_dir / "metrics.txt").exists()


def test_attention_command_exports_heatmaps_and_overlap(tmp_path):
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, synthetic_vocabulary(), dim=EMBED_DIM, seed=3)
    corpus = tmp_path / "cue.jsonl"
    save_corpus(make_planted_cue_corpus(30, seed=11), corpus)
    run_dir = tmp_path / "run"
    code = run("train", "--corpus", corpus, "--embeddings", emb,
               "--variant", "sent_attn", "--platform", "twitter",
               "--embed-dim", EMBED_DIM, "--hidden-dim", 6,
               "--epochs", 2, "--patience", 2, "--dropout", 0.0,
               "--seed", 3, "--outdir", run_dir)
    assert code == 0
    att_dir = tmp_path / "att"
    code = run("attention", "--checkpoint", run_dir / "checkpoint.json",
               "--corpus", corpus, "--embeddings", emb,
               "--platform", "twitter", "--embed-dim", EMBED_DIM,
               "--seed", 3, "--outdir", att_dir)
    assert code == 0
    svgs = list(att_dir.glob("heatmap_*.svg"))
    assert len(svgs) == 30
    doc = json.loads((att_dir / "overlap.json").read_text())
    assert doc["instances"] == 30
    assert doc["annotated"] == 15  # only S instances carry triggers
    assert 0.0 <= doc["overlap_rate"] <= 1.0


def test_attention_heatmaps_of_ids_with_path_separators_stay_in_the_outdir(tmp_path, capsys):
    emb, ckpt = scoring_inputs(tmp_path, "sent_attn")
    instances = make_planted_cue_corpus(2, seed=11)
    for inst, id_ in zip(instances, ("sub/dir", "../x")):
        inst.id = id_
    corpus = tmp_path / "cue.jsonl"
    save_corpus(instances, corpus)
    att_dir = tmp_path / "att"
    assert run("attention", "--checkpoint", ckpt, "--corpus", corpus, "--embeddings", emb,
               "--platform", "twitter", "--embed-dim", EMBED_DIM, "--outdir", att_dir) == 0
    assert sorted(p.name for p in att_dir.rglob("*.svg")) == [
        "heatmap_..%2Fx.svg", "heatmap_sub%2Fdir.svg"]
    assert not list(tmp_path.glob("*.svg"))
    assert "Traceback" not in capsys.readouterr().err


def test_missing_embeddings_is_config_error_naming_field(workdir, capsys):
    out = workdir / "never"
    code = run("train", "--corpus", workdir / "corpus.jsonl",
               "--variant", "reply_only", "--outdir", out)
    assert code == 1
    assert "embeddings" in capsys.readouterr().err
    assert not out.exists()  # no partial artifacts on config error


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_key": 1}', encoding="utf-8")
    assert run("gradcheck", "--config", cfg) == 1
    assert "no_such_key" in capsys.readouterr().err


def test_config_file_type_error_names_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": "30"}', encoding="utf-8")
    assert run("gradcheck", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert "epochs" in err and "integer" in err


STRING_KEYS = ("variant", "task", "platform", "corpus", "raw_tweets", "embeddings",
               "lexicons", "checkpoint", "outdir")
INT_KEYS = ("embed_dim", "hidden_dim", "att_dim", "batch_size", "epochs", "patience",
            "seed", "max_context", "min_ngram_count")
FLOAT_KEYS = ("dropout", "l2", "lr")
OPTIONAL_KEYS = ("corpus", "raw_tweets", "embeddings", "lexicons", "checkpoint",
                 "outdir", "embed_dim", "hidden_dim", "att_dim", "max_context")
# (key, a value of the wrong type, the word its message uses for the type)
WRONG_TYPES = ([(k, v, "string") for k in STRING_KEYS for v in (7, True, [])]
               + [(k, v, "integer") for k in INT_KEYS for v in ("3", 2.0, True)]
               + [(k, v, "number") for k in FLOAT_KEYS for v in ("0.5", False, {})]
               + [("conditional_reply_head_only", v, "boolean") for v in ("yes", 1, None)]
               + [(k, None, word) for keys, word in ((STRING_KEYS, "string"),
                                                     (INT_KEYS, "integer"),
                                                     (FLOAT_KEYS, "number"))
                  for k in keys if k not in OPTIONAL_KEYS])


def test_wrong_type_table_covers_every_config_key():
    assert {k for k, _, _ in WRONG_TYPES} == set(RunConfig.field_names())


@pytest.mark.parametrize("key, value, word", WRONG_TYPES)
def test_config_file_value_of_wrong_type_names_key(tmp_path, capsys, key, value, word):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run("gradcheck", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert f"{key} must be a{'n' if word == 'integer' else ''} {word}, got {value!r}" in err


@pytest.mark.parametrize("key", OPTIONAL_KEYS)
def test_config_file_null_for_an_optional_key_is_accepted(key):
    assert getattr(RunConfig().updated({key: None}, source="test"), key) is None


FLAG_VALUES = ([("variant", "concat", "concat"), ("task", "reply_only", "reply_only"),
                ("platform", "twitter", "twitter")]
               + [(k, "some/path", "some/path") for k in STRING_KEYS[3:]]
               + [(k, "7", 7) for k in INT_KEYS]
               + [(k, "0.25", 0.25) for k in FLOAT_KEYS])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_flag_sets_its_key(command):
    parser = _build_parser()
    for key, text, value in FLAG_VALUES:
        cfg = _config_from_args(parser.parse_args([command, "--" + key.replace("_", "-"), text]))
        assert getattr(cfg, key) == value and type(getattr(cfg, key)) is type(value), key
    for flag, value in (("--conditional-reply-head-only", True),
                        ("--no-conditional-reply-head-only", False)):
        cfg = _config_from_args(parser.parse_args([command, flag]))
        assert cfg.conditional_reply_head_only is value
    assert _config_from_args(parser.parse_args([command])) == RunConfig()


def test_each_command_takes_the_same_option_strings():
    sub = next(a for a in _build_parser()._actions if a.choices)
    want = ({"-h", "--help", "--config", "--conditional-reply-head-only",
             "--no-conditional-reply-head-only"}
            | {"--" + k.replace("_", "-") for k in STRING_KEYS + INT_KEYS + FLOAT_KEYS})
    assert set(sub.choices) == set(COMMANDS)
    for name, parser in sub.choices.items():
        assert {s for a in parser._actions for s in a.option_strings} == want, name


@pytest.mark.parametrize("flag, value", [("--variant", "svm_x"), ("--task", "both"),
                                         ("--platform", "reddit"), ("--epochs", "2.5"),
                                         ("--lr", "fast")])
def test_flag_value_outside_its_type_or_choices_is_usage_error(capsys, flag, value):
    assert run("gradcheck", flag, value) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "l2"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_rate_in_config_file_is_config_error(workdir, capsys, key, value):
    # json.load accepts NaN and Infinity; training must not start on them
    cfg = workdir / "cfg.json"
    cfg.write_text(f'{{"{key}": {value}}}', encoding="utf-8")
    out = workdir / "never"
    code = run("train", "--config", cfg, "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt", "--variant", "reply_only",
               "--platform", "twitter", "--embed-dim", EMBED_DIM, "--epochs", 1,
               "--outdir", out)
    assert code == 1
    assert f"{key}: " in capsys.readouterr().err
    assert not out.exists()


def test_flag_overrides_config_file(tmp_path, workdir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "epochs": 1, "dropout": 0.0,
                               "platform": "twitter", "variant": "reply_only",
                               "embed_dim": EMBED_DIM, "hidden_dim": 4,
                               "patience": 1}), encoding="utf-8")
    out = tmp_path / "run"
    code = run("train", "--config", cfg, "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt", "--seed", 7,
               "--outdir", out)
    assert code == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 7  # flag wins
    assert echoed["epochs"] == 1  # file value kept


def test_bad_corpus_is_data_error(tmp_path, workdir, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    code = run("prepare", "--corpus", bad, "--outdir", tmp_path / "o")
    assert code == 2
    assert "platform" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--corpus", "--raw-tweets"])
def test_non_utf8_input_is_data_error_without_traceback(tmp_path, capsys, flag):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe{\x00\"\x00i\x00d\x00\"\x00}\x00\n\x00")
    code = run("prepare", flag, bad, "--outdir", tmp_path / "o",
               "--platform", "twitter")
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.jsonl: line 1: not valid UTF-8" in err
    assert "Traceback" not in err


def test_non_utf8_embeddings_is_data_error_without_traceback(workdir, capsys):
    emb = workdir / "emb.txt"
    lines = emb.read_bytes().split(b"\n")
    lines[2] = b"\xff\xfe" + lines[2]
    emb.write_bytes(b"\n".join(lines))
    code = run("train", "--corpus", workdir / "corpus.jsonl", "--embeddings", emb,
               "--variant", "reply_only", "--platform", "twitter",
               "--embed-dim", EMBED_DIM, "--hidden-dim", 6, "--epochs", 1,
               "--outdir", workdir / "run")
    err = capsys.readouterr().err
    assert code == 2
    assert "emb.txt: line 3: not valid UTF-8" in err
    assert "Traceback" not in err


def test_usage_error_exit_code():
    assert run("no-such-command") == 1


def test_gradcheck_command_passes_all_variants(capsys):
    assert run("gradcheck", "--seed", 0) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_cli_import_leaves_out_xml_and_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and ssl, tens of
    # milliseconds at the start of every command
    src = str(Path(convsarc.__file__).resolve().parents[1])
    code = ("import sys, convsarc.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('xml', 'http', 'ssl') or m == 'urllib.request'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"


def scoring_inputs(tmp_path, variant):
    """An embedding file and a checkpoint of random (untrained) parameters."""
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, synthetic_vocabulary(), dim=EMBED_DIM, seed=3)
    params = models.init_params(variant, EMBED_DIM, 6, rng=new_rng(5))
    rng = new_rng(6)
    params = params.replace_tensors(
        {k: rng.uniform(-0.5, 0.5, v.shape) for k, v in params.tensors().items()})
    ckpt = tmp_path / "checkpoint.json"
    models.save_checkpoint(params, ckpt)
    return emb, ckpt


@pytest.mark.parametrize("variant", models.VARIANTS)
def test_cli_scoring_in_passes_matches_per_instance_predict(tmp_path, monkeypatch, variant):
    emb, ckpt = scoring_inputs(tmp_path, variant)
    instances = make_planted_cue_corpus(16, seed=11)
    corpus = tmp_path / "cue.jsonl"
    save_corpus(instances, corpus)
    params, table = models.load_checkpoint(ckpt), load_embeddings(emb, EMBED_DIM)
    segs = [segment_instance(i, context_cutoff("twitter")) for i in instances]
    want = [models.predict(params, seg, table) for seg in segs]
    monkeypatch.setattr("convsarc.models.MAX_PASS_ROWS", 20)  # reply_only: 70 rows
    assert len(models._sub_batches(segs, variant)) > 2
    common = ("--checkpoint", ckpt, "--corpus", corpus, "--embeddings", emb,
              "--platform", "twitter", "--embed-dim", EMBED_DIM)

    assert run("predict", *common, "--outdir", tmp_path / "pred") == 0
    rows = [json.loads(line) for line in
            (tmp_path / "pred" / "predictions.jsonl").read_text().splitlines()]
    assert [r["id"] for r in rows] == [i.id for i in instances]
    assert [r["label"] for r in rows] == [label for label, _, _ in want]
    for r, (_, probs, _) in zip(rows, want):
        assert abs(r["p_s"] - probs[0]) <= 1e-12 and abs(r["p_ns"] - probs[1]) <= 1e-12

    if variant not in models.ATTENTION_VARIANTS:
        return
    exported = []
    export = evaluate.export_heatmap

    def spy(rows, record, path, **kw):
        exported.append(record)
        export(rows, record, path, **kw)

    monkeypatch.setattr(evaluate, "export_heatmap", spy)
    assert run("attention", *common, "--outdir", tmp_path / "att") == 0
    assert len(exported) == len(want)
    for got, (_, _, record) in zip(exported, want):
        pairs = [(got.context_weights, record.context_weights),
                 (got.reply_weights, record.reply_weights)]
        if variant == "hier_attn":
            pairs += list(zip(got.context_word_weights + got.reply_word_weights,
                              record.context_word_weights + record.reply_word_weights))
        for a, b in pairs:
            assert a.shape == b.shape and np.allclose(a, b, atol=1e-12, rtol=0)


@pytest.mark.parametrize("command", ["eval", "predict", "attention"])
@pytest.mark.parametrize("content", ["not json at all", '{"kind": "mystery"}'])
def test_scoring_refuses_unreadable_or_unknown_checkpoint(workdir, capsys, command, content):
    ckpt = workdir / "odd_checkpoint.json"
    ckpt.write_text(content, encoding="utf-8")
    out = workdir / "never"
    code = run(command, "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt", "--platform", "twitter",
               "--embed-dim", EMBED_DIM, "--outdir", out)
    err = capsys.readouterr().err
    assert code == 1
    assert "odd_checkpoint.json" in err and "Traceback" not in err
    assert not out.exists()


def test_attention_refuses_svm_and_reply_only_checkpoints(workdir, lexicon_dir, capsys):
    svm_run = workdir / "svm_run"
    assert run("train", "--corpus", workdir / "corpus.jsonl", "--lexicons", lexicon_dir,
               "--variant", "svm", "--task", "reply_only", "--platform", "twitter",
               "--epochs", 1, "--seed", 0, "--outdir", svm_run) == 0
    (workdir / "reply").mkdir()
    _, reply_ckpt = scoring_inputs(workdir / "reply", "reply_only")
    capsys.readouterr()
    for ckpt, message in ((svm_run / "checkpoint.json", "attention needs an lstm checkpoint"),
                          (reply_ckpt, "'reply_only' has no attention weights")):
        out = workdir / "never"
        code = run("attention", "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
                   "--embeddings", workdir / "emb.txt", "--platform", "twitter",
                   "--embed-dim", EMBED_DIM, "--outdir", out)
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and str(ckpt) in err and "Traceback" not in err
        assert not out.exists()


def test_predict_refuses_svm_checkpoint_with_nan_weights(workdir, lexicon_dir, capsys):
    svm_run = workdir / "svm_run"
    assert run("train", "--corpus", workdir / "corpus.jsonl", "--lexicons", lexicon_dir,
               "--variant", "svm", "--task", "reply_only", "--platform", "twitter",
               "--epochs", 1, "--seed", 0, "--outdir", svm_run) == 0
    ckpt = svm_run / "checkpoint.json"
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    doc["weights"] = checkpoint.encode(np.full(len(doc["features"]), np.nan))
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out = workdir / "never"
    code = run("predict", "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
               "--lexicons", lexicon_dir, "--platform", "twitter", "--outdir", out)
    err = capsys.readouterr().err
    assert code == 1
    assert str(ckpt) in err and "non-finite" in err and "Traceback" not in err
    assert not out.exists()


def test_scoring_refuses_svm_checkpoint_values_of_the_wrong_type(workdir, lexicon_dir, capsys):
    svm_run = workdir / "svm_run"
    assert run("train", "--corpus", workdir / "corpus.jsonl", "--lexicons", lexicon_dir,
               "--variant", "svm", "--task", "reply_only", "--platform", "twitter",
               "--epochs", 1, "--seed", 0, "--outdir", svm_run) == 0
    ckpt = svm_run / "checkpoint.json"
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    for fields, message in (({"format_version": True}, "format_version True"),
                            ({"bias": "1.5"}, "bias must be a number"),
                            ({"class_weights": {"S": "3/2", "NS": True}}, "must be a number")):
        ckpt.write_text(json.dumps({**doc, **fields}), encoding="utf-8")
        capsys.readouterr()
        for command in ("eval", "predict"):
            out = workdir / "never"
            code = run(command, "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
                       "--lexicons", lexicon_dir, "--platform", "twitter", "--outdir", out)
            err = capsys.readouterr().err
            assert code == 1
            assert str(ckpt) in err and message in err and "Traceback" not in err
            assert not out.exists()


def test_scoring_commands_read_the_checkpoint_once(tmp_path, lexicon_dir, monkeypatch):
    emb, lstm_ckpt = scoring_inputs(tmp_path, "sent_attn")
    corpus = tmp_path / "cue.jsonl"
    save_corpus(make_planted_cue_corpus(20, seed=11), corpus)
    assert run("train", "--corpus", corpus, "--lexicons", lexicon_dir, "--variant", "svm",
               "--task", "reply_only", "--platform", "twitter", "--epochs", 1,
               "--seed", 0, "--outdir", tmp_path / "svm_run") == 0
    svm_ckpt = tmp_path / "svm_run" / "checkpoint.json"
    reads = []
    load = json.load

    def spy(fh, *args, **kwargs):
        reads.append(Path(fh.name))
        return load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", spy)
    runs = [(cmd, svm_ckpt, ("--lexicons", lexicon_dir)) for cmd in ("eval", "predict")]
    runs += [(cmd, lstm_ckpt, ("--embeddings", emb, "--embed-dim", EMBED_DIM))
             for cmd in ("eval", "predict", "attention")]
    for k, (command, ckpt, extra) in enumerate(runs):
        reads.clear()
        assert run(command, "--checkpoint", ckpt, "--corpus", corpus, *extra,
                   "--platform", "twitter", "--outdir", tmp_path / f"out{k}") == 0
        assert reads.count(ckpt) == 1, command


def test_eval_refuses_checkpoint_dims_too_large_to_allocate(workdir, capsys):
    _, ckpt = scoring_inputs(workdir, "sent_attn")
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    doc["dims"]["embed_dim"] = 10 ** 13
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "never"
    code = run("eval", "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt", "--platform", "twitter",
               "--embed-dim", EMBED_DIM, "--outdir", out)
    err = capsys.readouterr().err
    assert code == 1
    assert str(ckpt) in err and "dims" in err and "Traceback" not in err
    assert not out.exists()


def test_empty_test_split_keeps_exit_codes(tmp_path, capsys):
    emb, ckpt = scoring_inputs(tmp_path, "sent_attn")
    prep = tmp_path / "prep"
    prep.mkdir()
    for part in ("train", "dev", "test"):
        (prep / f"{part}.jsonl").write_text("", encoding="utf-8")
    common = ("--checkpoint", ckpt, "--corpus", prep, "--embeddings", emb,
              "--platform", "twitter", "--embed-dim", EMBED_DIM)
    assert run("eval", *common, "--outdir", tmp_path / "eval") == 2
    assert "cannot score an empty label list" in capsys.readouterr().err
    assert run("predict", *common, "--outdir", tmp_path / "pred") == 0
    assert (tmp_path / "pred" / "predictions.jsonl").read_text() == ""
    assert run("attention", *common, "--outdir", tmp_path / "att") == 0
    doc = json.loads((tmp_path / "att" / "overlap.json").read_text())
    assert doc == {"instances": 0, "annotated": 0}
