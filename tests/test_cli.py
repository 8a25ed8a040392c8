import json

import pytest

from convsarc.cli import main
from convsarc.data import load_corpus, save_corpus
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
