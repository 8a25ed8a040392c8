import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

import convsarc

from convsarc import checkpoint, cli, embeddings, models
from convsarc.cli import COMMANDS, _build_parser, _config_from_args, main
from convsarc.config import RunConfig
from convsarc.data import context_cutoff, load_corpus, save_corpus, segment_instance
from convsarc.embeddings import load_embeddings
from convsarc.errors import ConfigError
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
    assert {k for k, _, _ in WRONG_TYPES} == set(RunConfig.field_types())


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


def test_config_file_value_out_of_range_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dropout": 5}', encoding="utf-8")
    assert run("gradcheck", "--config", cfg, "--dropout", 0.1) == 1
    assert capsys.readouterr().err == (
        f"config error: config file {cfg}: dropout: 5 outside [0, 1)\n")


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


def test_train_without_hidden_dim_uses_the_embedding_dim(workdir):
    out = workdir / "run"
    assert run("train", "--corpus", workdir / "corpus.jsonl",
               "--embeddings", workdir / "emb.txt", "--variant", "reply_only",
               "--platform", "twitter", "--embed-dim", EMBED_DIM, "--epochs", 1,
               "--outdir", out) == 0
    assert json.loads((out / "config.json").read_text())["hidden_dim"] is None
    doc = checkpoint.read(out / "checkpoint.json")
    assert doc["dims"]["hidden_dim"] == doc["dims"]["embed_dim"] == EMBED_DIM


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


@pytest.mark.parametrize("command", ["train", "gradcheck"])
@pytest.mark.parametrize("below", [False, True])
def test_outdir_naming_a_file_is_refused_before_any_work(workdir, capsys, monkeypatch,
                                                         command, below):
    afile = workdir / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")

    def never(*args, **kwargs):
        raise AssertionError("work started before the outdir was checked")

    monkeypatch.setattr(models, "train_model", never)
    monkeypatch.setattr(models, "gradient_check_variant", never)
    inputs = (("--corpus", workdir / "corpus.jsonl", "--embeddings", workdir / "emb.txt",
               "--embed-dim", EMBED_DIM) if command == "train" else ())
    assert run(command, *inputs, "--outdir", afile / "sub" if below else afile) == 1
    err = capsys.readouterr().err
    assert f"config error: outdir: not a directory: {afile}\n" == err
    assert afile.read_text(encoding="utf-8") == "not a directory\n"


def test_outdir_that_cannot_be_made_is_a_config_error(tmp_path, monkeypatch):
    # a file made at the outdir's path after the check
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    monkeypatch.setattr(cli, "_require_outdir", lambda cfg: None)
    with pytest.raises(ConfigError, match=f"outdir: cannot create {re.escape(str(afile))}"):
        cli._prepare_outdir(RunConfig(outdir=str(afile)))


@pytest.mark.parametrize("command, blocked", [("prepare", "train.jsonl"),
                                              ("train", "checkpoint.json"),
                                              ("eval", "config.json"), ("eval", "metrics.txt")])
def test_an_output_that_cannot_be_written_is_a_config_error_naming_it(workdir, capsys,
                                                                       command, blocked):
    inputs = {"prepare": (),
              "train": ("--embeddings", workdir / "emb.txt", "--embed-dim", EMBED_DIM,
                        "--variant", "reply_only", "--epochs", 1),
              "eval": ("--checkpoint", scoring_inputs(workdir, "reply_only")[1],
                       "--embeddings", workdir / "emb.txt", "--embed-dim", EMBED_DIM)}[command]
    (workdir / "out" / blocked).mkdir(parents=True)  # a directory where the file goes
    code = run(command, "--corpus", workdir / "corpus.jsonl", *inputs,
               "--outdir", workdir / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {workdir / 'out' / blocked}: ")
    assert "Traceback" not in err


def _fail_halfway_through(target, error, monkeypatch):
    """Make the text write into target's directory that is rewriting
    target's present text raise error once it has written half of it. Other
    writes there go through. The write is known by what it writes, not by
    its file name, so it is found whether the writer writes target in place
    or under a temporary name."""
    old = target.read_text(encoding="utf-8")
    half = len(old) // 2
    real_open = open

    class Filling:
        def __init__(self, fh):
            self.fh, self.written = fh, ""

        def write(self, s):
            done = self.written + s
            if len(self.written) < half <= len(done) and done[:half] == old[:half]:
                self.fh.write(s[:half - len(self.written)])
                self.fh.flush()
                raise error
            self.written = done[:half]
            return self.fh.write(s)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def filling(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if (isinstance(file, (str, os.PathLike)) and Path(file).parent == target.parent
                and "w" in mode and "b" not in mode):
            return Filling(fh)
        return fh
    monkeypatch.setattr("builtins.open", filling)
    monkeypatch.setattr(io, "open", filling)  # what Path.write_text calls


def _rewrite(workdir, lexicon_dir, output):
    """(argv of a command writing output, the name it writes it under)."""
    corpus = ("--corpus", workdir / "corpus.jsonl")
    if output in ("lstm checkpoint", "svm checkpoint"):
        model = (("--variant", "svm", "--lexicons", lexicon_dir) if output == "svm checkpoint"
                 else ("--variant", "reply_only", "--embeddings", workdir / "emb.txt",
                       "--embed-dim", EMBED_DIM))
        return ("train", *corpus, *model, "--epochs", 1), "checkpoint.json"
    if output == "corpus split":
        return ("prepare", *corpus), "train.jsonl"
    (workdir / "in").mkdir()
    variant = "sent_attn" if output == "heatmap" else "reply_only"
    emb, ckpt = scoring_inputs(workdir / "in", variant)
    command, name = {"predictions": ("predict", "predictions.jsonl"),
                     "heatmap": ("attention", "heatmap_sep-001.svg"),
                     "config.json": ("eval", "config.json")}[output]
    return (command, *corpus, "--checkpoint", ckpt, "--embeddings", emb,
            "--embed-dim", EMBED_DIM), name


@pytest.mark.parametrize("output, error", [
    *((output, "ENOSPC") for output in ("lstm checkpoint", "svm checkpoint", "predictions",
                                        "corpus split", "heatmap", "config.json")),
    ("lstm checkpoint", "KeyboardInterrupt")])
def test_a_rewrite_that_fails_partway_leaves_the_old_file_whole(
        workdir, lexicon_dir, capsys, monkeypatch, output, error):
    argv, name = _rewrite(workdir, lexicon_dir, output)
    out = workdir / "out"
    assert run(*argv, "--outdir", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    with monkeypatch.context() as mp:
        if error == "ENOSPC":
            _fail_halfway_through(out / name, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), mp)
            assert run(*argv, "--outdir", out) == 1
        else:
            _fail_halfway_through(out / name, KeyboardInterrupt(), mp)
            with pytest.raises(KeyboardInterrupt):
                run(*argv, "--outdir", out)
    # every file as it was, and no temporary file beside them
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    if error == "ENOSPC":
        assert capsys.readouterr().err == (f"config error: {out / name}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("flag, dim", [("--hidden-dim", 2 ** 51), ("--att-dim", 2 ** 53)])
def test_a_model_too_large_to_allocate_is_a_config_error(workdir, capsys, flag, dim):
    # the first tensor of that dim needs over 2**59 bytes at D=12, more than
    # any address space holds, so the allocation fails before a page is touched
    code = run("train", "--corpus", workdir / "corpus.jsonl", "--embeddings", workdir / "emb.txt",
               "--embed-dim", EMBED_DIM, flag, dim, "--outdir", workdir / "never")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: Unable to allocate") and "Traceback" not in err
    assert not (workdir / "never").exists()


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at D=100 and a batch of 32, OpenBLAS sums a product's terms in another
    # order on 2 threads than on 1; the CLI runs one, whatever the caller set
    save_corpus(make_planted_cue_corpus(200, seed=11), tmp_path / "cue.jsonl")
    write_embedding_file(tmp_path / "emb.txt", synthetic_vocabulary(), dim=100, seed=3)
    src = str(Path(convsarc.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        argv = ["train", "--corpus", tmp_path / "cue.jsonl", "--embeddings", tmp_path / "emb.txt",
                "--embed-dim", 100, "--variant", "concat", "--batch-size", 32,
                "--epochs", 1, "--patience", 1, "--outdir", tmp_path / threads]
        subprocess.run([sys.executable, "-m", "convsarc.cli", *map(str, argv)],
                       env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads),
                       capture_output=True, check=True)
    assert ((tmp_path / "1" / "checkpoint.json").read_bytes()
            == (tmp_path / "2" / "checkpoint.json").read_bytes())


def test_cli_import_leaves_out_xml_and_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and ssl, tens of
    # milliseconds at the start of every command
    src = str(Path(convsarc.__file__).resolve().parents[1])
    code = ("import sys, convsarc.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('xml', 'http', 'ssl') or m == 'urllib.request'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"


def test_scoring_after_train_reads_the_embedding_cache_not_the_text(tmp_path, monkeypatch,
                                                                   capsys):
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, synthetic_vocabulary(), dim=EMBED_DIM, seed=3)
    corpus = tmp_path / "cue.jsonl"
    save_corpus(make_planted_cue_corpus(20, seed=11), corpus)
    parses = []
    parse = embeddings._parse_text

    def spy(path, *args):
        parses.append(path)
        return parse(path, *args)
    monkeypatch.setattr(embeddings, "_parse_text", spy)
    common = ("--corpus", corpus, "--embeddings", emb, "--platform", "twitter",
              "--embed-dim", EMBED_DIM)
    assert run("train", *common, "--variant", "sent_attn", "--hidden-dim", 6, "--epochs", 2,
               "--patience", 2, "--seed", 3, "--outdir", tmp_path / "run") == 0
    assert parses == [str(emb)]

    def score_all() -> dict:
        """Each scoring command's stdout and output files, by command."""
        got = {}
        for command in ("eval", "predict", "attention"):
            out = tmp_path / command
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
            assert run(command, "--checkpoint", tmp_path / "run" / "checkpoint.json",
                       *common, "--outdir", out) == 0
            got[command] = (capsys.readouterr(),
                            {f.name: f.read_bytes() for f in sorted(out.iterdir())})
        return got

    hits = score_all()
    assert parses == [str(emb)]
    Path(f"{emb}{embeddings.CACHE_SUFFIX}").unlink()
    parsed = score_all()
    assert parses == [str(emb)] * 2  # eval parsed the text and cached it again
    assert hits == parsed
    assert all(err == "" for (_, err), _ in hits.values())


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
    score = models.score

    def spy(*args):
        result = score(*args)
        exported.extend(result[2])
        return result

    monkeypatch.setattr(models, "score", spy)
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


def test_empty_test_split_is_a_data_error_naming_the_file(workdir, lexicon_dir, capsys):
    (workdir / "lstm").mkdir()
    _, lstm_ckpt = scoring_inputs(workdir / "lstm", "sent_attn")
    assert run("train", "--corpus", workdir / "corpus.jsonl", "--lexicons", lexicon_dir,
               "--variant", "svm", "--epochs", 1, "--outdir", workdir / "svm_run") == 0
    svm_ckpt = workdir / "svm_run" / "checkpoint.json"
    prep = workdir / "prep"
    prep.mkdir()
    for part in ("train", "dev", "test"):
        (prep / f"{part}.jsonl").write_text("", encoding="utf-8")
    single = workdir / "empty.jsonl"
    single.write_text("", encoding="utf-8")
    capsys.readouterr()
    lstm = (lstm_ckpt, "--embeddings", workdir / "emb.txt")
    svm = (svm_ckpt, "--lexicons", lexicon_dir)
    for command, (ckpt, *extra) in (("eval", lstm), ("predict", lstm), ("attention", lstm),
                                    ("eval", svm), ("predict", svm)):
        for corpus, named in ((prep, prep / "test.jsonl"), (single, single)):
            code = run(command, "--checkpoint", ckpt, "--corpus", corpus, *extra,
                       "--outdir", workdir / "never")
            err = capsys.readouterr().err
            assert code == 2, (command, ckpt, err)
            assert f"data error: {named}: no instances to score" in err
            assert "Traceback" not in err
            assert not (workdir / "never").exists()


def test_train_reads_only_the_train_and_dev_splits(workdir, capsys):
    prep = workdir / "prep"
    prep.mkdir()
    records = load_corpus(workdir / "corpus.jsonl")
    save_corpus(records[:32], prep / "train.jsonl")
    save_corpus(records[32:], prep / "dev.jsonl")  # and no test.jsonl
    train = ("train", "--corpus", prep, "--embeddings", workdir / "emb.txt",
             "--embed-dim", EMBED_DIM, "--variant", "reply_only", "--epochs", 1)
    assert run(*train, "--outdir", workdir / "run") == 0
    assert (workdir / "run" / "checkpoint.json").exists()
    (prep / "dev.jsonl").unlink()
    capsys.readouterr()
    assert run(*train, "--outdir", workdir / "never") == 1
    assert f"corpus: split file missing: {prep / 'dev.jsonl'}" in capsys.readouterr().err
    assert not (workdir / "never").exists()


def test_scoring_uses_the_window_of_the_data_and_checkpoint_not_the_platform_flag(tmp_path):
    # eight context sentences: the twitter window keeps 5, the forum one 10
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, synthetic_vocabulary(), dim=EMBED_DIM, seed=3)
    corpus = tmp_path / "cue.jsonl"
    save_corpus(make_planted_cue_corpus(20, n_context=8, seed=11), corpus)
    assert run("train", "--corpus", corpus, "--embeddings", emb, "--variant", "sent_attn",
               "--platform", "twitter", "--embed-dim", EMBED_DIM, "--hidden-dim", 6,
               "--epochs", 2, "--patience", 2, "--seed", 3,
               "--outdir", tmp_path / "run") == 0
    common = ("--checkpoint", tmp_path / "run" / "checkpoint.json", "--corpus", corpus,
              "--embeddings", emb)
    for tag, flags in (("flag", ("--platform", "twitter")), ("bare", ())):
        assert run("predict", *common, *flags, "--outdir", tmp_path / f"pred_{tag}") == 0
        assert run("attention", *common, *flags, "--outdir", tmp_path / f"att_{tag}") == 0
    assert ((tmp_path / "pred_flag" / "predictions.jsonl").read_bytes()
            == (tmp_path / "pred_bare" / "predictions.jsonl").read_bytes())
    names = sorted(p.name for p in (tmp_path / "att_flag").iterdir() if p.name != "config.json")
    assert "overlap.json" in names and len(names) == 21
    assert names == sorted(p.name for p in (tmp_path / "att_bare").iterdir()
                           if p.name != "config.json")
    for name in names:
        assert ((tmp_path / "att_flag" / name).read_bytes()
                == (tmp_path / "att_bare" / name).read_bytes()), name


@pytest.mark.parametrize("command", ["eval", "predict", "attention"])
def test_scoring_refuses_a_max_context_that_conflicts_with_the_checkpoint(
        workdir, lexicon_dir, capsys, command):
    (workdir / "lstm").mkdir()
    _, lstm_ckpt = scoring_inputs(workdir / "lstm", "sent_attn")  # stores no window
    runs = [(lstm_ckpt, ("--embeddings", workdir / "emb.txt"))]
    if command != "attention":
        assert run("train", "--corpus", workdir / "corpus.jsonl", "--lexicons", lexicon_dir,
                   "--variant", "svm", "--task", "reply_only", "--max-context", 3,
                   "--epochs", 1, "--seed", 0, "--outdir", workdir / "svm_run") == 0
        runs.append((workdir / "svm_run" / "checkpoint.json", ("--lexicons", lexicon_dir)))
    capsys.readouterr()
    for ckpt, extra in runs:
        out = workdir / "never"
        code = run(command, "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
                   *extra, "--max-context", 4, "--outdir", out)
        err = capsys.readouterr().err
        assert code == 1
        assert "max_context: 4 conflicts" in err and str(ckpt) in err
        assert "Traceback" not in err
        assert not out.exists()
    # the window the svm checkpoint stores may be given again
    if command != "attention":
        assert run(command, "--checkpoint", runs[1][0], "--corpus", workdir / "corpus.jsonl",
                   "--lexicons", lexicon_dir, "--max-context", 3,
                   "--outdir", workdir / "same") == 0


@pytest.mark.parametrize("flag", [(), ("--max-context", 5)])
def test_a_malformed_stored_window_is_reported_as_malformed_not_as_a_conflict(
        workdir, capsys, flag):
    emb, ckpt = scoring_inputs(workdir, "reply_only")
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    doc["max_context"] = "5"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    code = run("eval", "--checkpoint", ckpt, "--corpus", workdir / "corpus.jsonl",
               "--embeddings", emb, *flag, "--outdir", workdir / "never")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {ckpt}: malformed checkpoint: max_context must be "
                          "null or a nonnegative integer, got '5'"), err
    assert not (workdir / "never").exists()


def test_attention_names_heatmaps_of_ids_too_long_for_a_file_name_by_hash(tmp_path, capsys):
    emb, ckpt = scoring_inputs(tmp_path, "sent_attn")
    instances = make_planted_cue_corpus(3, seed=11)
    # 300 ASCII characters, and 41 two-byte ones that quote to 246 characters
    for inst, id_ in zip(instances, ("a" * 300, "é" * 41, "é" * 40)):
        inst.id = id_
    corpus = tmp_path / "cue.jsonl"
    save_corpus(instances, corpus)
    att_dir = tmp_path / "att"
    assert run("attention", "--checkpoint", ckpt, "--corpus", corpus, "--embeddings", emb,
               "--outdir", att_dir) == 0
    names = sorted(p.name for p in att_dir.glob("heatmap_*.svg"))
    assert len(names) == 3
    assert all(len(name.encode("utf-8")) <= 255 for name in names)
    assert sum(name.startswith("heatmap_=") for name in names) == 2
    assert "heatmap_" + "%C3%A9" * 40 + ".svg" in names
    assert "Traceback" not in capsys.readouterr().err


def _refused_input(tmp_path, workdir, lexicon_dir, case):
    """(argv, code, the path, with its line where that is known, or the
    instance that stderr must name) for one refused input."""
    bad_dir = tmp_path / "a_directory"
    bad_dir.mkdir()
    out = ("--outdir", tmp_path / "never")
    train = ("train", "--corpus", workdir / "corpus.jsonl", "--variant", "reply_only",
             "--epochs", 1) + out
    if case == "config-not-utf8":
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"epochs": 1,\n "seed": "\xff"}\n')
        return train + ("--embeddings", workdir / "emb.txt", "--config", cfg), 2, cfg
    if case == "lexicon-not-utf8":
        (lexicon_dir / "negative.txt").write_bytes(b"bad\n\xe9vil\n")
        return (train + ("--lexicons", lexicon_dir, "--variant", "svm"), 2,
                lexicon_dir / "negative.txt")
    if case == "prepare-corpus-dir":
        return ("prepare", "--corpus", bad_dir) + out, 1, bad_dir
    if case == "prepare-raw-tweets-dir":
        return ("prepare", "--raw-tweets", bad_dir, "--platform", "twitter") + out, 1, bad_dir
    if case == "train-embeddings-dir":
        return train + ("--embeddings", bad_dir), 1, bad_dir
    if case == "train-embed-dim-mismatch":
        return (train + ("--embeddings", workdir / "emb.txt", "--embed-dim", 9), 1,
                workdir / "emb.txt")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000, encoding="utf-8")  # deeper than json's recursion limit
    if case == "config-nested":
        return train + ("--embeddings", workdir / "emb.txt", "--config", nested), 1, nested
    if case == "checkpoint-nested":
        return (("eval", "--checkpoint", nested, "--corpus", workdir / "corpus.jsonl",
                 "--embeddings", workdir / "emb.txt") + out, 1, nested)
    records = load_corpus(workdir / "corpus.jsonl")
    if case == "train-blank-context":  # a context that segments to no sentence
        records[3].context = ["   "]
        prep = tmp_path / "prep"
        prep.mkdir()
        save_corpus(records[:32], prep / "train.jsonl")
        save_corpus(records[32:], prep / "dev.jsonl")
        return (train + ("--embeddings", workdir / "emb.txt", "--embed-dim", EMBED_DIM,
                         "--corpus", prep, "--variant", "conditional"),
                2, f"instance '{records[3].id}'")
    if case == "predict-empty-context":
        (tmp_path / "lstm").mkdir()
        emb, ckpt = scoring_inputs(tmp_path / "lstm", "sent_attn")
        records[5].context = []
        save_corpus(records, tmp_path / "no_context.jsonl")
        return (("predict", "--checkpoint", ckpt, "--corpus", tmp_path / "no_context.jsonl",
                 "--embeddings", emb) + out, 2, f"instance '{records[5].id}'")
    # a \ud800 escape decodes to a lone surrogate, which no UTF-8 writer takes
    bad = tmp_path / "surrogate.jsonl"
    if case == "config-lone-surrogate":
        bad.write_text('{"epochs": 1,\n "outdir": "o\\ud800"}\n', encoding="utf-8")
        return (train + ("--embeddings", workdir / "emb.txt", "--config", bad), 2,
                f"{bad}: line 2: string holds a lone surrogate (\\ud800)")
    if case == "raw-tweets-repeated-id":  # n0, line 4, again with other text
        make_raw_tweets(bad)
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "n0", "text": "an answer given twice, differently",
                                 "reply_to": "q0"}) + "\n")
        return (("prepare", "--raw-tweets", bad, "--platform", "twitter") + out, 2,
                f"{bad}: line 49: id 'n0' repeats line 4 with other fields")
    if case == "raw-tweets-lone-surrogate":
        make_raw_tweets(bad)
        rows = bad.read_text(encoding="utf-8").split("\n")
        rows[1] = rows[1].replace('"oh what', '"\\ud800oh what')
        bad.write_text("\n".join(rows), encoding="utf-8")
        return ("prepare", "--raw-tweets", bad, "--platform", "twitter") + out, 2, f"{bad}: line 2"
    records[0].reply = "\ud800" + records[0].reply
    with open(bad, "w", encoding="utf-8") as fh:
        for inst in records:
            fh.write(json.dumps(vars(inst)) + "\n")  # ASCII: the surrogate as an escape
    if case == "prepare-corpus-lone-surrogate":
        return ("prepare", "--corpus", bad) + out, 2, f"{bad}: line 1"
    assert case == "train-corpus-lone-surrogate"
    return train + ("--embeddings", workdir / "emb.txt", "--corpus", bad), 2, f"{bad}: line 1"


@pytest.mark.parametrize("case", ["config-not-utf8", "lexicon-not-utf8", "prepare-corpus-dir",
                                  "prepare-raw-tweets-dir", "train-embeddings-dir",
                                  "train-embed-dim-mismatch", "config-lone-surrogate",
                                  "raw-tweets-lone-surrogate", "raw-tweets-repeated-id",
                                  "prepare-corpus-lone-surrogate",
                                  "train-corpus-lone-surrogate", "train-blank-context",
                                  "predict-empty-context", "config-nested",
                                  "checkpoint-nested"])
def test_refused_input_names_its_path_without_traceback_or_outdir(
        tmp_path, workdir, lexicon_dir, capsys, case):
    argv, want, path = _refused_input(tmp_path, workdir, lexicon_dir, case)
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == want, err
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()


# each line is appended to make_raw_tweets' 48 lines after a blank line 49,
# so it is line 50; p0 is line 1
BAD_RAW_TWEETS = [
    ('["not", "an object"]', "record must be an object"),
    ('{"text": "a reply with no id"}', "field 'id' must be a nonempty string"),
    ('{"id": "x1", "text": 5}', "field 'text' must be a nonempty string"),
    ('{"id": "x1", "text": "some text here", "retweet": "no"}',
     "field 'retweet' must be a boolean"),
    ('{"id": "x1", "text": "some text here", "quote": 0}', "field 'quote' must be a boolean"),
    ('{"id": "x1", "text": "some text here", "reply_to": 7}',
     "field 'reply_to' must be a string or null"),
    ('{"id": "p0", "text": "parent message number 0 right here", "retweet": true}',
     "id 'p0' repeats line 1 with other fields"),
]


@pytest.mark.parametrize("row, message", BAD_RAW_TWEETS,
                         ids=["object", "id", "text", "retweet", "quote", "reply_to", "repeat"])
def test_bad_raw_tweet_is_a_data_error_naming_its_line(tmp_path, capsys, row, message):
    raw = tmp_path / "raw.jsonl"
    make_raw_tweets(raw)
    with open(raw, "a", encoding="utf-8") as fh:
        fh.write("\n" + row + "\n")
    code = run("prepare", "--raw-tweets", raw, "--platform", "twitter",
               "--outdir", tmp_path / "never")
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"data error: {raw}: line 50: {message}\n"
    assert not (tmp_path / "never").exists()


RAW_PIECES = [b'{"id": "a", "text": "one more great day #sarcasm", "reply_to": "b"}',
              b'{"id": "b", "text": "so it goes on", "retweet": false}', b'{"id": "a"}',
              b'{"id": "c", "text": "q r s", "quote": 1}', b'[1]', b"null", b"{", b"\xff",
              b'"\\ud800"', b'{"id": "d", "text": "\xc3\xa9 x y", "reply_to": 3}',
              b"\n", b"\r\n", b"\r", b" "]


@given(st.one_of(st.binary(max_size=64),
                 st.lists(st.sampled_from(RAW_PIECES), max_size=12).map(b"".join)))
@settings(max_examples=80, deadline=None)
@example(b'{"id": "a", "text": "x y z"}\n' + b"[" * 100_000)  # deeper than json's recursion limit
def test_any_raw_tweet_bytes_exit_cleanly_naming_file_and_line(tmp_path_factory, content):
    d = tmp_path_factory.mktemp("raw")
    raw, out = d / "raw.jsonl", d / "out"
    raw.write_bytes(content)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run("prepare", "--raw-tweets", raw, "--platform", "twitter", "--outdir", out)
    err = err.getvalue()
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert re.match(rf"data error: {re.escape(str(raw))}: line \d+: ", err), err
    if code:
        assert not out.exists()


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """An embedding file, an LSTM checkpoint and a corpus that eval scores."""
    d = tmp_path_factory.mktemp("eval_inputs")
    emb, ckpt = scoring_inputs(d, "reply_only")
    save_corpus(make_separable_corpus(8, seed=7), d / "corpus.jsonl")
    return emb, ckpt, d / "corpus.jsonl"


def _eval_with_file(tmp_path_factory, flag, content, *argv):
    """Runs eval in process with content as the file of flag, and checks
    that it exits 0-3 with no traceback and, if it fails, names that file
    and leaves no outdir."""
    d = tmp_path_factory.mktemp("eval")
    path, out = d / "input.json", d / "out"
    path.write_bytes(content)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run("eval", *argv, flag, path, "--outdir", out)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert str(path) in err, err
        assert not out.exists()


CONFIG_PIECES = [b"{", b"}", b"[", b"]", b",", b":", b'"seed"', b'"lr"', b'"nope"', b"3",
                 b"-1", b"0", b"null", b'"x"', b"\xff", b'"\\ud800"', b"\n", b" "]


@given(st.one_of(st.binary(max_size=48),
                 st.lists(st.sampled_from(CONFIG_PIECES), max_size=12).map(b"".join)))
@settings(max_examples=40, deadline=None)
@example(b"[" * 100_000)  # deeper than json's recursion limit
@example(b'{"seed": ' + b"[" * 100_000)
@example(b'{"lr": 0}')  # a value validate refuses
def test_any_config_bytes_to_eval_exit_cleanly_naming_the_file(
        tmp_path_factory, eval_inputs, content):
    emb, ckpt, corpus = eval_inputs
    _eval_with_file(tmp_path_factory, "--config", content, "--checkpoint", ckpt,
                    "--corpus", corpus, "--embeddings", emb)


CHECKPOINT_PIECES = [b'{"kind": "lstm", "format_version": 3',
                     b'{"kind": "svm", "format_version": 1', b', "max_context": null',
                     b', "max_context": "5"', b', "variant": "concat"', b', "tensors": {}',
                     b', "weights": "AAAA"', b', "features": ["a"]', b"}",
                     b"{", b"[", b"]", b"null", b"\xff", b'"\\ud800"', b"\n", b" "]


@given(st.one_of(st.binary(max_size=48),
                 st.lists(st.sampled_from(CHECKPOINT_PIECES), max_size=8).map(b"".join)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(b"[" * 100_000)  # deeper than json's recursion limit
@example(b'{"kind": "lstm", "tensors": ' + b"{" * 100_000)
def test_any_checkpoint_bytes_to_eval_exit_cleanly_naming_the_file(
        tmp_path_factory, eval_inputs, lexicon_dir, content):
    emb, _, corpus = eval_inputs
    _eval_with_file(tmp_path_factory, "--checkpoint", content, "--corpus", corpus,
                    "--embeddings", emb, "--lexicons", lexicon_dir)


@pytest.mark.parametrize("case", ["empty-dev-split", "one-class-svm-split"])
def test_refused_split_writes_no_outdir(tmp_path, workdir, lexicon_dir, capsys, case):
    corpus = tmp_path / "prepared"
    corpus.mkdir()
    instances = load_corpus(workdir / "corpus.jsonl")
    train, dev = instances[:32], instances[32:]
    if case == "empty-dev-split":
        dev, model = [], ("--variant", "reply_only", "--embeddings", workdir / "emb.txt",
                          "--platform", "twitter", "--embed-dim", EMBED_DIM)
    else:
        train, model = ([i for i in train if i.label == "S"],
                        ("--variant", "svm", "--lexicons", lexicon_dir))
    for name, part in (("train", train), ("dev", dev), ("test", dev)):
        save_corpus(part, corpus / f"{name}.jsonl")
    code = run("train", "--corpus", corpus, "--epochs", 1,
               "--outdir", tmp_path / "never", *model)
    err = capsys.readouterr().err
    assert code == 1, err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "never").exists()
