"""scripts/run_context_comparison.py is a client of the CLI: its flags,
validation and exit codes are `convsarc train`'s."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convsarc.cli import main
from convsarc.data import save_corpus
from convsarc.synthetic import (make_planted_cue_corpus, synthetic_vocabulary,
                                write_embedding_file)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def syn(tmp_path_factory):
    path = tmp_path_factory.mktemp("syn")
    save_corpus(make_planted_cue_corpus(40, seed=11), path / "corpus.jsonl")
    write_embedding_file(path / "emb.txt", synthetic_vocabulary(), dim=8, seed=3)
    return path


def compare(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_context_comparison.py"), *map(str, args)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


@pytest.mark.parametrize("flags", [("--dropout", 5), ("--embed-dim", 9),
                                   ("--corpus", "missing.jsonl"), ("--variants", "foo"),
                                   ("--variant", "concat")],
                         ids=["dropout", "embed-dim", "missing-corpus", "variants", "variant"])
def test_comparison_refuses_a_bad_config_with_the_cli_exit_code(syn, flags):
    done = compare("--corpus", syn / "corpus.jsonl", "--embeddings", syn / "emb.txt",
                   "--embed-dim", 8, "--epochs", 1, *flags)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("config error: ") and "Traceback" not in done.stderr
    assert "trained" not in done.stdout


def test_comparison_on_a_prepared_directory_matches_the_split_source_file(syn, tmp_path):
    assert main(["prepare", "--corpus", str(syn / "corpus.jsonl"), "--seed", "5",
                 "--outdir", str(tmp_path / "prep")]) == 0
    flags = ("--embeddings", syn / "emb.txt", "--embed-dim", 8, "--epochs", 1,
             "--patience", 1, "--seed", 5)
    from_dir = compare("--corpus", tmp_path / "prep", *flags)
    from_file = compare("--corpus", syn / "corpus.jsonl", *flags)
    assert from_dir.returncode == 0, from_dir.stderr
    assert "sent_attn: trained 1 epochs" in from_dir.stdout
    assert from_dir.stdout == from_file.stdout


@pytest.mark.parametrize("flags, option", [
    (("--outdir", "out"), "--outdir"), (("--checkpoint", "ck.json"), "--checkpoint"),
    (("--lexicons", "lex"), "--lexicons"), (("--raw-tweets", "raw.jsonl"), "--raw-tweets"),
    (("--task", "reply_only"), "--task"), (("--min-ngram-count", 99), "--min-ngram-count"),
    ("config", "'variant'")],
    ids=["outdir", "checkpoint", "lexicons", "raw-tweets", "task", "min-ngram-count",
         "config-variant"])
def test_comparison_refuses_an_option_it_would_ignore(syn, tmp_path, flags, option):
    if flags == "config":
        (tmp_path / "cfg.json").write_text('{"variant": "concat"}', encoding="utf-8")
        flags = ("--config", tmp_path / "cfg.json")
    done = compare("--corpus", syn / "corpus.jsonl", "--embeddings", syn / "emb.txt",
                   "--embed-dim", 8, "--epochs", 1, *flags)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("config error: ") and "Traceback" not in done.stderr
    assert option in done.stderr
    assert "trained" not in done.stdout
    assert not (tmp_path / "out").exists()
