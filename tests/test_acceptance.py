"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The long-pole items (capacity, planted cue) are seed-fixed and
budgeted well inside their stated runtime limits.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from convsarc.cli import main
from convsarc.data import (ConversationInstance, SegmentedInstance,
                           save_corpus, segment_instance, stratified_split,
                           twitter_filter)
from convsarc.embeddings import EmbeddingTable, load_embeddings
from convsarc.evaluate import attention_overlap, f1_score, prf1
from convsarc.features import class_weight_map, svm_predict, svm_train
from convsarc.models import (VARIANTS, TrainSettings, _forward,
                             gradient_check_variant, init_params, predict,
                             score, train_model)
from convsarc.nn import new_rng
from convsarc.synthetic import (make_planted_cue_corpus, make_separable_corpus,
                                synthetic_vocabulary, write_embedding_file)

GRAD_TOL = 1e-4


def report(cid, detail):
    print(f"\n[{cid}] PASS - {detail}")


@pytest.fixture(scope="module")
def syn_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc_emb") / "vectors.txt"
    write_embedding_file(path, synthetic_vocabulary(), dim=12, seed=3)
    return load_embeddings(path, 12), path


def test_c1_gradient_correctness_all_variants():
    t0 = time.time()
    worst = {}
    for variant in VARIANTS:
        errs = gradient_check_variant(variant, embed_dim=10, hidden_dim=8,
                                      seed=0, epsilon=1e-5)
        worst[variant] = max(errs.values())
        assert worst[variant] < GRAD_TOL, (variant, errs)
        assert any(k.endswith("u_s") for k in errs) == (variant in
                                                        ("sent_attn", "word_attn", "hier_attn"))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("C1", "analytic vs central-difference gradients, all six variants: "
           + ", ".join(f"{v}={e:.1e}" for v, e in worst.items())
           + f" ({elapsed:.0f}s)")


def test_c2_attention_normalization_thousand_instances():
    rng = new_rng(99)
    tokens = [f"w{i}" for i in range(30)]
    table = EmbeddingTable(dim=8, vocab={}, seed=1)
    params = {v: init_params(v, 8, 6, rng=new_rng(5)) for v in
              ("sent_attn", "word_attn", "hier_attn")}
    checked = 0
    vectors = 0
    for i in range(1000):
        variant = ("sent_attn", "word_attn", "hier_attn")[i % 3]
        n_ctx = int(rng.integers(1, 6))
        n_rep = int(rng.integers(1, 4))
        seg = SegmentedInstance(
            context_sentences=[[tokens[int(t)] for t in rng.integers(0, 30, int(rng.integers(1, 6)))]
                               for _ in range(n_ctx)],
            reply_sentences=[[tokens[int(t)] for t in rng.integers(0, 30, int(rng.integers(1, 6)))]
                             for _ in range(n_rep)],
            label="S")
        _, (record,), _, _ = _forward(params[variant], [seg], table)
        weight_vectors = [record.context_weights, record.reply_weights]
        if record.context_word_weights:
            weight_vectors.extend(record.context_word_weights)
        if record.reply_word_weights:
            weight_vectors.extend(record.reply_word_weights)
        for w in weight_vectors:
            assert np.all(w >= 0.0)
            assert abs(float(np.sum(w)) - 1.0) <= 1e-9
            vectors += 1
        checked += 1
    assert checked == 1000
    report("C2", f"{checked} random instances, {vectors} weight vectors "
           "nonnegative and summing to 1 within 1e-9")


def test_c3_conditional_reduction_to_reply_pathway():
    table = EmbeddingTable(dim=10, vocab={}, seed=2)
    cond = init_params("conditional", 10, 7, rng=new_rng(6))
    zero = init_params("reply_only", 10, 7).cell("r")
    cond.tensors().update(  # a zero context cell forces its final state to zero
        {f"lstm_c.{k}": v for k, v in zero._asdict().items()})
    seg = SegmentedInstance(
        context_sentences=[["some", "ctx", "words"], ["more", "ctx"]],
        reply_sentences=[["the", "actual", "reply"], ["tokens", "here"]],
        label="S")
    got = predict(cond, seg, table)[1]

    reply = init_params("reply_only", 10, 7)
    for name in ("lstm_r.W", "lstm_r.U", "lstm_r.b", "b_out"):
        reply.tensors()[name] = cond.tensors()[name]
    reply.tensors()["W_out"] = cond.tensors()["W_out"][:, 7:]
    expected = predict(reply, seg, table)[1]
    diff = float(np.max(np.abs(got - expected)))
    assert diff <= 1e-12
    report("C3", f"zero context state reduces conditional to the reply "
           f"pathway (max abs diff {diff:.1e})")


def test_c4_capacity_separable_corpus_all_variants(syn_table):
    table, _ = syn_table
    corpus = make_separable_corpus(50, seed=7)
    solved = {}
    for variant in VARIANTS:
        settings = TrainSettings(variant=variant, hidden_dim=16, lr=0.5,
                                 l2=0.0, dropout=0.0, batch_size=16,
                                 epochs=200, patience=200, seed=5)
        result = train_model(corpus, corpus, table, settings)
        labels = score(result.params, [segment_instance(i) for i in corpus], table)[0]
        acc = sum(p == inst.label for p, inst in zip(labels, corpus)) / len(corpus)
        assert acc == 1.0, (variant, acc)
        solved[variant] = result.best_epoch
    report("C4", "100% training accuracy within 200 epochs on the "
           "50-instance separable corpus; best epochs: "
           + ", ".join(f"{v}={e}" for v, e in solved.items()))


def test_c5_planted_cue_attention(syn_table):
    t0 = time.time()
    table, _ = syn_table
    corpus = make_planted_cue_corpus(500, n_context=5, seed=11)
    train, dev, test = stratified_split(corpus, seed=1)
    settings = TrainSettings(variant="sent_attn", hidden_dim=16, lr=0.3,
                             l2=1e-4, dropout=0.0, batch_size=16, epochs=200,
                             patience=200, seed=5)
    result = train_model(train, dev, table, settings)
    records = []
    hits = 0
    for inst in test:
        if inst.label != "S":
            continue
        seg = segment_instance(inst)
        _, _, record = predict(result.params, seg, table)
        records.append((record.context_weights, inst.human_triggers))
        if int(np.argmax(record.context_weights)) in set(inst.human_triggers):
            hits += 1
    fraction = hits / len(records)
    assert fraction >= 0.80, fraction
    assert attention_overlap(records) == fraction
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report("C5", f"argmax context attention on the cue sentence for "
           f"{hits}/{len(records)} held-out instances ({fraction:.2f} >= 0.80); "
           f"attention_overlap agrees exactly ({elapsed:.0f}s)")


def test_c6_metric_fidelity():
    assert abs(f1_score(70.03, 76.92) - 73.32) <= 0.01
    assert abs(f1_score(76.08, 76.53) - 76.30) <= 0.01

    gold = ["S", "S", "S", "S", "NS", "NS", "NS", "NS", "NS", "NS"]
    pred = ["S", "NS", "S", "S", "S", "S", "NS", "NS", "NS", "NS"]
    metrics = prf1(gold, pred)
    # independent oracle: exhaustive enumeration of the confusion counts
    for lab in ("S", "NS"):
        tp = sum(1 for g, p in zip(gold, pred) if g == lab and p == lab)
        fp = sum(1 for g, p in zip(gold, pred) if g != lab and p == lab)
        fn = sum(1 for g, p in zip(gold, pred) if g == lab and p != lab)
        tn = sum(1 for g, p in zip(gold, pred) if g != lab and p != lab)
        sc = metrics.per_class[lab]
        assert (sc.tp, sc.fp, sc.fn, sc.tn) == (tp, fp, fn, tn)
        assert sc.precision == pytest.approx(100.0 * tp / (tp + fp))
        assert sc.recall == pytest.approx(100.0 * tp / (tp + fn))
        assert sc.f1 == pytest.approx(f1_score(sc.precision, sc.recall))
    report("C6", "harmonic-mean fixtures 73.32 / 76.30 within 0.01; "
           "10-instance confusion fixture matches exhaustive enumeration")


def test_c7_svm_baseline():
    cw = class_weight_map(["S"] * 100 + ["NS"] * 300)
    assert cw["S"] / cw["NS"] == 3  # exact rational arithmetic

    train = []
    for i in range(4):
        train.append(({f"s{i}": 0.7}, "S"))
        train.append(({f"n{i}": 0.7}, "NS"))
    train.append(({"big_s": 2.0}, "S"))
    train.append(({"big_n": 2.0}, "NS"))
    # lr defaults to the stable bound 1 / (l2 + max ||x||^2) = 0.25
    model = svm_train(train, TrainSettings(epochs=30, l2=0.0, seed=0))
    acc = sum(1 for fv, lab in train if svm_predict(model, fv)[0] == lab) / len(train)
    assert acc == 1.0
    hist = model.objective_history
    assert hist[0] > 0.0
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
    report("C7", f"class weights exactly 3:1 for sizes (100, 300); toy "
           f"accuracy 1.0; hinge objective non-increasing over {len(hist)} "
           "epochs at the bound step")


def test_c8_corpus_rules():
    def tw(tid, text, retweet=False):
        return {"id": tid, "text": text, "retweet": retweet, "quote": False,
                "reply_to": None}

    records = [tw("1", "#sarcasm is something that I love"),
               tw("2", "this text is retweeted verbatim", retweet=True),
               tw("3", "one more reason to feel really great #sarcasm")]
    out = twitter_filter(list(enumerate(records, start=1)), "raw.jsonl")
    assert [t.id for t in out] == ["3"]
    assert out[0].label == "S"
    assert out[0].text == "one more reason to feel really great"

    fifty = [ConversationInstance(f"s{i}", "forum", [], "r", "S") for i in range(50)] \
        + [ConversationInstance(f"n{i}", "forum", [], "r", "NS") for i in range(50)]
    train, dev, test = stratified_split(fifty, seed=4)
    for part, expect in ((train, 40), (dev, 5), (test, 5)):
        assert sum(1 for i in part if i.label == "S") == expect
        assert sum(1 for i in part if i.label == "NS") == expect

    big = [ConversationInstance(f"s{i}", "twitter", [], "r", "S")
           for i in range(12_215)] \
        + [ConversationInstance(f"n{i}", "twitter", [], "r", "NS")
           for i in range(13_776)]
    train, dev, test = stratified_split(big, seed=4)
    for label, total in (("S", 12_215), ("NS", 13_776)):
        got = [sum(1 for i in part if i.label == label)
               for part in (train, dev, test)]
        ideal = (0.8 * total, 0.1 * total, 0.1 * total)
        assert sum(got) == total
        assert all(abs(g - x) <= 1.0 for g, x in zip(got, ideal)), (label, got)
    report("C8", "filter rejects mid-text and retweeted sarcasm tags, strips "
           "terminal tags; 50+50 split is 40/5/5; 12215/13776 split within "
           "±1 of 80/10/10 per class")


def test_c9_determinism_byte_identical_runs(tmp_path):
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, synthetic_vocabulary(), dim=12, seed=3)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(make_separable_corpus(40, seed=7), corpus)

    def one_run(tag):
        run_dir = tmp_path / f"run_{tag}"
        eval_dir = tmp_path / f"eval_{tag}"
        assert main(["train", "--corpus", str(corpus), "--embeddings", str(emb),
                     "--variant", "sent_attn", "--platform", "twitter",
                     "--embed-dim", "12", "--hidden-dim", "6", "--epochs", "2",
                     "--patience", "2", "--seed", "13",
                     "--outdir", str(run_dir)]) == 0
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--corpus", str(corpus), "--embeddings", str(emb),
                     "--platform", "twitter", "--embed-dim", "12",
                     "--seed", "13", "--outdir", str(eval_dir)]) == 0
        return run_dir, eval_dir

    run_a, eval_a = one_run("a")
    run_b, eval_b = one_run("b")
    for name in ("checkpoint.json", "train_log.jsonl"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    for name in ("metrics.jsonl", "metrics.txt"):
        assert (eval_a / name).read_bytes() == (eval_b / name).read_bytes(), name
    report("C9", "two train+eval runs with identical seed/config/corpus are "
           "byte-identical (checkpoint, training log, metric reports)")


def test_c10_full_reproduction_documented_not_automated():
    # Full-scale reproduction needs the released datasets and hours of
    # training; the manual procedure lives in README.md and
    # scripts/run_context_comparison.py. Here we only assert the procedure
    # is shipped.
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert "Full-scale reproduction" in readme
    assert (root / "scripts" / "run_context_comparison.py").exists()
    report("C10", "full reproduction is a documented manual procedure "
           "(README + scripts/run_context_comparison.py), not automated")


def test_c10_scripts_run_on_a_small_corpus(tmp_path):
    # the manual procedure calls the package API directly, so a change to
    # that API shows here rather than at the next full-scale run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def script(name, *args):
        return subprocess.run([sys.executable, str(root / "scripts" / name), *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=300)

    made = script("make_synthetic_corpus.py", "planted_cue", "--size", 40, "--dim", 8,
                  "--outdir", tmp_path)
    assert made.returncode == 0, made.stderr
    done = script("run_context_comparison.py", "--corpus", tmp_path / "corpus.jsonl",
                  "--embeddings", tmp_path / "embeddings.txt", "--embed-dim", 8,
                  "--epochs", 1, "--patience", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[lines.index("") + 1].split() == [
        "Experiment", "S-P", "S-R", "S-F1", "NS-P", "NS-R", "NS-F1"]
    for variant in ("reply_only", "concat", "conditional", "sent_attn"):
        assert f"{variant}: trained 1 epochs" in done.stdout
        assert any(line.split()[:1] == [variant] for line in lines)  # its table row
    assert "context-reading variants beating reply_only on S-class F1" in done.stdout
    report("C10", "make_synthetic_corpus.py and run_context_comparison.py run end to end")
