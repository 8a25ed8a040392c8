"""The benchmark traces convsarc from outside by wrapping public functions
at the attribute their caller goes through (bench/spans.py). A refactor that
removes or renames one of those targets silently drops its per-layer numbers,
so this test keeps every target present and the LSTM step count readable."""
import importlib.util
from pathlib import Path

from convsarc.data import SegmentedInstance
from convsarc.embeddings import EmbeddingTable
from convsarc.models import _batch_grads, _toy_instance, init_params, loss_and_grads
from convsarc.nn import new_rng

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_present_and_lstm_steps_counted():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        seg = _toy_instance()
        params = init_params("word_attn", 6, 4, rng=new_rng(0))
        table = EmbeddingTable(dim=6, vocab={}, seed=0)
        loss_and_grads(params, seg, table, seg.label)
        summary = spans.summarize(tracer.spans)
    finally:
        tracer.uninstall()
    tokens = sum(len(s) for s in seg.context_sentences + seg.reply_sentences)
    assert summary[("nn.lstm_backward", None)]["info"]["steps"] == tokens
    assert summary[("nn.lstm_forward", None)]["info"]["steps"] == tokens


def test_bench_tracer_counts_lstm_steps_of_a_batched_pass():
    # one training pass over several instances of different lengths: the
    # tracer reads len(cache) after lstm_backward has used the cache
    spans = load_spans()
    toy = _toy_instance()
    segs = [toy,
            SegmentedInstance(toy.context_sentences[:1], toy.reply_sentences[1:], "NS"),
            SegmentedInstance(toy.context_sentences[1:], toy.reply_sentences[:1], "S")]
    params = init_params("word_attn", 6, 4, rng=new_rng(0))
    table = EmbeddingTable(dim=6, vocab={}, seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _batch_grads(params, segs, [0, 1, 0], table)
        summary = spans.summarize(tracer.spans)
    finally:
        tracer.uninstall()
    tokens = sum(len(s) for seg in segs for s in seg.context_sentences + seg.reply_sentences)
    for name in ("nn.lstm_forward", "nn.lstm_backward"):
        assert summary[(name, None)]["calls"] == 2, name  # one per side
        assert summary[(name, None)]["info"]["steps"] == tokens, name
