"""Measured memory of a forward/backward pass, for the tests that size
passes (models.MAX_PASS_ROWS, models.TOKENS_PER_WORD_ATTENTION_ROW) and
bound the scratch of nn.lstm_backward."""
import tracemalloc
from functools import lru_cache

from convsarc.data import SegmentedInstance
from convsarc.embeddings import EmbeddingTable
from convsarc.models import _forward, init_params
from convsarc.nn import new_rng


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the tracemalloc peak during the call above what was
    allocated when it started, in bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def peak_bytes_per_token(variant, dim, instances=16, context_tweets=5, tokens=(13, 26)):
    """Growth per extra token of the peak of one labelled _forward pass of
    variant at D = H = att_dim = dim over a twitter-shaped batch: instances
    threads of context_tweets one-sentence tweets and a one-sentence reply,
    from tokens[0] to tokens[1] tokens per tweet."""
    rng = new_rng(0)
    table = EmbeddingTable.from_vectors(
        {f"w{k}": rng.uniform(-1, 1, dim) for k in range(max(tokens))}, dim)
    params = init_params(variant, dim, dim, rng=rng)
    peaks = []
    for n in tokens:
        tweet = [f"w{k}" for k in range(n)]
        segs = [SegmentedInstance([tweet] * context_tweets, [tweet], "S")
                for _ in range(instances)]
        peaks.append(traced_peak(_forward, params, segs, table, labels=[0] * instances)[1])
    return (peaks[1] - peaks[0]) / (instances * (context_tweets + 1) * (tokens[1] - tokens[0]))
