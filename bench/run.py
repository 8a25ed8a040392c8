"""convsarc benchmark: generate seeded inputs, run them through convsarc's
public functions and CLI, check the outputs, and print every metric.

    python3 bench/run.py --workload twitter_train --seed 1 --seconds 60 --trace 0

Each workload is a closed loop with one client: one process runs one
operation at a time, with one BLAS thread.

* ``twitter_train``: D=H=100, 5 context tweets and a 5-20 token reply per
  instance, 32 training instances. Per-call Python/numpy overhead
  dominates each LSTM step.
* ``cli_pipeline``: raw tweets with every filter drop reason, a 22k-vector
  embedding file the corpus uses a few percent of, and the CLI chain
  prepare -> train (svm, sent_attn) -> eval/predict (both) -> attention.

Every workload runs the same rounds, so every metric has a value on every
workload. A round is each variant's training and test-split scoring in
process, alternating with the commands of one CLI chain run as
subprocesses, with embedding loads spread between them and a set-up probe
at its start and middle.
Rounds repeat while the next is expected to end within ``--seconds``, and
at least twice. The workload decides input sizes. End-to-end timings are
rescaled to a fixed reference speed of the machine (see ``REF_S``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs two rounds
of fixed work (each variant trains once), one untraced and one traced,
prints the per-layer metrics of the traced round, which are totals over
that fixed work, the difference in wall time as ``trace.overhead_s``, and
writes the spans to ``.bench_results/``. Correctness checks run outside
the timed spans in both modes; a failed operation or check counts in
``failed`` and makes the run exit 1. The last line of standard output is
the JSON result; the line before it is a report with the machine, the
input statistics and the sample counts.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1  # one client, one thread: steadier on shared cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

try:
    from convsarc import data, embeddings, models  # noqa: E402
except ImportError as _e:
    sys.exit(f"bench: cannot import convsarc from {SRC}: {_e}")
if SRC.resolve() not in Path(models.__file__).resolve().parents:
    sys.exit(f"bench: convsarc imported from {models.__file__}, not from {SRC}")

import inputs  # noqa: E402
import spans  # noqa: E402

VARIANTS = models.VARIANTS
TRAIN_SEED = 13
GRAD_TOLERANCE = 1e-4
PROB_TOLERANCE = 1e-12
CMD_TIMEOUT_S = 120
SETUP_PROBE = ("import sys; from convsarc import cli, data, embeddings; "
               "data.load_corpus(sys.argv[1]); "
               "embeddings.load_embeddings(sys.argv[2], int(sys.argv[3]))")

END_TO_END = (
    *((f"train_inst_per_s.{v}", "inst/s") for v in VARIANTS),
    ("score_inst_per_s", "inst/s"),
    ("svm_train_inst_per_s", "inst/s"),
    ("embed_load_vec_per_s", "vectors/s"),
    ("pipeline_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int               # embedding size D; hidden size H = D
    corpus_size: int       # corpus instances, alternating S and NS
    train_size: int        # in process: the first train_size instances train,
    dev_size: int          # the next dev_size are the dev split,
    test_size: int         # and the next test_size are scored
    vocab_words: int
    distractors: int       # vectors no corpus uses, added to the embedding file
    raw_conversations: int  # >0: the chain prepares raw tweets, else the corpus


EPOCHS = 1       # per train_model call; throughput counts instances x epochs
REP_S = 1.0      # a variant is retrained until it has run this long in a
                 # round, so fast variants get several samples
SVM_EPOCHS = 20  # per SVM training in the chain
MIN_ROUNDS = 2   # two trainings per variant, for the determinism check
LOAD_S = 0.8     # in-process embedding loads per round last at least this
SVM_EXTRA = 9    # SVM trainings per round besides the chain's own
SCORE_S = 1.0    # test-split scoring of all six variants per round lasts at least this
FIXED_LOADS = 2  # embedding loads in a fixed-work round (the traced run's)

# On shared cores the machine's speed drifts by tens of percent, within a
# run and from one run to the next, and every timing drifts with it. So each
# sample timed in this process (a training, a scoring pass, an embedding
# load) is bracketed by a reference loop: small numpy calls shaped like an
# LSTM step, touching nothing of convsarc. The sample is rescaled to the
# speed at which that loop takes REF_S, its median on the machine the
# baseline was measured on. The report gives each run's reference median,
# which turns a reported time back into the one measured. CLI commands and
# set-up probes run in subprocesses, whose start-up and page faults vary on
# their own, so rescaling each of them by the loop next to it made their
# spread wider, not narrower. Their medians are rescaled instead by the
# median of all the run's reference loops, which follows the machine's drift
# from run to run.
REF_S = 0.0216
REF_LOOPS = 24
_REF_RNG = np.random.default_rng(0)
_REF_W = 0.05 * _REF_RNG.standard_normal((400, 200))
_REF_X = _REF_RNG.standard_normal((25, 100))

WORKLOADS = {
    "twitter_train": Workload(
        "twitter_train", dim=100, corpus_size=72, train_size=32,
        dev_size=8, test_size=16, vocab_words=3000, distractors=0,
        raw_conversations=0),
    "cli_pipeline": Workload(
        "cli_pipeline", dim=100, corpus_size=40, train_size=24,
        dev_size=4, test_size=8, vocab_words=2000, distractors=20000,
        raw_conversations=100),
}
# Toy sizes for the self-test (bench/test_run.py): same phases, D=12.
TOY = {name: replace(wl, dim=12, corpus_size=20, train_size=8, dev_size=2,
                     test_size=4, vocab_words=200,
                     distractors=min(wl.distractors, 300),
                     raw_conversations=min(wl.raw_conversations, 60))
       for name, wl in WORKLOADS.items()}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"bench: FAILED {what}", file=sys.stderr)


@dataclass
class Inputs:
    workdir: Path
    corpus: Path           # in-process corpus file
    chain_corpus: Path     # what the chain's prepare reads
    attention_corpus: Path | None  # None: the prepared test split
    embeddings: Path
    lexicons: Path
    stats: dict


def make_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    vocab = inputs.make_vocabulary(rng, wl.vocab_words, wl.vocab_words // 8)
    corpus = workdir / "corpus.jsonl"
    records = inputs.make_corpus(rng, vocab, wl.corpus_size, "c")
    inputs.write_jsonl(records, corpus)
    stats = {"corpus_instances": len(records)}
    chain_corpus, attention_corpus = corpus, None
    if wl.raw_conversations:
        raw, drops = inputs.make_raw_tweets(rng, vocab, wl.raw_conversations)
        chain_corpus, attention_corpus = workdir / "raw_tweets.jsonl", corpus
        inputs.write_jsonl(raw, chain_corpus)
        stats.update(raw_tweet_records=len(raw), planted_drops=drops)
    lexicons = workdir / "lexicons"
    inputs.write_lexicons(rng, vocab, lexicons)
    emb = workdir / "embeddings.txt"
    tokens = (vocab.words + list(inputs.PUNCTUATION)
              + inputs.distractor_words(rng, vocab, wl.distractors))
    inputs.write_embeddings(rng, tokens, wl.dim, emb)
    stats.update(embedding_vectors=len(tokens),
                 embedding_file_bytes=emb.stat().st_size,
                 corpus_file_bytes=corpus.stat().st_size)
    return Inputs(workdir, corpus, chain_corpus, attention_corpus, emb,
                  lexicons, stats)


# ---------------------------------------------------------------------------
# rounds
#
# On shared cores the machine's speed can drift by tens of percent within
# seconds, so a round interleaves everything it measures: a set-up probe,
# embedding loads, and the variants' training alternating with the commands
# of one CLI chain. Every metric then samples the whole run, not one stretch.


@dataclass
class Context:
    wl: Workload
    inp: Inputs
    table: embeddings.EmbeddingTable
    train: list
    dev: list
    test: list
    cutoff: int
    env: dict
    tally: Tally
    tracer: spans.Tracer | None = None
    setup_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    train_rates: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    score_rates: list = field(default_factory=list)
    final_losses: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    trained: dict = field(default_factory=dict)
    chains: list = field(default_factory=list)
    refs: list = field(default_factory=list)

    def paced(self, wall: float, before: float) -> float:
        """wall at the reference speed: scaled by REF_S over the mean of the
        reference loop's durations just before it (``before``) and after it."""
        after = reference_s()
        self.refs += [before, after]
        return wall * 2.0 * REF_S / (before + after)


def reference_s() -> float:
    """Wall time of the reference loop, a fixed LSTM-like recurrence."""
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        h = c = np.zeros(100)
        for x in _REF_X:
            g = _REF_W @ np.concatenate((x, h))
            gates = 1.0 / (1.0 + np.exp(-g[:300]))
            c = gates[:100] * c + gates[100:200] * np.tanh(g[300:])
            h = gates[200:] * np.tanh(c)
    return time.perf_counter() - t0


def _call(cmd: list[str], env: dict) -> tuple[int | None, str]:
    """Run a command to completion; returns (exit code, stderr). A command
    that overruns its timeout is killed and reported with code None."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CMD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CMD_TIMEOUT_S} s"
    return proc.returncode, proc.stderr.strip()


def setup_probe(ctx: Context) -> None:
    """Wall time of a fresh interpreter that imports convsarc, loads the
    corpus and loads the embeddings: what a user waits for before work."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(ctx.inp.corpus),
           str(ctx.inp.embeddings), str(ctx.wl.dim)]
    ctx.tally.attempted += 1
    t0 = time.perf_counter()
    code, err = _call(cmd, ctx.env)
    ctx.setup_s.append(time.perf_counter() - t0)
    if code != 0:
        ctx.tally.fail(f"setup probe: exit {code}: {err}")


def embed_load(ctx: Context) -> float:
    """Load the workload's embedding file in process; returns the wall time,
    or infinity when loading failed so that no caller retries it."""
    ctx.tally.attempted += 1
    ref = reference_s()
    try:
        t0 = time.perf_counter()
        embeddings.load_embeddings(ctx.inp.embeddings, ctx.wl.dim)
        wall = time.perf_counter() - t0
    except Exception as e:
        ctx.tally.fail(f"load embeddings: {e!r}")
        return math.inf
    ctx.load_s.append(ctx.paced(wall, ref))
    return wall


@contextmanager
def _tagged(ctx: Context, variant: str):
    """Spans opened inside belong to this variant."""
    if ctx.tracer is not None:
        ctx.tracer.variant = variant
    try:
        yield
    finally:
        if ctx.tracer is not None:
            ctx.tracer.variant = None


def train_once(ctx: Context, variant: str) -> float:
    """Train one variant for EPOCHS; returns the wall time, or infinity when
    training failed so that no caller retries it."""
    tally = ctx.tally
    settings = models.TrainSettings(
        variant=variant, hidden_dim=ctx.wl.dim, dropout=0.5, batch_size=16,
        epochs=EPOCHS, patience=None, seed=TRAIN_SEED, max_context=ctx.cutoff)
    tally.attempted += 1
    ref = reference_s()
    with _tagged(ctx, variant):
        try:
            t0 = time.perf_counter()
            result = models.train_model(ctx.train, ctx.dev, ctx.table, settings)
            wall = time.perf_counter() - t0
        except Exception as e:  # counted, reported, and the run goes on
            tally.fail(f"train {variant}: {e!r}")
            ctx.trained.pop(variant, None)
            return math.inf
    ctx.train_rates[variant].append(len(ctx.train) * EPOCHS / ctx.paced(wall, ref))
    losses = [entry["train_loss"] for entry in result.log]
    if len(losses) != EPOCHS or not all(map(math.isfinite, losses)):
        tally.fail(f"train {variant}: epoch losses {losses}")
    ctx.final_losses[variant].append(losses[-1] if losses else None)
    ctx.trained[variant] = result.params
    return wall


def score(ctx: Context, variant: str) -> tuple[int, float]:
    """Score the test split with the variant's last trained parameters.
    Returns (instances scored, seconds spent scoring)."""
    tally = ctx.tally
    params = ctx.trained.get(variant)
    if params is None:
        return 0, 0.0
    scored, score_s = 0, 0.0
    with _tagged(ctx, variant):
        for inst in ctx.test:
            tally.attempted += 1
            try:
                t0 = time.perf_counter()
                seg = data.segment_instance(inst, ctx.cutoff)
                _, probs, _ = models.predict(params, seg, ctx.table)
                score_s += time.perf_counter() - t0
            except Exception as e:
                tally.fail(f"score {variant} {inst.id}: {e!r}")
                continue
            scored += 1
            if not (np.all(np.isfinite(probs))
                    and abs(float(probs.sum()) - 1.0) <= PROB_TOLERANCE):
                tally.fail(f"score {variant} {inst.id}: probabilities {probs}")
    return scored, score_s


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cli_commands(ctx: Context, out: Path) -> list[tuple[str, list[str]]]:
    wl, inp = ctx.wl, ctx.inp
    prep = out / "prep"
    common = ["--platform", "twitter", "--seed", str(TRAIN_SEED)]
    neural = ["--embeddings", str(inp.embeddings), "--embed-dim", str(wl.dim)]
    svm_ckpt = str(out / "svm" / "checkpoint.json")
    lstm_ckpt = str(out / "lstm" / "checkpoint.json")
    source = (["--raw-tweets", str(inp.chain_corpus)] if wl.raw_conversations
              else ["--corpus", str(inp.chain_corpus)])
    att_corpus = str(inp.attention_corpus or prep)
    lex = ["--lexicons", str(inp.lexicons)]
    return [
        ("prepare", ["prepare", *source, "--outdir", str(prep), *common]),
        ("train_svm", ["train", "--corpus", str(prep), "--variant", "svm",
                       "--task", "context_and_reply", *lex,
                       "--epochs", str(SVM_EPOCHS),
                       "--outdir", str(out / "svm"), *common]),
        ("train_lstm", ["train", "--corpus", str(prep), "--variant", "sent_attn",
                        *neural, "--epochs", "1", "--patience", "1",
                        "--outdir", str(out / "lstm"), *common]),
        ("eval_svm", ["eval", "--checkpoint", svm_ckpt, "--corpus", str(prep),
                      *lex, "--outdir", str(out / "eval_svm"), *common]),
        ("predict_svm", ["predict", "--checkpoint", svm_ckpt, "--corpus", str(prep),
                         *lex, "--outdir", str(out / "pred_svm"), *common]),
        ("eval_lstm", ["eval", "--checkpoint", lstm_ckpt, "--corpus", str(prep),
                       *neural, "--outdir", str(out / "eval_lstm"), *common]),
        ("predict_lstm", ["predict", "--checkpoint", lstm_ckpt, "--corpus", str(prep),
                          *neural, "--outdir", str(out / "pred_lstm"), *common]),
        ("attention", ["attention", "--checkpoint", lstm_ckpt,
                       "--corpus", att_corpus, *neural,
                       "--outdir", str(out / "att"), *common]),
    ]


def argv_with(argv: list[str], flag: str, value: str) -> list[str]:
    i = argv.index(flag)
    return argv[:i + 1] + [value] + argv[i + 2:]


def run_command(ctx: Context, chain: dict, label: str, argv: list[str]) -> float:
    """One CLI command in a fresh interpreter, traced when a tracer is set.
    Returns its wall time."""
    if ctx.tracer is not None:
        spans_file = ctx.inp.workdir / f"spans_{len(ctx.chains)}_{label}.json"
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), *argv]
    else:
        cmd = [sys.executable, "-m", "convsarc.cli", *argv]
    ctx.tally.attempted += 1
    t0 = time.perf_counter()
    code, err = _call(cmd, ctx.env)
    wall = time.perf_counter() - t0
    if code != 0:
        ctx.tally.fail(f"cli {label}: exit {code}: {err}")
    if ctx.tracer is not None and spans_file.exists():
        chain["traced"].append(json.loads(spans_file.read_text(encoding="utf-8")))
    return wall


def run_round(ctx: Context, fixed: bool = False) -> float:
    """One round; returns its wall time. Every variant first trains once.
    Then each of the chain's commands runs in turn, and before each the
    embedding loads, the test-split scoring of all six variants, the fast
    variants' retraining and the extra SVM trainings are topped up to their
    share of the round, so that their samples spread over it.

    The quotas are in seconds, so that fast variants get several samples.
    With ``fixed`` they are counts instead: each variant trains once, the
    test split is scored once and the embeddings load FIXED_LOADS times, so
    that the work done does not depend on how fast it runs. The traced run
    uses fixed rounds: its per-layer totals then count the same work on any
    commit, and its traced and untraced rounds do the same work."""
    t_round = time.perf_counter()
    setup_probe(ctx)
    out = ctx.inp.workdir / f"chain{len(ctx.chains)}"
    chain = {"walls": {}, "svm_walls": [], "traced": []}
    commands = _cli_commands(ctx, out)

    def cost(seconds: float) -> float:
        return 1.0 if fixed else seconds

    load_quota, score_quota, train_quota = (
        (FIXED_LOADS, 1.0, 1.0) if fixed else (LOAD_S, SCORE_S, REP_S))
    spent = {v: cost(train_once(ctx, v)) for v in VARIANTS}
    loaded, scored_for, svm_extra = 0.0, 0.0, 0
    for i, (label, argv) in enumerate(commands):
        if i == len(commands) // 2:
            setup_probe(ctx)  # a second set-up sample, mid-round
        due = (i + 1) / len(commands)
        while loaded < load_quota * due:
            loaded += cost(embed_load(ctx))
        while scored_for < score_quota * due:
            ref = reference_s()
            scored, s = zip(*(score(ctx, v) for v in VARIANTS))
            if not sum(s):
                break  # no variant trained; the tally says why
            ctx.score_rates.append(sum(scored) / ctx.paced(sum(s), ref))
            scored_for += cost(sum(s))
        for v in VARIANTS:
            while spent[v] < train_quota * due:
                spent[v] += cost(train_once(ctx, v))
        while "prepare" in chain["walls"] and svm_extra < SVM_EXTRA * due:
            svm_argv = argv_with(dict(commands)["train_svm"], "--outdir",
                                 str(out / f"svm_extra{svm_extra}"))
            chain["svm_walls"].append(run_command(ctx, chain, "train_svm", svm_argv))
            svm_extra += 1
        wall = run_command(ctx, chain, label, argv)
        chain["walls"][label] = wall
        if label == "train_svm":
            chain["svm_walls"].append(wall)
    chain["n_train"] = _check_chain(ctx, out)
    chain["wall_s"] = sum(chain["walls"].values())
    shutil.rmtree(out, ignore_errors=True)
    ctx.chains.append(chain)
    return time.perf_counter() - t_round


def _check_chain(ctx: Context, out: Path) -> int:
    """Prediction count equals the test split; eval's confusion counts equal
    those of predict's labels. Returns the training-split size."""
    tally = ctx.tally
    try:
        n_train = len(_read_jsonl(out / "prep" / "train.jsonl"))
        n_test = len(_read_jsonl(out / "prep" / "test.jsonl"))
    except OSError as e:
        tally.fail(f"cli prepare outputs: {e!r}")
        return 0
    for kind in ("svm", "lstm"):
        try:
            rows = _read_jsonl(out / f"pred_{kind}" / "predictions.jsonl")
            report = json.loads((out / f"eval_{kind}" / "metrics.jsonl")
                                .read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            tally.fail(f"cli {kind} outputs: {e!r}")
            continue
        if len(rows) != n_test:
            tally.fail(f"cli predict {kind}: {len(rows)} predictions for "
                       f"{n_test} test instances")
        for lab in ("S", "NS"):
            want = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
            for r in rows:
                key = ("t" if (r["label"] == lab) == (r["gold"] == lab) else "f") \
                    + ("p" if r["label"] == lab else "n")
                want[key] += 1
            got = {k: report["classes"][lab][k] for k in want}
            if got != want:
                tally.fail(f"cli eval {kind} class {lab}: {got} != predict's {want}")
    return n_train


# ---------------------------------------------------------------------------
# correctness checks (outside the timed spans)


def directional_gradcheck(params, seg, table, rng, n_dirs: int = 3,
                          eps: float = 1e-5) -> float:
    """Worst relative error between the analytic directional derivative
    <grad, d> and the central difference (L(p + eps d) - L(p - eps d)) / 2eps
    along n_dirs seeded unit directions, dropout off."""
    label = models.LABEL_TO_INDEX[seg.label]
    _, grads = models.loss_and_grads(params, seg, table, seg.label)
    base = params.tensors()

    def loss(tensors) -> float:
        probs = models.predict(params.replace_tensors(tensors), seg, table)[1]
        return -math.log(float(probs[label]))

    worst = 0.0
    for _ in range(n_dirs):
        d = {k: rng.standard_normal(t.shape) for k, t in base.items()}
        norm = math.sqrt(sum(float((x * x).sum()) for x in d.values()))
        analytic = sum(float((grads[k] * d[k]).sum()) for k in base) / norm
        up = loss({k: base[k] + eps * d[k] / norm for k in base})
        down = loss({k: base[k] - eps * d[k] / norm for k in base})
        numeric = (up - down) / (2.0 * eps)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def run_checks(ctx: Context, seed: int) -> dict:
    tally = ctx.tally
    segs = [data.segment_instance(i, ctx.cutoff) for i in ctx.test]
    seg = min(segs, key=lambda s: sum(map(len, s.context_sentences + s.reply_sentences)))
    grad_errors = {}
    for v in VARIANTS:
        if v not in ctx.trained:
            continue
        rng = np.random.default_rng([seed, VARIANTS.index(v)])
        try:
            err = directional_gradcheck(ctx.trained[v], seg, ctx.table, rng)
        except Exception as e:
            tally.fail(f"gradcheck {v}: {e!r}")
            continue
        grad_errors[v] = err
        if not err < GRAD_TOLERANCE:
            tally.fail(f"gradcheck {v}: relative error {err:.3e}")
        losses = ctx.final_losses[v]
        if len(losses) < 2 or len(set(losses)) != 1:
            tally.fail(f"determinism {v}: final losses {losses}")
    return {"max_relative_error": grad_errors}


# ---------------------------------------------------------------------------
# metrics


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(ctx: Context) -> dict:
    # how much slower than the reference speed the machine ran in this run
    slow = _median(ctx.refs) / REF_S or 1.0
    m = {f"train_inst_per_s.{v}": _median(ctx.train_rates[v]) for v in VARIANTS}
    m["score_inst_per_s"] = _median(ctx.score_rates)
    m["svm_train_inst_per_s"] = slow * _median(
        [c["n_train"] / w for c in ctx.chains for w in c["svm_walls"]])
    m["embed_load_vec_per_s"] = len(ctx.table.vocab) / _median(ctx.load_s)
    m["pipeline_wall_s"] = _median([c["wall_s"] for c in ctx.chains]) / slow
    m["setup_s"] = _median(ctx.setup_s) / slow
    m["peak_rss_mb"] = peak_rss_mb()
    return {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(ctx: Context, in_process: list, overhead_s: float,
              used_ratio: float) -> tuple[dict, list, dict]:
    traced = [t for c in ctx.chains for t in c["traced"]]
    all_spans = list(in_process)
    for t in traced:  # parent indices are local to each process's list
        offset = len(all_spans)
        all_spans += [s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:]
                      for s in t["spans"]]
    summary = spans.summarize(all_spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "info": {}}

    def get(name, variant=None):
        return summary.get((name, variant), empty)

    def info(name, key, variant=None):
        return get(name, variant)["info"].get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for v in VARIANTS:
        fwd, bwd = get("nn.lstm_forward", v), get("nn.lstm_backward", v)
        busy = fwd["s"] + bwd["s"]
        flops = info("nn.lstm_forward", "flops", v) + info("nn.lstm_backward", "flops", v)
        m[f"nn.lstm_forward.s.{v}"] = (fwd["s"], "s")
        m[f"nn.lstm_forward.steps.{v}"] = (info("nn.lstm_forward", "steps", v), "count")
        m[f"nn.lstm_backward.s.{v}"] = (bwd["s"], "s")
        m[f"nn.lstm_backward.steps.{v}"] = (info("nn.lstm_backward", "steps", v), "count")
        m[f"nn.lstm.gflops.{v}"] = (flops / busy / 1e9 if busy else 0.0, "GFLOP/s")
        m[f"nn.sgd_step.s.{v}"] = (get("nn.sgd_step", v)["s"], "s")
        m[f"models.train_model.self_s.{v}"] = (get("models.train_model", v)["self_s"], "s")
        m[f"models.predict.s.{v}"] = (get("models.predict.in_training", v)["s"], "s")
        m[f"embeddings.lookup.s.{v}"] = (get("embeddings.lookup", v)["s"], "s")
    lookups = get("embeddings.lookup")
    m["embeddings.lookup.calls"] = (lookups["calls"], "count")
    m["embeddings.lookup.oov_ratio"] = (
        info("embeddings.lookup", "oov") / lookups["calls"] if lookups["calls"] else 0.0,
        "ratio")
    m["embeddings.sentence_avg.s"] = (get("embeddings.sentence_avg")["s"], "s")
    loads = get("embeddings.load_embeddings")
    m["embeddings.load_embeddings.s"] = (loads["s"], "s")
    m["embeddings.load_embeddings.calls"] = (loads["calls"], "count")
    m["embeddings.load_embeddings.vec_per_s"] = (
        info("embeddings.load_embeddings", "vectors") / loads["s"] if loads["s"] else 0.0,
        "vectors/s")
    m["embeddings.load_embeddings.used_ratio"] = (used_ratio, "ratio")
    m["models.save_checkpoint.s"] = (get("models.save_checkpoint")["s"], "s")
    m["models.load_checkpoint.s"] = (get("models.load_checkpoint")["s"], "s")
    m["models.checkpoint.bytes"] = (info("models.save_checkpoint", "bytes"), "bytes")
    for name in ("data.load_corpus", "data.segment_instance",
                 "data.build_twitter_instances", "data.stratified_split",
                 "features.assemble", "features.FeatureRegistry.build",
                 "features.svm_predict", "evaluate.prf1",
                 "evaluate.export_heatmap", "evaluate.attention_overlap"):
        m[f"{name}.s"] = (get(name)["s"], "s")
    assemble = get("features.assemble")
    m["features.assemble.inst_per_s"] = (
        assemble["calls"] / assemble["s"] if assemble["s"] else 0.0, "inst/s")
    m["features.svm_train.self_s"] = (get("features.svm_train")["self_s"], "s")
    m["features.svm.n_features"] = (info("features.svm_train", "n_features"), "count")
    m["evaluate.export_heatmap.calls"] = (get("evaluate.export_heatmap")["calls"], "count")
    m["cli.import.s"] = (_median([t["import_s"] for t in traced]), "s")
    for cmd in ("prepare", "train", "eval", "predict", "attention"):
        m[f"cli.{cmd}.s"] = (get(f"cli.{cmd}")["s"], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["error_rate"] = (ctx.tally.failed / max(ctx.tally.attempted, 1), "ratio")
    absent = sorted({a for t in traced for a in t["absent"]})
    # share of each variant's in-process training time spent in lstm_backward
    backward_share = {
        v: get("nn.lstm_backward", v)["s"] / get("models.train_model", v)["s"]
        for v in VARIANTS if get("models.train_model", v)["s"] > 0}
    return ({k: {"value": v, "unit": u} for k, (v, u) in m.items()}, absent,
            backward_share)


# ---------------------------------------------------------------------------
# machine descriptor


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads(), "git_commit": _git_commit(),
            "seed": seed}


# ---------------------------------------------------------------------------
# driver


def _input_stats(ctx: Context) -> dict:
    tokens = []
    for inst in ctx.train + ctx.dev + ctx.test:
        seg = data.segment_instance(inst, ctx.cutoff)
        for sentence in seg.context_sentences + seg.reply_sentences:
            tokens.extend(sentence)
    vocab = ctx.table.vocab
    found = {t for t in tokens if t in vocab}
    return {"instances": {"train": len(ctx.train), "dev": len(ctx.dev),
                          "test": len(ctx.test)},
            "tokens": len(tokens),
            "oov_share": sum(t not in vocab for t in tokens) / len(tokens),
            "used_ratio": len(found) / len(vocab)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result and the report."""
    wl = WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl: Workload, seed: int, seconds: float, trace: bool,
         workdir: Path) -> dict:
    inp = make_inputs(wl, seed, workdir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    tally = Tally()
    table = embeddings.load_embeddings(inp.embeddings, wl.dim)
    # contiguous blocks: the generator deals lengths evenly along the file
    insts = data.load_corpus(inp.corpus)
    dev_at, test_at = wl.train_size, wl.train_size + wl.dev_size
    ctx = Context(wl, inp, table, insts[:dev_at], insts[dev_at:test_at],
                  insts[test_at:test_at + wl.test_size],
                  data.context_cutoff("twitter"), env, tally)
    stats = dict(inp.stats, **_input_stats(ctx))

    report: dict = {"workload": wl.name, "trace": int(trace), "seconds": seconds,
                    "machine": machine(seed), "inputs": stats}
    if trace:
        untraced = run_round(ctx, fixed=True)
        ctx.tracer = spans.Tracer()
        ctx.tracer.install()
        try:
            traced = run_round(ctx, fixed=True)
        finally:
            ctx.tracer.uninstall()
        report["spans_file"] = str(_write_spans(wl.name, seed, ctx))
    else:
        # rounds repeat while the next one is expected to end in time
        t_start = time.perf_counter()
        last = 0.0
        while (len(ctx.chains) < MIN_ROUNDS
               or time.perf_counter() + last <= t_start + seconds):
            last = run_round(ctx)
    report["checks"] = run_checks(ctx, seed)
    if trace:
        metrics, absent, backward_share = per_layer(
            ctx, ctx.tracer.spans, traced - untraced, stats["used_ratio"])
        report["absent_targets"] = sorted(set(absent) | set(ctx.tracer.absent))
        report["lstm_backward_share_of_training"] = backward_share
    else:
        metrics = end_to_end(ctx)
    report["samples"] = {"trainings": {v: len(r) for v, r in ctx.train_rates.items()},
                         "rounds": len(ctx.chains), "setup_reps": len(ctx.setup_s),
                         "embedding_loads": len(ctx.load_s)}
    report["reference"] = {"REF_S": REF_S, "median_s": _median(ctx.refs),
                           "runs": len(ctx.refs)}
    report["errors"] = tally.errors
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return {"result": result, "report": report}


def _write_spans(workload: str, seed: int, ctx: Context) -> Path:
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in ctx.tracer.spans:
            fh.write(json.dumps({"proc": "bench", "span": rec}) + "\n")
        for k, chain in enumerate(ctx.chains):
            for t in chain["traced"]:
                for rec in t["spans"]:
                    fh.write(json.dumps({"proc": f"cli{k}", "span": rec}) + "\n")
    return path.relative_to(ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
