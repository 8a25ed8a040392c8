"""Command-line driver wiring the full pipeline.

Commands: prepare, train, eval, predict, attention, gradcheck. Every flag
overrides the matching key of the JSON config file; the effective config is
echoed into the output directory. run maps errors to exit codes: 0 success,
1 usage/config error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from urllib.parse import quote

# Threads split a BLAS product's sums differently, so a checkpoint's bytes
# could depend on how many there are. One thread, set before numpy first
# loads its BLAS, gives every run the same bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from . import checkpoint, data, evaluate, features, models  # noqa: E402
from .config import CHOICES, RunConfig  # noqa: E402
from .embeddings import load_embeddings  # noqa: E402
from .errors import ConfigError, DataError, DomainError, NumericError, ShapeError  # noqa: E402

GRADCHECK_TOLERANCE = 1e-4
MAX_NAME_BYTES = 255  # the longest file name common file systems take


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="convsarc",
                     description="Context-aware sarcasm detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_config_flags(sub.add_parser(name, help=command.__doc__))
    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for key, (kind, _) in RunConfig.field_types().items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(flag, dest=key, type=None if kind is str else kind,
                           choices=CHOICES.get(key))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    types = RunConfig.field_types()
    return cfg.updated({k: v for k, v in vars(args).items() if k in types and v is not None})


def _require_outdir(cfg: RunConfig) -> None:
    """Before any work: an outdir is given, and its nearest existing path is a directory."""
    if cfg.outdir is None:
        raise ConfigError("outdir: path required for this command")
    path = Path(cfg.outdir).absolute()
    existing = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not os.path.isdir(existing):
        raise ConfigError(f"outdir: not a directory: {existing}")


def _prepare_outdir(cfg: RunConfig) -> Path:
    _require_outdir(cfg)
    out = Path(cfg.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # no permission, or a file put there since the check
        raise ConfigError(f"outdir: cannot create {out}: {e.strerror}") from None
    with data.open_output(out / "config.json") as fh:
        fh.write(cfg.echo())
    return out


def _split_file(cfg: RunConfig, part: str) -> Path:
    """The file holding part (train, dev or test): DIR/<part>.jsonl of a
    prepared corpus directory, or the single corpus file."""
    p = Path(cfg.corpus)
    if not p.is_dir():
        return p
    f = p / f"{part}.jsonl"
    if not f.exists():
        raise ConfigError(f"corpus: split file missing: {f}")
    return f


def corpus_splits(cfg: RunConfig, *parts: str) -> list:
    """The instances of each named split: DIR/<part>.jsonl of a prepared
    corpus directory, or a single file split 80/10/10 with the configured seed."""
    if Path(cfg.corpus).is_dir():
        return [data.load_corpus(_split_file(cfg, part)) for part in parts]
    split = dict(zip(("train", "dev", "test"),
                     data.stratified_split(data.load_corpus(cfg.corpus), cfg.seed)))
    return [split[part] for part in parts]


# --------------------------------------------------------------------------
# commands


def cmd_prepare(cfg: RunConfig) -> None:
    """filter raw tweets / validate a corpus and write splits"""
    raw = cfg.raw_tweets is not None
    cfg.validate(need=("raw_tweets",) if raw else ("corpus",))
    if raw and cfg.platform != "twitter":
        raise ConfigError("platform: raw tweet input requires platform=twitter")
    _require_outdir(cfg)
    if raw:
        instances = data.build_twitter_instances(list(data.read_jsonl(cfg.raw_tweets)),
                                                 cfg.raw_tweets)
    else:
        instances = data.load_corpus(cfg.corpus)
    train, dev, test = data.stratified_split(instances, cfg.seed)
    out = _prepare_outdir(cfg)
    if raw:
        data.save_corpus(instances, out / "corpus.jsonl")
    data.save_corpus(train, out / "train.jsonl")
    data.save_corpus(dev, out / "dev.jsonl")
    data.save_corpus(test, out / "test.jsonl")
    print(f"prepared {len(instances)} instances -> "
          f"train {len(train)}, dev {len(dev)}, test {len(test)}")


def _svm_scores(model, task: str, lex, max_context, instances) -> list[tuple[str, float]]:
    """svm_predict's label and margin for each instance."""
    return [features.svm_predict(model, features.assemble(inst, task, lex, max_context))
            for inst in instances]


def _train_svm(cfg: RunConfig, train_i, dev_i) -> None:
    lex = features.load_lexicons(cfg.lexicons)
    pairs = [(features.assemble(i, cfg.task, lex, cfg.max_context), i.label)
             for i in train_i]
    model = features.svm_train(pairs, cfg)
    out = _prepare_outdir(cfg)
    features.save_svm_checkpoint(model, cfg.task, cfg.max_context,
                                 out / "checkpoint.json")
    data.write_jsonl(out / "train_log.jsonl",
                     ({"epoch": epoch, "hinge_objective": obj}
                      for epoch, obj in enumerate(model.objective_history, start=1)))
    dev_pred = [label for label, _ in _svm_scores(model, cfg.task, lex, cfg.max_context, dev_i)]
    metrics = evaluate.prf1([i.label for i in dev_i], dev_pred)
    print(evaluate.format_table([(f"svm_{cfg.task} (dev)", metrics)]))


def cmd_train(cfg: RunConfig) -> None:
    """train a model variant and write a checkpoint"""
    needed = ("corpus", "lexicons") if cfg.variant == "svm" else ("corpus", "embeddings")
    cfg.validate(need=needed)
    _require_outdir(cfg)
    train_i, dev_i = corpus_splits(cfg, "train", "dev")
    if cfg.variant == "svm":
        _train_svm(cfg, train_i, dev_i)
        return
    table = load_embeddings(cfg.embeddings, cfg.resolved_embed_dim)
    result = models.train_model(train_i, dev_i, table, cfg)
    out = _prepare_outdir(cfg)
    models.save_checkpoint(result.params, out / "checkpoint.json")
    data.write_jsonl(out / "train_log.jsonl", result.log)
    print(f"trained {cfg.variant} for {len(result.log)} epochs; "
          f"kept epoch {result.best_epoch}")


def _scoring_setup(cfg: RunConfig, attention: bool = False) -> tuple:
    """Validate everything a scoring command needs, then load the model
    (ModelParams, or load_svm_checkpoint's triple) from one read of the
    checkpoint, and the instances: the test split of a prepared directory,
    or every instance of a single file, of which there must be at least one.
    Nothing is written until validation is complete. Scoring uses the
    model's context window, so an explicit max_context that differs from it
    is a ConfigError."""
    cfg.validate(need=("checkpoint", "corpus"))
    doc = checkpoint.read(cfg.checkpoint)
    if attention and doc["kind"] != "lstm":
        raise ConfigError(f"checkpoint: {cfg.checkpoint}: attention needs an lstm checkpoint")
    if doc["kind"] == "svm":
        model = features.load_svm_checkpoint(cfg.checkpoint, doc)
        stored, extra = model[2], "lexicons"  # the triple's window
    else:
        model = models.load_checkpoint(cfg.checkpoint, doc)
        stored, extra = model.max_context, "embeddings"
    if cfg.max_context is not None and cfg.max_context != stored:
        raise ConfigError(f"max_context: {cfg.max_context} conflicts with "
                          f"{stored} stored in checkpoint {cfg.checkpoint}")
    if attention and model.variant not in models.ATTENTION_VARIANTS:
        raise ConfigError(
            f"checkpoint: {cfg.checkpoint}: variant {model.variant!r} has no attention weights")
    cfg.validate(need=("checkpoint", "corpus", extra))
    _require_outdir(cfg)
    corpus = _split_file(cfg, "test")
    instances = data.load_corpus(corpus)
    if not instances:
        raise DataError(f"{corpus}: no instances to score")
    return model, instances


def _lstm_scores(cfg: RunConfig, params: models.ModelParams, instances):
    """The instances segmented with the model's window, and models.score's
    labels, probabilities and attention records."""
    table = load_embeddings(cfg.embeddings, params.embed_dim)
    segs = [data.segment_instance(inst, params.max_context) for inst in instances]
    return segs, models.score(params, segs, table)


def _predictions(cfg: RunConfig, model, instances) -> tuple[list[dict], str]:
    if not isinstance(model, models.ModelParams):
        svm, task, max_context = model
        scores = _svm_scores(svm, task, features.load_lexicons(cfg.lexicons),
                             max_context, instances)
        return [{"id": inst.id, "gold": inst.label, "label": label, "margin": margin}
                for inst, (label, margin) in zip(instances, scores)], f"svm_{task}"
    _, (labels, probs, _) = _lstm_scores(cfg, model, instances)
    return [{"id": inst.id, "gold": inst.label, "label": label,
             "p_s": float(p[0]), "p_ns": float(p[1])}
            for inst, label, p in zip(instances, labels, probs)], model.variant


def cmd_eval(cfg: RunConfig) -> None:
    """score a checkpoint and write metric reports"""
    rows, name = _predictions(cfg, *_scoring_setup(cfg))
    out = _prepare_outdir(cfg)
    metrics = evaluate.prf1([r["gold"] for r in rows], [r["label"] for r in rows])
    data.write_jsonl(out / "metrics.jsonl", [evaluate.metrics_to_dict(name, metrics)])
    table_text = evaluate.format_table([(name, metrics)])
    with data.open_output(out / "metrics.txt") as fh:
        fh.write(table_text + "\n")
    print(table_text)


def cmd_predict(cfg: RunConfig) -> None:
    """write per-instance labels and probabilities"""
    rows, _ = _predictions(cfg, *_scoring_setup(cfg))
    out = _prepare_outdir(cfg)
    data.write_jsonl(out / "predictions.jsonl", rows)
    print(f"wrote {len(rows)} predictions to {out / 'predictions.jsonl'}")


def cmd_attention(cfg: RunConfig) -> None:
    """export attention heatmaps and the overlap rate"""
    params, instances = _scoring_setup(cfg, attention=True)
    segs, (_, _, records) = _lstm_scores(cfg, params, instances)
    out = _prepare_outdir(cfg)
    sentence_level = params.variant in ("sent_attn", "hier_attn")
    overlap_pairs = []
    for inst, seg, record in zip(instances, segs, records):
        if sentence_level:
            rows, triggers = seg.context_texts, seg.triggers
        else:
            # word_attn weights are over tokens, so each row is a token
            rows = [t for s in seg.context_sentences for t in s]
            triggers = None
        # quoting maps distinct ids to distinct ASCII names, none with a path
        # separator; a name too long for a file system is the id's hash,
        # after an "=" that quoting never leaves in a name
        name = f"heatmap_{quote(inst.id, safe='')}.svg"
        if len(name) > MAX_NAME_BYTES:
            name = f"heatmap_={hashlib.sha256(inst.id.encode('utf-8')).hexdigest()}.svg"
        evaluate.export_heatmap(rows, record.context_weights, out / name,
                                human_triggers=triggers)
        if sentence_level and triggers:
            overlap_pairs.append((record.context_weights, triggers))
    report = {"instances": len(instances), "annotated": len(overlap_pairs)}
    if overlap_pairs:
        report["overlap_rate"] = evaluate.attention_overlap(overlap_pairs)
    data.write_jsonl(out / "overlap.json", [report])
    print(json.dumps(report, sort_keys=True))


def cmd_gradcheck(cfg: RunConfig) -> None:
    """check analytic gradients for every variant"""
    cfg.validate()
    if cfg.outdir is not None:
        _require_outdir(cfg)
    report = {}
    failed = []
    for variant in models.VARIANTS:
        errs = models.gradient_check_variant(variant, seed=cfg.seed)
        worst = max(errs.values())
        status = "PASS" if worst < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{variant}: {status} (max relative error {worst:.3e})")
        for tensor, err in sorted(errs.items()):
            print(f"  {tensor}: {err:.3e}")
        report[variant] = {"status": status, "max_relative_error": worst,
                           "tensors": errs}
        if status == "FAIL":
            failed.append(variant)
    if cfg.outdir is not None:
        data.write_jsonl(_prepare_outdir(cfg) / "gradcheck.json", [report])
    if failed:
        raise NumericError(f"gradient check failed for: {', '.join(failed)}")


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "attention": cmd_attention,
    "gradcheck": cmd_gradcheck,
}


def run(work) -> int:
    """Call work() and return its exit code, each error reported in one line."""
    try:
        work()
        return 0
    except (ConfigError, MemoryError, OSError) as e:  # a dim too large; an unwritable output
        message = f"{e.filename}: {e.strerror}" if getattr(e, "filename", None) else e
        print(f"config error: {message}", file=sys.stderr)
        return 1
    except (DataError, DomainError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (ShapeError, NumericError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    def work():
        args = _build_parser().parse_args(argv)
        COMMANDS[args.command](_config_from_args(args))
    return run(work)


if __name__ == "__main__":
    sys.exit(main())
