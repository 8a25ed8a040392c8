"""Command-line driver wiring the full pipeline.

Commands: prepare, train, eval, predict, attention, gradcheck. Every flag
overrides the matching key of the JSON config file; the effective config is
echoed into the output directory. Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from urllib.parse import quote

from . import checkpoint, data, evaluate, features, models
from .config import CHOICES, RunConfig
from .embeddings import load_embeddings
from .errors import ConfigError, DataError, DomainError, NumericError, ShapeError

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="convsarc",
                     description="Context-aware sarcasm detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("prepare", "filter raw tweets / validate a corpus and write splits"),
            ("train", "train a model variant and write a checkpoint"),
            ("eval", "score a checkpoint and write metric reports"),
            ("predict", "write per-instance labels and probabilities"),
            ("attention", "export attention heatmaps and the overlap rate"),
            ("gradcheck", "check analytic gradients for every variant")):
        p = sub.add_parser(name, help=doc)
        _add_config_flags(p)
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
    overrides = {k: v for k, v in vars(args).items()
                 if k in RunConfig.field_names() and v is not None}
    return cfg.updated(overrides)


def _require_outdir(cfg: RunConfig) -> None:
    if cfg.outdir is None:
        raise ConfigError("outdir: path required for this command")


def _prepare_outdir(cfg: RunConfig) -> Path:
    _require_outdir(cfg)
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.echo(), encoding="utf-8")
    return out


def _load_splits(cfg: RunConfig):
    """A corpus directory must hold train/dev/test.jsonl; a single file is
    split 80/10/10 with the configured seed."""
    p = Path(cfg.corpus)
    if p.is_dir():
        parts = []
        for part in ("train", "dev", "test"):
            f = p / f"{part}.jsonl"
            if not f.exists():
                raise ConfigError(f"corpus: split file missing: {f}")
            parts.append(data.load_corpus(f))
        return tuple(parts)
    return data.stratified_split(data.load_corpus(p), cfg.seed)


def _eval_instances(cfg: RunConfig):
    """Instances a read-only command should score: the test split of a
    prepared directory, or every instance of a single file."""
    p = Path(cfg.corpus)
    if p.is_dir():
        f = p / "test.jsonl"
        if not f.exists():
            raise ConfigError(f"corpus: split file missing: {f}")
        return data.load_corpus(f)
    return data.load_corpus(p)


def _load_lexicon_dir(path) -> features.LexiconSet:
    d = Path(path)
    names = ("categories.tsv", "positive.txt", "negative.txt", "negations.txt")
    for name in names:
        if not (d / name).exists():
            raise ConfigError(f"lexicons: missing file {d / name}")
    return features.load_lexicons(*(d / name for name in names))


# --------------------------------------------------------------------------
# commands


def cmd_prepare(cfg: RunConfig) -> None:
    if cfg.raw_tweets is not None:
        cfg.validate(need=("raw_tweets",))
        if cfg.platform != "twitter":
            raise ConfigError("platform: raw tweet input requires platform=twitter")
        _require_outdir(cfg)
        instances = data.build_twitter_instances(
            [rec for _, rec in data.read_jsonl(cfg.raw_tweets)])
    else:
        cfg.validate(need=("corpus",))
        _require_outdir(cfg)
        instances = data.load_corpus(cfg.corpus)
    train, dev, test = data.stratified_split(instances, cfg.seed)
    out = _prepare_outdir(cfg)
    if cfg.raw_tweets is not None:
        data.save_corpus(instances, out / "corpus.jsonl")
    data.save_corpus(train, out / "train.jsonl")
    data.save_corpus(dev, out / "dev.jsonl")
    data.save_corpus(test, out / "test.jsonl")
    print(f"prepared {len(instances)} instances -> "
          f"train {len(train)}, dev {len(dev)}, test {len(test)}")


def _train_svm(cfg: RunConfig, out: Path, train_i, dev_i) -> None:
    lex = _load_lexicon_dir(cfg.lexicons)
    pairs = [(features.assemble(i, cfg.task, lex, cfg.resolved_max_context), i.label)
             for i in train_i]
    model = features.svm_train(pairs, features.SvmConfig(
        epochs=cfg.epochs, l2=cfg.l2, lr=None, seed=cfg.seed,
        min_ngram_count=cfg.min_ngram_count))
    features.save_svm_checkpoint(model, cfg.task, cfg.resolved_max_context,
                                 out / "checkpoint.json")
    with open(out / "train_log.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for epoch, obj in enumerate(model.objective_history, start=1):
            fh.write(json.dumps({"epoch": epoch, "hinge_objective": obj},
                                sort_keys=True) + "\n")
    dev_pairs = [(features.assemble(i, cfg.task, lex, cfg.resolved_max_context), i.label)
                 for i in dev_i]
    dev_pred = [features.svm_predict(model, fv)[0] for fv, _ in dev_pairs]
    metrics = evaluate.prf1([lab for _, lab in dev_pairs], dev_pred)
    print(evaluate.format_table([(f"svm_{cfg.task} (dev)", metrics)]))


def cmd_train(cfg: RunConfig) -> None:
    needed = ("corpus", "lexicons") if cfg.variant == "svm" else ("corpus", "embeddings")
    cfg.validate(need=needed)
    _require_outdir(cfg)
    train_i, dev_i, _ = _load_splits(cfg)
    out = _prepare_outdir(cfg)
    if cfg.variant == "svm":
        _train_svm(cfg, out, train_i, dev_i)
        return
    table = load_embeddings(cfg.embeddings, cfg.resolved_embed_dim)
    settings = models.TrainSettings(
        variant=cfg.variant, hidden_dim=cfg.resolved_hidden_dim,
        att_dim=cfg.att_dim, lr=cfg.lr, l2=cfg.l2, dropout=cfg.dropout,
        batch_size=cfg.batch_size, epochs=cfg.epochs, patience=cfg.patience,
        seed=cfg.seed, max_context=cfg.resolved_max_context,
        conditional_reply_head_only=cfg.conditional_reply_head_only)
    result = models.train_model(train_i, dev_i, table, settings)
    models.save_checkpoint(result.params, out / "checkpoint.json")
    with open(out / "train_log.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"trained {cfg.variant} for {len(result.log)} epochs; "
          f"kept epoch {result.best_epoch}")


def _scoring_setup(cfg: RunConfig) -> tuple[dict, list]:
    """Validate everything a scoring command needs, then load the instances.
    Returns the read checkpoint, which the loaders take without rereading
    it, and the instances. Nothing is written until validation is complete."""
    cfg.validate(need=("checkpoint", "corpus"))
    doc = checkpoint.read(cfg.checkpoint)
    extra = ("lexicons",) if doc["kind"] == "svm" else ("embeddings",)
    cfg.validate(need=("checkpoint", "corpus") + extra)
    _require_outdir(cfg)
    return doc, _eval_instances(cfg)


def _segments(cfg: RunConfig, instances) -> list:
    return [data.segment_instance(inst, cfg.resolved_max_context) for inst in instances]


def _predictions(cfg: RunConfig, doc: dict, instances) -> tuple[list[dict], str]:
    rows = []
    if doc["kind"] == "svm":
        model, task, max_context = features.load_svm_checkpoint(cfg.checkpoint, doc)
        lex = _load_lexicon_dir(cfg.lexicons)
        for inst in instances:
            label, margin = features.svm_predict(
                model, features.assemble(inst, task, lex, max_context))
            rows.append({"id": inst.id, "gold": inst.label, "label": label,
                         "margin": margin})
        return rows, f"svm_{task}"
    params = models.load_checkpoint(cfg.checkpoint, doc)
    table = load_embeddings(cfg.embeddings, params.embed_dim)
    labels, probs, _ = models.score(params, _segments(cfg, instances), table)
    for inst, label, p in zip(instances, labels, probs):
        rows.append({"id": inst.id, "gold": inst.label, "label": label,
                     "p_s": float(p[0]), "p_ns": float(p[1])})
    return rows, params.variant


def cmd_eval(cfg: RunConfig) -> None:
    doc, instances = _scoring_setup(cfg)
    rows, name = _predictions(cfg, doc, instances)
    out = _prepare_outdir(cfg)
    metrics = evaluate.prf1([r["gold"] for r in rows], [r["label"] for r in rows])
    (out / "metrics.jsonl").write_text(
        evaluate.metrics_report_line(name, metrics) + "\n", encoding="utf-8")
    table_text = evaluate.format_table([(name, metrics)])
    (out / "metrics.txt").write_text(table_text + "\n", encoding="utf-8")
    print(table_text)


def cmd_predict(cfg: RunConfig) -> None:
    doc, instances = _scoring_setup(cfg)
    rows, _ = _predictions(cfg, doc, instances)
    out = _prepare_outdir(cfg)
    with open(out / "predictions.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} predictions to {out / 'predictions.jsonl'}")


def cmd_attention(cfg: RunConfig) -> None:
    cfg.validate(need=("checkpoint", "corpus", "embeddings"))
    _require_outdir(cfg)
    doc = checkpoint.read(cfg.checkpoint)
    if doc["kind"] != "lstm":
        raise ConfigError(f"checkpoint: {cfg.checkpoint}: attention needs an lstm checkpoint")
    params = models.load_checkpoint(cfg.checkpoint, doc)
    if params.variant not in models.ATTENTION_VARIANTS:
        raise ConfigError(
            f"checkpoint: {cfg.checkpoint}: variant '{params.variant}' has no attention weights")
    table = load_embeddings(cfg.embeddings, params.embed_dim)
    instances = _eval_instances(cfg)
    segs = _segments(cfg, instances)
    _, _, records = models.score(params, segs, table)
    out = _prepare_outdir(cfg)
    sentence_level = params.variant in ("sent_attn", "hier_attn")
    overlap_records = []
    for inst, seg, record in zip(instances, segs, records):
        if sentence_level:
            rows = data.context_sentence_texts(inst, cfg.resolved_max_context)
            triggers = data.effective_triggers(inst, cfg.resolved_max_context)
        else:
            # word_attn weights are over tokens, so each row is a token
            rows = [t for s in seg.context_sentences for t in s]
            triggers = None
        # quoting maps distinct ids to distinct names, none with a path separator
        svg = out / f"heatmap_{quote(inst.id, safe='')}.svg"
        evaluate.export_heatmap(rows, record, svg, side="context", human_triggers=triggers)
        if sentence_level and triggers:
            overlap_records.append((record, triggers))
    doc = {"instances": len(instances), "annotated": len(overlap_records)}
    if overlap_records:
        doc["overlap_rate"] = evaluate.attention_overlap(overlap_records)
    (out / "overlap.json").write_text(json.dumps(doc, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(json.dumps(doc, sort_keys=True))


def cmd_gradcheck(cfg: RunConfig) -> None:
    cfg.validate()
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
        out = _prepare_outdir(cfg)
        (out / "gradcheck.json").write_text(
            json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        COMMANDS[args.command](cfg)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, DomainError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (ShapeError, NumericError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
