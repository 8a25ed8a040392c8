#!/usr/bin/env python3
"""Train the reply-only baseline and the context-reading variants on one
corpus and compare per-class P/R/F1 on the test split. It takes
`convsarc train`'s flags and --config, with the CLI's exit codes, and
--variants; a train option it would ignore (--variant, --outdir,
--checkpoint, --lexicons, --raw-tweets, --task) is a config error.

This is the manual full-scale procedure, so it is not part of the
automated acceptance suite. README's "Full-scale reproduction" gives the
training time of each variant at full scale. The expected qualitative
outcome on a real conversation corpus is that the context-reading variants
(concat, conditional, sent_attn) beat reply_only on S-class F1.
"""
import dataclasses
import json

from convsarc import cli  # first: it pins BLAS to one thread before numpy loads
from convsarc.data import read_text, segment_instance
from convsarc.embeddings import load_embeddings
from convsarc.errors import ConfigError
from convsarc.evaluate import format_table, prf1
from convsarc.models import VARIANTS, score, train_model

# `convsarc train` options that would change nothing here: the script writes
# no files, reads no checkpoint and trains no SVM
UNUSED = ("outdir", "checkpoint", "lexicons", "raw_tweets", "task")


def main():
    ap = cli._Parser(description=__doc__)
    cli._add_config_flags(ap)
    ap.add_argument("--variants", nargs="+", choices=VARIANTS,
                    default=["reply_only", "concat", "conditional", "sent_attn"])
    args = ap.parse_args()
    if args.variant is not None:
        ap.error("argument --variant: this script trains each of --variants; give those instead")
    for key in UNUSED:
        if getattr(args, key) is not None:
            ap.error(f"argument --{key.replace('_', '-')}: this script does not use it; "
                     "it trains LSTM variants and prints their scores")
    cfg = cli._config_from_args(args)
    if args.config and "variant" in json.loads(read_text(args.config)):
        raise ConfigError(f"config file {args.config}: key 'variant': this script trains "
                          "each of --variants; give those instead")
    cfg.validate(need=("corpus", "embeddings"))
    train, dev, test = cli.corpus_splits(cfg, "train", "dev", "test")
    table = load_embeddings(cfg.embeddings, cfg.resolved_embed_dim)
    test_segs = [segment_instance(i, cfg.max_context) for i in test]

    rows = []
    for variant in args.variants:
        result = train_model(train, dev, table, dataclasses.replace(cfg, variant=variant))
        preds = score(result.params, test_segs, table)[0]
        metrics = prf1([i.label for i in test], preds)
        rows.append((variant, metrics))
        print(f"{variant}: trained {len(result.log)} epochs, "
              f"kept epoch {result.best_epoch}")

    print()
    print(format_table(rows))
    s_f1 = {name: m.per_class["S"].f1 for name, m in rows}
    if "reply_only" in s_f1:
        base = s_f1["reply_only"]
        better = [n for n, f in s_f1.items() if n != "reply_only" and f > base]
        print(f"\ncontext-reading variants beating reply_only on S-class F1: "
              f"{', '.join(better) if better else 'none'}")


if __name__ == "__main__":
    raise SystemExit(cli.run(main))
