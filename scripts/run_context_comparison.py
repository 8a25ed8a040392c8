#!/usr/bin/env python3
"""Train the reply-only baseline and the context-reading variants on one
corpus and compare per-class P/R/F1 on the test split.

This is the manual full-scale procedure, so it is not part of the
automated acceptance suite. README's "Full-scale reproduction" gives the
training time of each variant at full scale. The expected qualitative
outcome on a real conversation corpus is that the context-reading variants
(concat, conditional, sent_attn) beat reply_only on S-class F1.
"""
import argparse
import os

# one BLAS thread, set before numpy loads, as the CLI does: see README's
# "Reproducibility"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from convsarc.data import load_corpus, segment_instance, stratified_split  # noqa: E402
from convsarc.embeddings import load_embeddings  # noqa: E402
from convsarc.evaluate import format_table, prf1  # noqa: E402
from convsarc.models import TrainSettings, score, train_model  # noqa: E402

DEFAULT_VARIANTS = ("reply_only", "concat", "conditional", "sent_attn")


def main():
    defaults = TrainSettings()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--embeddings", required=True)
    ap.add_argument("--embed-dim", type=int, required=True)
    ap.add_argument("--hidden-dim", type=int, default=None,
                    help="defaults to the embedding dimension")
    ap.add_argument("--variants", nargs="+", default=list(DEFAULT_VARIANTS))
    ap.add_argument("--epochs", type=int, default=defaults.epochs)
    ap.add_argument("--patience", type=int, default=defaults.patience)
    ap.add_argument("--lr", type=float, default=defaults.lr)
    ap.add_argument("--l2", type=float, default=defaults.l2)
    ap.add_argument("--dropout", type=float, default=defaults.dropout)
    ap.add_argument("--batch-size", type=int, default=defaults.batch_size)
    ap.add_argument("--seed", type=int, default=defaults.seed)
    args = ap.parse_args()

    instances = load_corpus(args.corpus)
    train, dev, test = stratified_split(instances, args.seed)
    table = load_embeddings(args.embeddings, args.embed_dim)
    test_segs = [segment_instance(i) for i in test]

    rows = []
    for variant in args.variants:
        settings = TrainSettings(
            variant=variant, hidden_dim=args.hidden_dim, lr=args.lr, l2=args.l2,
            dropout=args.dropout, batch_size=args.batch_size,
            epochs=args.epochs, patience=args.patience, seed=args.seed)
        result = train_model(train, dev, table, settings)
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
    main()
