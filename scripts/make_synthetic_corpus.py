#!/usr/bin/env python3
"""Generate the synthetic corpora used by the sanity experiments.

Writes a corpus jsonl file plus a matching word2vec-format embedding file,
either the 'separable' corpus (label carried by one reply token) or the
'planted_cue' corpus (label carried by one context sentence, with the cue
index stored as the human trigger annotation).
"""
import argparse
from pathlib import Path

from convsarc.data import save_corpus
from convsarc.synthetic import (make_planted_cue_corpus, make_separable_corpus,
                                synthetic_vocabulary, write_embedding_file)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("kind", choices=["separable", "planted_cue"])
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--size", type=int, default=500)
    ap.add_argument("--dim", type=int, default=12)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.kind == "separable":
        corpus = make_separable_corpus(args.size, seed=args.seed)
    else:
        corpus = make_planted_cue_corpus(args.size, seed=args.seed)
    save_corpus(corpus, outdir / "corpus.jsonl")
    write_embedding_file(outdir / "embeddings.txt", synthetic_vocabulary(),
                         dim=args.dim, seed=3)
    print(f"wrote {len(corpus)} instances to {outdir / 'corpus.jsonl'} "
          f"and vectors to {outdir / 'embeddings.txt'}")


if __name__ == "__main__":
    main()
