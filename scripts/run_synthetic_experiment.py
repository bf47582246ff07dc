#!/usr/bin/env python3
"""End-to-end experiment on a synthetic keyword corpus.

Generates the corpus, runs grouped 10-fold cross-validation with the default
hyper-parameters, runs the matched-vs-random distance study, and prints the
headline numbers. All outputs land in --out for inspection.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from patchqa import pipeline, synth
from patchqa.qa_model import ModelConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--bugs", type=int, default=200)
    parser.add_argument("--patches-per-bug", type=int, default=3)
    parser.add_argument("--corpus-seed", type=int, default=11)
    parser.add_argument("--hash-dim", type=int, default=32)
    parser.add_argument("--hash-seed", type=int, default=5)
    parser.add_argument("--model-seed", type=int, default=1)
    parser.add_argument("--fold-seed", type=int, default=2)
    parser.add_argument("--pair-seed", type=int, default=3)
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.jsonl"
    synth.write_keyword_corpus(corpus_path, n_bugs=args.bugs, seed=args.corpus_seed,
                               patches_per_bug=args.patches_per_bug)
    config = pipeline.RunConfig(
        dataset=str(corpus_path),
        embedding=pipeline.EmbeddingSpec(dim=args.hash_dim, seed=args.hash_seed),
        model=ModelConfig(seed=args.model_seed),
        k=args.k,
        fold_seed=args.fold_seed,
        pair_seed=args.pair_seed,
    )

    started = time.time()
    result = pipeline.run_crossval(
        config, progress=lambda fold, k: print(f"fold {fold + 1}/{k}", file=sys.stderr))
    pipeline.write_crossval_outputs(result, out)
    elapsed = time.time() - started

    report = result.report
    best = max((r for r in report["sweep"] if r["f1"] is not None),
               key=lambda r: r["f1"])
    print(f"cross-validation finished in {elapsed:.0f} s")
    print(f"mean AUC over folds: {report['mean']['auc']:.4f}")
    print(f"pooled AUC:          {report['statistics']['pooled_auc']:.4f}")
    print(f"best sweep row:      {json.dumps(best)}")

    ds, _ = pipeline.load_deduped(corpus_path)
    provider = config.embedding.build()
    study = pipeline.run_hypothesis(ds, provider, seed=args.pair_seed)
    (out / "hypothesis.json").write_text(
        json.dumps(study, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"distance study:      median {study['original']['median']:.3f} (matched) vs "
          f"{study['random']['median']:.3f} (random), p = {study['p_value']:.3e}")

    ablation = pipeline.mismatch_ablation(result, provider, best["threshold"], seed=17)
    (out / "ablation.json").write_text(
        json.dumps(ablation, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"mismatch ablation:   mean score {ablation['mean_original']:.3f} -> "
          f"{ablation['mean_ablated']:.3f}, {ablation['lost_fraction']:.0%} of recalled "
          f"positives lost")


if __name__ == "__main__":
    main()
