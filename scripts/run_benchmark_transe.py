#!/usr/bin/env python3
"""Train the translational embedder on a benchmark dataset and report
filtered link-prediction metrics of the base model.

Expected to take on the order of an hour or more on FB15K-237 with the
default 1000 epochs. The reference band for FB15K-237 is MRR 0.312 +/- 0.03
and Hits@10 0.510 +/- 0.04.
"""

import argparse
import logging
import time

from kgrerank.embeddings import TrainConfig, train
from kgrerank.kg import load_kg
from kgrerank.ranking import base_model_metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True, help="dataset directory")
    parser.add_argument("--dim", type=int, default=100)
    parser.add_argument("--learning-rate", type=float, default=0.01)
    parser.add_argument("--margin", type=float, default=1.0)
    parser.add_argument("--epochs", type=int, default=1000)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--negatives", type=int, default=1)
    parser.add_argument("--norm", choices=["L1", "L2"], default="L2")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--m", type=int, default=20)
    parser.add_argument("--checkpoint", help="also save the trained table here")
    parser.add_argument("--limit-triples", type=int, default=0, help="evaluate only the first N test triples")
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    kg = load_kg(args.dataset)
    config = TrainConfig(
        dim=args.dim,
        learning_rate=args.learning_rate,
        margin=args.margin,
        epochs=args.epochs,
        negatives=args.negatives,
        batch_size=args.batch_size,
        norm=args.norm,
        seed=args.seed,
    )
    print(f"training on {args.dataset}: |E|={kg.num_entities} |R|={kg.num_relations} "
          f"|train|={len(kg.train)}")
    start = time.monotonic()
    losses: list[float] = []
    table = train(kg, config, epoch_losses=losses)
    print(f"trained {config.epochs} epochs in {time.monotonic() - start:.0f}s "
          f"(mean loss {losses[0]:.4f} -> {losses[-1]:.4f})")
    if args.checkpoint:
        table.save(args.checkpoint)
        print(f"checkpoint: {args.checkpoint}")

    start = time.monotonic()
    base = base_model_metrics(kg, table, m=args.m, limit_triples=args.limit_triples)
    print(f"ranked test split in {time.monotonic() - start:.0f}s")
    for label in ("head", "tail", "combined"):
        dm = base[label]
        print(f"{label:9s} MRR {dm['mrr']:.4f}  Hits@1 {dm['hits1']:.4f}  "
              f"Hits@3 {dm['hits3']:.4f}  Hits@10 {dm['hits10']:.4f}")


if __name__ == "__main__":
    main()
