#!/usr/bin/env python3
"""Train the translational embedder with the pipeline's train-embeddings stage
and report filtered link-prediction metrics of the base model.

Takes the stages' --config and repeatable --set: the [embedder] section sets
the training, ranker.m the candidate-list size and eval.limit_triples how many
test triples are ranked (0: all). The checkpoint and the parsed graph are
staged in the workdir at their content addresses, so a rerun with the same
dataset and [embedder] values trains and parses nothing. Training logs its
mean loss every 100 epochs.

Training takes on the order of an hour or more on FB15K-237 with the default
1000 epochs. The reference band for FB15K-237 is MRR 0.312 +/- 0.03 and
Hits@10 0.510 +/- 0.04.
"""

import argparse
import logging
import time

from kgrerank.cli import load_config, load_graph, main as cli_main, stage_output
from kgrerank.embeddings import EmbeddingTable
from kgrerank.ranking import base_model_metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config key (repeatable)",
    )
    args = parser.parse_args()

    logging.getLogger("kgrerank.embeddings").setLevel(logging.DEBUG)  # the per-100-epoch losses
    rc = cli_main(["train-embeddings", "--config", args.config, *(f"--set={o}" for o in args.overrides)])
    if rc != 0:
        raise SystemExit(rc)

    cfg = load_config(args.config, args.overrides)
    kg = load_graph(cfg)
    table = EmbeddingTable.load(stage_output(cfg, "embeddings") + ".ckpt")
    start = time.monotonic()
    base = base_model_metrics(kg, table, cfg.ranker.m, cfg.eval.limit_triples)
    print(f"ranked test split in {time.monotonic() - start:.0f}s")
    for label in ("head", "tail", "combined"):
        dm = base[label]
        print(f"{label:9s} MRR {dm['mrr']:.4f}  Hits@1 {dm['hits1']:.4f}  "
              f"Hits@3 {dm['hits3']:.4f}  Hits@10 {dm['hits10']:.4f}")


if __name__ == "__main__":
    main()
