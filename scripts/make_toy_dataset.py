#!/usr/bin/env python3
"""Generate a small synthetic dataset directory for demos and smoke runs."""

import argparse

from kgrerank.datasets import make_chain_dataset, make_synthetic_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output dataset directory")
    parser.add_argument("--kind", choices=["random", "chain"], default="random")
    parser.add_argument("--entities", type=int, default=20)
    parser.add_argument("--relations", type=int, default=3)
    parser.add_argument("--train", type=int, default=60)
    parser.add_argument("--valid", type=int, default=12)
    parser.add_argument("--test", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.kind == "chain":
        path = make_chain_dataset(args.out)
    else:
        try:
            path = make_synthetic_dataset(
                args.out,
                n_entities=args.entities,
                n_relations=args.relations,
                n_train=args.train,
                n_valid=args.valid,
                n_test=args.test,
                seed=args.seed,
            )
        except ValueError as exc:
            parser.error(str(exc))
    print(f"wrote dataset to {path}")


if __name__ == "__main__":
    main()
