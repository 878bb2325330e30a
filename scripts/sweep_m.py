#!/usr/bin/env python3
"""Sweep the candidate-list size and report mean prompt length.

Prompt length should grow with the number of candidates since every
candidate adds one line to the prompt.
"""

import argparse
import json
import os

from kgrerank.cli import load_config, main as cli_main, stage_output


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--ms", default="5,10,20", help="comma-separated candidate counts")
    args = parser.parse_args()

    print(f"{'m':>6s} {'samples':>8s} {'mean prompt chars':>18s}")
    for m in (int(v) for v in args.ms.split(",")):
        rc = cli_main(["build-eval", "--config", args.config, "--set", f"ranker.m={m}"])
        if rc != 0:
            raise SystemExit(rc)
        cfg = load_config(args.config, [f"ranker.m={m}"])
        with open(os.path.join(stage_output(cfg, "eval"), "summary.json")) as f:
            summary = json.load(f)
        print(f"{m:6d} {summary['written']:8d} {summary['mean_prompt_chars']:18.1f}")


if __name__ == "__main__":
    main()
