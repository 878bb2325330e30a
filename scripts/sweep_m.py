#!/usr/bin/env python3
"""Sweep the candidate-list size and report mean prompt length.

Prompt length should grow with the number of candidates since every
candidate adds one line to the prompt. Takes the stages' --config and
repeatable --set; each --set applies to every m value.
"""

import argparse
import json
import os

from kgrerank.cli import load_config, main as cli_main, stage_output


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--ms", default="5,10,20", help="comma-separated candidate counts")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config key for every swept value (repeatable)",
    )
    args = parser.parse_args()

    print(f"{'m':>6s} {'samples':>8s} {'mean prompt chars':>18s}")
    for m in (int(v) for v in args.ms.split(",")):
        overrides = args.overrides + [f"ranker.m={m}"]
        rc = cli_main(["build-eval", "--config", args.config, *(f"--set={o}" for o in overrides)])
        if rc != 0:
            raise SystemExit(rc)
        cfg = load_config(args.config, overrides)
        with open(os.path.join(stage_output(cfg, "eval"), "summary.json")) as f:
            summary = json.load(f)
        print(f"{m:6d} {summary['written']:8d} {summary['mean_prompt_chars']:18.1f}")


if __name__ == "__main__":
    main()
