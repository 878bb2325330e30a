#!/usr/bin/env python3
"""Sweep the confidence threshold and report how many finetune samples survive.

Runs build-finetune once per beta value against the same config, then reads
the kept/dropped counts out of each run's summary. Takes the stages' --config
and repeatable --set; each --set applies to every beta value.
"""

import argparse
import json
import os

from kgrerank.cli import load_config, main as cli_main, stage_output


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument(
        "--betas", default="0,0.05,0.5,1.0", help="comma-separated beta values"
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config key for every swept value (repeatable)",
    )
    args = parser.parse_args()

    betas = [float(b) for b in args.betas.split(",")]
    print(f"{'beta':>8s} {'queries':>8s} {'kept':>8s} {'dropped':>8s}")
    for beta in betas:
        overrides = args.overrides + [f"ranker.beta={beta}"]
        rc = cli_main(["build-finetune", "--config", args.config, *(f"--set={o}" for o in overrides)])
        if rc != 0:
            raise SystemExit(rc)
        cfg = load_config(args.config, overrides)
        with open(os.path.join(stage_output(cfg, "finetune"), "summary.json")) as f:
            summary = json.load(f)
        print(
            f"{beta:8.3f} {summary['queries']:8d} {summary['kept']:8d} {summary['dropped']:8d}"
        )


if __name__ == "__main__":
    main()
