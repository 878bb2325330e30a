#!/usr/bin/env python3
"""Run the ablation grid: full prompts, dropped sections, uniform neighbor
sampling, and shuffled candidate order, all against one config and backend.

Takes the stages' --config and repeatable --set; each --set applies to every
variant, so --set backend.kind=oracle evaluates the whole grid with that
backend. Each variant evaluates into its own content-addressed report
directory, so reruns reuse finished work.
"""

import argparse
import json
import os

from kgrerank.cli import load_config, main as cli_main, stage_output

VARIANTS = [
    ("full", []),
    ("no description", ["instruct.drop_description=true"]),
    ("no neighbors", ["instruct.drop_neighbors=true"]),
    ("uniform neighbors", ["instruct.rc_sampling=false"]),
    ("shuffled candidates", ["instruct.shuffle_candidates=true"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config key in every variant (repeatable)",
    )
    args = parser.parse_args()

    rows = []
    for label, variant in VARIANTS:
        overrides = args.overrides + variant
        flags = [f"--set={o}" for o in overrides]
        rc = cli_main(["evaluate", "--config", args.config, *flags])
        if rc != 0:
            raise SystemExit(rc)
        cfg = load_config(args.config, overrides)
        with open(os.path.join(stage_output(cfg, "report"), "report.json")) as f:
            rows.append((label, json.load(f)))

    print()
    print(f"{'variant':22s} {'MRR':>8s} {'Hits@1':>8s} {'Hits@3':>8s} {'Hits@10':>8s} {'abstain':>8s}")
    for label, report in rows:
        c = report["combined"]
        print(
            f"{label:22s} {c['mrr']:8.4f} {c['hits1']:8.4f} {c['hits3']:8.4f} "
            f"{c['hits10']:8.4f} {report['abstentions']:8d}"
        )


if __name__ == "__main__":
    main()
