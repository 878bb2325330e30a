#!/usr/bin/env python3
"""Run one stage once per row of config overrides and print a line per row.

    python scripts/sweep.py STAGE --config C [--set K=V]... --row LABEL [K=V ...]...

STAGE is build-finetune, build-eval or evaluate. Each row runs the stage with
the shared --set overrides and then its own, so a row's value wins. Each run
writes to its own content-addressed directory, so a rerun reuses finished
work. The stage's own output goes to stderr; stdout holds the table.
"""

import argparse
import contextlib
import json
import operator
import os
import sys
from functools import reduce

from kgrerank.cli import load_config, main as cli_main, stage_output

# stage -> (its stage output, the file read there, its columns: (header, dotted key, format))
COLUMNS = {
    "build-finetune": (
        "finetune", "summary.json", [("queries", "queries", "d"), ("kept", "kept", "d"), ("dropped", "dropped", "d")]
    ),
    "build-eval": (
        "eval", "summary.json", [("samples", "kept", "d"), ("mean prompt chars", "mean_prompt_chars", ".1f")]
    ),
    "evaluate": ("report", "report.json", [
        ("MRR", "combined.mrr", ".4f"), ("Hits@1", "combined.hits1", ".4f"), ("Hits@3", "combined.hits3", ".4f"),
        ("Hits@10", "combined.hits10", ".4f"), ("abstain", "abstentions", "d"),
    ]),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("stage", choices=COLUMNS)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config key in every row (repeatable)",
    )
    parser.add_argument(
        "--row", dest="rows", action="append", nargs="+", required=True,
        metavar=("LABEL", "SECTION.KEY=VALUE"), help="a row: its label, then its own overrides (repeatable)",
    )
    args = parser.parse_args()

    output, name, columns = COLUMNS[args.stage]
    width = max(len(label) for label, *_ in [["row"], *args.rows])
    print(f"{'row':{width}s}" + "".join(f" {header:>8s}" for header, _, _ in columns))
    for label, *row in args.rows:
        overrides = args.overrides + row
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli_main([args.stage, "--config", args.config, *(f"--set={o}" for o in overrides)])
        if rc != 0:
            raise SystemExit(rc)
        with open(os.path.join(stage_output(load_config(args.config, overrides), output), name)) as f:
            result = json.load(f)
        cells = (
            f" {reduce(operator.getitem, key.split('.'), result):>{max(8, len(header))}{fmt}}"
            for header, key, fmt in columns
        )
        print(f"{label:{width}s}" + "".join(cells))


if __name__ == "__main__":
    main()
