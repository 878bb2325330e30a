"""Scoring an eval set: backend selection, move-to-top, filtered metrics.

``evaluate`` takes the samples of an eval set (both directions of every test
triple, in ``build_eval_set``'s order) as they come: read back from the set's
file, or straight from ``build_eval_set`` while it ranks the rest, as
``cli._instruction_set``, the one path that builds and publishes both
instruction sets, hands them over. It reads no graph and ranks nothing
itself. Each sample goes to the backend, whose ``select`` returns a
candidate index or None to abstain, and the pick moves to the top of the
base ranking with all other relative positions preserved. Moving one
entity to the top shifts the gold by at most one place, so the new rank
follows from the gold's base rank and the chosen candidate's, both recorded
in the sample (see ``moved_rank``). MRR / Hits@k of the gold are reported per
direction and pooled, next to the base model's: ``evaluate`` returns the dict
that ``report.json`` holds, and ``format_table`` renders it as ``report.txt``.
"""

from __future__ import annotations

import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from .instructions import InstructionSample
from .kg import DataError
from .ranking import metrics


def moved_rank(gold_rank: int, chosen_rank: int | None) -> int:
    """The gold's rank once the candidate of base rank ``chosen_rank`` moves to
    the top; None (an abstention) moves nothing.

    The gold becomes first if chosen (the two ranks are then equal), keeps its
    rank if the chosen entity already stood above it, and otherwise slips one
    place.
    """
    if chosen_rank is None:
        return gold_rank
    if chosen_rank == gold_rank:
        return 1
    return gold_rank if chosen_rank < gold_rank else gold_rank + 1


def _pick(backend, sample: InstructionSample) -> int | None:
    pick = backend.select(sample)
    if pick is not None and not 0 <= pick < len(sample.candidate_ids):
        raise ValueError(f"selection index {pick} out of range")
    return pick


def evaluate(
    samples: Iterable[InstructionSample],
    summary: dict,
    backend,
    limit_triples: int = 0,
    audit_path: str | None = None,
    threads: int = 1,
) -> dict:
    """Score an eval set with ``backend``, ``threads`` samples at a time, and
    return the report that ``report.json`` holds.

    ``samples`` are the set's instruction records, in order, and ``summary``
    its summary, whose m, alpha, beta and gamma head the report. Each sample
    goes to a worker as soon as it is taken from ``samples``, so a generator
    that builds them keeps building while the workers wait on the backend.
    ``limit_triples`` N > 0 scores the first 2N samples, the first N test
    triples, and takes no more. ``audit_path`` names a per-query audit file
    to write. A backend error ends the run: after it, no further sample is
    drawn from ``samples`` and no worker takes up a query.
    """
    failed = threading.Event()  # set by the first error; workers then send nothing

    def pick(sample: InstructionSample) -> tuple[InstructionSample, int | None]:
        if failed.is_set():
            return sample, None  # never read: map raises at the failed sample, which comes earlier
        try:
            return sample, _pick(backend, sample)
        except Exception:
            failed.set()
            raise

    taken = itertools.takewhile(lambda _: not failed.is_set(), samples)
    if limit_triples:
        taken = itertools.islice(taken, 2 * limit_triples)
    # map submits every sample from this thread as it is taken, before it returns
    with ThreadPoolExecutor(max_workers=threads) as pool:
        picked = list(pool.map(pick, taken))
    if not picked:
        raise DataError("evaluation requires a non-empty test split")
    samples, picks = zip(*picked)
    final = [
        moved_rank(s.gold_rank, None if i is None else s.candidate_ranks[i])
        for s, i in zip(samples, picks)
    ]

    if audit_path:
        with open(audit_path, "w", encoding="utf-8") as f:
            for s, i, rank in zip(samples, picks, final):
                selected = None if i is None else s.candidate_ids[i]
                row = {
                    "id": s.id,
                    "direction": s.direction,
                    "known": s.known,
                    "relation": s.relation,
                    "gold": s.gold_id,
                    "base_rank": s.gold_rank,
                    "selection": i,
                    "selected_id": selected,
                    "final_rank": rank,
                    "name_collision": selected not in (None, s.gold_id)
                    and s.candidate_names[i] == s.gold_name,
                }
                f.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n")

    def by_direction(ranks: list[int]) -> dict:
        head = [r for s, r in zip(samples, ranks) if s.direction == "head"]
        tail = [r for s, r in zip(samples, ranks) if s.direction == "tail"]
        return {"head": metrics(head), "tail": metrics(tail), "combined": metrics(ranks)}

    gold_in_topm = sum(1 for s in samples if s.gold_rank <= summary["m"])
    return {
        "backend": getattr(backend, "name", type(backend).__name__),
        "m": summary["m"],
        "alpha": summary["alpha"],
        "beta": summary["beta"],
        "gamma": summary["gamma"],
        "queries": len(samples),
        "abstentions": picks.count(None),
        "gold_in_topm": gold_in_topm,
        "candidate_recall": gold_in_topm / len(samples),
        **by_direction(final),
        "base": by_direction([s.gold_rank for s in samples]),
    }


def format_table(report: dict) -> str:
    """``report.txt``: the counts, then MRR and Hits@1/3/10 per direction and
    of the base model, pooled."""
    rows = [(d, report[d]) for d in ("head", "tail", "combined")]
    rows.append(("base combined", report["base"]["combined"]))
    lines = [
        f"backend={report['backend']}  queries={report['queries']}  "
        f"abstentions={report['abstentions']}  gold_in_topm={report['gold_in_topm']}",
        f"{'':14s} {'MRR':>8s} {'Hits@1':>8s} {'Hits@3':>8s} {'Hits@10':>8s}",
    ]
    for label, dm in rows:
        lines.append(
            f"{label:14s} {dm['mrr']:8.4f} {dm['hits1']:8.4f} {dm['hits3']:8.4f} {dm['hits10']:8.4f}"
        )
    return "\n".join(lines)
