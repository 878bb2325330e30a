"""Scoring an eval set: backend selection, move-to-top, filtered metrics.

``evaluate`` takes the samples of an eval set (both directions of every test
triple, in ``build_set``'s order) one at a time, read from the set's file or
built by ``build_set``, and keeps a few integers of each; it ranks nothing
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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Iterable

from .instructions import InstructionSample
from .kg import DataError
from .ranking import metrics

# samples in flight per worker: a request takes ~50 ms, a sample ~0.5 ms to build and, in a
# set built as it is evaluated, ~10 ms to rank on L1; the 3 queued behind each request in
# flight (~150 ms of work) outlast the ~10 ms in which the main thread makes the next sample
WINDOW = 4


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


def evaluate(
    samples: Iterable[InstructionSample],
    header: dict,
    backend,
    limit_triples: int = 0,
    audit_path: str | None = None,
    threads: int = 1,
) -> dict:
    """Score an eval set with ``backend``, ``threads`` samples at a time, and
    return the report that ``report.json`` holds.

    ``samples`` are the set's instruction records, in order, and ``header``
    the head of the report: the m, alpha, beta and gamma that built them. With
    at most ``WINDOW × threads`` samples in flight, a generator that builds them keeps
    building while the workers wait on the backend; each answer, in order, is
    folded into a few integers and an audit row, and its sample freed.
    ``limit_triples`` N > 0 scores the first 2N samples, the first N test
    triples, and takes no more. ``audit_path`` names a per-query audit file
    to write. A backend error ends the run: after it, no further sample is
    drawn from ``samples`` and no worker takes up a query.
    """
    failed = threading.Event()  # set by the first error; workers then send nothing

    def pick(sample: InstructionSample) -> int | None:
        if failed.is_set():
            return None  # never read: the failed sample, which comes earlier, raises first
        try:
            i = backend.select(sample)
            if i is not None and not 0 <= i < len(sample.candidate_ids):
                raise ValueError(f"selection index {i} out of range")
            return i
        except Exception:
            failed.set()
            raise

    directions, picks, final, base = [], [], [], []  # per sample, in order

    def fold(s: InstructionSample, answer: Future) -> None:
        i = answer.result()  # raises the worker's error
        rank = moved_rank(s.gold_rank, None if i is None else s.candidate_ranks[i])
        directions.append(s.direction)
        picks.append(i)
        final.append(rank)
        base.append(s.gold_rank)
        if audit:
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
            audit.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n")

    taken = itertools.takewhile(lambda _: not failed.is_set(), samples)
    if limit_triples:
        taken = itertools.islice(taken, 2 * limit_triples)
    in_flight = deque()  # (sample, its answer), oldest first
    audit_file = open(audit_path, "w", encoding="utf-8") if audit_path else nullcontext()
    with audit_file as audit, ThreadPoolExecutor(max_workers=threads) as pool:
        for sample in taken:
            in_flight.append((sample, pool.submit(pick, sample)))
            if len(in_flight) == WINDOW * threads:
                fold(*in_flight.popleft())
        while in_flight:
            fold(*in_flight.popleft())
    if not final:
        raise DataError("evaluation requires a non-empty test split")

    def by_direction(ranks: list[int]) -> dict:
        head = [r for d, r in zip(directions, ranks) if d == "head"]
        tail = [r for d, r in zip(directions, ranks) if d == "tail"]
        return {"head": metrics(head), "tail": metrics(tail), "combined": metrics(ranks)}

    gold_in_topm = sum(1 for r in base if r <= header["m"])
    return {
        "backend": getattr(backend, "name", type(backend).__name__),
        **header,
        "queries": len(final),
        "abstentions": picks.count(None),
        "gold_in_topm": gold_in_topm,
        "candidate_recall": gold_in_topm / len(final),
        **by_direction(final),
        "base": by_direction(base),
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
