"""Scoring an eval set: backend selection, move-to-top, filtered metrics.

``evaluate`` takes the samples that ``build_eval_set`` wrote (both
directions of every test triple, in file order); it reads no graph and ranks
nothing. Each sample goes to the backend, which picks a candidate or
abstains, and the pick moves to the top of the base ranking with all other
relative positions preserved. Moving one entity to the top shifts the gold
by at most one place, so the new rank follows from the gold's base rank and
the chosen candidate's, both recorded in the sample (see ``moved_rank``).
MRR / Hits@k of the gold are reported per direction and pooled, next to the
base model's.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .instructions import InstructionSample
from .ranking import DirectionMetrics, metrics


@dataclass
class EvalReport:
    backend: str
    m: int
    alpha: float
    beta: float
    gamma: int
    queries: int
    abstentions: int
    gold_in_topm: int
    head: DirectionMetrics
    tail: DirectionMetrics
    combined: DirectionMetrics
    base_head: DirectionMetrics
    base_tail: DirectionMetrics
    base_combined: DirectionMetrics

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "m": self.m,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "queries": self.queries,
            "abstentions": self.abstentions,
            "gold_in_topm": self.gold_in_topm,
            "candidate_recall": self.gold_in_topm / self.queries if self.queries else 0.0,
            "head": self.head.as_dict(),
            "tail": self.tail.as_dict(),
            "combined": self.combined.as_dict(),
            "base": {
                "head": self.base_head.as_dict(),
                "tail": self.base_tail.as_dict(),
                "combined": self.base_combined.as_dict(),
            },
        }

    def format_table(self) -> str:
        rows = [
            ("head", self.head),
            ("tail", self.tail),
            ("combined", self.combined),
            ("base combined", self.base_combined),
        ]
        lines = [
            f"backend={self.backend}  queries={self.queries}  "
            f"abstentions={self.abstentions}  gold_in_topm={self.gold_in_topm}",
            f"{'':14s} {'MRR':>8s} {'Hits@1':>8s} {'Hits@3':>8s} {'Hits@10':>8s}",
        ]
        for label, dm in rows:
            lines.append(
                f"{label:14s} {dm.mrr:8.4f} {dm.hits1:8.4f} {dm.hits3:8.4f} {dm.hits10:8.4f}"
            )
        return "\n".join(lines)


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


@dataclass
class _QueryOutcome:
    sample: InstructionSample
    selection_index: int | None
    selected_id: int | None
    final_rank: int
    name_collision: bool


def _evaluate_one(backend, sample: InstructionSample) -> _QueryOutcome:
    sel = backend.select(sample)
    if not sel.chosen:
        return _QueryOutcome(sample, None, None, sample.gold_rank, False)
    if not 0 <= sel.index < len(sample.candidate_ids):
        raise ValueError(f"selection index {sel.index} out of range")
    selected_id = sample.candidate_ids[sel.index]
    return _QueryOutcome(
        sample=sample,
        selection_index=sel.index,
        selected_id=selected_id,
        final_rank=moved_rank(sample.gold_rank, sample.candidate_ranks[sel.index]),
        name_collision=(
            selected_id != sample.gold_id and sample.candidate_names[sel.index] == sample.gold_name
        ),
    )


def evaluate(
    samples: list[InstructionSample],
    summary: dict,
    backend,
    limit_triples: int = 0,
    audit_path: str | None = None,
    threads: int = 1,
) -> EvalReport:
    """Score an eval set with ``backend``, ``threads`` samples at a time.

    ``samples`` and ``summary`` are what ``build_eval_set`` wrote: the
    instruction records and the summary, whose m, alpha, beta and gamma head
    the report. ``limit_triples`` N > 0 scores the first 2N samples, the
    first N test triples. ``audit_path`` names a per-query audit file to
    write. A backend error ends the run; queries still queued are not sent.
    """
    if limit_triples:
        samples = samples[: 2 * limit_triples]
    if not samples:
        raise ValueError("evaluation requires a non-empty test split")

    if threads > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
        try:
            outcomes = list(pool.map(lambda sample: _evaluate_one(backend, sample), samples))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        outcomes = [_evaluate_one(backend, sample) for sample in samples]

    if audit_path:
        with open(audit_path, "w", encoding="utf-8") as f:
            for o in outcomes:
                f.write(
                    json.dumps(
                        {
                            "id": o.sample.id,
                            "direction": o.sample.direction,
                            "known": o.sample.known,
                            "relation": o.sample.relation,
                            "gold": o.sample.gold_id,
                            "base_rank": o.sample.gold_rank,
                            "selection": o.selection_index,
                            "selected_id": o.selected_id,
                            "final_rank": o.final_rank,
                            "name_collision": o.name_collision,
                        },
                        ensure_ascii=False,
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def split(direction):
        return [o for o in outcomes if o.sample.direction == direction]

    head, tail = split("head"), split("tail")
    return EvalReport(
        backend=getattr(backend, "name", type(backend).__name__),
        m=summary["m"],
        alpha=summary["alpha"],
        beta=summary["beta"],
        gamma=summary["gamma"],
        queries=len(outcomes),
        abstentions=sum(1 for o in outcomes if o.selection_index is None),
        gold_in_topm=sum(1 for o in outcomes if o.sample.gold_rank <= summary["m"]),
        head=metrics(o.final_rank for o in head),
        tail=metrics(o.final_rank for o in tail),
        combined=metrics(o.final_rank for o in outcomes),
        base_head=metrics(o.sample.gold_rank for o in head),
        base_tail=metrics(o.sample.gold_rank for o in tail),
        base_combined=metrics(o.sample.gold_rank for o in outcomes),
    )
