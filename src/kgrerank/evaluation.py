"""Rerank-then-score evaluation under the filtered ranking protocol.

For every test triple both completion directions are ranked, a selection
prompt is built, the backend picks a candidate (or abstains), the selected
entity is moved to the top of the ranking with all other relative positions
preserved, and MRR / Hits@k of the gold answer are computed over the new
ranks, per direction and pooled. Moving one entity to the top shifts the
gold by at most one place, so the new rank follows from two base ranks (see
``moved_rank``) and no full ranking is ever built.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .instructions import BuildOptions, build_sample, numbered_queries
from .kg import KnowledgeGraph
from .ranking import ConfidenceParams, RankedQuery, queries_for_triple, rank_query

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DirectionMetrics:
    mrr: float
    hits1: float
    hits3: float
    hits10: float

    def as_dict(self) -> dict:
        return {"mrr": self.mrr, "hits1": self.hits1, "hits3": self.hits3, "hits10": self.hits10}


@dataclass
class EvalOptions:
    limit_triples: int = 0  # 0 evaluates the whole test split
    audit_path: str | None = None
    threads: int = 1


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


def moved_rank(rq: RankedQuery, chosen: int | None) -> int:
    """The gold's rank once ``chosen`` moves to the top; None moves nothing.

    With ``rg`` the gold's base rank and ``rc`` the chosen candidate's: the
    gold becomes first if chosen, keeps ``rg`` if the chosen entity already
    stood above it, and otherwise slips one place.
    """
    rg = rq.gold_rank
    if chosen is None:
        return rg
    if chosen == rq.query.gold:
        return 1
    rc = rq.topm_ids.index(chosen) + 1
    return rg if rc < rg else rg + 1


def metrics(gold_ranks) -> DirectionMetrics:
    ranks = np.asarray(list(gold_ranks), dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("metrics need at least one rank")
    if (ranks < 1).any():
        raise ValueError("ranks must be >= 1")
    return DirectionMetrics(
        mrr=float((1.0 / ranks).mean()),
        hits1=float((ranks <= 1).mean()),
        hits3=float((ranks <= 3).mean()),
        hits10=float((ranks <= 10).mean()),
    )


@dataclass
class _QueryOutcome:
    sample_id: str
    direction: str
    known: int
    relation: int
    gold: int
    base_rank: int
    final_rank: int
    selection_index: int | None
    selected_id: int | None
    in_topm: bool
    name_collision: bool


def _evaluate_one(kg, table, backend, params, build_options, item) -> _QueryOutcome:
    sample_id, query_index, q = item
    rq = rank_query(table, kg, q, params.m)
    sample, _vectors = build_sample(kg, table, rq, build_options, sample_id, query_index)
    sel = backend.select(sample)
    if sel.chosen and not 0 <= sel.index < len(sample.candidate_ids):
        raise ValueError(f"selection index {sel.index} out of range")
    selected_id = sample.candidate_ids[sel.index] if sel.chosen else None
    collision = (
        sel.chosen
        and selected_id != q.gold
        and sample.candidate_names[sel.index] == sample.gold_name
    )
    return _QueryOutcome(
        sample_id=sample_id,
        direction=q.direction,
        known=q.known,
        relation=q.relation,
        gold=q.gold,
        base_rank=rq.gold_rank,
        final_rank=moved_rank(rq, selected_id),
        selection_index=sel.index,
        selected_id=selected_id,
        in_topm=rq.gold_rank <= params.m,
        name_collision=bool(collision),
    )


def evaluate(
    kg: KnowledgeGraph,
    table,
    backend,
    params: ConfidenceParams,
    options: EvalOptions | None = None,
    build_options: BuildOptions | None = None,
) -> EvalReport:
    """Run the full rerank protocol over the test split."""
    options = options or EvalOptions()
    build_options = build_options or BuildOptions()
    triples = kg.test
    if options.limit_triples:
        triples = triples[: options.limit_triples]
    if len(triples) == 0:
        raise ValueError("evaluation requires a non-empty test split")

    work = list(numbered_queries(enumerate(triples), "test"))

    workers = options.threads
    # remote backends carry an in-flight request cap that bounds parallelism
    cap = getattr(getattr(backend, "config", None), "in_flight", 0)
    if cap:
        workers = min(workers, cap)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    lambda item: _evaluate_one(kg, table, backend, params, build_options, item),
                    work,
                )
            )
    else:
        outcomes = [
            _evaluate_one(kg, table, backend, params, build_options, item) for item in work
        ]

    if options.audit_path:
        with open(options.audit_path, "w", encoding="utf-8") as f:
            for o in outcomes:
                f.write(
                    json.dumps(
                        {
                            "id": o.sample_id,
                            "direction": o.direction,
                            "known": o.known,
                            "relation": o.relation,
                            "gold": o.gold,
                            "base_rank": o.base_rank,
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
        return [o for o in outcomes if o.direction == direction]

    head, tail = split("head"), split("tail")
    return EvalReport(
        backend=getattr(backend, "name", type(backend).__name__),
        m=params.m,
        alpha=params.alpha,
        beta=params.beta,
        gamma=build_options.gamma,
        queries=len(outcomes),
        abstentions=sum(1 for o in outcomes if o.selection_index is None),
        gold_in_topm=sum(1 for o in outcomes if o.in_topm),
        head=metrics(o.final_rank for o in head),
        tail=metrics(o.final_rank for o in tail),
        combined=metrics(o.final_rank for o in outcomes),
        base_head=metrics(o.base_rank for o in head),
        base_tail=metrics(o.base_rank for o in tail),
        base_combined=metrics(o.base_rank for o in outcomes),
    )


def base_model_metrics(
    kg: KnowledgeGraph,
    table,
    m: int,
    limit_triples: int = 0,
) -> dict:
    """Filtered metrics of the scorer itself, without prompts or reranking."""
    triples = kg.test
    if limit_triples:
        triples = triples[:limit_triples]
    per_direction: dict[str, list[int]] = {"head": [], "tail": []}
    for triple in triples:
        for q in queries_for_triple(triple):
            rq = rank_query(table, kg, q, m)
            per_direction[q.direction].append(rq.gold_rank)
    pooled = per_direction["head"] + per_direction["tail"]
    return {
        "head": metrics(per_direction["head"]),
        "tail": metrics(per_direction["tail"]),
        "combined": metrics(pooled),
    }
