"""Filtered ranking: top-m candidates, the gold's rank, confidence scoring, and
the MRR / Hits@k of gold ranks.

Filtering replaces the scores of entities that complete a known-true triple
(other than the gold answer) with -inf, so the gold rank is always defined.
Nothing is sorted in full: the gold's rank is counted and the top-m come from
a partition, both as positions in the order "score descending, ties to the
smaller entity id". The counts need scores that are never NaN, so
checkpoints holding NaN or infinite values are refused on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import HEAD, TAIL, EmbeddingTable
from .kg import KnowledgeGraph, Triple


@dataclass(frozen=True)
class Query:
    """An incomplete fact: predict the tail of (known, r, ?) or the head of (?, r, known)."""

    known: int
    relation: int
    direction: str  # HEAD or TAIL
    gold: int | None = None

    def completed(self, entity: int) -> Triple:
        if self.direction == TAIL:
            return Triple(self.known, self.relation, entity)
        return Triple(entity, self.relation, self.known)


@dataclass
class RankedQuery:
    query: Query
    topm_ids: list[int]
    topm_scores: list[float]
    gold_rank: int | None
    gold_score: float | None


@dataclass(frozen=True)
class DirectionMetrics:
    mrr: float
    hits1: float
    hits3: float
    hits10: float

    def as_dict(self) -> dict:
        return {"mrr": self.mrr, "hits1": self.hits1, "hits3": self.hits3, "hits10": self.hits10}


@dataclass
class ConfidenceParams:
    m: int = 20
    alpha: float = 1.0
    beta: float = 0.05
    normalize_local: bool = True

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")


def rank_query(
    table: EmbeddingTable,
    kg: KnowledgeGraph,
    q: Query,
    m: int,
    filtered: bool = True,
) -> RankedQuery:
    """The top-m entities and the gold's rank, filtered against known-true triples."""
    if not 1 <= m <= kg.num_entities:
        raise ValueError(f"m must be in [1, {kg.num_entities}], got {m}")
    scores = table.score_candidates(q.known, q.relation, q.direction)
    if filtered:
        if q.direction == TAIL:
            known_true = kg.known_tails(q.known, q.relation)
        else:
            known_true = kg.known_heads(q.relation, q.known)
        if q.gold is not None:
            known_true = known_true[known_true != q.gold]
        scores[known_true] = -np.inf
    gold_rank = gold_score = None
    if q.gold is not None:
        g = scores[q.gold]
        gold_score = float(g)
        gold_rank = int(np.count_nonzero(scores > g) + np.count_nonzero(scores[: q.gold] == g)) + 1
    # everything above the m-th best score, sorted; then the ties at it, in id order
    mth = np.partition(scores, kg.num_entities - m)[kg.num_entities - m]
    above = np.flatnonzero(scores > mth)
    above = above[np.argsort(-scores[above], kind="stable")]
    topm = np.concatenate([above, np.flatnonzero(scores == mth)[: m - len(above)]])
    return RankedQuery(
        query=q,
        topm_ids=[int(e) for e in topm],
        topm_scores=[float(s) for s in scores[topm]],
        gold_rank=gold_rank,
        gold_score=gold_score,
    )


def queries_for_triple(triple: Triple) -> tuple[Query, Query]:
    """The tail- and head-prediction queries derived from one fact."""
    h, r, t = (int(x) for x in triple)
    return (
        Query(known=h, relation=r, direction=TAIL, gold=t),
        Query(known=t, relation=r, direction=HEAD, gold=h),
    )


def global_confidence(rq: RankedQuery) -> float:
    """Reciprocal rank of the gold answer."""
    if rq.gold_rank is None:
        raise ValueError("query has no gold answer")
    return 1.0 / rq.gold_rank


def local_confidence(rq: RankedQuery, m: int, normalize: bool = True) -> float:
    """Gold score within the top-m, or 0 when the gold falls outside it.

    By default the score is min-max normalized over the finite top-m scores
    so the value lands in [0, 1] regardless of the scorer's scale; with
    ``normalize=False`` the raw model score is returned instead.
    """
    if rq.gold_rank is None or rq.gold_score is None:
        raise ValueError("query has no gold answer")
    if m > len(rq.topm_scores):
        raise ValueError(
            f"m={m} exceeds the {len(rq.topm_scores)} candidates this ranking was built with"
        )
    if rq.gold_rank > m:
        return 0.0
    if not normalize:
        return rq.gold_score
    finite = [s for s in rq.topm_scores[:m] if math.isfinite(s)]
    lo, hi = min(finite), max(finite)
    if hi == lo:
        return 1.0
    return (rq.gold_score - lo) / (hi - lo)


def sample_confidence(rq: RankedQuery, params: ConfidenceParams) -> float:
    return global_confidence(rq) + params.alpha * local_confidence(
        rq, params.m, params.normalize_local
    )


def survives_truncation(rq: RankedQuery, params: ConfidenceParams) -> bool:
    """The truncation predicate: confidence strictly exceeds beta."""
    return sample_confidence(rq, params) > params.beta


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
