"""Filtered full-entity ranking, top-m candidates, and confidence scoring.

Filtering replaces the scores of entities that complete a known-true triple
(other than the gold answer) with -inf before sorting, so the ranking always
remains a permutation of all entities and the gold rank is always defined.
Ties break toward the smaller entity id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    ranking: np.ndarray  # all entity ids, best first
    topm_ids: list[int]
    topm_scores: list[float]
    gold_rank: int | None
    gold_score: float | None


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
    """Rank every entity for the query, filtered against known-true triples."""
    if not 1 <= m <= kg.num_entities:
        raise ValueError(f"m must be in [1, {kg.num_entities}], got {m}")
    scores = table.score_candidates(q.known, q.relation, q.direction)
    gold_score = float(scores[q.gold]) if q.gold is not None else None
    if filtered:
        if q.direction == TAIL:
            known_true = kg.known_tails(q.known, q.relation)
        else:
            known_true = kg.known_heads(q.relation, q.known)
        if q.gold is not None:
            known_true = known_true[known_true != q.gold]
        scores[known_true] = -np.inf
    order = np.argsort(-scores, kind="stable")  # stable: ties fall to smaller ids
    gold_rank = None
    if q.gold is not None:
        gold_rank = int(np.nonzero(order == q.gold)[0][0]) + 1
    topm = order[:m]
    return RankedQuery(
        query=q,
        ranking=order,
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


def truncate_samples(
    rqs: Iterable[RankedQuery], params: ConfidenceParams
) -> list[RankedQuery]:
    """Keep queries that survive truncation, preserving order."""
    return [rq for rq in rqs if survives_truncation(rq, params)]


def write_candidates(path: str, rqs: Iterable[RankedQuery]) -> int:
    """Dump per-query candidate records as JSON lines; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for rq in rqs:
            record = {
                "direction": rq.query.direction,
                "known": rq.query.known,
                "relation": rq.query.relation,
                "gold": rq.query.gold,
                "gold_rank": rq.gold_rank,
                "topm": [[e, s] for e, s in zip(rq.topm_ids, rq.topm_scores)],
            }
            f.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
            n += 1
    return n


def iter_candidates(path: str) -> Iterator[dict]:
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)
