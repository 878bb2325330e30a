"""Filtered ranking: top-m candidates, the gold's rank, confidence scoring, and
the MRR / Hits@k of gold ranks.

Every query carries its gold answer. Filtering replaces the scores of
entities that complete a known-true triple (other than the gold answer) with
-inf, so the gold rank is always defined.
Only a band of entities is sorted: one stable sort of its exact scores gives
the order "score descending, ties to the smaller entity id", and the top-m and
the gold's rank both come from it. The band needs finite first-pass values and
unfiltered scores, which ``EmbeddingTable.rankable`` guarantees.

``rank_queries`` ranks every query on one path, whatever the table's norm.
The table's first pass (``EmbeddingTable.first_pass``) gives each query a
distance to every entity and a bound delta such that d_a < d_b - delta
guarantees that a's exact score is strictly above b's, and ``rank_query``
ranks each query from its row: only the entities whose distance lies within
delta of the m-th smallest or of the gold's get exact scores. An L1 table's
distances are its exact scores negated, with delta = 0. An L2 table's are
squared distances ``|q|^2 - 2 q.e + |e|^2`` from one matrix product per block
of queries, while the exact scores (``score_candidates``) are
``-sqrt(sum(u * u))`` of the residual u, and the bound is
``delta = 16 (dim + 4) (eps R^2 + tiny)``, ``R = |q| + max |e|``. Why an L2
first-pass gap above delta fixes the order of the exact scores, with unit
roundoff u = eps / 2 and n = dim:

- Against the real squared distance, the residual formula's sum of squares
  is off by at most (n + 6) u R^2 (1 + O(nu)): each u_i carries two
  roundings, which moves u by at most 3 u R, and a sum of n rounded
  products is within n u (1 + O(nu)) of its absolute value in any order.
- The first pass is off by at most (n + 4) u R^2 (1 + O(nu)): forming q
  rounds once (2 u R^2), the dot products and both norms obey the same
  sum bound, in any order, with or without fused multiply-adds, and the
  two additions round once each.
- So a first-pass gap above delta leaves the two exact sums of squares apart
  by more than delta - 2 (2n + 10) u R^2 >= 136 u R^2. ``sqrt`` is monotone
  and correctly rounded, so sums that far apart (more than 8 u R^2) keep
  their strict order after it. The rest of the margin covers the rounding
  of delta and of the comparisons themselves; the ``tiny`` term covers
  underflow.
"""

from __future__ import annotations

import itertools
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
    gold: int

    def completed(self, entity: int) -> Triple:
        if self.direction == TAIL:
            return Triple(self.known, self.relation, entity)
        return Triple(entity, self.relation, self.known)


@dataclass
class RankedQuery:
    """A ranking at m: the top-m ids and their scores, m of each, and the gold's rank and score."""

    query: Query
    topm_ids: list[int]
    topm_scores: list[float]
    gold_rank: int
    gold_score: float


@dataclass
class ConfidenceParams:
    """The ``[ranker]`` config section: candidate-list size and the truncation
    predicate's weights."""

    m: int = 20
    alpha: float = 1.0
    beta: float = 0.05

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")


def rank_queries(
    table: EmbeddingTable, kg: KnowledgeGraph, queries: Iterable[Query], m: int
) -> Iterator[RankedQuery]:
    """The ranking of each of ``queries``, in order, as the exact scores of
    every entity give it; filtered. A ranking is yielded as soon as the first
    pass (``table.first_pass``) has its query's row, so a stream of queries is
    ranked as it comes; ``rank_query`` ranks each row.
    """
    if not 1 <= m <= kg.num_entities:
        raise ValueError(f"m must be in [1, {kg.num_entities}], got {m}")
    queries, keyed = itertools.tee(queries)
    rows = table.first_pass((q.known, q.relation, q.direction) for q in keyed)
    for q, (d, delta) in zip(queries, rows):
        yield rank_query(table, kg, q, m, d, delta)


def rank_query(
    table: EmbeddingTable, kg: KnowledgeGraph, q: Query, m: int, d: np.ndarray, delta: float
) -> RankedQuery:
    """The filtered ranking of q from its first-pass row: every entity's
    distance d and a bound delta such that d_a < d_b - delta guarantees that
    a's exact score is strictly above b's.

    Filtered entities get d = inf. With t the m-th smallest d and d_g the
    gold's, exact scores are computed only for the band, the entities with
    d <= t + delta or |d - d_g| <= delta:

    - every entity with d > t + delta lies strictly below each of the (at
      least) m entities with d <= t, so it is neither in the top-m nor tied with the m-th;
    - every entity with d < d_g - delta scores strictly above the gold and
      every one with d > d_g + delta strictly below it, so only those
      within delta of d_g need an exact comparison.

    The band's ids ascend, so a stable sort of its exact scores, descending,
    breaks ties toward the smaller id: its first m entries are the top-m, and
    the gold (always in the band) ranks after those before it there and the
    entities outside with d < d_g - delta. On a ``rankable`` table t is inf
    only when m reaches past the unfiltered entities: then the band holds
    every entity, and the filtered ones, of d = inf, get -inf. A bound or
    gold distance that is not finite raises ValueError.
    """
    dg = d[q.gold]
    if not np.isfinite([delta, dg]).all():
        raise ValueError(f"{q}: a first-pass bound or gold distance overflowed: the table is unrankable")
    if q.direction == TAIL:
        known_true = kg.known_tails(q.known, q.relation)
    else:
        known_true = kg.known_heads(q.relation, q.known)
    d[known_true[known_true != q.gold]] = np.inf
    t = np.partition(d, m - 1)[m - 1]
    near = (d <= t + delta) | (np.abs(d - dg) <= delta)
    above = int(np.count_nonzero((d < dg - delta) & ~near))
    ids = np.flatnonzero(near)
    scores = table.score_candidates(q.known, q.relation, q.direction, ids)
    scores[np.isinf(d[ids])] = -np.inf
    order = np.argsort(-scores, kind="stable")
    top, gold = order[:m], int(np.searchsorted(ids, q.gold))
    gold_rank = above + int(np.flatnonzero(order == gold)[0]) + 1
    return RankedQuery(q, ids[top].tolist(), scores[top].tolist(), gold_rank, float(scores[gold]))


def queries_for_triple(triple: Triple) -> tuple[Query, Query]:
    """The tail- and head-prediction queries derived from one fact."""
    h, r, t = (int(x) for x in triple)
    return (
        Query(known=h, relation=r, direction=TAIL, gold=t),
        Query(known=t, relation=r, direction=HEAD, gold=h),
    )


def global_confidence(rq: RankedQuery) -> float:
    """Reciprocal rank of the gold answer."""
    return 1.0 / rq.gold_rank


def local_confidence(rq: RankedQuery) -> float:
    """Gold score within the top-m, or 0 when the gold falls outside it.

    The score is min-max normalized over the finite top-m scores (a filtered
    entity's is -inf), so the value lands in [0, 1] regardless of the
    scorer's scale; equal scores, or none finite, give 1.0.
    """
    if rq.gold_rank > len(rq.topm_scores):
        return 0.0
    finite = [s for s in rq.topm_scores if math.isfinite(s)]
    lo, hi = min(finite, default=0.0), max(finite, default=0.0)
    if hi == lo:
        return 1.0
    return (rq.gold_score - lo) / (hi - lo)


def sample_confidence(rq: RankedQuery, params: ConfidenceParams) -> float:
    return global_confidence(rq) + params.alpha * local_confidence(rq)


def survives_truncation(rq: RankedQuery, params: ConfidenceParams) -> bool:
    """The truncation predicate: confidence strictly exceeds beta."""
    return sample_confidence(rq, params) > params.beta


def metrics(gold_ranks) -> dict:
    """The MRR and Hits@1/3/10 of gold ranks: ``{"mrr", "hits1", "hits3", "hits10"}``."""
    ranks = np.asarray(list(gold_ranks), dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("metrics need at least one rank")
    if (ranks < 1).any():
        raise ValueError("ranks must be >= 1")
    return {
        "mrr": float((1.0 / ranks).mean()),
        "hits1": float((ranks <= 1).mean()),
        "hits3": float((ranks <= 3).mean()),
        "hits10": float((ranks <= 10).mean()),
    }

