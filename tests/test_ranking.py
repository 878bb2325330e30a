import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brute_force_rank, build_kg, exact_ranking, filtered_out
from kgrerank import embeddings, ranking
from kgrerank.embeddings import EmbeddingTable, TrainConfig, TrainingDiverged, train
from kgrerank.kg import DataError
from kgrerank.ranking import (
    ConfidenceParams,
    Query,
    RankedQuery,
    global_confidence,
    local_confidence,
    queries_for_triple,
    rank_queries,
    sample_confidence,
    survives_truncation,
)


def random_setup(seed, n_entities=10, n_relations=2, dim=4):
    """Random table plus a graph whose splits create filtering competitors."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        rng.normal(size=(n_entities, dim)), rng.normal(size=(n_relations, dim)), "L2"
    )
    facts = set()
    while len(facts) < min(3 * n_entities, n_entities * (n_entities - 1) // 2):
        h, t = rng.integers(0, n_entities, size=2)
        if h == t:
            continue
        facts.add((int(h), int(rng.integers(0, n_relations)), int(t)))
    facts = sorted(facts)
    third = len(facts) // 3
    kg = build_kg(
        n_entities,
        n_relations,
        train=facts[: -2 * third] if third else facts,
        valid=facts[-2 * third : -third] if third else [],
        test=facts[-third:] if third else [],
    )
    return table, kg, rng


def synthetic_rq(gold_rank, gold_score, topm_scores):
    """Hand-built RankedQuery for confidence arithmetic tests."""
    return RankedQuery(
        query=Query(known=0, relation=0, direction="tail", gold=1),
        topm_ids=list(range(len(topm_scores))),
        topm_scores=list(topm_scores),
        gold_rank=gold_rank,
        gold_score=gold_score,
    )


def kept(rqs, params):
    """The queries that survive truncation, in order."""
    return [rq for rq in rqs if survives_truncation(rq, params)]


def test_exact_translation_ranks_first():
    table = EmbeddingTable(
        entity_vecs=np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [-3.0, 2.0]]),
        relation_vecs=np.array([[1.0, 0.0]]),
        norm="L2",
    )
    kg = build_kg(4, 1, train=[])
    (rq,) = rank_queries(table, kg, [Query(0, 0, "tail", gold=1)], m=2)
    assert rq.gold_rank == 1
    assert rq.topm_ids[0] == 1
    assert rq.gold_score == 0.0


def test_ranking_matches_brute_force_including_filtering():
    table, kg, rng = random_setup(seed=0)
    all_facts = np.concatenate([kg.train, kg.valid, kg.test])
    for i in range(20):
        fact = all_facts[int(rng.integers(0, len(all_facts)))]
        q = queries_for_triple(fact)[i % 2]
        (rq,) = rank_queries(table, kg, [q], m=5)
        order, topm, gold_rank = brute_force_rank(table, kg, q, m=5)
        assert next(rank_queries(table, kg, [q], m=kg.num_entities)).topm_ids == order
        assert rq.topm_ids == topm
        assert rq.gold_rank == gold_rank


def test_identical_vectors_tie_breaks_to_smaller_id():
    vecs = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    table = EmbeddingTable(vecs, np.array([[1.0, 1.0]]), "L2")
    kg = build_kg(4, 1, train=[])
    (rq,) = rank_queries(table, kg, [Query(0, 0, "tail", gold=2)], m=4)
    pos2 = rq.topm_ids.index(2)
    pos3 = rq.topm_ids.index(3)
    assert pos2 < pos3  # entities 2 and 3 are bit-identical


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("gold", [0, 2, 3, 4, 6])
def test_ties_at_the_mth_score_go_to_smaller_ids(m, gold):
    # 2, 3, 4 tie for best and 1, 5, 6 tie behind entity 0, so several m cut inside a tie
    vecs = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 0.0], [4.0, 0.0], [4.0, 0.0]])
    table = EmbeddingTable(vecs, np.array([[1.0, 0.0]]), "L2")
    kg = build_kg(7, 1, train=[(0, 0, 3)])  # 3 is filtered unless it is the gold
    q = Query(0, 0, "tail", gold=gold)
    (rq,) = rank_queries(table, kg, [q], m=m)
    order, topm, gold_rank = brute_force_rank(table, kg, q, m=m)
    assert rq.topm_ids == topm
    assert rq.gold_rank == gold_rank


def test_filtering_excludes_known_true_but_never_gold():
    table, kg, _ = random_setup(seed=4)
    fact = kg.test[0]
    q = queries_for_triple(fact)[0]
    (rq,) = rank_queries(table, kg, [q], m=kg.num_entities)
    competitors = {
        t
        for h, r, t in np.concatenate([kg.train, kg.valid, kg.test]).tolist()
        if (h, r) == (q.known, q.relation)
    }
    for e in competitors - {q.gold}:
        pos = rq.topm_ids.index(e)
        assert rq.topm_scores[pos] == float("-inf")
    assert math.isfinite(rq.gold_score)


def test_filtered_gold_rank_never_worse_than_unfiltered():
    table, kg, _ = random_setup(seed=8)
    for fact in np.concatenate([kg.train, kg.valid, kg.test])[:12]:
        for q in queries_for_triple(fact):
            _, _, unfiltered_rank = brute_force_rank(table, kg, q, m=3, filtered=False)
            assert next(rank_queries(table, kg, [q], m=3)).gold_rank <= unfiltered_rank


def test_m_out_of_range_rejected():
    table, kg, _ = random_setup(seed=1)
    with pytest.raises(ValueError):
        next(rank_queries(table, kg, [Query(0, 0, "tail", gold=1)], m=kg.num_entities + 1))


def test_global_confidence_examples():
    assert global_confidence(synthetic_rq(1, 0.0, [0.0])) == 1.0
    assert global_confidence(synthetic_rq(25, 0.0, [0.0])) == pytest.approx(0.04)
    n = 1000
    assert global_confidence(synthetic_rq(n, 0.0, [0.0])) == 1.0 / n


def test_local_confidence_outside_topm_is_zero():
    rq = synthetic_rq(gold_rank=4, gold_score=-9.0, topm_scores=[-1.0, -2.0, -3.0])
    assert local_confidence(rq) == 0.0


def test_local_confidence_best_candidate_is_one():
    rq = synthetic_rq(gold_rank=1, gold_score=-1.0, topm_scores=[-1.0, -2.0, -5.0])
    assert local_confidence(rq) == 1.0


def test_local_confidence_min_max_arithmetic():
    rq = synthetic_rq(gold_rank=2, gold_score=-2.0, topm_scores=[-1.0, -2.0, -5.0])
    assert local_confidence(rq) == pytest.approx(0.75)


def test_local_confidence_degenerate_equal_scores():
    rq = synthetic_rq(gold_rank=2, gold_score=-1.0, topm_scores=[-1.0, -1.0, -1.0])
    assert local_confidence(rq) == 1.0


def test_local_confidence_with_no_finite_topm_score_is_the_equal_scores_value():
    # scores that overflowed to -inf: none is finite to normalize over
    rq = synthetic_rq(gold_rank=2, gold_score=-math.inf, topm_scores=[-math.inf] * 3)
    assert local_confidence(rq) == 1.0


def test_sample_confidence_examples():
    p = ConfidenceParams(m=20, alpha=0.5, beta=0.0)
    rq = synthetic_rq(1, -1.0, [-1.0] + [-2.0] * 19)
    assert sample_confidence(rq, p) == pytest.approx(1.5)

    p = ConfidenceParams(m=20, alpha=1.0, beta=0.0)
    scores = [-float(i) for i in range(1, 21)]
    # scores span [-20, -1]; a gold score of -16.2 min-max normalizes to 0.2
    rq = synthetic_rq(gold_rank=20, gold_score=-16.2, topm_scores=scores)
    assert local_confidence(rq) == pytest.approx(0.2)
    assert sample_confidence(rq, p) == pytest.approx(0.25)

    rq = synthetic_rq(gold_rank=25, gold_score=-50.0, topm_scores=scores)
    assert sample_confidence(rq, ConfidenceParams(m=20, alpha=123.0, beta=0.0)) == pytest.approx(0.04)


def test_truncate_beta_zero_keeps_everything():
    rqs = [synthetic_rq(r, -float(r), [-1.0, -2.0, -3.0]) for r in (1, 2, 3, 50)]
    assert kept(rqs, ConfidenceParams(m=3, alpha=1.0, beta=0.0)) == rqs


def test_truncate_boundary_is_strict():
    # gold outside top-m, rank 20: confidence is exactly 1/20 == 0.05
    rq = synthetic_rq(gold_rank=20, gold_score=-9.0, topm_scores=[-1.0, -2.0, -3.0])
    params = ConfidenceParams(m=3, alpha=1.0, beta=0.05)
    assert sample_confidence(rq, params) == params.beta
    assert not survives_truncation(rq, params)


def consistent_rq(rank):
    """Synthetic query whose gold score agrees with its rank."""
    window = [-1.0, -2.0, -3.0]
    gold_score = window[rank - 1] if rank <= 3 else -3.0 - rank
    return synthetic_rq(rank, gold_score, window)


@settings(max_examples=40, deadline=None)
@given(
    ranks=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=30),
)
def test_truncate_kept_count_monotone_in_beta(ranks):
    rqs = [consistent_rq(r) for r in ranks]
    counts = []
    for beta in (0.0, 0.05, 0.5, 1.0, 2.0):
        params = ConfidenceParams(m=3, alpha=1.0, beta=beta)
        counts.append(len(kept(rqs, params)))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == len(rqs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_confidence_ranges(seed):
    table, kg, _ = random_setup(seed=seed, n_entities=8)
    alpha = 0.7
    params = ConfidenceParams(m=4, alpha=alpha, beta=0.0)
    for fact in np.concatenate([kg.train, kg.valid, kg.test])[:6]:
        for q in queries_for_triple(fact):
            (rq,) = rank_queries(table, kg, [q], m=4)
            g = global_confidence(rq)
            l = local_confidence(rq)
            c = sample_confidence(rq, params)
            assert 0 < g <= 1
            assert 0 <= l <= 1
            assert 0 < c <= 1 + alpha


@st.composite
def multi_answer_case(draw):
    """A graph whose (h, r) and (r, t) keys have several answers spread over the splits."""
    n_e = draw(st.integers(min_value=4, max_value=12))
    n_r = draw(st.integers(min_value=1, max_value=3))
    ent = st.integers(0, n_e - 1)
    rel = st.integers(0, n_r - 1)
    split_of: dict = {}
    # one (h, r) key and one (r, t) key with three or more answers, dealt round-robin to the splits
    hub, hub_rel = draw(ent), draw(rel)
    tails = draw(st.lists(ent, min_size=3, max_size=n_e, unique=True))
    for i, t in enumerate(tails):
        split_of.setdefault((hub, hub_rel, t), i % 3)
    sink, sink_rel = draw(ent), draw(rel)
    heads = draw(st.lists(ent, min_size=3, max_size=n_e, unique=True))
    for i, h in enumerate(heads):
        split_of.setdefault((h, sink_rel, sink), i % 3)
    for fact, split in draw(st.lists(st.tuples(st.tuples(ent, rel, ent), st.integers(0, 2)), max_size=20)):
        split_of.setdefault(fact, split)
    splits = [[f for f, s in split_of.items() if s == k] for k in range(3)]
    kg = build_kg(n_e, n_r, *splits)
    # integer-valued vectors make exact score ties common
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = EmbeddingTable(
        rng.integers(-1, 2, size=(n_e, 2)).astype(float),
        rng.integers(-1, 2, size=(n_r, 2)).astype(float),
        draw(st.sampled_from(["L1", "L2"])),
    )
    return table, kg, draw(st.integers(min_value=1, max_value=n_e))


@settings(max_examples=60, deadline=None)
@given(multi_answer_case())
def test_filtered_ranking_matches_brute_force_on_multi_answer_keys(case):
    table, kg, m = case
    for fact in np.concatenate([kg.train, kg.valid, kg.test]):
        for q in queries_for_triple(fact):
            (rq,) = rank_queries(table, kg, [q], m=m)
            order, topm, gold_rank = brute_force_rank(table, kg, q, m=m)
            assert next(rank_queries(table, kg, [q], m=kg.num_entities)).topm_ids == order
            assert rq.topm_ids == topm
            assert rq.gold_rank == gold_rank


@st.composite
def block_case(draw):
    """A multi-answer graph whose table has duplicated entity rows and rows one
    ulp apart (ties and near-ties inside the first pass's error bound), with m
    up to the entity count and a small block size."""
    table, kg, m = draw(multi_answer_case())
    draw(near_ties(table.entity_vecs))
    m = draw(st.sampled_from([m, kg.num_entities]))
    return table, kg, m, draw(st.integers(min_value=1, max_value=5))


@st.composite
def near_ties(draw, ev):
    """Copy up to three rows of ``ev`` over others, some moved one ulp in one column."""
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, len(ev) - 1)), draw(st.integers(0, len(ev) - 1))
        ev[dst] = ev[src]
        if draw(st.booleans()):
            col = draw(st.integers(0, ev.shape[1] - 1))
            ev[dst, col] = np.nextafter(ev[dst, col], draw(st.sampled_from([-np.inf, np.inf])))


@settings(max_examples=80, deadline=None)
@given(block_case())
def test_rank_queries_equals_rank_query_and_brute_force(case):
    assert_blocks_rank_exactly(*case)


def assert_blocks_rank_exactly(table, kg, m, rows, ranked=None):
    """``rank_queries`` of every query of ``kg``, ``rows`` queries an L2 block,
    on ``ranked`` (``table`` when None) equals the exact ranking and the
    brute-force ranking on ``table``."""
    queries = [q for fact in np.concatenate([kg.train, kg.valid, kg.test]) for q in queries_for_triple(fact)]
    with mock.patch.object(embeddings, "BLOCK_BYTES", rows * 8 * kg.num_entities):
        blocked = list(rank_queries(ranked or table, kg, iter(queries), m))
    assert len(blocked) == len(queries)
    for q, rq in zip(queries, blocked):
        assert rq == exact_ranking(table, kg, q, m)
        order, topm, gold_rank = brute_force_rank(table, kg, q, m=m)
        assert (rq.topm_ids, rq.gold_rank) == (topm, gold_rank)
    return len(queries)


class ReversedProducts(np.ndarray):
    """An entity table whose matrix products sum from the last dimension to the
    first, one product at a time; every other operation is numpy's own."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [x.view(np.ndarray) if isinstance(x, ReversedProducts) else x for x in inputs]
        if ufunc is not np.matmul or method != "__call__" or kwargs:
            return getattr(ufunc, method)(*inputs, **kwargs)
        ReversedProducts.products += 1
        a, b = inputs
        out = a[:, -1:] * b[-1]
        for k in reversed(range(a.shape[1] - 1)):
            out += a[:, k : k + 1] * b[k]
        return out


@st.composite
def float_case(draw, norm, max_dim):
    """A block case whose vectors are random floats of up to ``max_dim``
    dimensions and of one of three scales, so that sums taken in another order
    round differently, with duplicated rows and rows one ulp apart."""
    _, kg, m, rows = draw(block_case())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, max_dim))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    ev = scale * rng.normal(size=(kg.num_entities, dim))
    draw(near_ties(ev))
    table = EmbeddingTable(ev, scale * rng.normal(size=(kg.num_relations, dim)), norm)
    return table, kg, m, rows


def one_ulp_case():
    """Entities 0 and 2, 8-dimensional, one ulp apart in their first column:
    numpy's pairwise sums score the gold 0 one ulp below 2, where a sum in
    sequence ties them."""
    e0, e1, r = (
        [float.fromhex(x) for x in row.split()]
        for row in (
            "-0x1.1d593441629cep-11 -0x1.4baa2d3cb95aap-12 0x1.afa03b1174dcbp-12 0x1.1149e34f41b36p-10 "
            "-0x1.0d8e858f55e3ep-13 0x1.6635cfab33bd7p-10 -0x1.5cc0eaf1dd936p-11 0x1.7095c4158fe69p-12",
            "-0x1.70f5be9529ee1p-11 -0x1.4bb8ff55cf682p-10 -0x1.46c67b76d8620p-11 0x1.5aaadd6927bcap-15 "
            "-0x1.30bf16474e0c8p-9 -0x1.cad6e151bcc48p-13 -0x1.469bab16b66e8p-10 -0x1.7feb42b919059p-11",
            "0x1.d849ab61b2b18p-10 0x1.58bf1ea43acfbp-10 0x1.76bd92d0f1306p-12 -0x1.3cc0e40902b43p-10 "
            "-0x1.2ae96ca0f762fp-18 0x1.582e9303adedap-11 -0x1.51bc7968af400p-10 0x1.9e50c538f98e1p-12",
        )
    )
    ev = np.array([e0, e1, e0])
    ev[2, 0] = np.nextafter(ev[2, 0], -np.inf)
    kg = build_kg(3, 1, train=[(0, 0, 0)], valid=[(0, 0, 1), (1, 0, 0)], test=[(0, 0, 2), (2, 0, 0)])
    return EmbeddingTable(ev, np.array([r]), "L2"), kg, 1, 1


@settings(max_examples=80, deadline=None)
@given(float_case("L2", 8))
@example(one_ulp_case())
def test_rank_queries_is_exact_whatever_order_the_first_pass_sums_in(case):
    # the bound covers the product's sums in any order, so the BLAS thread
    # count, its blocking and its kernels cannot move a ranking
    table, kg, m, rows = case
    reordered = EmbeddingTable(table.entity_vecs.view(ReversedProducts), table.relation_vecs, "L2")
    before = ReversedProducts.products
    queries = assert_blocks_rank_exactly(table, kg, m, rows, reordered)
    assert ReversedProducts.products - before == -(-queries // rows)  # one product a block


@settings(max_examples=80, deadline=None)
@given(float_case("L1", 16))
def test_rank_queries_is_exact_on_l1_near_ties(case):
    # an L1 first pass is exact with a zero bound, and makes no matrix product
    table, kg, m, rows = case
    counted = EmbeddingTable(table.entity_vecs.view(ReversedProducts), table.relation_vecs, "L1")
    before = ReversedProducts.products
    assert_blocks_rank_exactly(table, kg, m, rows, counted)
    assert ReversedProducts.products == before


def test_rank_queries_rescores_only_near_the_cut_and_the_gold():
    # 1 and 2 are one ulp apart, far closer than the first pass can tell apart
    step = np.nextafter(1.0, 2.0)
    vecs = np.array([[0.0, 0.0], [1.0, 0.0], [step, 0.0], [5.0, 5.0], [-4.0, 3.0], [9.0, 9.0]])
    table = EmbeddingTable(vecs, np.array([[1.0, 0.0]]), "L2")
    kg = build_kg(6, 1, train=[])
    q = Query(0, 0, "tail", gold=4)
    rescored = []
    score = table.score_candidates
    with mock.patch.object(table, "score_candidates", lambda *a: rescored.append(a[3]) or score(*a)):
        (rq,) = rank_queries(table, kg, [q], m=1)
    assert rq == exact_ranking(table, kg, q, m=1)
    assert rq.topm_ids == [1]
    assert [ids.tolist() for ids in rescored] == [[1, 2, 4]]


def counting_scores(table, scored):
    """Patch ``table.score_candidates`` to append each call's ``entities`` to ``scored``."""
    score = table.score_candidates

    def counted(known, relation, direction, entities=None):
        scored.append(entities)
        return score(known, relation, direction, entities)

    return mock.patch.object(table, "score_candidates", counted)


@pytest.mark.parametrize("m", [1, 4, 10])
def test_rank_queries_ranks_l1_queries_on_exact_distances(m):
    l2, kg, _ = random_setup(seed=5)
    table = EmbeddingTable(l2.entity_vecs.view(ReversedProducts), l2.relation_vecs, "L1")
    queries = [q for fact in np.concatenate([kg.train, kg.valid, kg.test]) for q in queries_for_triple(fact)]
    scored = []
    before = ReversedProducts.products
    with counting_scores(table, scored):
        ranked = list(rank_queries(table, kg, queries, m))
    assert ReversedProducts.products == before  # no matrix product
    # the first pass scores each query in full once, then its band on ids. At
    # m = 10, the number of entities, every band holds them all, the filtered
    # ones too where there are some; at m = 1 and 4 no band is full width
    past = sum(m > kg.num_entities - len(filtered_out(kg, q)) for q in queries)
    assert 0 < past < len(queries) if m == 10 else past == 0
    assert len(scored) == 2 * len(queries)
    assert all(entities is None for entities in scored[::2])
    full = [len(ids) == kg.num_entities for ids in scored[1::2]]
    assert full == [m == 10] * len(queries)
    for q, rq in zip(queries, ranked):
        order, topm, gold_rank = brute_force_rank(table, kg, q, m=m)
        assert (rq.topm_ids, rq.gold_rank) == (topm, gold_rank)


@pytest.mark.parametrize("norm, taken_first", [("L1", 1), ("L2", 3)])
def test_the_first_ranking_waits_for_one_first_pass_row_or_block(norm, taken_first):
    # a stream of queries is ranked as it comes: an L1 table computes one
    # row, an L2 table one block of (here) 3 rows with one product
    l2, kg, _ = random_setup(seed=3)
    table = EmbeddingTable(l2.entity_vecs.view(ReversedProducts), l2.relation_vecs, norm)
    queries = [q for fact in np.concatenate([kg.train, kg.valid, kg.test]) for q in queries_for_triple(fact)]
    taken, scored = [], []

    def stream():
        for q in queries:
            taken.append(q)
            yield q

    before = ReversedProducts.products
    with mock.patch.object(embeddings, "BLOCK_BYTES", 3 * 8 * kg.num_entities), counting_scores(table, scored):
        first = next(rank_queries(table, kg, stream(), m=2))
    assert first == exact_ranking(table, kg, queries[0], m=2)
    assert len(taken) == taken_first
    full_rows = sum(entities is None for entities in scored)
    assert (full_rows, ReversedProducts.products - before) == ((1, 0) if norm == "L1" else (0, 1))


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_rank_queries_runs_rank_query_once_per_query_in_order(norm, monkeypatch):
    # tail and head queries alternate, over several 3-row L2 blocks
    l2, kg, _ = random_setup(seed=6)
    table = EmbeddingTable(l2.entity_vecs, l2.relation_vecs, norm)
    queries = [q for fact in np.concatenate([kg.train, kg.valid, kg.test]) for q in queries_for_triple(fact)]
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 3 * 8 * kg.num_entities)
    ranked, step = [], ranking.rank_query
    monkeypatch.setattr(ranking, "rank_query", lambda table, kg, q, *row: ranked.append(q) or step(table, kg, q, *row))
    assert list(rank_queries(table, kg, iter(queries), m=4)) == [exact_ranking(table, kg, q, 4) for q in queries]
    assert ranked == queries


def test_a_query_needs_its_gold():
    with pytest.raises(TypeError):
        Query(0, 0, "tail")


def test_an_l1_first_pass_row_is_the_exact_distance_with_bound_0():
    l2, _, _ = random_setup(seed=2)
    table = EmbeddingTable(l2.entity_vecs, l2.relation_vecs, "L1")
    keys = [(0, 0, "tail"), (3, 1, "head"), (0, 0, "tail"), (9, 1, "tail")]
    rows = list(table.first_pass(iter(keys)))
    assert len(rows) == len(keys)
    for (known, relation, direction), (d, bound) in zip(keys, rows):
        assert bound == 0
        assert d.tobytes() == (-table.score_candidates(known, relation, direction)).tobytes()


def overflowing_table(kg, norm, scale):
    """A table of finite N(0, 1) times ``scale`` vectors, in 4 dimensions,
    whose first-pass values overflow: at 1e160 every L2 bound is inf, and at
    3e307 some L1 golds' distances are inf while the m-th is finite."""
    rng = np.random.default_rng(0)
    ev, rv = (scale * rng.normal(size=(n, 4)) for n in (kg.num_entities, kg.num_relations))
    return EmbeddingTable(ev, rv, norm)


@pytest.mark.parametrize("norm, scale", [("L2", 1e160), ("L1", 3e307)])
def test_a_table_whose_first_pass_overflows_is_refused(toy_kg, tmp_path, norm, scale):
    table, kg, m = overflowing_table(toy_kg, norm, scale), toy_kg, 5
    queries = [q for fact in np.concatenate([kg.train, kg.valid, kg.test]) for q in queries_for_triple(fact)]
    finite = []  # whether t, delta and d_g are, per query
    with np.errstate(over="ignore", invalid="ignore"):
        for q, (d, delta) in zip(queries, table.first_pass((q.known, q.relation, q.direction) for q in queries)):
            d[filtered_out(kg, q)] = np.inf
            t, dg = np.partition(d, m - 1)[m - 1], d[q.gold]
            finite.append((np.isfinite(t), np.isfinite(delta), np.isfinite(dg)))
        if norm == "L2":
            assert not any(finite_delta for _, finite_delta, _ in finite)
        else:
            assert any(finite_t and not finite_dg for finite_t, _, finite_dg in finite)
        with pytest.raises(ValueError, match="the table is unrankable"):
            list(rank_queries(table, kg, queries, m))
    path = str(tmp_path / "overflowing.ckpt")
    table.save(path)
    with pytest.raises(DataError, match=f"^{re.escape(path)}: not rankable"):
        EmbeddingTable.load(path)


def limit_tables(kg, norm):
    """Two N(0, 1) tables scaled by adjacent floats: the one at the rule's
    limit, which ``rankable`` accepts, and the one just past it."""
    rng = np.random.default_rng(1)
    ev, rv = rng.normal(size=(kg.num_entities, 4)), rng.normal(size=(kg.num_relations, 4))
    # 4 (2 a + b)^2 < M / 4, with a = max |e| and b = max |r|
    limit = math.sqrt(np.finfo(np.float64).max / 16) / (2 * np.abs(ev).max() + np.abs(rv).max())
    below, above = limit / 2, limit * 2
    while np.nextafter(below, np.inf) < above:
        middle = below + (above - below) / 2
        if EmbeddingTable(middle * ev, middle * rv, norm).rankable():
            below = middle
        else:
            above = middle
    return (EmbeddingTable(s * ev, s * rv, norm) for s in (below, np.nextafter(below, np.inf)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("norm", ["L2", "L1"])
def test_a_table_at_the_rules_limit_ranks_exactly_and_one_past_it_is_refused(toy_kg, tmp_path, norm):
    kg, m = toy_kg, 5
    at, past = limit_tables(kg, norm)
    assert at.rankable() and not past.rankable()
    a, b = np.abs(at.entity_vecs).max(), np.abs(at.relation_vecs).max()
    assert 4 * (2 * a + b) ** 2 == pytest.approx(np.finfo(np.float64).max / 4, rel=1e-12)
    queries = [q for fact in np.concatenate([kg.train, kg.valid, kg.test]) for q in queries_for_triple(fact)]
    for q, rq in zip(queries, rank_queries(at, kg, queries, m)):
        assert rq == exact_ranking(at, kg, q, m)
        order, topm, gold_rank = brute_force_rank(at, kg, q, m=m)
        assert (rq.topm_ids, rq.gold_rank) == (topm, gold_rank)
    for table, path in ((at, tmp_path / "at.ckpt"), (past, tmp_path / "past.ckpt")):
        table.save(str(path))
    loaded = EmbeddingTable.load(str(tmp_path / "at.ckpt"))
    assert loaded.entity_vecs.tobytes() == at.entity_vecs.tobytes()
    assert loaded.relation_vecs.tobytes() == at.relation_vecs.tobytes()
    with pytest.raises(DataError, match="past.ckpt: not rankable"):
        EmbeddingTable.load(str(tmp_path / "past.ckpt"))
    # an epoch-free run returns its initial table: the one at the limit, or a refusal
    config = TrainConfig(dim=4, epochs=0, norm=norm)
    with mock.patch.object(embeddings, "init_embeddings", lambda kg, config: at):
        assert train(kg, config) is at
    with mock.patch.object(embeddings, "init_embeddings", lambda kg, config: past):
        with pytest.raises(TrainingDiverged, match="or scores that overflow"):
            train(kg, config)
