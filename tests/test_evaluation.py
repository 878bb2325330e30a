import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_rank, build_kg, rerank
from kgrerank.discriminator import (
    ABSTAIN,
    FirstCandidateBackend,
    OracleBackend,
    ScriptedBackend,
    Selection,
)
from kgrerank.evaluation import (
    EvalOptions,
    base_model_metrics,
    evaluate,
    metrics,
)
from kgrerank.embeddings import EmbeddingTable
from kgrerank.instructions import BuildOptions, build_sample, numbered_queries
from kgrerank.ranking import ConfidenceParams, rank_query

PARAMS = ConfidenceParams(m=5, alpha=1.0, beta=0.05)


def test_rerank_moves_selection_to_front():
    ranking = np.array([10, 11, 12, 13])
    out = rerank(ranking, Selection(0), candidate_ids=[12])
    assert out.tolist() == [12, 10, 11, 13]


def test_rerank_selecting_leader_is_identity():
    ranking = np.array([10, 11, 12, 13])
    out = rerank(ranking, Selection(0), candidate_ids=[10, 11])
    assert out.tolist() == [10, 11, 12, 13]


def test_rerank_abstain_is_identity():
    ranking = np.array([3, 1, 2])
    out = rerank(ranking, ABSTAIN, candidate_ids=[1])
    assert out.tolist() == [3, 1, 2]
    out[0] = 99  # returned array is a copy
    assert ranking[0] == 3


def test_rerank_bad_index_rejected():
    with pytest.raises(ValueError):
        rerank(np.array([1, 2]), Selection(5), candidate_ids=[1])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    pick=st.integers(min_value=0, max_value=29),
    seed=st.integers(min_value=0, max_value=999),
)
def test_rerank_is_permutation_with_bounded_shift(n, pick, seed):
    pick %= n
    rng = np.random.default_rng(seed)
    ranking = rng.permutation(n) + 100
    selected = int(ranking[pick])
    out = rerank(ranking, Selection(0), candidate_ids=[selected])
    assert sorted(out.tolist()) == sorted(ranking.tolist())
    assert out[0] == selected
    # every non-selected entity moves by at most one position
    for ent in ranking:
        if ent == selected:
            continue
        before = int(np.nonzero(ranking == ent)[0][0])
        after = int(np.nonzero(out == ent)[0][0])
        assert abs(after - before) <= 1


def test_metrics_examples():
    dm = metrics([1, 2, 4])
    assert dm.mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert dm.hits1 == pytest.approx(1 / 3)
    assert dm.hits3 == pytest.approx(2 / 3)
    assert dm.hits10 == 1.0

    perfect = metrics([1, 1, 1])
    assert (perfect.mrr, perfect.hits1, perfect.hits3, perfect.hits10) == (1, 1, 1, 1)

    single = metrics([10])
    assert single.mrr == pytest.approx(0.1)
    assert single.hits3 == 0.0
    assert single.hits10 == 1.0


def test_metrics_reject_empty_and_bad_ranks():
    with pytest.raises(ValueError):
        metrics([])
    with pytest.raises(ValueError):
        metrics([0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40))
def test_metrics_are_ordered_and_bounded(ranks):
    dm = metrics(ranks)
    assert 0 <= dm.hits1 <= dm.hits3 <= dm.hits10 <= 1
    assert 0 < dm.mrr <= 1


def test_first_candidate_report_equals_base_metrics(toy_kg, toy_table):
    report = evaluate(toy_kg, toy_table, FirstCandidateBackend(), PARAMS)
    base = base_model_metrics(toy_kg, toy_table, m=PARAMS.m)
    for got, expected in (
        (report.combined, base["combined"]),
        (report.head, base["head"]),
        (report.tail, base["tail"]),
    ):
        for attr in ("mrr", "hits1", "hits3", "hits10"):
            assert abs(getattr(got, attr) - getattr(expected, attr)) <= 1e-12
    assert report.combined == report.base_combined
    assert report.abstentions == 0


def test_oracle_hits1_equals_candidate_recall(toy_kg, toy_table):
    report = evaluate(toy_kg, toy_table, OracleBackend(), PARAMS)
    assert report.combined.hits1 == report.gold_in_topm / report.queries


def test_oracle_never_hurts_hits10(toy_kg, toy_table):
    oracle = evaluate(toy_kg, toy_table, OracleBackend(), PARAMS)
    first = evaluate(toy_kg, toy_table, FirstCandidateBackend(), PARAMS)
    assert oracle.combined.hits10 >= first.combined.hits10


def test_all_abstaining_backend_matches_base(toy_kg, toy_table):
    report = evaluate(toy_kg, toy_table, ScriptedBackend({}), PARAMS)
    assert report.abstentions == report.queries
    assert report.combined == report.base_combined


def test_limit_triples(toy_kg, toy_table):
    report = evaluate(
        toy_kg, toy_table, OracleBackend(), PARAMS, EvalOptions(limit_triples=3)
    )
    assert report.queries == 6


def test_threading_does_not_change_report(toy_kg, toy_table):
    sequential = evaluate(toy_kg, toy_table, OracleBackend(), PARAMS, EvalOptions(threads=1))
    threaded = evaluate(toy_kg, toy_table, OracleBackend(), PARAMS, EvalOptions(threads=4))
    assert sequential.as_dict() == threaded.as_dict()


def test_in_flight_cap_bounds_concurrency(toy_kg, toy_table):
    import threading
    import time as time_mod
    from dataclasses import dataclass

    @dataclass
    class _Cfg:
        in_flight: int = 2

    class CountingBackend:
        name = "counting"

        def __init__(self):
            self.config = _Cfg()
            self._lock = threading.Lock()
            self._active = 0
            self.peak = 0

        def select(self, sample):
            with self._lock:
                self._active += 1
                self.peak = max(self.peak, self._active)
            time_mod.sleep(0.002)
            with self._lock:
                self._active -= 1
            return ABSTAIN

    backend = CountingBackend()
    evaluate(toy_kg, toy_table, backend, PARAMS, EvalOptions(threads=8))
    assert backend.peak <= 2


def test_audit_file_rows(tmp_path, toy_kg, toy_table):
    audit = str(tmp_path / "audit.jsonl")
    report = evaluate(
        toy_kg, toy_table, OracleBackend(), PARAMS, EvalOptions(audit_path=audit)
    )
    rows = [json.loads(line) for line in open(audit, encoding="utf-8")]
    assert len(rows) == report.queries
    for row in rows:
        assert set(row) == {
            "id",
            "direction",
            "known",
            "relation",
            "gold",
            "base_rank",
            "selection",
            "selected_id",
            "final_rank",
            "name_collision",
        }
        if row["selection"] is None:
            assert row["final_rank"] == row["base_rank"]
        else:
            assert row["final_rank"] == 1  # oracle only ever promotes the gold


def test_report_dict_and_table(toy_kg, toy_table):
    report = evaluate(toy_kg, toy_table, OracleBackend(), PARAMS)
    payload = report.as_dict()
    assert payload["backend"] == "oracle"
    assert payload["m"] == PARAMS.m
    assert 0 <= payload["combined"]["hits1"] <= payload["combined"]["hits3"] <= payload["combined"]["hits10"] <= 1
    text = report.format_table()
    assert "MRR" in text and "combined" in text


def test_evaluate_requires_test_triples(toy_table):
    from helpers import build_kg

    kg = build_kg(4, 1, train=[(0, 0, 1)])
    with pytest.raises(ValueError):
        evaluate(kg, toy_table, OracleBackend(), PARAMS)


@st.composite
def rerank_case(draw):
    """A small graph with a non-empty test split and integer vectors, so scores tie often."""
    n_e = draw(st.integers(min_value=2, max_value=12))
    n_r = draw(st.integers(min_value=1, max_value=3))
    fact = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    facts = draw(st.lists(fact, min_size=1, max_size=30, unique=True))
    splits = [draw(st.integers(0, 2)) for _ in facts[1:]] + [2]
    kg = build_kg(n_e, n_r, *[[f for f, k in zip(facts, splits) if k == s] for s in range(3)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = EmbeddingTable(
        rng.integers(-1, 2, size=(n_e, 2)).astype(float),
        rng.integers(-1, 2, size=(n_r, 2)).astype(float),
        draw(st.sampled_from(["L1", "L2"])),
    )
    m = draw(st.integers(min_value=1, max_value=n_e))
    options = BuildOptions(shuffle_candidates=draw(st.booleans()), shuffle_seed=draw(st.integers(0, 9)))
    return kg, table, m, options


@settings(max_examples=80, deadline=None)
@given(
    case=rerank_case(),
    backend=st.sampled_from([OracleBackend(), FirstCandidateBackend(), ScriptedBackend({})]),
)
def test_rank_arithmetic_equals_permutation_then_rerank(case, backend):
    kg, table, m, options = case
    params = ConfidenceParams(m=m, alpha=1.0, beta=0.05)
    with tempfile.TemporaryDirectory() as tmp:
        audit = os.path.join(tmp, "audit.jsonl")
        evaluate(kg, table, backend, params, EvalOptions(audit_path=audit), options)
        rows = [json.loads(line) for line in open(audit, encoding="utf-8")]
    queries = list(numbered_queries(enumerate(kg.test), "test"))
    assert len(rows) == len(queries)
    for row, (sample_id, query_index, q) in zip(rows, queries):
        order, topm, _ = brute_force_rank(table, kg, q, m)
        rq = rank_query(table, kg, q, m)
        assert rq.topm_ids == topm
        sample, _ = build_sample(kg, table, rq, options, sample_id, query_index)
        moved = rerank(np.array(order), backend.select(sample), sample.candidate_ids).tolist()
        assert row["id"] == sample_id
        assert row["base_rank"] == order.index(q.gold) + 1
        assert row["final_rank"] == moved.index(q.gold) + 1


def test_out_of_range_selection_is_rejected(toy_kg, toy_table):
    class OutOfRange:
        name = "out-of-range"

        def select(self, sample):
            return Selection(len(sample.candidate_ids))

    with pytest.raises(ValueError, match="out of range"):
        evaluate(toy_kg, toy_table, OutOfRange(), PARAMS)
