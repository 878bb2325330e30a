import dataclasses
import json
import os
import tempfile
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import base_model_metrics, brute_force_rank, build_kg, eval_samples, read_lines, rerank
from kgrerank.discriminator import (
    BackendError,
    FirstCandidateBackend,
    OracleBackend,
    ScriptedBackend,
)
from kgrerank import evaluation
from kgrerank.evaluation import evaluate, format_table
from kgrerank.embeddings import EmbeddingTable
from kgrerank.instructions import BuildOptions, InstructionSample, write_json
from kgrerank.kg import DataError
from kgrerank.ranking import ConfidenceParams, Query, metrics, queries_for_triple

PARAMS = ConfidenceParams(m=5, alpha=1.0, beta=0.05)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_report")


@pytest.fixture(scope="module")
def toy_set(toy_kg, toy_table):
    """(samples, report header) of the toy graph's eval set."""
    return eval_samples(toy_kg, toy_table, PARAMS)


def test_rerank_moves_selection_to_front():
    ranking = np.array([10, 11, 12, 13])
    out = rerank(ranking, 0, candidate_ids=[12])
    assert out.tolist() == [12, 10, 11, 13]


def test_rerank_selecting_leader_is_identity():
    ranking = np.array([10, 11, 12, 13])
    out = rerank(ranking, 0, candidate_ids=[10, 11])
    assert out.tolist() == [10, 11, 12, 13]


def test_rerank_abstain_is_identity():
    ranking = np.array([3, 1, 2])
    out = rerank(ranking, None, candidate_ids=[1])
    assert out.tolist() == [3, 1, 2]
    out[0] = 99  # returned array is a copy
    assert ranking[0] == 3


def test_rerank_bad_index_rejected():
    with pytest.raises(ValueError):
        rerank(np.array([1, 2]), 5, candidate_ids=[1])


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
    out = rerank(ranking, 0, candidate_ids=[selected])
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
    assert dm["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert dm["hits1"] == pytest.approx(1 / 3)
    assert dm["hits3"] == pytest.approx(2 / 3)
    assert dm["hits10"] == 1.0

    perfect = metrics([1, 1, 1])
    assert (perfect["mrr"], perfect["hits1"], perfect["hits3"], perfect["hits10"]) == (1, 1, 1, 1)

    single = metrics([10])
    assert single["mrr"] == pytest.approx(0.1)
    assert single["hits3"] == 0.0
    assert single["hits10"] == 1.0


def test_metrics_reject_empty_and_bad_ranks():
    with pytest.raises(ValueError):
        metrics([])
    with pytest.raises(ValueError):
        metrics([0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40))
def test_metrics_are_ordered_and_bounded(ranks):
    dm = metrics(ranks)
    assert 0 <= dm["hits1"] <= dm["hits3"] <= dm["hits10"] <= 1
    assert 0 < dm["mrr"] <= 1


def test_first_candidate_report_equals_base_metrics(toy_kg, toy_table, toy_set):
    report = evaluate(*toy_set, FirstCandidateBackend())
    base = base_model_metrics(toy_kg, toy_table, m=PARAMS.m)
    for got, expected in (
        (report["combined"], base["combined"]),
        (report["head"], base["head"]),
        (report["tail"], base["tail"]),
    ):
        for attr in ("mrr", "hits1", "hits3", "hits10"):
            assert abs(got[attr] - expected[attr]) <= 1e-12
    assert report["combined"] == report["base"]["combined"]
    assert report["abstentions"] == 0


def test_oracle_hits1_equals_candidate_recall(toy_set):
    report = evaluate(*toy_set, OracleBackend())
    assert report["combined"]["hits1"] == report["gold_in_topm"] / report["queries"]


def test_oracle_never_hurts_hits10(toy_set):
    oracle = evaluate(*toy_set, OracleBackend())
    first = evaluate(*toy_set, FirstCandidateBackend())
    assert oracle["combined"]["hits10"] >= first["combined"]["hits10"]


def test_all_abstaining_backend_matches_base(toy_set):
    report = evaluate(*toy_set, ScriptedBackend({}))
    assert report["abstentions"] == report["queries"]
    assert report["combined"] == report["base"]["combined"]


def test_limit_triples(tmp_path, toy_set):
    paths = {n: str(tmp_path / f"{n}.jsonl") for n in ("full", "limited")}
    evaluate(*toy_set, OracleBackend(), audit_path=paths["full"])
    report = evaluate(*toy_set, OracleBackend(), limit_triples=3, audit_path=paths["limited"])
    assert report["queries"] == 6
    full = read_lines(paths["full"])
    limited = read_lines(paths["limited"])
    assert limited == full[:6]
    assert [json.loads(row)["id"] for row in limited] == [
        f"test-{i}-{d}" for i in range(3) for d in ("tail", "head")
    ]


def test_threading_does_not_change_report(toy_set):
    sequential = evaluate(*toy_set, OracleBackend(), threads=1)
    threaded = evaluate(*toy_set, OracleBackend(), threads=4)
    assert sequential == threaded


def test_audit_file_rows(tmp_path, toy_set):
    audit = str(tmp_path / "audit.jsonl")
    report = evaluate(*toy_set, OracleBackend(), audit_path=audit)
    rows = [json.loads(line) for line in read_lines(audit)]
    assert len(rows) == report["queries"]
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


def test_report_dict_and_table(toy_set):
    report = evaluate(*toy_set, OracleBackend())
    assert report["backend"] == "oracle"
    assert report["m"] == PARAMS.m
    assert 0 <= report["combined"]["hits1"] <= report["combined"]["hits3"] <= report["combined"]["hits10"] <= 1
    text = format_table(report)
    assert "MRR" in text and "combined" in text


def test_evaluate_requires_test_triples(toy_table):
    kg = build_kg(4, 1, train=[(0, 0, 1)])
    with pytest.raises(DataError, match="non-empty test split"):
        evaluate(*eval_samples(kg, toy_table, ConfidenceParams(m=3)), OracleBackend())


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
    options = BuildOptions(shuffle_candidates=draw(st.booleans()), seed=draw(st.integers(0, 9)))
    return kg, table, m, options


@settings(max_examples=80, deadline=None)
@given(
    case=rerank_case(),
    backend=st.sampled_from([OracleBackend(), FirstCandidateBackend(), ScriptedBackend({})]),
)
def test_rank_arithmetic_equals_permutation_then_rerank(case, backend):
    kg, table, m, options = case
    samples, header = eval_samples(kg, table, ConfidenceParams(m=m, alpha=1.0, beta=0.05), options)
    with tempfile.TemporaryDirectory() as tmp:
        audit = os.path.join(tmp, "audit.jsonl")
        evaluate(samples, header, backend, audit_path=audit)
        rows = [json.loads(line) for line in read_lines(audit)]
    assert len(rows) == len(samples) == 2 * len(kg.test)
    for i, (row, sample) in enumerate(zip(rows, samples)):
        q = Query(sample.known, sample.relation, sample.direction, sample.gold_id)
        assert q == queries_for_triple(kg.test[i // 2])[i % 2]
        order, topm, _ = brute_force_rank(table, kg, q, m)
        assert sorted(sample.candidate_ranks) == list(range(1, m + 1))
        assert [topm[rank - 1] for rank in sample.candidate_ranks] == sample.candidate_ids
        moved = rerank(np.array(order), backend.select(sample), sample.candidate_ids).tolist()
        assert row["id"] == sample.id == f"test-{i // 2}-{q.direction}"
        assert row["base_rank"] == order.index(q.gold) + 1
        assert row["final_rank"] == moved.index(q.gold) + 1


def test_shuffled_oracle_report_equals_unshuffled(toy_kg, toy_table, toy_set):
    shuffled = eval_samples(toy_kg, toy_table, PARAMS, BuildOptions(shuffle_candidates=True, seed=3))
    assert [s.candidate_ids for s in shuffled[0]] != [s.candidate_ids for s in toy_set[0]]
    report = evaluate(*shuffled, OracleBackend())
    assert report == evaluate(*toy_set, OracleBackend())
    assert report["combined"]["hits1"] == report["gold_in_topm"] / report["queries"]


def test_a_backend_error_ends_evaluation_and_drops_queued_queries(toy_set):
    import threading
    import time as time_mod

    class FailsFirst:
        name = "fails-first"

        def __init__(self):
            self._lock = threading.Lock()
            self.calls = 0

        def select(self, sample):
            with self._lock:
                self.calls += 1
            if sample.id == "test-0-tail":
                raise BackendError("request failed after 1 attempt(s)")
            time_mod.sleep(0.05)
            return None

    backend = FailsFirst()
    with pytest.raises(BackendError):
        evaluate(*toy_set, backend, threads=2)
    assert backend.calls < len(toy_set[0]) // 2  # the queued queries were cancelled, not sent


@pytest.mark.parametrize("threads", [1, 3])
def test_evaluate_holds_a_bounded_window_of_samples(toy_set, monkeypatch, threads):
    samples, header = toy_set
    window = evaluation.WINDOW * threads
    folded = []  # one entry per answer folded into the report
    moved_rank = evaluation.moved_rank
    monkeypatch.setattr(evaluation, "moved_rank", lambda *args: folded.append(1) or moved_rank(*args))
    drawn = []  # a weak reference to each sample drawn, in order
    ahead = []  # at each draw, the samples drawn and not yet folded, this one included

    def stream():
        for s in samples * 4:
            # every folded sample is freed while the run goes on, at the latest
            # once the worker that answered it lets go of it
            deadline = time.monotonic() + 5
            while any(ref() is not None for ref in drawn[: len(folded)]) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert all(ref() is None for ref in drawn[: len(folded)])
            sample = dataclasses.replace(s)  # held by evaluate alone
            drawn.append(weakref.ref(sample))
            ahead.append(len(drawn) - len(folded))
            yield sample
            del sample

    report = evaluate(stream(), header, OracleBackend(), threads=threads)
    assert len(drawn) == len(folded) == 4 * len(samples) > window
    assert max(ahead) == window  # the window is filled, never passed
    assert report == evaluate(samples * 4, header, OracleBackend())


def test_out_of_range_selection_is_rejected(toy_set):
    class OutOfRange:
        name = "out-of-range"

        def select(self, sample):
            return len(sample.candidate_ids)

    with pytest.raises(ValueError, match="out of range"):
        evaluate(*toy_set, OutOfRange())


def golden_eval_set():
    """(samples, report header) of six hand-made samples, m = 4: three test triples,
    both directions. Candidate names repeat, so a pick can be a non-gold
    candidate that bears the gold's name, and one gold lies outside the top-m."""

    def sample(i, direction, gold_id, gold_name, gold_rank, candidates):
        ids, names, ranks = (list(column) for column in zip(*candidates))
        return InstructionSample(
            id=f"test-{i}-{direction}",
            direction=direction,
            known=10 + i,
            relation=i % 2,
            prompt=f"prompt {i} {direction}",
            gold_name=gold_name,
            gold_id=gold_id,
            candidate_ids=ids,
            candidate_names=names,
            candidate_ranks=ranks,
            gold_rank=gold_rank,
        )

    french = [(5, "paris", 4), (1, "nice", 1), (3, "lyon", 2), (8, "paris", 3)]
    italian = [(7, "rome", 1), (2, "milan", 2), (9, "turin", 3), (4, "pisa", 4)]
    springfield = [(11, "shelbyville", 1), (12, "springfield", 2), (13, "ogdenville", 3), (14, "capital city", 4)]
    samples = [
        sample(0, "tail", 3, "lyon", 2, french),
        sample(0, "head", 8, "paris", 3, french),
        sample(1, "tail", 7, "rome", 1, italian),
        sample(1, "head", 2, "milan", 2, italian),
        sample(2, "tail", 6, "springfield", 12, springfield),
        sample(2, "head", 13, "ogdenville", 3, springfield),
    ]
    return samples, {"m": 4, "alpha": 1.0, "beta": 0.05, "gamma": 2}


GOLDEN_OUTPUTS = {
    "test-0-tail": "Lyon",  # the gold: to the top
    "test-0-head": "Paris",  # the first "paris" is not the gold, which slips one place
    "test-1-head": "I do not know",  # no candidate matches: abstain
    "test-2-tail": "the answer is Springfield",  # a namesake of the gold outside the top-m
    "test-2-head": "Capital City",  # ranked below the gold, which slips one place
}  # test-1-tail has no output: abstain


@pytest.mark.parametrize("threads", [1, 3])
def test_golden_report_bytes(tmp_path, threads):
    """report.json, report.txt and audit.jsonl of a scripted run that picks,
    abstains and collides, byte for byte. The metrics come from integer ranks,
    so the bytes do not depend on the BLAS."""
    audit = tmp_path / "audit.jsonl"
    report = evaluate(
        *golden_eval_set(), ScriptedBackend(GOLDEN_OUTPUTS), audit_path=str(audit), threads=threads
    )
    write_json(str(tmp_path / "report.json"), report)
    (tmp_path / "report.txt").write_text(format_table(report) + "\n", encoding="utf-8")
    for name in ("report.json", "report.txt", "audit.jsonl"):
        with open(os.path.join(GOLDEN_DIR, name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read(), name
    rows = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert [row["name_collision"] for row in rows] == [False, True, False, False, True, False]
