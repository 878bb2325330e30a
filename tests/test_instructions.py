import hashlib
import json
import logging
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_cooc,
    build_kg,
    neighbors,
    parse_candidate_names,
    read_bytes,
    read_records,
    read_text,
    write_eval_set,
    write_finetune_set,
)
from kgrerank.adapter import attach_knowledge, init_adapter, project
from kgrerank.cli import main
from kgrerank.embeddings import EmbeddingTable
from kgrerank.instructions import (
    DESCRIPTION_PREFIX,
    NEIGHBORS_HEADER,
    TEMPLATE_VERSION,
    BuildOptions,
    InstructionSample,
    build_sample,
    build_set,
    iter_samples,
    query_text_for,
    rc_sample_neighbors,
    render_fact,
    render_prompt,
)
from kgrerank.kg import KnowledgeGraph, Triple, load_kg
from kgrerank.ranking import ConfidenceParams, Query, rank_queries

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_prompt.txt")

# e1=0 .. e7=6; r1=0, r2=1, r3=2 (shared-entity counts: r1&r2 -> 2, r1&r3 -> 1)
COOC_KG = build_kg(7, 3, train=[(0, 0, 1), (0, 1, 2), (3, 0, 4), (3, 1, 5), (0, 2, 6)])


def film_kg():
    return KnowledgeGraph(
        entity_names=[
            "Titanic",
            "English Language",
            "United States of America",
            "James Cameron",
            "French Language",
            "Leonardo DiCaprio",
        ],
        entity_descriptions=[
            "a 1997 American epic romantic disaster film directed by James Cameron",
            "a West Germanic language",
            "a country primarily located in North America",
            "a Canadian filmmaker",
            "a Romance language",
            "an American actor",
        ],
        relation_names=["film language", "film country", "directed by", "featured actor"],
        train=[Triple(0, 1, 2), Triple(0, 2, 3), Triple(0, 3, 5)],
        valid=[],
        test=[Triple(0, 0, 1)],
    )


def film_prompt(**overrides):
    kg = film_kg()
    q = Query(known=0, relation=0, direction="tail", gold=1)
    parts = dict(
        query_text=query_text_for(kg, q),
        description_text=kg.entity_descriptions[0],
        neighbor_texts=[
            render_fact(kg, f) for f in rc_sample_neighbors(kg, q, gamma=2)
        ],
        candidate_names=["English Language", "French Language", "United States of America"],
    )
    parts.update(overrides)
    return render_prompt(**parts)


def neighbor_lines(prompt):
    """The fact lines of a prompt's neighbor block, none when it has no such block."""
    for block in prompt.split("\n\n"):
        if block.startswith(NEIGHBORS_HEADER + "\n"):
            return block.split("\n")[1:]
    return []


def test_rc_sampling_orders_by_cooccurrence():
    q = Query(known=0, relation=0, direction="tail", gold=1)
    facts = rc_sample_neighbors(COOC_KG, q, gamma=10)
    assert facts == [Triple(0, 1, 2), Triple(0, 2, 6)]
    assert rc_sample_neighbors(COOC_KG, q, gamma=1) == [Triple(0, 1, 2)]
    assert rc_sample_neighbors(COOC_KG, q, gamma=0) == []


def test_rc_sampling_never_returns_gold_fact():
    q = Query(known=0, relation=0, direction="tail", gold=1)
    facts = rc_sample_neighbors(COOC_KG, q, gamma=10)
    assert Triple(0, 0, 1) not in facts


@st.composite
def kg_and_query(draw):
    n_e = draw(st.integers(min_value=3, max_value=12))
    n_r = draw(st.integers(min_value=1, max_value=4))
    facts = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1)
            ).filter(lambda f: f[0] != f[2]),
            min_size=1,
            max_size=25,
            unique=True,
        )
    )
    kg = build_kg(n_e, n_r, train=facts)
    h, r, t = facts[draw(st.integers(0, len(facts) - 1))]
    direction = draw(st.sampled_from(["tail", "head"]))
    if direction == "tail":
        q = Query(known=h, relation=r, direction="tail", gold=t)
    else:
        q = Query(known=t, relation=r, direction="head", gold=h)
    gamma = draw(st.integers(min_value=0, max_value=6))
    return kg, q, gamma


# five of entity 0's relation-0 facts, not in id order in the file, tie on
# (co-occurrence, relation) past gamma = 2: file order alone picks the two kept
TIED_POOL = build_kg(8, 2, train=[(0, 0, 5), (0, 1, 6), (0, 0, 3), (7, 0, 0), (0, 0, 4), (0, 0, 2), (0, 0, 1)])


@settings(max_examples=60, deadline=None)
@given(kg_and_query())
@example((TIED_POOL, Query(known=0, relation=0, direction="tail", gold=3), 2))
@example((TIED_POOL, Query(known=0, relation=0, direction="head", gold=7), 2))
def test_rc_sampling_matches_independent_ordering(case):
    kg, q, gamma = case
    cooc = brute_force_cooc(kg)
    pool = [
        (pos, f)
        for pos, f in enumerate(neighbors(kg, q.known))
        if f != q.completed(q.gold)
    ]
    expected = [
        f
        for _, f in sorted(
            pool, key=lambda item: (-cooc[item[1].relation][q.relation], item[1].relation, item[0])
        )
    ][:gamma]
    assert rc_sample_neighbors(kg, q, gamma) == expected


@settings(max_examples=40, deadline=None)
@given(kg_and_query(), st.booleans(), st.integers(min_value=0, max_value=99))
def test_neighbor_sampling_is_subset_without_gold(case, rc_on, seed):
    kg, q, gamma = case
    rng = np.random.default_rng(3)
    table = EmbeddingTable(
        rng.normal(size=(kg.num_entities, 4)), rng.normal(size=(kg.num_relations, 4)), "L2"
    )
    (rq,) = rank_queries(table, kg, [q], m=min(3, kg.num_entities))
    options = BuildOptions(gamma=gamma, rc_sampling=rc_on, seed=seed)
    sample = build_sample(kg, rq, options, "s-0", query_index=0)
    rendered_neighbors = {render_fact(kg, f) for f in neighbors(kg, q.known)}
    listed = neighbor_lines(sample.prompt)
    assert len(listed) <= gamma
    assert set(listed) <= rendered_neighbors
    assert render_fact(kg, q.completed(q.gold)) not in listed


def test_render_golden_file():
    rendered = film_prompt()
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        assert rendered == f.read()


def test_readme_states_the_template_version():
    readme = read_text(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"))
    assert f"Template version {TEMPLATE_VERSION}." in readme


def test_render_counts_placeholders():
    prompt = film_prompt()
    assert prompt.count("[QUERY]") == 1
    assert prompt.count("[ENTITY]") == 3


def test_render_without_description_or_neighbors_keeps_query_and_candidates():
    prompt = film_prompt(description_text="", neighbor_texts=[])
    assert "Description:" not in prompt
    assert "Known facts:" not in prompt
    assert prompt.count("[ENTITY]") == 3
    assert prompt.count("[QUERY]") == 1


def test_dropping_sections_changes_only_that_block():
    full = film_prompt()
    no_desc = film_prompt(description_text="")
    no_neigh = film_prompt(neighbor_texts=[])
    blocks = full.split("\n\n")
    assert no_desc == "\n\n".join(b for b in blocks if not b.startswith("Description: "))
    assert no_neigh == "\n\n".join(b for b in blocks if not b.startswith("Known facts:"))


def test_head_prediction_places_query_slot_first():
    kg = film_kg()
    q = Query(known=1, relation=0, direction="head", gold=0)
    text = query_text_for(kg, q)
    assert text.startswith("Query: the incomplete fact (?[QUERY], film language, English Language)")
    assert "head entity" in text


def test_parse_recovers_candidate_order():
    names = ["English Language", "French Language", "United States of America"]
    assert parse_candidate_names(film_prompt(candidate_names=names)) == names


def test_parse_handles_awkward_names():
    names = ["Newark, New Jersey", "", "weird [QUERY] name", "worse[ENTITY]"]
    assert parse_candidate_names(film_prompt(candidate_names=names)) == names


def test_parse_rejects_prompt_without_candidates():
    with pytest.raises(ValueError):
        parse_candidate_names("Query: nothing here")


def test_full_candidate_list_renders_twenty_entity_slots(toy_kg, toy_table):
    # m equal to the whole entity set still renders one slot per candidate
    q = Query(known=0, relation=0, direction="tail", gold=1)
    (rq,) = rank_queries(toy_table, toy_kg, [q], m=20)
    sample = build_sample(toy_kg, rq, BuildOptions(), "s-0", 0)
    assert sample.prompt.count("[ENTITY]") == 20
    assert sample.prompt.count("[QUERY]") == 1
    assert attach_knowledge(sample, init_adapter(toy_table.dim, d2=4), toy_table).shape == (21, 4)


def test_description_truncated_to_limit(toy_kg, toy_table):
    q = Query(known=1, relation=0, direction="tail", gold=2)
    (rq,) = rank_queries(toy_table, toy_kg, [q], m=3)
    options = BuildOptions(max_description_chars=5)
    sample = build_sample(toy_kg, rq, options, "s-0", 0)
    description = DESCRIPTION_PREFIX + toy_kg.entity_descriptions[1][:5]
    assert description in sample.prompt.split("\n\n")


def test_shuffle_permutes_candidates_and_vectors_in_lockstep(toy_kg, toy_table):
    params = ConfidenceParams(m=5, alpha=1.0, beta=0.0)
    q = Query(known=0, relation=0, direction="tail", gold=1)
    (rq,) = rank_queries(toy_table, toy_kg, [q], m=params.m)
    plain = build_sample(toy_kg, rq, BuildOptions(), "s", 3)
    shuffled = build_sample(toy_kg, rq, BuildOptions(shuffle_candidates=True, seed=5), "s", 3)
    assert sorted(shuffled.candidate_ids) == sorted(plain.candidate_ids)
    assert shuffled.candidate_ids != plain.candidate_ids or len(plain.candidate_ids) == 1
    assert plain.candidate_ranks == list(range(1, params.m + 1))
    assert [rq.topm_ids[r - 1] for r in shuffled.candidate_ranks] == shuffled.candidate_ids
    assert parse_candidate_names(shuffled.prompt) == shuffled.candidate_names
    adapter = init_adapter(toy_table.dim, d2=4)
    plain_rows = attach_knowledge(plain, adapter, toy_table)
    shuffled_rows = attach_knowledge(shuffled, adapter, toy_table)
    np.testing.assert_array_equal(shuffled_rows[0], plain_rows[0])  # query row pinned first
    for slot, rank in enumerate(shuffled.candidate_ranks, start=1):
        np.testing.assert_array_equal(shuffled_rows[slot], plain_rows[rank])


def test_build_eval_set_counts_and_candidates(tmp_path, toy_kg, toy_table):
    params = ConfidenceParams(m=4, alpha=1.0, beta=0.05)
    summary = write_eval_set(toy_kg, toy_table, params, BuildOptions(), tmp_path)
    records = read_records(str(tmp_path / "instructions.jsonl"))
    assert sorted(os.listdir(tmp_path)) == ["instructions.jsonl", "summary.json"]  # the records and their summary
    assert summary["kept"] == 2 * len(toy_kg.test)
    assert len(records) == 2 * len(toy_kg.test)
    for rec in records:
        assert len(rec["candidate_ids"]) == params.m
        assert rec["prompt"].count("[ENTITY]") == params.m
        assert rec["prompt"].count("[QUERY]") == 1
        assert parse_candidate_names(rec["prompt"]) == rec["candidate_names"]


def test_build_eval_shuffled_knowledge_follows_candidate_order(tmp_path, toy_kg, toy_table):
    params = ConfidenceParams(m=4, alpha=1.0, beta=0.05)
    adapter = init_adapter(toy_table.dim, d2=5, seed=2)
    sets = {}
    for name, options in (
        ("plain", BuildOptions()),
        ("shuffled", BuildOptions(shuffle_candidates=True, seed=11)),
    ):
        write_eval_set(toy_kg, toy_table, params, options, tmp_path / name)
        sets[name] = list(iter_samples(str(tmp_path / name / "instructions.jsonl")))
    moved = 0
    for plain, shuffled in zip(sets["plain"], sets["shuffled"]):
        rows = attach_knowledge(shuffled, adapter, toy_table)
        query = toy_table.query_vector(shuffled.known, shuffled.relation, shuffled.direction)
        np.testing.assert_array_equal(rows[0], project(adapter, query))
        plain_rows = attach_knowledge(plain, adapter, toy_table)
        for slot, (ent, rank) in enumerate(zip(shuffled.candidate_ids, shuffled.candidate_ranks), start=1):
            np.testing.assert_array_equal(rows[slot], project(adapter, toy_table.entity_vecs[ent]))
            np.testing.assert_array_equal(rows[slot], plain_rows[rank])
        moved += shuffled.candidate_ids != plain.candidate_ids
    assert moved > 0  # the shuffle reorders some lists


@pytest.mark.parametrize(
    "options, header",
    [(BuildOptions(gamma=0), "Known facts:"), (BuildOptions(max_description_chars=0), DESCRIPTION_PREFIX)],
    ids=["gamma-0", "max-description-chars-0"],
)
def test_build_eval_without_a_block(tmp_path, toy_kg, toy_table, options, header):
    params = ConfidenceParams(m=3, alpha=1.0, beta=0.05)
    prompts = {}
    for name, built_with in (("full", BuildOptions()), ("without", options)):
        write_eval_set(toy_kg, toy_table, params, built_with, tmp_path / name)
        prompts[name] = [rec["prompt"] for rec in read_records(str(tmp_path / name / "instructions.jsonl"))]
    assert any(block.startswith(header) for p in prompts["full"] for block in p.split("\n\n"))
    for full, without in zip(prompts["full"], prompts["without"], strict=True):
        assert without == "\n\n".join(b for b in full.split("\n\n") if not b.startswith(header))


def test_finetune_split_is_nine_to_one(tmp_path):
    rng = np.random.default_rng(0)
    facts = set()
    while len(facts) < 160:
        h, t = rng.integers(0, 40, size=2)
        if h != t:
            facts.add((int(h), int(rng.integers(0, 3)), int(t)))
    facts = sorted(facts)
    kg = build_kg(40, 3, train=facts[:40], valid=facts[40:140], test=facts[140:150])
    table = EmbeddingTable(
        rng.normal(size=(40, 4)), rng.normal(size=(3, 4)), "L2"
    )
    params = ConfidenceParams(m=5, alpha=1.0, beta=0.0)
    summary = write_finetune_set(kg, table, params, BuildOptions(), tmp_path)
    assert summary["queries"] + summary["holdout_queries"] == 2 * len(kg.valid) == 200
    assert summary["queries"] == 180  # 90 triples, both directions
    assert summary["holdout_queries"] == 20
    assert summary["kept"] == 180  # beta 0 keeps everything


def test_finetune_samples_stream_and_the_holdout_follows_the_last(tmp_path, toy_kg, toy_table):
    params = ConfidenceParams(m=4, alpha=1.0, beta=0.5)
    samples = build_set(toy_kg, toy_table, params, BuildOptions(seed=3), str(tmp_path), "finetune", "t.ckpt")
    first = next(samples)
    assert os.listdir(tmp_path) == ["instructions.jsonl"]  # the holdout and the summary follow the last kept
    rest = list(samples)
    kept = list(iter_samples(str(tmp_path / "instructions.jsonl")))
    holdout = list(iter_samples(str(tmp_path / "holdout.jsonl")))
    assert [first, *rest] == kept + holdout  # every record, in file order
    summary = json.loads(read_text(tmp_path / "summary.json"))
    assert summary["beta"] == 0.5 and summary["seed"] == 3 and summary["checkpoint"] == "t.ckpt"
    assert 0 < summary["kept"] == len(kept) < summary["queries"]
    assert summary["holdout_queries"] == len(holdout)


def test_finetune_truncation_can_empty_output(tmp_path, toy_kg, toy_table, caplog):
    params = ConfidenceParams(m=3, alpha=1.0, beta=1e9)
    with caplog.at_level(logging.WARNING):
        summary = write_finetune_set(toy_kg, toy_table, params, BuildOptions(), tmp_path)
    assert summary["kept"] == 0
    assert read_records(str(tmp_path / "instructions.jsonl")) == []
    assert any("kept no finetune samples" in r.message for r in caplog.records)


def test_finetune_default_truncation_keeps_gold_in_candidates(tmp_path):
    # at m=20 and beta=0.05, a gold outside the top-m has confidence
    # 1/rank <= 1/21 < beta, so every surviving sample carries its gold
    rng = np.random.default_rng(5)
    facts = set()
    while len(facts) < 120:
        h, t = rng.integers(0, 40, size=2)
        if h != t:
            facts.add((int(h), int(rng.integers(0, 2)), int(t)))
    facts = sorted(facts)
    kg = build_kg(40, 2, train=facts[:40], valid=facts[40:100], test=facts[100:110])
    table = EmbeddingTable(rng.normal(size=(40, 4)), rng.normal(size=(2, 4)), "L2")
    params = ConfidenceParams(m=20, alpha=1.0, beta=0.05)
    summary = write_finetune_set(kg, table, params, BuildOptions(), tmp_path)
    assert 0 < summary["kept"] < summary["queries"]  # truncation actually bites
    for rec in read_records(str(tmp_path / "instructions.jsonl")):
        assert rec["gold_id"] in rec["candidate_ids"]


def test_finetune_build_is_byte_deterministic(tmp_path, toy_kg, toy_table):
    params = ConfidenceParams(m=4, alpha=1.0, beta=0.05)
    digests = []
    for run in ("a", "b"):
        root = tmp_path / run
        write_finetune_set(toy_kg, toy_table, params, BuildOptions(seed=3), root)
        blob = b"".join(
            read_bytes(os.path.join(root, n))
            for n in ("instructions.jsonl", "holdout.jsonl", "summary.json")
        )
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


def test_instruction_records_carry_the_documented_fields(tmp_path, toy_dir):
    workdir = tmp_path / "w"
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[pipeline]\ndataset_dir = {toy_dir}\nworkdir = {workdir}\n"
        "[embedder]\ndim = 8\nepochs = 2\n[ranker]\nm = 3\n",
        encoding="utf-8",
    )
    assert main(["build-eval", "--config", str(cfg)]) == 0
    (evaldir,) = [workdir / e for e in os.listdir(workdir) if e.startswith("eval-")]
    with open(evaldir / "instructions.jsonl", encoding="utf-8") as f:
        record = json.loads(f.readline())
    assert list(record) == [
        "id",
        "direction",
        "known",
        "relation",
        "prompt",
        "gold_name",
        "gold_id",
        "candidate_ids",
        "candidate_names",
        "candidate_ranks",
        "gold_rank",
    ]
    assert vars(InstructionSample(**record)) == record
    kg = load_kg(toy_dir)
    h, r, t = kg.test[0].tolist()
    assert (record["id"], record["known"], record["relation"], record["gold_id"]) == ("test-0-tail", h, r, t)
    assert record["candidate_ranks"] == [1, 2, 3]
    # the summary names the checkpoint the ids refer to: a file beside the set's directory
    summary = json.loads(read_text(evaldir / "summary.json"))
    assert summary["checkpoint"] == os.path.basename(summary["checkpoint"])
    assert summary["checkpoint"].endswith(".ckpt")
    assert os.path.isfile(workdir / summary["checkpoint"])


def test_finetune_builds_only_kept_and_holdout_samples(tmp_path, toy_kg, toy_table, monkeypatch):
    import kgrerank.instructions as instructions

    built = []
    original = instructions.build_sample

    def counting(*args, **kwargs):
        built.append(args[3])  # the sample id
        return original(*args, **kwargs)

    monkeypatch.setattr(instructions, "build_sample", counting)
    params = ConfidenceParams(m=4, alpha=1.0, beta=0.5)
    summary = write_finetune_set(toy_kg, toy_table, params, BuildOptions(seed=3), tmp_path)
    assert 0 < summary["kept"] < summary["queries"]  # truncation actually bites
    assert len(built) == summary["kept"] + summary["holdout_queries"]
    written = read_records(str(tmp_path / "instructions.jsonl"))
    written += read_records(str(tmp_path / "holdout.jsonl"))
    assert built == [rec["id"] for rec in written]
