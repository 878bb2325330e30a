import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_graph, brute_force_cooc, build_kg, find_benchmark_dir, neighbors, write_kg
from kgrerank import kg as kg_module
from kgrerank.datasets import make_chain_dataset, make_synthetic_dataset
from kgrerank.kg import (
    DataError,
    KnowledgeGraph,
    PackedTexts,
    Triple,
    build_cooccurrence,
    load_kg,
)


def write_dataset(root, entities, relations, train, valid, test, descriptions=None):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "entity2text.txt"), "w") as f:
        for key, name in entities:
            f.write(f"{key}\t{name}\n")
    with open(os.path.join(root, "entity2textlong.txt"), "w") as f:
        for key, text in descriptions or []:
            f.write(f"{key}\t{text}\n")
    with open(os.path.join(root, "relation2text.txt"), "w") as f:
        for key, name in relations:
            f.write(f"{key}\t{name}\n")
    for fname, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        with open(os.path.join(root, fname), "w") as f:
            for h, r, t in rows:
                f.write(f"{h}\t{r}\t{t}\n")
    return root


ENTITIES = [("/e/a", "alpha"), ("/e/b", "beta"), ("/e/c", "gamma entity")]
RELATIONS = [("/r/x", "connected to"), ("/r/y", "differs from")]


def test_load_assigns_ids_by_text_file_order(tmp_path):
    root = write_dataset(
        tmp_path / "d",
        ENTITIES,
        RELATIONS,
        train=[("/e/c", "/r/y", "/e/a")],
        valid=[],
        test=[],
        descriptions=[("/e/b", "the second entity")],
    )
    kg = load_kg(root)
    assert kg.num_entities == 3
    assert kg.num_relations == 2
    assert kg.entity_names == ["alpha", "beta", "gamma entity"]
    assert list(kg.entity_descriptions) == ["", "the second entity", ""]
    assert kg.train.tolist() == [[2, 1, 0]]
    assert kg.known_tails(2, 1).tolist() == [0]
    assert kg.known_heads(1, 0).tolist() == [2]


def test_load_empty_split_is_fine(tmp_path):
    root = write_dataset(tmp_path / "d", ENTITIES, RELATIONS, [], [], [])
    kg = load_kg(root)
    assert kg.train.shape == kg.valid.shape == kg.test.shape == (0, 3)


def test_load_missing_file(tmp_path):
    root = write_dataset(tmp_path / "d", ENTITIES, RELATIONS, [], [], [])
    os.remove(os.path.join(root, "valid.txt"))
    with pytest.raises(DataError, match="missing"):
        load_kg(root)


def test_load_malformed_line(tmp_path):
    root = write_dataset(tmp_path / "d", ENTITIES, RELATIONS, [], [], [])
    with open(os.path.join(root, "train.txt"), "w") as f:
        f.write("/e/a\t/r/x\t/e/b\n\n\n/e/a\t/r/x\n")
    with pytest.raises(DataError, match=r"train\.txt:4: expected 3 tab-separated fields, got 2"):
        load_kg(root)


@pytest.mark.parametrize("split", ["train.txt", "valid.txt", "test.txt"])
def test_load_dangling_reference_is_hard_error(tmp_path, split):
    root = write_dataset(tmp_path / "d", ENTITIES, RELATIONS, [], [], [])
    with open(os.path.join(root, split), "w") as f:
        f.write("\n/e/a\t/r/x\t/e/unknown\n")
    with pytest.raises(DataError, match=rf"{split}:2: unknown entity '/e/unknown'"):
        load_kg(root)


def test_load_unknown_relation(tmp_path):
    root = write_dataset(tmp_path / "d", ENTITIES, RELATIONS, [], [], [])
    with open(os.path.join(root, "valid.txt"), "w") as f:
        f.write("/e/a\t/r/x\t/e/b\n/e/b\t/r/nope\t/e/c\n")
    with pytest.raises(DataError, match=r"valid\.txt:2: unknown relation '/r/nope'"):
        load_kg(root)


def test_load_rejects_a_fact_shared_by_two_split_files(tmp_path):
    root = write_dataset(
        tmp_path / "d",
        ENTITIES,
        RELATIONS,
        train=[("/e/a", "/r/x", "/e/b"), ("/e/b", "/r/y", "/e/c")],
        valid=[("/e/c", "/r/x", "/e/a")],
        test=[("/e/b", "/r/y", "/e/c")],
    )
    with pytest.raises(DataError, match="disjoint"):
        load_kg(root)


def test_duplicate_triples_deduplicated_with_warning(tmp_path, caplog):
    root = write_dataset(
        tmp_path / "d",
        ENTITIES,
        RELATIONS,
        train=[("/e/a", "/r/x", "/e/b"), ("/e/c", "/r/y", "/e/a"), ("/e/a", "/r/x", "/e/b")],
        valid=[],
        test=[],
    )
    with caplog.at_level(logging.WARNING):
        kg = load_kg(root)
    assert kg.train.tolist() == [[0, 0, 1], [2, 1, 0]]  # file order, first occurrence kept
    assert any("duplicated" in rec.message for rec in caplog.records)


def test_a_duplicated_self_loop_is_kept_once(tmp_path, caplog):
    root = write_dataset(
        tmp_path / "d",
        ENTITIES,
        RELATIONS,
        train=[("/e/a", "/r/x", "/e/a"), ("/e/b", "/r/y", "/e/a"), ("/e/a", "/r/x", "/e/a")],
        valid=[],
        test=[],
    )
    with caplog.at_level(logging.WARNING):
        kg = load_kg(root)
    assert kg.train.tolist() == [[0, 0, 0], [1, 1, 0]]
    assert any("dropped 1 duplicated" in rec.message for rec in caplog.records)
    assert [kg.incident_rows(e).tolist() for e in range(3)] == [[0, 1], [1], []]


def test_packed_texts_read_like_a_list():
    entries = ["", "ünïcode", "a\ttab", "", "名前"]
    texts = PackedTexts.pack(entries)
    assert len(texts) == 5 and list(texts) == entries
    assert texts[-1] == "名前" and texts[np.int64(1)] == "ünïcode"
    assert texts[1:4] == entries[1:4] and texts[::-2] == entries[::-2]
    with pytest.raises(IndexError):
        texts[5]
    assert texts.offsets.dtype == np.int64 and texts.offsets.tolist() == [0, 0, 9, 14, 14, 20]
    assert len(PackedTexts.pack([])) == 0


def test_overlapping_splits_rejected():
    with pytest.raises(DataError, match="disjoint"):
        build_kg(3, 1, train=[(0, 0, 1)], valid=[(0, 0, 1)])


def test_neighbors_examples():
    # {(e1,r1,e2), (e3,r2,e1)} with ids e1=0, e2=1, e3=2
    kg = build_kg(3, 2, train=[(0, 0, 1), (2, 1, 0)])
    assert neighbors(kg, 0) == (Triple(0, 0, 1), Triple(2, 1, 0))
    assert neighbors(kg, 1) == (Triple(0, 0, 1),)
    isolated = build_kg(3, 2, train=[(0, 0, 1)])
    assert neighbors(isolated, 2) == ()
    with pytest.raises(ValueError):
        neighbors(kg, 3)


def test_cooccurrence_counts_shared_entities():
    # e1=0, e2=1, e3=2, e4=3, e5=4, e6=5, e7=6; r1=0, r2=1, r3=2
    kg = build_kg(
        7,
        3,
        train=[(0, 0, 1), (0, 1, 2), (3, 0, 4), (3, 1, 5), (0, 2, 6)],
    )
    cooc = kg.cooc
    assert cooc[0, 1] == 2  # e1 and e4 touch both r1 and r2
    assert cooc[0, 2] == 1  # only e1 touches both r1 and r3
    assert cooc[1, 2] == 1
    assert np.array_equal(cooc, cooc.T)
    assert np.array_equal(cooc, brute_force_cooc(kg))


def test_cooccurrence_single_relation():
    kg = build_kg(3, 1, train=[(0, 0, 1), (1, 0, 2)])
    assert kg.cooc.shape == (1, 1)
    assert kg.cooc[0, 0] == 3


def test_cooccurrence_disjoint_supports():
    kg = build_kg(4, 2, train=[(0, 0, 1), (2, 1, 3)])
    assert kg.cooc[0, 1] == 0


@st.composite
def small_kg(draw):
    n_e = draw(st.integers(min_value=2, max_value=30))
    n_r = draw(st.integers(min_value=1, max_value=5))
    n_facts = draw(st.integers(min_value=0, max_value=40))
    facts = set()
    for _ in range(n_facts):
        h = draw(st.integers(min_value=0, max_value=n_e - 1))
        t = draw(st.integers(min_value=0, max_value=n_e - 1))
        r = draw(st.integers(min_value=0, max_value=n_r - 1))
        facts.add((h, r, t))
    return build_kg(n_e, n_r, train=sorted(facts))


@settings(max_examples=60, deadline=None)
@given(small_kg())
def test_cooccurrence_matches_quadratic_oracle(kg):
    table = build_cooccurrence(kg)
    assert table.dtype == np.int64
    assert np.array_equal(table, brute_force_cooc(kg))
    diag = np.diag(table)
    upper = np.minimum.outer(diag, diag)
    assert (table <= upper).all()


@settings(max_examples=60, deadline=None)
@given(small_kg())
def test_neighbor_lengths_sum_to_twice_train(kg):
    lists = [neighbors(kg, e) for e in range(kg.num_entities)]
    loops = [Triple(*f) for f in kg.train.tolist() if f[0] == f[2]]
    assert sum(map(len, lists)) == 2 * len(kg.train) - len(loops)
    for fact in loops:
        assert lists[fact.head].count(fact) == 1
    # each entity's list is its facts in train-file order
    train = [Triple(*f) for f in kg.train.tolist()]
    for e, facts in enumerate(lists):
        assert list(facts) == [f for f in train if e in (f.head, f.tail)]


@settings(max_examples=60, deadline=None)
@given(small_kg(), st.data())
def test_in_train_matches_a_set_oracle(kg, data):
    facts = set(map(tuple, kg.train.tolist()))
    n_e, n_r = kg.num_entities, kg.num_relations
    any_row = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    hit = st.sampled_from(sorted(facts)) if facts else any_row
    rows = data.draw(st.lists(st.one_of(hit, any_row), max_size=50))
    # the largest key of all, above the last train key unless it is a fact
    rows.append((n_e - 1, n_r - 1, n_e - 1))
    found = kg.in_train(np.array(rows, dtype=np.int64))
    assert found.dtype == bool
    assert found.tolist() == [row in facts for row in rows]
    assert kg.in_train(np.empty((0, 3), dtype=np.int64)).shape == (0,)


SAFE_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_round_trip_preserves_ids_and_triples(tmp_path_factory, data):
    n_e = data.draw(st.integers(min_value=2, max_value=8))
    n_r = data.draw(st.integers(min_value=1, max_value=3))
    names = data.draw(
        st.lists(SAFE_TEXT, min_size=n_e, max_size=n_e)
    )
    facts = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1)
            ),
            max_size=15,
            unique=True,
        )
    )
    cut1, cut2 = len(facts) // 3, 2 * len(facts) // 3
    kg = KnowledgeGraph(
        [f"K{i}" for i in range(n_e)],
        names,
        ["" for _ in range(n_e)],
        [f"R{j}" for j in range(n_r)],
        [f"rel {j}" for j in range(n_r)],
        [Triple(*f) for f in facts[:cut1]],
        [Triple(*f) for f in facts[cut1:cut2]],
        [Triple(*f) for f in facts[cut2:]],
    )
    out = str(tmp_path_factory.mktemp("rt"))
    write_kg(kg, out)
    back = load_kg(out)
    assert back.entity_keys == kg.entity_keys
    assert back.entity_names == kg.entity_names
    assert back.relation_keys == kg.relation_keys
    assert np.array_equal(back.train, kg.train)
    assert np.array_equal(back.valid, kg.valid)
    assert np.array_equal(back.test, kg.test)


def test_fb15k237_statistics(fb15k237_dir):
    kg = load_kg(fb15k237_dir)
    assert kg.num_entities == 14541
    assert kg.num_relations == 237
    assert len(kg.train) == 272115
    assert len(kg.valid) == 17535
    assert len(kg.test) == 20466


def test_wn18rr_statistics():
    path = find_benchmark_dir("WN18RR")
    if path is None:
        pytest.skip("WN18RR dataset not available (set KGRERANK_DATA)")
    kg = load_kg(path)
    assert kg.num_entities == 40943
    assert kg.num_relations == 11
    assert len(kg.train) == 86835


def _odd_dataset(root):
    """A small dataset with what a text or array round trip could get wrong:
    non-ASCII ids and names, a tab inside a name and a description, empty
    descriptions, self-loops, an entity in no fact and an empty valid split."""
    kg = KnowledgeGraph(
        ["/e/0", "/é/1", "/実/2", "/e/3", "/e/lonely"],
        ["zero", "ünïcode", "名前\twith a tab", "three", "never in a fact"],
        ["", "eine Beschreibung, ß", "", "a\ttabbed description", ""],
        ["/r/0", "/関係/1"],
        ["relation zero", "関係"],
        [Triple(0, 0, 1), Triple(1, 1, 1), Triple(2, 0, 3), Triple(3, 1, 0), Triple(0, 1, 0)],
        [],
        [Triple(1, 0, 2), Triple(3, 0, 3)],
    )
    write_kg(kg, root)
    return root


DATASETS = {
    "toy": None,  # the shared fixture
    "odd": _odd_dataset,
    "chain": make_chain_dataset,
    "synthetic": lambda root: make_synthetic_dataset(root, n_entities=40, n_relations=5, n_train=150, seed=3),
}


@pytest.mark.parametrize("which", DATASETS)
def test_a_built_graph_reads_back_equal_to_the_parse(tmp_path, toy_dir, which):
    dataset = toy_dir if DATASETS[which] is None else DATASETS[which](str(tmp_path / "dataset"))
    built = str(tmp_path / "built")
    parsed = load_kg(dataset, None, built)
    read = load_kg(dataset, built)
    assert read is not parsed
    assert_same_graph(parsed, load_kg(dataset))
    assert_same_graph(read, load_kg(dataset))
    for name in ("train", "valid", "test", "cooc", "_train_keys", "_all_keys", "_head_keys", "_adj_facts"):
        array = getattr(read, name)  # a plain read-only ndarray, not a memmap
        assert type(array) is np.ndarray and not array.flags.writeable, name


def test_a_hit_parses_sorts_and_multiplies_nothing(tmp_path, toy_dir, monkeypatch):
    built = str(tmp_path / "built")
    reference = load_kg(toy_dir, None, built)
    called = []
    for name in ("_read_text_table", "_read_triples", "build_cooccurrence"):
        monkeypatch.setattr(kg_module, name, lambda *args, name=name: called.append(name))
    monkeypatch.setattr(KnowledgeGraph, "__init__", lambda *args: called.append("__init__"))
    assert_same_graph(load_kg(toy_dir, built), reference)
    assert called == []
