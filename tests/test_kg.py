import itertools
import logging
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_graph,
    brute_force_cooc,
    build_kg,
    find_benchmark_dir,
    neighbors,
    parse_by_line,
    read_bytes,
    read_text_table_by_line,
    read_triples_by_line,
    write_kg,
)
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
    data = "|".join(entries).encode("utf-8")
    ends = np.flatnonzero(np.frombuffer(data + b"|", dtype=np.uint8) == ord("|"))
    texts = PackedTexts.cut(data, np.concatenate([[0], ends[:-1] + 1]), ends)
    assert len(texts) == 5 and list(texts) == entries
    assert texts[-1] == "名前" and texts[np.int64(1)] == "ünïcode"
    with pytest.raises(IndexError):
        texts[5]
    # each entry is followed by "\n", so the offsets increase strictly
    assert texts.blob == "".join(f"{entry}\n" for entry in entries).encode("utf-8")
    assert texts.offsets.dtype == np.int64 and texts.offsets.tolist() == [0, 1, 11, 17, 18, 25]
    empty = np.empty(0, dtype=np.int64)
    assert len(PackedTexts.cut(b"", empty, empty)) == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_cut_is_its_entries_sliced_and_joined(data):
    entries = data.draw(st.lists(st.text(st.characters(blacklist_characters="\n", blacklist_categories=["Cs"]))))
    # bytes around each entry; the last may be none, which puts an entry at the buffer's end
    gaps = data.draw(st.lists(st.binary(max_size=3), min_size=len(entries) + 1, max_size=len(entries) + 1))
    buffer, starts, ends = bytearray(gaps[0]), [], []
    for entry, gap in zip(entries, gaps[1:]):
        starts.append(len(buffer))
        buffer += entry.encode("utf-8")
        ends.append(len(buffer))
        buffer += gap
    order = np.array(data.draw(st.permutations(range(len(entries)))), dtype=np.int64)
    starts, ends = np.array(starts, dtype=np.int64)[order], np.array(ends, dtype=np.int64)[order]
    buffer = data.draw(st.sampled_from([bytes, bytearray]))(buffer)
    texts = PackedTexts.cut(buffer, starts, ends)
    encoded = [entries[i].encode("utf-8") for i in order]
    assert texts.blob == b"".join(e + b"\n" for e in encoded) and texts.offsets.dtype == np.int64
    assert texts.offsets.tolist() == list(itertools.accumulate((len(e) + 1 for e in encoded), initial=0))
    assert list(texts) == [entries[i] for i in order]


SMALL_GRAPH = {
    "entity_names": ["a", "b", "c"],
    "entity_descriptions": ["", "", ""],
    "relation_names": ["x", "y"],
    "train": [(0, 0, 1)],
    "valid": [],
    "test": [],
}

# what each case changes of SMALL_GRAPH, and what the constructor says of it
CONSTRUCTOR_FAULTS = {
    "entity-tables": ({"entity_names": ["a", "b"]}, "entity tables have inconsistent lengths"),
    # the tables are stored as given, so 2**31 entities allocate nothing
    "int64-keys": (
        dict.fromkeys(["entity_names", "entity_descriptions"], range(2**31)),
        "graph too large for int64 triple keys",
    ),
    "not-rows-of-3": (
        {"valid": np.zeros((2, 2), dtype=np.int64)},
        "valid: expected (head, relation, tail) rows, got shape (2, 2)",
    ),
    "entity-id": (
        {"test": [(0, 0, 1), (0, 1, 3), (0, 2, 0)]},
        "test: entity id out of range in Triple(head=0, relation=1, tail=3)",
    ),
    "relation-id": (
        {"train": [(0, 0, 1), (1, 2, 0), (-1, 0, 0)]},
        "train: relation id out of range in Triple(head=1, relation=2, tail=0)",
    ),
}


@pytest.mark.parametrize("change, message", CONSTRUCTOR_FAULTS.values(), ids=CONSTRUCTOR_FAULTS)
def test_the_constructor_refuses_tables_and_splits_no_graph_can_hold(change, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        KnowledgeGraph(**{**SMALL_GRAPH, **change})


def test_the_constructor_stores_its_tables_and_takes_over_an_int64_split():
    train = np.array([[0, 0, 1], [1, 1, 2]], dtype=np.int64)
    kg = KnowledgeGraph(**{**SMALL_GRAPH, "train": train})
    assert kg.train is train and not train.flags.writeable
    for name in ("entity_names", "entity_descriptions", "relation_names"):
        assert getattr(kg, name) is SMALL_GRAPH[name], name
    assert (kg.num_entities, kg.num_relations) == (3, 2)


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


def test_cooccurrence_counts_past_16_bits():
    # every count is above what a uint8 or uint16 sum of word popcounts holds
    n = 70_000
    kg = build_kg(n, 2, train=[(e, 0, e) for e in range(n)] + [(e, 1, (e + 1) % n) for e in range(n)])
    assert kg.cooc.dtype == np.int64 and kg.cooc.tolist() == [[n, n], [n, n]]


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


@st.composite
def cooc_kg(draw):
    """Graphs for ``build_cooccurrence``'s bitsets: entity counts on both sides
    of each 64-entity word, endpoints drawn often at a word's edges,
    self-loops, an optional hub incident to every trained relation, an
    optional last relation with a test fact and no train fact, and train
    splits down to none."""
    n_e = draw(st.one_of(st.integers(1, 30), st.sampled_from([63, 64, 65, 127, 128, 129, 192])))
    n_r = draw(st.integers(1, 5))
    unused = n_r > 1 and draw(st.booleans())
    trained = n_r - unused
    edges = sorted({0, 62, 63, 64, 65, 127, 128, n_e - 1} & set(range(n_e)))
    entity = st.one_of(st.integers(0, n_e - 1), st.sampled_from(edges))
    facts = set()
    for _ in range(draw(st.integers(0, 40))):
        h, r = draw(entity), draw(st.integers(0, trained - 1))
        facts.add((h, r, h if draw(st.integers(0, 3)) == 0 else draw(entity)))
    if draw(st.booleans()):
        hub = draw(entity)
        for r in range(trained):
            other = draw(entity)
            facts.add((hub, r, other) if r % 2 else (other, r, hub))
    test = [(0, n_r - 1, n_e - 1)] if unused else []
    return build_kg(n_e, n_r, train=sorted(facts), test=test)


@settings(max_examples=80, deadline=None)
@given(cooc_kg())
@example(build_kg(65, 3, train=[]))
@example(build_kg(128, 3, train=[(e, e % 2, e) for e in range(128)] + [(63, 0, 64)], test=[(0, 2, 127)]))
@example(build_kg(129, 4, train=[(128, r, 63 + r) for r in range(4)] + [(64, 2, 64)]))
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


def test_in_train_passes_every_train_key_and_refuses_the_keys_sharing_its_filter_slots(tmp_path):
    dataset = make_synthetic_dataset(
        str(tmp_path / "dataset"), n_entities=3000, n_relations=20, n_train=20_000, seed=5
    )
    built = str(tmp_path / "built")
    parsed = load_kg(dataset, None, built)
    read = load_kg(dataset, built)
    # the key space is some 40 times the filter's slots, so random rows share slots with train keys
    rng = np.random.default_rng(8)
    rows = np.stack([rng.integers(0, n, 400_000) for n in (3000, 20, 3000)], axis=1)
    keys = parsed._keys(rows)
    train_keys = parsed._keys(parsed.train)
    fact = np.isin(keys, train_keys)
    shares = np.isin(kg_module._filter_slot(keys), kg_module._filter_slot(train_keys)) & ~fact
    assert shares.sum() >= 100
    # each train fact with its head or its tail redrawn, as negative sampling corrupts it
    corrupted = np.repeat(parsed.train, 2, axis=0)
    corrupted[0::2, 0], corrupted[1::2, 2] = rng.integers(0, 3000, (2, len(parsed.train)))
    assert 0 < parsed.in_train(corrupted).sum() < len(corrupted)
    for kg in (parsed, read):
        assert not kg.in_train(rows[shares]).any()
        assert kg.in_train(kg.train).all()
        assert np.array_equal(kg.in_train(rows), fact)
        assert np.array_equal(kg.in_train(corrupted), np.isin(kg._keys(corrupted), train_keys))
        assert kg.in_train(np.empty((0, 3), dtype=np.int64)).shape == (0,)
    # the train keys and the filter are held in memory: the built graph is its
    # two files still, and a graph read back sorts the same keys as the parse
    assert sorted(os.listdir(built)) == ["graph.npy", "texts.bin"]
    assert "_train_filter" not in kg_module._SECTIONS
    assert not {"_train_keys", "_train_index"} & set(kg_module._SECTIONS)
    for parsed_array, read_array in zip(parsed._train_index, read._train_index):
        assert parsed_array.tobytes() == read_array.tobytes()


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
    names, descriptions = (data.draw(st.lists(SAFE_TEXT, min_size=n_e, max_size=n_e)) for _ in range(2))
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
        names,
        descriptions,
        [f"rel {j}" for j in range(n_r)],
        [Triple(*f) for f in facts[:cut1]],
        [Triple(*f) for f in facts[cut1:cut2]],
        [Triple(*f) for f in facts[cut2:]],
    )
    out = str(tmp_path_factory.mktemp("rt"))
    # keys in reverse id order: the ids come from the order of the lines, not from the keys
    write_kg(kg, out, [f"K{i}" for i in reversed(range(n_e))], [f"R{j}" for j in reversed(range(n_r))])
    assert_same_graph(load_kg(out), kg)  # names, descriptions, every split and every index


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
        ["zero", "ünïcode", "名前\twith a tab", "three", "never in a fact"],
        ["", "eine Beschreibung, ß", "", "a\ttabbed description", ""],
        ["relation zero", "関係"],
        [Triple(0, 0, 1), Triple(1, 1, 1), Triple(2, 0, 3), Triple(3, 1, 0), Triple(0, 1, 0)],
        [],
        [Triple(1, 0, 2), Triple(3, 0, 3)],
    )
    write_kg(kg, root, ["/e/0", "/é/1", "/実/2", "/e/3", "/e/lonely"], ["/r/0", "/関係/1"])
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
    for name in ("train", "valid", "test", "cooc", "_all_keys", "_head_keys", "_adj_facts"):
        array = getattr(read, name)  # a plain read-only ndarray, not a memmap
        assert type(array) is np.ndarray and not array.flags.writeable, name


def test_a_hit_parses_sorts_and_multiplies_nothing(tmp_path, toy_dir, monkeypatch):
    built = str(tmp_path / "built")
    reference = load_kg(toy_dir, None, built)
    called = []
    for owner, name in ((kg_module.TextTable, "read"), (kg_module, "_read_triples"), (kg_module, "build_cooccurrence")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: called.append(name))
    monkeypatch.setattr(KnowledgeGraph, "__init__", lambda *args: called.append("__init__"))
    assert_same_graph(load_kg(toy_dir, built), reference)
    assert called == []


@pytest.mark.parametrize("n_e, n_r", [(3, 5), (5, 3)], ids=["more-relations", "more-entities"])
@pytest.mark.parametrize("column", [0, 1, 2], ids=["head", "relation", "tail"])
def test_a_built_split_with_an_id_at_its_bound_is_not_read(tmp_path, n_e, n_r, column):
    # the first pass bounds every id by the larger count, the second each column by its own
    kg = KnowledgeGraph(
        [f"entity {i}" for i in range(n_e)],
        [""] * n_e,
        [f"relation {j}" for j in range(n_r)],
        [Triple(0, n_r - 1, n_e - 1), Triple(n_e - 1, 0, 0)],
        [],
        [Triple(1, 1, 2)],
    )
    dataset, built = str(tmp_path / "dataset"), str(tmp_path / "built")
    write_kg(kg, dataset)
    load_kg(dataset, None, built)
    kg_module._read_built(built)  # accepted: it raises on a refusal
    path = os.path.join(built, "graph.npy")
    graph = np.load(path)
    graph[len(kg_module._SECTIONS) + column] = n_r if column == 1 else n_e  # the first train row's
    np.save(path, graph)
    with pytest.raises(DataError, match="fails a check of its ids, keys or adjacency"):
        kg_module._read_built(built)


def test_the_built_graph_array_is_the_file_np_save_writes(tmp_path):
    """graph.npy is written a section at a time, with a header of its own
    making; the file must be what np.save writes for the same array."""
    kg = build_kg(3, 2, [(0, 0, 1), (1, 1, 2)], valid=[(2, 0, 0)], test=[(0, 1, 2)])
    dataset, built = str(tmp_path / "dataset"), tmp_path / "built"
    write_kg(kg, dataset)
    load_kg(dataset, None, str(built))
    graph = np.load(built / "graph.npy")
    assert graph.dtype == np.int64 and graph.ndim == 1
    np.save(tmp_path / "saved.npy", graph)
    assert read_bytes(built / "graph.npy") == read_bytes(tmp_path / "saved.npy")
    kg_module._read_built(str(built))


def test_a_description_for_an_unknown_entity_names_its_file_and_line(tmp_path):
    root = write_dataset(
        tmp_path / "d", ENTITIES, RELATIONS, [], [], [], descriptions=[("/e/a", "first"), ("/e/zzz", "nobody")]
    )
    path = os.path.join(root, "entity2textlong.txt")
    with pytest.raises(DataError, match=rf"^{re.escape(path)}:2: description for unknown entity '/e/zzz'$"):
        load_kg(root)


# each text table's lines in a dataset over ENTITIES and RELATIONS, what
# load_kg reads from it (names, or descriptions by entity id), and what that
# is for these lines
TEXT_TABLES = {
    "entity2text.txt": (
        ["/e/a\talpha", "/e/b\tbeta", "/e/c\tgamma entity"],
        lambda kg: kg.entity_names,
        ["alpha", "beta", "gamma entity"],
    ),
    "relation2text.txt": (
        ["/r/x\tconnected to", "/r/y\tdiffers from"],
        lambda kg: kg.relation_names,
        ["connected to", "differs from"],
    ),
    "entity2textlong.txt": (
        ["/e/c\tthe third", "/e/a\tthe first"],
        lambda kg: kg.entity_descriptions,
        ["the first", "", "the third"],
    ),
}
# the ids of the one fact of each split that _write_table writes, which the
# keys of the entity and relation tables decide
SPLIT_IDS = [[[0, 0, 1]], [[1, 1, 2]], [[2, 0, 0]]]


def _split_ids(kg):
    return [split.tolist() for split in (kg.train, kg.valid, kg.test)]


# each fault: the lines of a table made from the TEXT_TABLES lines, and the
# line and message that name it (or a function of those lines that gives them)
TEXT_TABLE_FAULTS = {
    "no tab": (lambda lines: [lines[0], "", "/e/b beta", lines[1]], r"3: expected '<id>\\t<text>'"),
    "no tab, after blank lines": (lambda lines: ["", "", "", lines[0], "no tab"], r"5: expected '<id>\\t<text>'"),
    "a repeated key": (
        lambda lines: [lines[0], lines[1], "", lines[0].split("\t")[0] + "\tagain"],
        lambda lines: rf"4: duplicate identifier '{lines[0].split(chr(9))[0]}'",
    ),
    "a repeated key before a line without a tab": (
        lambda lines: [lines[0], lines[0], "no tab"],
        lambda lines: rf"2: duplicate identifier '{lines[0].split(chr(9))[0]}'",
    ),
    "a line without a tab before a repeated key": (
        lambda lines: [lines[0], "no tab", lines[0]],
        r"2: expected '<id>\\t<text>'",
    ),
}


def _write_table(tmp_path, name, data):
    """A dataset over ENTITIES and RELATIONS, one fact in each split, whose
    table ``name`` holds ``data``; its path."""
    root = write_dataset(
        tmp_path / "d",
        ENTITIES,
        RELATIONS,
        [("/e/a", "/r/x", "/e/b")],
        [("/e/b", "/r/y", "/e/c")],
        [("/e/c", "/r/x", "/e/a")],
    )
    path = os.path.join(root, name)
    with open(path, "wb") as f:
        f.write(data)
    return root, path


@pytest.mark.parametrize("fault", TEXT_TABLE_FAULTS)
@pytest.mark.parametrize("name", TEXT_TABLES)
def test_a_malformed_text_table_names_its_file_and_line(tmp_path, name, fault):
    make, message = TEXT_TABLE_FAULTS[fault]
    lines = TEXT_TABLES[name][0]
    message = message(lines) if callable(message) else message
    root, path = _write_table(tmp_path, name, "".join(f"{line}\n" for line in make(lines)).encode("utf-8"))
    with pytest.raises(DataError, match=rf"^{re.escape(path)}:{message}$"):
        load_kg(root)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("name", TEXT_TABLES)
def test_a_text_table_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, name, end):
    # the bad byte comes after a line without a tab: the file is decoded before any line is read
    lines = TEXT_TABLES[name][0]
    data = f"{lines[0]}{end}no tab{end}{end}".encode("utf-8") + b"/e/z\tbad \xff byte" + end.encode("utf-8")
    root, path = _write_table(tmp_path, name, data)
    with pytest.raises(DataError, match=rf"^{re.escape(path)}:4: not UTF-8"):
        load_kg(root)


@pytest.mark.parametrize("name", TEXT_TABLES)
def test_a_text_table_skips_blank_lines_and_keeps_the_tabs_of_its_text(tmp_path, name):
    lines, table, texts = TEXT_TABLES[name]
    root, _ = _write_table(tmp_path, name, "\n".join(lines).encode("utf-8"))  # no final newline
    kg = load_kg(root)
    assert list(table(kg)) == texts and _split_ids(kg) == SPLIT_IDS
    # blank lines first, between entries and last, each line end, and a text with tabs
    key, text = lines[0].split("\t")
    data = "\r\n\n" + "\r".join([f"{key}\t\t{text}\tand more\t"] + lines[1:]) + "\n\r\n\n\r"
    root, _ = _write_table(tmp_path / "blank", name, data.encode("utf-8"))
    tabbed = [f"\t{t}\tand more\t" if t == text else t for t in texts]
    kg = load_kg(root)
    assert list(table(kg)) == tabbed and _split_ids(kg) == SPLIT_IDS


@pytest.mark.parametrize(
    "lines, lineno, key",
    [
        (["/e/a\tfirst", "", "/e/zzz\tnobody"], 3, "/e/zzz"),
        (["/e/é\tnon-ASCII", "/e/a\tfirst"], 1, "/e/é"),
        (["/e/a\tfirst", "/e/a \tthe key with a space", "/e/b\tsecond"], 2, "/e/a "),
        (["\ta blank key"], 1, ""),
    ],
    ids=["after a blank line", "non-ASCII", "a key's prefix", "a blank key"],
)
def test_a_description_for_an_unknown_entity_comes_after_every_fault_of_its_lines(tmp_path, lines, lineno, key):
    root, path = _write_table(tmp_path, "entity2textlong.txt", "\n".join(lines).encode("utf-8"))
    message = f"{path}:{lineno}: description for unknown entity {key!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_kg(root)
    # a repeated key after it is the fault that is named: the table is read before its keys are looked up
    root, path = _write_table(tmp_path / "again", "entity2textlong.txt", "\n".join(lines + [lines[0]]).encode("utf-8"))
    with pytest.raises(DataError, match=rf"^{re.escape(path)}:{len(lines) + 1}: duplicate identifier"):
        load_kg(root)


# keys of 0, 7, 8, 9, 16, 17 and 25 bytes, each a prefix of the longer ones;
# keys that differ only by trailing NULs or in their second word; and keys
# with a space and 2- to 4-byte characters
PREFIX_KEYS = ["k" * n for n in (0, 7, 8, 9, 16, 17, 25)]
ODD_KEYS = ["a", "a\x00", "a\x00\x00", "kkkkkkkk\x00", "kkkkkkkky", "a b", "é" * 4, "実" * 3, "😀", "\x00"]
RELATION_KEYS = ["r", "r\x00", "関係", "r" * 8 + "s", "/r/a b"]
KEY = st.one_of(
    st.integers(0, 26).map(lambda n: "k" * n),
    st.sampled_from(ODD_KEYS + RELATION_KEYS),
    st.text(st.sampled_from(["a", "b", "k", "/", " ", "\x00", "é", "実", "😀"]), max_size=10),
)


@st.composite
def triple_files(draw):
    """Entity keys, relation keys and the text of a triple file over them:
    with blank lines and every line end, and when ``valid`` is drawn false,
    with lines of 2 or 4 fields and unknown keys."""
    entities = draw(st.lists(KEY, min_size=1, max_size=12, unique=True))
    relations = draw(st.lists(KEY, min_size=1, max_size=6, unique=True))
    valid = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
        elif valid:
            lines.append("\t".join(draw(st.sampled_from(keys)) for keys in (entities, relations, entities)))
        else:
            fields = st.one_of(st.sampled_from(entities), st.sampled_from(relations), KEY)
            lines.append("\t".join(draw(st.lists(fields, min_size=2, max_size=4))))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return entities, relations, text


def _outcome(read, path, entities, relations):
    """What reading a triple file gives: its rows, or the text of its DataError."""
    try:
        rows = read(path, entities, relations)
    except DataError as exc:
        return "error", str(exc)
    return "rows", rows.dtype, rows.shape, rows.tolist()


FACTS = "\n".join(
    f"{h}\t{r}\t{t}" for h, r, t in zip(PREFIX_KEYS + ODD_KEYS, RELATION_KEYS * 4, ODD_KEYS + PREFIX_KEYS)
)
TRIPLE_FILE_CASES = {
    "an empty file": "",
    "only blank lines": "\n\r\n\r\n",
    "every key, no final newline": FACTS,
    "CRLF, lone CR and blank lines": "\r\n"
    + "".join(line + ("\r\n", "\r", "\n\r")[i % 3] for i, line in enumerate(FACTS.split("\n"))),
    "2 fields": FACTS + "\nkkkkkkk\tr\n",
    "4 fields": FACTS + "\nkkkkkkk\tr\tkkkkkkk\tr\n",
    "unknown head, a prefix of a key": "\nkkkkkk\tr\ta\n",
    "unknown tail, a key with a NUL added": "a\tr\ta\x00\x00\x00\n",
    "unknown tail, a key's length and first word": "a\tr\tkkkkkkkkz\n",
    "unknown relation, a key's prefix": "a\tr\x00\ta\na\t関\ta\n",
    "unknown relation and head": "a\tr\ta\nzz\t関\ta\n",
    "unknown relation and tail": "a\tr\ta\na\tzz\tkkkkkkkkkkkkkkkkkk\n",
    "an unknown key before a short line": "a\tq\ta\na\tr\n",
    "a short line before an unknown key": "a\tr\na\tq\ta\n",
}


def _key_table(directory, name, keys):
    """The key table of a text table of ``keys``, written to ``directory`` and read back."""
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write("".join(f"{key}\tname\n" for key in keys).encode("utf-8"))
    return kg_module.TextTable.read(path).index


def _assert_oracle_agrees(entities, relations, text, collide):
    """``_read_triples`` reads ``text`` as the oracle does, in slices of one
    line, of a few lines and of the whole file; with ``collide``, every key
    and field hashes to slot 0, so each lookup compares the field with every
    key in its probe and no hash can decide a match."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "train.txt")
        with open(path, "wb") as f:
            f.write(text.encode("utf-8"))
        expected = _outcome(
            read_triples_by_line,
            path,
            {key: i for i, key in enumerate(entities)},
            {key: i for i, key in enumerate(relations)},
        )
        home = (lambda self, words, lengths: np.zeros_like(lengths)) if collide else kg_module._KeyTable._home
        with mock.patch.object(kg_module._KeyTable, "_home", home):
            tables = (
                _key_table(directory, "entity2text.txt", entities),
                _key_table(directory, "relation2text.txt", relations),
            )
            for slice_bytes in (1, 13, kg_module._SLICE):
                with mock.patch.object(kg_module, "_SLICE", slice_bytes):
                    assert _outcome(kg_module._read_triples, path, *tables) == expected, slice_bytes


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "colliding"])
@pytest.mark.parametrize("text", TRIPLE_FILE_CASES.values(), ids=TRIPLE_FILE_CASES)
def test_read_triples_matches_the_line_by_line_oracle_on_named_cases(text, collide):
    _assert_oracle_agrees(PREFIX_KEYS + ODD_KEYS, RELATION_KEYS, text, collide)


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "colliding"])
def test_read_triples_matches_the_line_by_line_oracle_without_keys(collide):
    _assert_oracle_agrees([], [], "", collide)
    _assert_oracle_agrees([], [], "\n\na\tr\ta\n", collide)


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "colliding"])
@settings(max_examples=200, deadline=None)
@given(case=triple_files())
def test_read_triples_matches_the_line_by_line_oracle(case, collide):
    _assert_oracle_agrees(*case, collide)


@st.composite
def text_tables(draw):
    """The bytes of a text table: keys that repeat, blank lines, lines
    without a tab, texts holding tabs, every line end, and at times no
    final line end or a byte that is not UTF-8."""
    keys = draw(st.lists(KEY, min_size=1, max_size=8))
    text = st.text(st.sampled_from(["a", " ", "\t", "\x00", "é", "実", "😀"]), max_size=8)
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(draw(KEY))  # no tab
        else:
            lines.append(f"{draw(st.sampled_from(keys))}\t{draw(text)}")
    data = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines).encode("utf-8")
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe5\xae"])) + data[at:]
    return data


def _table_rows(path):
    """The ``(line number, key, text)`` of each entry ``TextTable.read`` reads."""
    table = kg_module.TextTable.read(path)
    return list(zip((table.lines + 1).tolist(), table.keys().tolist(), table.texts().tolist()))


def _assert_table_oracle_agrees(data, collide):
    """``TextTable.read`` reads ``data`` as the oracle does, its rows or its
    DataError; with ``collide``, every key hashes to slot 0."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "entity2text.txt")
        with open(path, "wb") as f:
            f.write(data)
        outcomes = []
        for read in (read_text_table_by_line, _table_rows):
            home = (lambda self, words, lengths: np.zeros_like(lengths)) if collide else kg_module._KeyTable._home
            with mock.patch.object(kg_module._KeyTable, "_home", home):
                try:
                    outcomes.append(("rows", read(path)))
                except DataError as exc:
                    outcomes.append(("error", str(exc)))
    assert outcomes[1] == outcomes[0]


TEXT_TABLE_CASES = {
    "an empty file": b"",
    "only blank lines": b"\n\r\n\r\n",
    "every key, no final newline": "\n".join(f"{key}\tname\tof {key}" for key in PREFIX_KEYS + ODD_KEYS).encode(),
    "blank keys and texts": b"\t\n\r\nk\t\t\r",
    "keys that differ by trailing NULs": b"a\tx\na\x00\tx\na\x00\x00\tx\nkkkkkkkk\x00\tx\nkkkkkkkk\tx\n",
    "a repeated 9-byte key": b"kkkkkkkky\tx\nkkkkkkkkz\ty\r\nkkkkkkkky\tz\n",
    "a repeated blank key": b"\tx\n\n\ty\n",
    "a key repeated twice, then a line without a tab": b"a\t1\nb\t2\na\t3\na\t4\nno tab\n",
    "a bad byte after a line without a tab": b"a\tx\rno tab\r\xff\n",
}


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "colliding"])
@pytest.mark.parametrize("data", TEXT_TABLE_CASES.values(), ids=TEXT_TABLE_CASES)
def test_read_text_table_matches_the_line_by_line_oracle_on_named_cases(data, collide):
    _assert_table_oracle_agrees(data, collide)


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "colliding"])
@settings(max_examples=200, deadline=None)
@given(data=text_tables())
def test_read_text_table_matches_the_line_by_line_oracle(data, collide):
    _assert_table_oracle_agrees(data, collide)


@pytest.mark.parametrize("which", DATASETS)
def test_the_byte_parser_builds_the_files_the_line_parser_built(tmp_path, toy_dir, monkeypatch, which):
    dataset = toy_dir if DATASETS[which] is None else DATASETS[which](str(tmp_path / "dataset"))
    load_kg(dataset, None, str(tmp_path / "bytes"))
    # every file read by the line-by-line oracles: the text tables and the triples
    monkeypatch.setattr(kg_module, "_parse", parse_by_line)
    load_kg(dataset, None, str(tmp_path / "lines"))
    names = sorted(os.listdir(tmp_path / "bytes"))
    assert names == sorted(os.listdir(tmp_path / "lines"))
    for name in names:
        assert read_bytes(tmp_path / "bytes" / name) == read_bytes(tmp_path / "lines" / name), name


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_a_triple_file_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, end):
    root = write_dataset(tmp_path / "d", ENTITIES, RELATIONS, [], [], [])
    path = os.path.join(root, "valid.txt")
    with open(path, "wb") as f:
        f.write(f"/e/a\t/r/x\t/e/b{end}{end}/é/".encode("utf-8") + b"\xff\n")
    with pytest.raises(DataError, match=rf"^{re.escape(path)}:3: not UTF-8"):
        load_kg(root)
