"""Knowledge-graph loading, indexing, and relation co-occurrence statistics.

Datasets are directories of UTF-8 text files: ``train.txt`` / ``valid.txt`` /
``test.txt`` hold one tab-separated triple per line (raw identifier strings),
``entity2text.txt`` and ``relation2text.txt`` map identifiers to surface
names, and ``entity2textlong.txt`` maps identifiers to descriptions.
Dense integer ids are assigned by order of first appearance in the text
files, so id assignment is independent of triple order. Every file is read
with universal newlines, a blank line is skipped, and a file that is not
UTF-8 or a malformed line is a :class:`DataError` naming its file and line.

A triple file is tokenised as bytes, with no Python object made per field:
one ``flatnonzero`` finds its tabs and newlines, so each fact line's three
fields are byte ranges, and each field is read as the little-endian 8-byte
words of its bytes through a strided view. A ``_KeyTable``, built once per
key table, finds every field's id in an open-addressing table of the keys'
words. It accepts a key only when the length and every word are equal, so
keys match exactly, spaces and NULs included, and the hash never decides.

In memory every split is an ``(n, 3)`` int64 array of ``(head, relation,
tail)`` rows in file order, with later duplicates dropped. The indexes are
arrays too: the filter sets are all true facts sorted by ``(head, relation)``
and by ``(relation, tail)`` and searched with ``searchsorted``, the
adjacency is a CSR list of train row numbers per entity, and negative
sampling tests membership in the train keys ``(h·R + r)·E + t``: a key
first looks up one bool of a 4 MB filter, set at every train key's
multiplicative hash, and only a key that passes is searched for in the
sorted train keys. The filter has no false negatives, and the search decides
every hit. It is built at the first such test and held in memory only.

The entity descriptions are a :class:`PackedTexts`: one UTF-8 blob and the
offsets of its entries, each decoded when it is read. A prompt reads the
description of its known entity alone, so a load decodes none of them.

Parsing, validating and indexing a dataset is all of a first load.
``load_kg`` can write the built graph to a directory its caller addresses
by the dataset's content, as two files: ``graph.npy``, one int64 array that
holds every array the constructor derives (the splits, the three key
arrays, the adjacency and ``cooc``) and the offsets of every text table's
entries, and ``texts.bin``, the entries of the five text tables in UTF-8. A
later load reads it back without parsing, sorting, forming ``cooc`` or
decoding a key or a description: each array is a read-only view of one
memory map, the keys and descriptions are :class:`PackedTexts` over the
text blob, and only the two name tables are decoded. O(n) checks take the
place of validation (section lengths, id ranges, strictly increasing keys,
adjacency and text offsets, valid UTF-8). A directory with a file missing,
cut short or failing a check counts as absent.
"""

from __future__ import annotations

import functools
import itertools
import logging
import mmap
import os
from collections.abc import Sequence
from typing import Iterable, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

TRAIN_FILE = "train.txt"
VALID_FILE = "valid.txt"
TEST_FILE = "test.txt"
ENTITY_NAME_FILE = "entity2text.txt"
ENTITY_DESC_FILE = "entity2textlong.txt"
RELATION_NAME_FILE = "relation2text.txt"
DATASET_FILES = (
    ENTITY_NAME_FILE,
    ENTITY_DESC_FILE,
    RELATION_NAME_FILE,
    TRAIN_FILE,
    VALID_FILE,
    TEST_FILE,
)

# the built graph's two files. graph.npy is one int64 array: the length of
# each section below, then the sections end to end, each split's rows and
# cooc flattened, and each text table as the offsets of its entries in
# texts.bin, E + 1 or R + 1 of them, each table starting where the last one
# ended. texts.bin is the tables' entries in this order, in UTF-8, each
# followed by "\n". A change here must bump GRAPH_LAYOUT.
GRAPH_LAYOUT = 4  # 1 held the three parsed splits alone, 2 the descriptions as a .txt table, 3 fifteen files
_BUILT_ARRAYS = (
    "train", "valid", "test", "_train_keys", "_all_keys", "_head_keys", "_adj_facts", "_adj_offsets", "cooc"
)
_BUILT_TABLES = ("entity_keys", "entity_names", "relation_keys", "relation_names", "entity_descriptions")
_SECTIONS = _BUILT_ARRAYS + _BUILT_TABLES
_GRAPH_ARRAY, _GRAPH_TEXTS = "graph.npy", "texts.bin"


class DataError(Exception):
    """Missing, malformed, or internally inconsistent dataset files."""


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


_FILTER_BITS = 22  # 4 MB of slots, about 15 per train key at FB15K-237's size
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it permutes the 64-bit words


def _filter_slot(keys: np.ndarray) -> np.ndarray:
    """The slot of each int64 key in ``KnowledgeGraph._train_filter``: the top
    bits of the key times an odd constant, modulo 2**64, as an int64 index."""
    slots = (np.asarray(keys, dtype=np.int64).view(np.uint64) * _MIX) >> np.uint64(64 - _FILTER_BITS)
    return slots.view(np.int64)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PackedTexts(Sequence):
    r"""A read-only sequence of strings held in one blob, each in UTF-8 and
    followed by "\n": entry i is ``blob[offsets[i]:offsets[i + 1] - 1]``,
    decoded each time it is read."""

    def __init__(self, blob: bytes | mmap.mmap, offsets: np.ndarray):
        self.blob = blob  # or a read-only map of a file, whose slices are bytes too
        self.offsets = offsets  # int64, one more than the entries, strictly increasing within the blob

    @classmethod
    def pack(cls, entries: Iterable[str]) -> PackedTexts:
        entries = list(entries)
        blob = "\n".join([*entries, ""]).encode("utf-8")
        ends = np.flatnonzero(np.frombuffer(blob, dtype=np.uint8) == ord("\n")) + 1
        if len(ends) != len(entries):
            raise ValueError('an entry of PackedTexts may not contain "\\n"')
        return cls(blob, _readonly(np.concatenate([[0], ends]).astype(np.int64)))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        index = range(len(self))[index]  # a negative index, a slice and IndexError as a list has them
        if isinstance(index, range):
            return [self[i] for i in index]
        return self.blob[self.offsets[index] : self.offsets[index + 1] - 1].decode("utf-8")


class KnowledgeGraph:
    """Immutable multi-relational graph with text attributes and indexes.

    Construction validates ids, enforces split disjointness, deduplicates
    triples within a split, and precomputes the adjacency, the all-splits
    filter index used by filtered ranking, and the relation co-occurrence
    matrix. Splits may be given as ``(n, 3)`` arrays or as sequences of
    triples. ``load_kg`` also fills one from a built graph's files, without
    running the constructor.
    """

    def __init__(
        self,
        entity_keys: Sequence[str],
        entity_names: Sequence[str],
        entity_descriptions: Sequence[str],
        relation_keys: Sequence[str],
        relation_names: Sequence[str],
        train: Iterable[Triple] | np.ndarray,
        valid: Iterable[Triple] | np.ndarray,
        test: Iterable[Triple] | np.ndarray,
    ):
        if not (len(entity_keys) == len(entity_names) == len(entity_descriptions)):
            raise DataError("entity tables have inconsistent lengths")
        if len(relation_keys) != len(relation_names):
            raise DataError("relation tables have inconsistent lengths")
        self.entity_keys = list(entity_keys)
        self.entity_names = list(entity_names)
        if not isinstance(entity_descriptions, PackedTexts):
            entity_descriptions = PackedTexts.pack(entity_descriptions)
        self.entity_descriptions = entity_descriptions
        self.relation_keys = list(relation_keys)
        self.relation_names = list(relation_names)
        if self.num_entities**2 * self.num_relations >= 2**63:
            raise DataError("graph too large for int64 triple keys")

        splits, keys = [], []
        for name, triples in (("train", train), ("valid", valid), ("test", test)):
            rows = self._checked(triples, name)
            rows, split_keys = self._dedup(rows, name)
            splits.append(_readonly(rows))
            keys.append(split_keys)
        self.train, self.valid, self.test = splits

        # each split is duplicate-free, so a repeated key is shared by two splits
        all_keys = np.sort(np.concatenate(keys))
        if (all_keys[1:] == all_keys[:-1]).any():
            raise DataError("splits share triples; they must be disjoint")
        self._train_keys = _readonly(keys[0])

        # filter index: every true fact's key (h·R + r)·E + t, sorted, and
        # its head-ordered key (r·E + t)·E + h, sorted; the facts of one
        # (h, r) or (r, t) form one run of E consecutive key values
        n_e = self.num_entities
        self._all_keys = _readonly(all_keys)
        every = np.concatenate(splits)
        self._head_keys = _readonly(np.sort((every[:, 1] * n_e + every[:, 2]) * n_e + every[:, 0]))

        # CSR adjacency: train row numbers per entity, in file order; a
        # self-loop is listed once, so every packed end·n + row is distinct.
        # Sorted and reduced in place: a second array of this size left a
        # hole in the heap that raised the peak memory of a later training
        n_train = max(len(self.train), 1)
        rows = np.arange(len(self.train), dtype=np.int64)
        loop = self.train[:, 0] == self.train[:, 2]
        ends = np.concatenate([self.train[:, 0], self.train[~loop, 2]])
        packed = ends * n_train + np.concatenate([rows, rows[~loop]])
        packed.sort()
        self._adj_facts = _readonly(np.remainder(packed, n_train, out=packed))
        self._adj_offsets = _readonly(
            np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n_e))])
        )

        self.cooc = _readonly(build_cooccurrence(self))

    @property
    def num_entities(self) -> int:
        return len(self.entity_keys)

    @property
    def num_relations(self) -> int:
        return len(self.relation_keys)

    def known_tails(self, head: int, relation: int) -> np.ndarray:
        """Sorted ids t with (head, relation, t) true in any split."""
        base = (head * self.num_relations + relation) * self.num_entities
        lo, hi = np.searchsorted(self._all_keys, (base, base + self.num_entities))
        return self._all_keys[lo:hi] - base

    def known_heads(self, relation: int, tail: int) -> np.ndarray:
        """Sorted ids h with (h, relation, tail) true in any split."""
        base = (relation * self.num_entities + tail) * self.num_entities
        lo, hi = np.searchsorted(self._head_keys, (base, base + self.num_entities))
        return self._head_keys[lo:hi] - base

    def in_train(self, rows: np.ndarray) -> np.ndarray:
        """Whether each (h, r, t) row of an ``(n, 3)`` id array is a training fact.

        A key whose slot in ``_train_filter`` is clear is no train key; only
        the keys that pass are searched for in the sorted train keys, so the
        filter decides no hit on its own.
        """
        keys = self._keys(rows)
        maybe = np.flatnonzero(self._train_filter[_filter_slot(keys)])
        needles = keys[maybe]
        pos = np.searchsorted(self._train_keys, needles)
        hit = np.zeros(len(keys), dtype=bool)
        inside = pos < len(self._train_keys)
        hit[maybe[inside]] = self._train_keys[pos[inside]] == needles[inside]
        return hit

    @functools.cached_property
    def _train_filter(self) -> np.ndarray:
        """One bool per slot of ``_filter_slot``, set at every train key's slot:
        built at the first ``in_train`` and held in memory only."""
        seen = np.zeros(1 << _FILTER_BITS, dtype=bool)
        seen[_filter_slot(self._train_keys)] = True
        return seen

    def incident_rows(self, entity: int) -> np.ndarray:
        """Train row numbers of the facts incident to ``entity``, ascending."""
        if not 0 <= entity < self.num_entities:
            raise ValueError(f"entity id {entity} out of range [0, {self.num_entities})")
        return self._adj_facts[self._adj_offsets[entity] : self._adj_offsets[entity + 1]]

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One int64 per (h, r, t) row: (h·R + r)·E + t, which sorts by (h, r) then t."""
        return (rows[:, 0] * self.num_relations + rows[:, 1]) * self.num_entities + rows[:, 2]

    def _checked(self, triples, split_name: str) -> np.ndarray:
        rows = np.array(
            triples if isinstance(triples, np.ndarray) else list(triples), dtype=np.int64, order="C"
        )
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise DataError(f"{split_name}: expected (head, relation, tail) rows, got shape {rows.shape}")
        ent = rows[:, [0, 2]]
        bad_entity = ((ent < 0) | (ent >= self.num_entities)).any(axis=1)
        bad = bad_entity | (rows[:, 1] < 0) | (rows[:, 1] >= self.num_relations)
        if bad.any():
            i = int(np.argmax(bad))
            what = "entity" if bad_entity[i] else "relation"
            raise DataError(f"{split_name}: {what} id out of range in {Triple(*rows[i].tolist())}")
        return rows

    def _dedup(self, rows: np.ndarray, split_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Rows without later duplicates, in file order, and their keys, sorted
        in place, as the adjacency is, to leave no second array behind."""
        ordered = self._keys(rows)
        ordered.sort()
        if not (ordered[1:] == ordered[:-1]).any():
            return rows, ordered
        ordered, first = np.unique(self._keys(rows), return_index=True)
        logger.warning("%s split: dropped %d duplicated triple(s)", split_name, len(rows) - len(first))
        return rows[np.sort(first)], ordered


def build_cooccurrence(kg: KnowledgeGraph) -> np.ndarray:
    """``C[r, s]``: the entities incident to both r and s as head or tail of a training fact.

    With the entity-by-relation incidence matrix B, ``C = BᵀB``, so the
    diagonal ``C[r, r]`` is the number of entities incident to r. The
    product runs in floating point, which BLAS accelerates; every partial
    sum is an integer no larger than the entity count, so it is exact while
    that count is below 2**24 in float32 (2**53 in float64).
    """
    dtype = np.float32 if kg.num_entities < 2**24 else np.float64
    incidence = np.zeros((kg.num_entities, kg.num_relations), dtype=dtype)
    incidence[kg.train[:, 0], kg.train[:, 1]] = 1
    incidence[kg.train[:, 2], kg.train[:, 1]] = 1
    return (incidence.T @ incidence).astype(np.int64)


def _read_bytes(path: str) -> bytes:
    r"""The file's bytes with universal newlines: each "\r\n" and lone "\r" as "\n"."""
    if not os.path.isfile(path):
        raise DataError(f"missing dataset file: {path}")
    with open(path, "rb") as f:
        data = f.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _decoded(path: str, data: bytes) -> str:
    """``data`` decoded as UTF-8, or a :class:`DataError` naming the line of
    the first byte that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None


def read_text_table(path: str) -> list[tuple[int, str, str]]:
    """The ``(line number, key, text)`` of each non-blank ``<key><TAB><text>`` line;
    a byte that is not UTF-8, a line without a tab or a repeated key is a
    :class:`DataError` naming the file and line."""
    rows = []
    seen: set[str] = set()
    for lineno, line in enumerate(_decoded(path, _read_bytes(path)).split("\n"), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected '<id>\\t<text>'")
        key, text = line.split("\t", 1)
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate identifier {key!r}")
        seen.add(key)
        rows.append((lineno, key, text))
    return rows


# the mask of the first n bytes of a little-endian 8-byte word, n = 0..8
_WORD_MASKS = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)


def _words(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> list[np.ndarray]:
    """Word j of each field ``padded[start:start + length]``, j < ``width``:
    its bytes ``8j`` to ``8j + 7`` as one little-endian uint64, zero past
    the field's end. Every start must lie ``8 * width`` bytes or more before
    the end of ``padded``."""
    # an 8-byte word at every byte offset: a strided view, nothing copied
    at = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    words = [at[starts + 8 * j] for j in range(width)]
    for j, word in enumerate(words):
        word &= _WORD_MASKS[np.clip(lengths - 8 * j, 0, 8)]
    return words


class _KeyTable:
    """The keys of a text table, found by their UTF-8 bytes.

    A key is its byte length and the ``width`` words of ``_words``, enough
    for the longest key. A hash of the length and the words gives each key
    a home in an open-addressing table of at least four slots per key, and
    a lookup probes linearly from the field's home to an empty slot. A
    field matches a key only when its length and every word equal the
    key's, so the hash never decides a match on its own.
    """

    def __init__(self, keys: Sequence[str]):
        encoded = [key.encode("utf-8") for key in keys]
        lengths = np.array([len(b) for b in encoded], dtype=np.int64)
        self.width = max(1, -(-int(lengths.max(initial=0)) // 8))
        blob = b"".join(encoded)
        padded = np.zeros(len(blob) + 8 * self.width, dtype=np.uint8)
        padded[: len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        starts = np.cumsum(lengths) - lengths
        words = _words(padded, starts, lengths, self.width)
        self._mask = (1 << max(2, (4 * len(keys) - 1).bit_length())) - 1
        self._slots = np.full(self._mask + 1, -1, dtype=np.int64)
        # every key at once: in each round, a key that probes a free slot takes
        # it unless a key before it probes the same slot
        pending, slot = np.arange(len(keys)), self._home(words, lengths)
        while pending.size:
            free = np.flatnonzero(self._slots[slot] < 0)
            taken, first = np.unique(slot[free], return_index=True)
            self._slots[taken] = pending[free[first]]
            left = np.ones(len(pending), dtype=bool)
            left[free[first]] = False
            pending, slot = pending[left], (slot[left] + 1) & self._mask
        # each key's length and words, and at index -1, which an empty slot
        # holds, a length that no field has
        self._lengths = np.append(lengths, -1)
        self._words = [np.append(column, np.uint64(0)) for column in words]

    def _home(self, words: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
        h = lengths.astype(np.uint64)
        for column in words:
            h ^= column
            h *= _MIX
            h ^= h >> np.uint64(29)
        h *= _MIX
        h >>= np.uint64(64 - self._mask.bit_length())  # the top bits mix every byte
        return h.view(np.int64)

    def find(self, padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The id of each field ``padded[start:start + length]``, -1 where no key equals it."""
        words = _words(padded, starts, lengths, self.width)
        slot = self._home(words, lengths)
        ids = np.full(len(starts), -1, dtype=np.int64)
        index = np.arange(len(starts))  # the fields still probing, which shrink each round
        while index.size:
            key = self._slots[slot]
            match = self._lengths[key] == lengths
            for mine, field in zip(self._words, words):
                match &= mine[key] == field
            ids[index[match]] = key[match]
            # an empty slot ends a probe: no key equals that field
            probe = np.flatnonzero(~match & (key >= 0))
            index, slot, lengths = index[probe], (slot[probe] + 1) & self._mask, lengths[probe]
            words = [field[probe] for field in words]
        return ids


def _padded_bytes(path: str, pad: int) -> np.ndarray:
    """A dataset file's bytes, checked as UTF-8 and ended by a newline, then
    ``pad`` zero bytes."""
    data = _read_bytes(path)
    if not data.isascii():
        _decoded(path, data)
    padded = np.zeros(len(data) + 1 + pad, dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    if not data.endswith(b"\n"):
        padded[len(data)] = ord("\n")
    return padded


def _fact_fields(text: np.ndarray) -> tuple[np.ndarray, tuple, tuple[int, int] | None]:
    r"""The fact lines of newline-ended ``text`` up to its first bad line:
    their 0-based numbers, the ``(starts, first tabs, second tabs, ends)``
    of their fields, and the number and field count of that bad line, if
    any. A line ends at "\n"; a blank line is skipped, and any other must
    hold exactly two tabs."""
    seps = np.flatnonzero(text <= ord("\n"))
    seps = seps[text[seps] >= ord("\t")]  # tabs and newlines, not the bytes below them
    newline = text[seps] == ord("\n")
    at_newline = np.flatnonzero(newline)
    ends, tabs = seps[at_newline], seps[~newline]
    starts = np.concatenate([[0], ends[:-1] + 1])
    tab_counts = np.diff(at_newline, prepend=-1) - 1
    blank = starts == ends
    bad = np.flatnonzero(~blank & (tab_counts != 2))
    fault = None if not bad.size else (int(bad[0]), int(tab_counts[bad[0]]) + 1)
    lines = np.flatnonzero(~blank[: len(ends) if fault is None else fault[0]])
    n = len(lines)  # a fact line has two tabs and a blank line none, so its tabs come in pairs
    return lines, (starts[lines], tabs[0 : 2 * n : 2], tabs[1 : 2 * n : 2], ends[lines]), fault


def _read_triples(path: str, entities: _KeyTable, relations: _KeyTable) -> np.ndarray:
    """The ``(n, 3)`` (head, relation, tail) ids of a triple file's facts.

    One pass over the file's bytes, with no Python object made per field.
    The first fault in line order is raised; on one line an unknown head
    comes before an unknown tail, and that before an unknown relation."""
    padded = _padded_bytes(path, 8 * max(entities.width, relations.width))
    lines, (starts, first_tab, second_tab, ends), fault = _fact_fields(padded)
    rows = np.empty((len(lines), 3), dtype=np.int64)
    rows[:, 0] = entities.find(padded, starts, first_tab - starts)
    rows[:, 1] = relations.find(padded, first_tab + 1, second_tab - first_tab - 1)
    rows[:, 2] = entities.find(padded, second_tab + 1, ends - second_tab - 1)
    if rows.min(initial=0) < 0:
        i = int(np.argmax((rows < 0).any(axis=1)))
        for kind, column, begin, end in (
            ("entity", 0, starts[i], first_tab[i]),
            ("entity", 2, second_tab[i] + 1, ends[i]),
            ("relation", 1, first_tab[i] + 1, second_tab[i]),
        ):
            if rows[i, column] < 0:
                key = padded[begin:end].tobytes().decode("utf-8")
                raise DataError(f"{path}:{lines[i] + 1}: unknown {kind} {key!r}")
    if fault is not None:
        raise DataError(f"{path}:{fault[0] + 1}: expected 3 tab-separated fields, got {fault[1]}")
    return rows


def _parse(dataset_dir: str) -> KnowledgeGraph:
    ent_rows = read_text_table(os.path.join(dataset_dir, ENTITY_NAME_FILE))
    rel_rows = read_text_table(os.path.join(dataset_dir, RELATION_NAME_FILE))
    entity_keys = [k for _, k, _ in ent_rows]
    entity_names = [v for _, _, v in ent_rows]
    relation_keys = [k for _, k, _ in rel_rows]
    relation_names = [v for _, _, v in rel_rows]
    entity_ids = {k: i for i, k in enumerate(entity_keys)}

    path = os.path.join(dataset_dir, ENTITY_DESC_FILE)
    descriptions = [""] * len(entity_keys)
    for lineno, key, text in read_text_table(path):
        if key not in entity_ids:
            raise DataError(f"{path}:{lineno}: description for unknown entity {key!r}")
        descriptions[entity_ids[key]] = text
    descriptions = PackedTexts.pack(descriptions)  # the strings are freed before the triples are read

    entities, relations = _KeyTable(entity_keys), _KeyTable(relation_keys)
    splits = [
        _read_triples(os.path.join(dataset_dir, name), entities, relations)
        for name in (TRAIN_FILE, VALID_FILE, TEST_FILE)
    ]
    return KnowledgeGraph(entity_keys, entity_names, descriptions, relation_keys, relation_names, *splits)


def _write_built(kg: KnowledgeGraph, out_dir: str) -> None:
    """Write a parsed graph's two files. Its descriptions, packed by the
    parse, are a blob that holds them alone, from offset 0."""
    os.mkdir(out_dir)
    tables = [getattr(kg, name) for name in _BUILT_TABLES]
    tables = [t if isinstance(t, PackedTexts) else PackedTexts.pack(t) for t in tables]
    starts = np.cumsum([0] + [len(t.blob) for t in tables[:-1]])
    sections = [getattr(kg, name).reshape(-1) for name in _BUILT_ARRAYS]
    sections += [t.offsets + start for t, start in zip(tables, starts)]
    lengths = np.array([len(s) for s in sections], dtype=np.int64)
    # written a section at a time: an np.save of their concatenation first
    # copies the graph into fresh pages, 8-20 ms of a seed-7 miss
    shape = (len(lengths) + int(lengths.sum()),)
    with open(os.path.join(out_dir, _GRAPH_ARRAY), "wb") as f:
        descr = np.lib.format.dtype_to_descr(lengths.dtype)  # native int64, as np.save writes it
        np.lib.format.write_array_header_1_0(f, {"descr": descr, "fortran_order": False, "shape": shape})
        for section in [lengths, *sections]:
            f.write(np.ascontiguousarray(section, dtype=np.int64))
    with open(os.path.join(out_dir, _GRAPH_TEXTS), "wb") as f:
        f.writelines(t.blob for t in tables)


def _read_built(cache_dir: str) -> KnowledgeGraph | None:
    """The graph built in ``cache_dir``, or None when a file there is missing,
    cut short or fails a check. Nothing is parsed, sorted or multiplied, and
    only the names are decoded (a blob that is not ASCII is decoded once, to
    check it)."""
    try:
        # a read-only map, seen as a plain ndarray: a stage reads only the pages it touches
        graph = np.asarray(np.load(os.path.join(cache_dir, _GRAPH_ARRAY), mmap_mode="r", allow_pickle=False))
        with open(os.path.join(cache_dir, _GRAPH_TEXTS), "rb") as f:
            # mapped too: a read would copy its megabytes into fresh pages (an empty file cannot be mapped)
            blob = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if os.fstat(f.fileno()).st_size else b""
    except (OSError, ValueError, EOFError):  # missing, or cut short inside its header or data
        return None
    sections = _sections(graph)
    if sections is None:
        return None
    counts = [len(sections[name]) - 1 for name in _BUILT_TABLES]
    if not _is_packed(blob, graph[graph.size - len(counts) - sum(counts) :], counts):
        return None
    kg = KnowledgeGraph.__new__(KnowledgeGraph)
    for name in _BUILT_ARRAYS:
        setattr(kg, name, sections[name])
    for name in ("entity_keys", "relation_keys", "entity_descriptions"):
        setattr(kg, name, PackedTexts(blob, sections[name]))
    for name in ("entity_names", "relation_names"):  # what every prompt reads
        offsets = sections[name]
        entries = blob[offsets[0] : offsets[-1]].decode("utf-8").split("\n")
        entries.pop()  # "", after the last entry's "\n"
        setattr(kg, name, entries)
    return kg if _is_whole(kg) else None


def _sections(graph: np.ndarray) -> dict[str, np.ndarray] | None:
    """Each section of a built graph's array, by name, or None when its length
    prefix does not describe it: a length below 0, lengths that do not sum to
    the array's size, a split that is not rows of 3, no entity or relation
    keys' offsets, names or descriptions of another count than their keys,
    or a ``cooc`` that is not R × R. The names are counted again once split,
    which finds a newline inside one."""
    if not (graph.dtype == np.int64 and graph.ndim == 1 and graph.size >= len(_SECTIONS)):
        return None
    lengths = dict(zip(_SECTIONS, graph[: len(_SECTIONS)].tolist()))
    n_e, n_r = lengths["entity_keys"] - 1, lengths["relation_keys"] - 1
    if not (
        min(lengths.values()) >= 0
        and sum(lengths.values()) == graph.size - len(_SECTIONS)
        and lengths["train"] % 3 == lengths["valid"] % 3 == lengths["test"] % 3 == 0
        and n_e >= 0
        and n_r >= 0
        and lengths["entity_names"] == lengths["entity_descriptions"] == n_e + 1
        and lengths["relation_names"] == n_r + 1
        and lengths["cooc"] == n_r * n_r
    ):
        return None
    ends = list(itertools.accumulate(lengths.values(), initial=len(_SECTIONS)))
    sections = {name: graph[start:end] for name, start, end in zip(_SECTIONS, ends, ends[1:])}
    for name in ("train", "valid", "test"):
        sections[name] = sections[name].reshape(-1, 3)
    sections["cooc"] = sections["cooc"].reshape(n_r, n_r)
    return sections


def _is_whole(kg: KnowledgeGraph) -> bool:
    """O(n) structural checks on a graph read back from its built files."""
    n_e, n_r = kg.num_entities, kg.num_relations
    splits = (kg.train, kg.valid, kg.test)
    offsets, facts = kg._adj_offsets, kg._adj_facts
    n_all = sum(map(len, splits))
    key_bound = n_e * n_r * n_e  # above every key (h·R + r)·E + t and (r·E + t)·E + h
    return (
        len(kg.entity_names) == n_e
        and len(kg.relation_names) == n_r
        and all(_ids_within(rows, n_e, n_r) for rows in splits)
        and _increasing(kg._train_keys, len(kg.train), key_bound)
        and _increasing(kg._all_keys, n_all, key_bound)
        and _increasing(kg._head_keys, n_all, key_bound)
        and offsets.shape == (n_e + 1,)
        and offsets[0] == 0
        and offsets[-1] == len(facts)
        and bool((offsets[1:] >= offsets[:-1]).all())
        and _within(facts, len(kg.train))
    )


def _within(ids: np.ndarray, bound: int) -> bool:
    """Whether every id lies in ``[0, bound)``: one pass for the maximum of the
    ids seen as uint64, where a negative id is huge."""
    return ids.size == 0 or ids.view(np.uint64).max() < bound


def _ids_within(rows: np.ndarray, n_e: int, n_r: int) -> bool:
    """Whether every (h, r, t) row holds entity ids in ``[0, n_e)`` and a
    relation id in ``[0, n_r)``: one pass over the whole array for the
    larger bound, then one over the column or columns of the smaller."""
    if rows.size == 0:
        return True
    if not _within(rows, max(n_e, n_r)):
        return False
    if n_r < n_e:
        return rows[:, 1].max() < n_r
    if n_e < n_r:
        return rows[:, ::2].max() < n_e
    return True


def _is_packed(blob: bytes, offsets: np.ndarray, counts: list[int]) -> bool:
    r"""Whether ``offsets`` is, end to end, the ``count + 1`` offsets of each of
    tables of ``counts`` entries that fill ``blob``: the first table starts
    at 0 and each later one where the last ended, offsets increase strictly
    within a table and end at the blob's length, every entry ends in "\n",
    and the blob is UTF-8. Then every entry starts on a character too: at 0,
    or after a "\n"."""
    steps = np.diff(offsets)
    rises = steps > 0
    joins = np.cumsum(np.add(counts[:-1], 1)) - 1  # the step from a table's last offset to the next one's first
    if not (
        offsets[0] == 0
        and offsets[-1] == len(blob)
        and (steps[joins] == 0).all()
        and np.count_nonzero(rises) == sum(counts)
    ):
        return False
    text = np.frombuffer(blob, dtype=np.uint8)
    if not (text[offsets[1:][rises] - 1] == ord("\n")).all():
        return False
    if text.max(initial=0) < 0x80:  # ASCII, which is UTF-8
        return True
    try:
        str(blob, "utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _increasing(keys: np.ndarray, length: int, bound: int) -> bool:
    """Whether ``keys`` is ``length`` strictly increasing values in ``[0, bound)``."""
    return keys.shape == (length,) and (
        length == 0 or (keys[0] >= 0 and keys[-1] < bound and bool((keys[1:] > keys[:-1]).all()))
    )


def load_kg(dataset_dir: str, cache_dir: str | None = None, build_dir: str | None = None) -> KnowledgeGraph:
    """Load a dataset directory as a graph.

    With ``cache_dir``, the graph built there is read back when every file
    of it is present and passes its checks. The caller must key that
    directory by the dataset files' content: a hit looks at none of them.
    Otherwise the dataset is parsed and validated, and with ``build_dir``
    the built graph is then written to that new directory.
    """
    if cache_dir is not None:
        kg = _read_built(cache_dir)
        if kg is not None:
            return kg
    kg = _parse(dataset_dir)
    if build_dir is not None:
        _write_built(kg, build_dir)
    return kg
