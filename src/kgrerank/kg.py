"""Knowledge-graph loading, indexing, and relation co-occurrence statistics.

Datasets are directories of UTF-8 text files: ``train.txt`` / ``valid.txt`` /
``test.txt`` hold one tab-separated triple per line (raw identifier strings),
``entity2text.txt`` and ``relation2text.txt`` map identifiers to surface
names, and ``entity2textlong.txt`` maps identifiers to descriptions.
Dense integer ids are assigned by order of first appearance in the text
files, so id assignment is independent of triple order. Every file is read
with universal newlines, a blank line is skipped, and a file that is not
UTF-8 or a malformed line is a :class:`DataError` naming its file and line.

Every file is tokenised as bytes, with no Python object made per field.
It is read once into a padded buffer, in which ``flatnonzero`` finds the
tabs and newlines, so each line's fields are byte ranges (a text
table's key ends at the line's first tab); a triple file is tokenised a
slice of whole lines at a time, so that no temporary array grows with it.
Each key or field is read as the little-endian 8-byte words of its bytes
through a strided view. A ``_KeyTable``, built once per text table from its
keys' byte ranges, finds every field's id in an open-addressing table of
the keys' words, and finds a repeated key as it is built. It accepts a key
only when the length and every word are equal, so keys match exactly,
spaces and NULs included, and the hash never decides. No text is decoded
to be encoded again: each text table is cut from its file's bytes, the
descriptions in entity-id order, and a built graph's texts are those bytes.

In memory every split is an ``(n, 3)`` int64 array of ``(head, relation,
tail)`` rows in file order, with later duplicates dropped. The indexes are
arrays too: the filter sets are all true facts sorted by ``(head, relation)``
and by ``(relation, tail)`` and searched with ``searchsorted``, the
adjacency is a CSR list of train row numbers per entity, and negative
sampling tests membership in the train keys ``(h·R + r)·E + t``: a key
first looks up one bool of a 4 MB filter, set at every train key's
multiplicative hash, and only a key that passes is searched for in the
sorted train keys. The filter has no false negatives, and the search decides
every hit. The sorted train keys and the filter are built at the first such
test, whichever load made the graph, and held in memory only.

A graph holds no key table: ids stand for the keys past the parse. It holds
each text table in one form, whichever load made it: the descriptions are a
:class:`PackedTexts`, one UTF-8 blob and the offsets of its entries, each
decoded when it is read (a prompt reads its known entity's alone), and the
names are lists decoded once. The constructor stores the text tables as
given, and takes over an int64 split array and makes it read-only.

Parsing, validating and indexing a dataset is all of a first load.
``load_kg`` can write the built graph to a directory its caller addresses
by the dataset's content, as two files: ``graph.npy``, one int64 array that
holds every array the constructor stores (the splits, the filter index's two
key arrays, the adjacency and ``cooc``) and the offsets of every text table's
entries, and ``texts.bin``, the entries of the three text tables in UTF-8. A
later load reads it back without parsing, sorting, counting ``cooc`` or
decoding a description: each array is a read-only view of one memory map,
the descriptions are a :class:`PackedTexts` over the text blob, and only the
two name tables are decoded. O(n) checks take the place of validation
(section lengths, id ranges, strictly increasing keys, adjacency and text
offsets, valid UTF-8). A file there that is missing, cut short, grown or
fails a check is a :class:`DataError` that says why.
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
GRAPH_LAYOUT = 6  # 1 the parsed splits alone, 2 descriptions as a .txt table, 3 fifteen files, 4 the train keys, 5 the key tables
_BUILT_ARRAYS = ("train", "valid", "test", "_all_keys", "_head_keys", "_adj_facts", "_adj_offsets", "cooc")
_BUILT_TABLES = ("entity_names", "relation_names", "entity_descriptions")
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
    """The slot of each int64 key in ``KnowledgeGraph._train_index``'s filter: the top
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
    def cut(cls, data: bytes | bytearray, starts: np.ndarray, ends: np.ndarray) -> PackedTexts:
        r"""The entries ``data[start:end]``, UTF-8 that holds no "\n"."""
        pieces = [data[start:end] for start, end in zip(starts.tolist(), ends.tolist())]
        pieces.append(b"")  # the last entry's "\n"
        return cls(b"\n".join(pieces), _readonly(np.concatenate([[0], np.cumsum(ends - starts + 1)])))

    def tolist(self) -> list[str]:
        """Every entry, from one decode of the blob."""
        entries = self.blob[self.offsets[0] : self.offsets[-1]].decode("utf-8").split("\n")
        entries.pop()  # "", after the last entry's "\n"
        return entries

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: int) -> str:
        index = range(len(self))[index]  # a negative index and IndexError as a list has them
        return self.blob[self.offsets[index] : self.offsets[index + 1] - 1].decode("utf-8")


class KnowledgeGraph:
    """Immutable multi-relational graph with text attributes and indexes.

    Construction validates ids, enforces split disjointness, deduplicates
    triples within a split, and precomputes the adjacency, the all-splits
    filter index used by filtered ranking, and the relation co-occurrence
    matrix. Splits may be given as ``(n, 3)`` arrays or as sequences of
    triples; an int64 C-contiguous array is taken over, not copied, and made
    read-only. The three text tables, whose names count the entities and
    relations, are stored as given: any sequences of strings. ``load_kg``
    also fills one from a built graph's files, without running the
    constructor; their ``graph.npy`` holds two key arrays, the filter
    index's, and no train keys, which ``in_train`` sorts at its first call.
    """

    def __init__(
        self,
        entity_names: Sequence[str],
        entity_descriptions: Sequence[str],
        relation_names: Sequence[str],
        train: Iterable[Triple] | np.ndarray,
        valid: Iterable[Triple] | np.ndarray,
        test: Iterable[Triple] | np.ndarray,
    ):
        if len(entity_names) != len(entity_descriptions):
            raise DataError("entity tables have inconsistent lengths")
        self.entity_names = entity_names
        self.entity_descriptions = entity_descriptions
        self.relation_names = relation_names
        if self.num_entities**2 * self.num_relations >= 2**63:
            raise DataError("graph too large for int64 triple keys")

        splits, keys = [], []
        for name, triples in (("train", train), ("valid", valid), ("test", test)):
            rows = self._checked(triples, name)
            rows, split_keys = self._dedup(rows, name)
            splits.append(_readonly(rows))
            keys.append(split_keys)
        self.train, self.valid, self.test = splits

        # each split is duplicate-free, so a repeated key is shared by two
        # splits; the keys are three sorted runs, which a stable sort merges
        all_keys = np.sort(np.concatenate(keys), kind="stable")
        if (all_keys[1:] == all_keys[:-1]).any():
            raise DataError("splits share triples; they must be disjoint")

        # filter index: every true fact's key (h·R + r)·E + t, sorted, and
        # its head-ordered key (r·E + t)·E + h, sorted; the facts of one
        # (h, r) or (r, t) form one run of E consecutive key values
        n_e = self.num_entities
        self._all_keys = _readonly(all_keys)
        head_keys = np.concatenate([(rows[:, 1] * n_e + rows[:, 2]) * n_e + rows[:, 0] for rows in splits])
        head_keys.sort()
        self._head_keys = _readonly(head_keys)

        # CSR adjacency: train row numbers per entity, in file order; a
        # self-loop is listed once, so every packed end·2**bits + row is
        # distinct. Sorted and reduced in place: a second array of this size
        # left a hole in the heap that raised the peak memory of a later training
        n_train = len(self.train)
        bits = n_train.bit_length()  # above every row number
        tailed = np.flatnonzero(self.train[:, 0] != self.train[:, 2])  # the rows listed at their tail too
        ends = np.concatenate([self.train[:, 0], self.train[tailed, 2]])
        packed = np.left_shift(ends, bits)
        packed[:n_train] |= np.arange(n_train)
        packed[n_train:] |= tailed
        packed.sort()
        self._adj_facts = _readonly(np.bitwise_and(packed, (1 << bits) - 1, out=packed))
        self._adj_offsets = _readonly(
            np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n_e))])
        )

        self.cooc = _readonly(build_cooccurrence(self))

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

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

        A key whose filter slot is clear is no train key; only the keys that
        pass are searched for in the sorted train keys, so the filter decides
        no hit on its own.
        """
        train_keys, seen = self._train_index
        keys = self._keys(rows)
        maybe = np.flatnonzero(seen[_filter_slot(keys)])
        needles = keys[maybe]
        pos = np.searchsorted(train_keys, needles)
        hit = np.zeros(len(keys), dtype=bool)
        inside = pos < len(train_keys)
        hit[maybe[inside]] = train_keys[pos[inside]] == needles[inside]
        return hit

    @functools.cached_property
    def _train_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted train keys, and one bool per slot of ``_filter_slot``, set at
        each key's slot: built at the first ``in_train`` and held in memory only."""
        keys = np.sort(self._keys(self.train))
        seen = np.zeros(1 << _FILTER_BITS, dtype=bool)
        seen[_filter_slot(keys)] = True
        return keys, seen

    def incident_rows(self, entity: int) -> np.ndarray:
        """Train row numbers of the facts incident to ``entity``, ascending."""
        if not 0 <= entity < self.num_entities:
            raise ValueError(f"entity id {entity} out of range [0, {self.num_entities})")
        return self._adj_facts[self._adj_offsets[entity] : self._adj_offsets[entity + 1]]

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One int64 per (h, r, t) row: (h·R + r)·E + t, which sorts by (h, r) then t."""
        return (rows[:, 0] * self.num_relations + rows[:, 1]) * self.num_entities + rows[:, 2]

    def _checked(self, triples, split_name: str) -> np.ndarray:
        rows = np.asarray(triples if isinstance(triples, np.ndarray) else list(triples), dtype=np.int64, order="C")
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise DataError(f"{split_name}: expected (head, relation, tail) rows, got shape {rows.shape}")
        if _ids_within(rows, self.num_entities, self.num_relations):
            return rows
        ent = rows[:, [0, 2]]
        bad_entity = ((ent < 0) | (ent >= self.num_entities)).any(axis=1)
        bad = bad_entity | (rows[:, 1] < 0) | (rows[:, 1] >= self.num_relations)
        i = int(np.argmax(bad))
        what = "entity" if bad_entity[i] else "relation"
        raise DataError(f"{split_name}: {what} id out of range in {Triple(*rows[i].tolist())}")

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

    The diagonal ``C[r, r]`` is the number of entities incident to r. Each
    relation's incident entities are a bitset, one bit per entity in whole
    uint64 words, and ``C[r, s]`` is the popcount of the AND of the two
    bitsets, counted for s ≥ r and mirrored. The count is exact in integers
    and makes no BLAS call; where a bit sits in its word changes no count.
    """
    n_r = kg.num_relations
    width = -(-kg.num_entities // 64) * 64  # bits per relation
    incident = np.zeros(n_r * width, dtype=bool)
    row = kg.train[:, 1] * width
    incident[row + kg.train[:, 0]] = True
    incident[row + kg.train[:, 2]] = True
    bits = np.packbits(incident.reshape(n_r, width), axis=1).view(np.uint64)
    counts = np.empty((n_r, n_r), dtype=np.int64)
    for r in range(n_r):
        # summed in uint32: the constructor refuses E²·R ≥ 2**63, so E < 2**32
        counts[r, r:] = np.add.reduce(np.bitwise_count(bits[r:] & bits[r]), axis=1, dtype=np.uint32)
        counts[r:, r] = counts[r, r:]
    return counts


def _text_bytes(path: str) -> bytearray:
    r"""A dataset file's bytes with universal newlines (each "\r\n" and lone
    "\r" as "\n"), checked as UTF-8 and ended by a newline, then 8 zero bytes
    or more, past which ``_words`` reads no byte of a field. A byte that is
    not UTF-8 is a :class:`DataError` naming its line."""
    if not os.path.isfile(path):
        raise DataError(f"missing dataset file: {path}")
    with open(path, "rb") as f:
        # read into the padded buffer itself: padding a read would copy the file again
        data = bytearray(os.fstat(f.fileno()).st_size + 9)
        size = f.readinto(memoryview(data)[:-9])
    if data.find(b"\r", 0, size) >= 0:
        data = data[:size].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        size = len(data)
        data += bytes(9)
    if not data.isascii():
        try:
            str(memoryview(data)[:size], "utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None
    if not data.endswith(b"\n", 0, size):
        data[size] = ord("\n")
    return data


def _lines(text: np.ndarray, fields: int, exact: bool) -> tuple:
    r"""The lines of newline-ended ``text`` up to its first bad one.

    A line ends at "\n". A blank line is skipped, and any other is bad
    unless it holds ``fields`` tab-separated fields, or more when not
    ``exact``. Returns the 0-based numbers of the lines before the first bad
    one; the byte offsets of each one's start, first ``fields - 1`` tabs and
    end; the number and field count of the bad line, if any; and the number
    of lines in ``text``.
    """
    near = np.subtract(text, ord("\t"), dtype=np.uint8)  # a tab at 0, a newline at 1, any other byte above
    seps = np.flatnonzero(np.less_equal(near, 1, out=near.view(bool)))  # in place: one pass, one temporary
    at_newline = np.flatnonzero(text[seps] == ord("\n"))
    first = np.concatenate([[0], at_newline[:-1] + 1])  # each line's first tab or, with none, its newline
    ends = seps[at_newline]
    starts = np.concatenate([[0], ends[:-1] + 1])
    counts = at_newline - first + 1
    blank = starts == ends
    bad = np.flatnonzero(~blank & ((counts != fields) if exact else (counts < fields)))
    fault = None if not bad.size else (int(bad[0]), int(counts[bad[0]]))
    lines = np.flatnonzero(~blank[: len(ends) if fault is None else fault[0]])
    tabs = [seps[first[lines] + j] for j in range(fields - 1)]
    return lines, [starts[lines], *tabs, ends[lines]], fault, len(ends)


# the bytes of whole lines of a triple file that are tokenised and looked up at once
_SLICE = 1 << 20

# the mask of the first n bytes of a little-endian 8-byte word, n = 0..8
_WORD_MASKS = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)


def _words(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> list[np.ndarray]:
    """Word j of each field ``padded[start:start + length]``, j < ``width``:
    its bytes ``8j`` to ``8j + 7`` as one little-endian uint64, zero past
    the field's end. Every field must end 8 bytes or more before the end of
    ``padded``; a word that lies wholly past a field is read where it fits,
    and masked to zero."""
    # an 8-byte word at every byte offset: a strided view, nothing copied
    at = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    words = [at[np.minimum(starts + 8 * j, len(at) - 1)] if j else at[starts] for j in range(width)]
    for j, word in enumerate(words):
        word &= _WORD_MASKS[np.clip(lengths - 8 * j, 0, 8) if j else np.minimum(lengths, 8)]
    return words


class _KeyTable:
    """The keys of a text table, found by their UTF-8 bytes.

    A key is its byte length and the ``width`` words of ``_words``, enough
    for the longest key. A hash of the length and the words gives each key
    a home in an open-addressing table of at least four slots per key, and
    a lookup probes linearly from the field's home to an empty slot. A
    field matches a key only when its length and every word equal the
    key's, so the hash never decides a match on its own. Equal keys probe
    the same slots in the same rounds, so the table holds the first of them,
    and ``repeats`` the indices of the others, found as the first is placed.
    """

    def __init__(self, padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        """The keys ``padded[start:start + length]``, laid out as ``_words`` reads them."""
        self.width = max(1, -(-int(lengths.max(initial=0)) // 8))
        words = _words(padded, starts, lengths, self.width)
        # each key's length and words, and at index -1, which an empty slot
        # holds, a length that no field has
        self._lengths = np.append(lengths, -1)
        self._words = [np.append(column, np.uint64(0)) for column in words]
        self._mask = (1 << max(2, (4 * len(lengths) - 1).bit_length())) - 1
        self._slots = np.full(self._mask + 1, -1, dtype=np.int64)
        repeated = np.zeros(len(lengths), dtype=bool)
        # every key at once: in each round, a key that probes a free slot takes
        # it unless a key before it probes the same slot, and a key that lost
        # its slot to a key equal to it is a repeat
        claim = np.full(self._mask + 1, len(lengths))  # the first key to probe each slot while it was free
        pending, slot = np.arange(len(lengths)), self._home(words, lengths)
        while pending.size:
            free = self._slots[slot] < 0
            np.minimum.at(claim, slot[free], pending[free])
            won = claim[slot] == pending
            self._slots[slot[won]] = pending[won]
            pending, slot = pending[~won], slot[~won]
            same = self._equal(self._slots[slot], [column[pending] for column in words], lengths[pending])
            repeated[pending[same]] = True
            pending, slot = pending[~same], (slot[~same] + 1) & self._mask
        self.repeats = np.flatnonzero(repeated)

    def _home(self, words: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
        h = lengths.astype(np.uint64)
        for column in words:
            h ^= column
            h *= _MIX
            h ^= h >> np.uint64(29)
        h *= _MIX
        h >>= np.uint64(64 - self._mask.bit_length())  # the top bits mix every byte
        return h.view(np.int64)

    def _equal(self, keys: np.ndarray, words: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
        """Whether each field's length and words equal those of the key at its
        index in ``keys``, where -1 stands for no key."""
        match = self._lengths[keys] == lengths
        for mine, field in zip(self._words, words):
            match &= mine[keys] == field
        return match

    def find(self, padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The id of each field ``padded[start:start + length]``, -1 where no key equals it."""
        words = _words(padded, starts, lengths, self.width)
        slot = self._home(words, lengths)
        key = self._slots[slot]
        ids = np.where(self._equal(key, words, lengths), key, -1)
        # the fields still probing, which shrink each round: those whose slot
        # holds another key, not those it matched and not those at an empty slot
        index = np.flatnonzero(ids < key)
        while index.size:
            slot[index] = (slot[index] + 1) & self._mask
            key = self._slots[slot[index]]
            match = self._equal(key, [field[index] for field in words], lengths[index])
            ids[index[match]] = key[match]
            index = index[~match & (key >= 0)]
        return ids


class TextTable(NamedTuple):
    """The entries of a ``<key><TAB><text>`` file in line order: the file's
    bytes, each entry's 0-based line number and the offsets of its line's
    start, first tab and end, and the keys found by their bytes."""

    data: bytearray
    lines: np.ndarray
    starts: np.ndarray
    tabs: np.ndarray
    ends: np.ndarray
    index: _KeyTable

    @classmethod
    def read(cls, path: str) -> TextTable:
        """The non-blank lines of a text table, each split at its first tab,
        with no Python object made per line. A byte that is not UTF-8, a line
        without a tab or a repeated key is a :class:`DataError` naming the file
        and line; of a missing tab and a repeated key, the first in line order."""
        data = _text_bytes(path)
        text = np.frombuffer(data, dtype=np.uint8)
        lines, (starts, tabs, ends), fault, _ = _lines(text, 2, exact=False)
        table = cls(data, lines, starts, tabs, ends, _KeyTable(text, starts, tabs - starts))
        repeats = table.index.repeats
        if repeats.size and (fault is None or lines[repeats[0]] < fault[0]):
            raise DataError(f"{path}:{lines[repeats[0]] + 1}: duplicate identifier {table.keys()[repeats[0]]!r}")
        if fault is not None:
            raise DataError(f"{path}:{fault[0] + 1}: expected '<id>\\t<text>'")
        return table

    def keys(self) -> PackedTexts:
        return PackedTexts.cut(self.data, self.starts, self.tabs)

    def texts(self) -> PackedTexts:
        return PackedTexts.cut(self.data, self.tabs + 1, self.ends)


def _read_triples(path: str, entities: _KeyTable, relations: _KeyTable) -> np.ndarray:
    """The ``(n, 3)`` (head, relation, tail) ids of a triple file's facts.

    The file is read once, then tokenised and looked up ``_SLICE`` bytes of
    whole lines at a time, with no Python object made per field: every
    temporary array stays small, in cache and in pages the last slice freed.
    The first fault in line order is raised; on one line an unknown head
    comes before an unknown tail, and that before an unknown relation."""
    data = _text_bytes(path)
    parts, start, line, end = [], 0, 0, data.rfind(b"\n") + 1
    while start < end:
        stop = (data.rfind(b"\n", start, start + _SLICE) + 1) or (data.find(b"\n", start + _SLICE) + 1)
        text = np.frombuffer(data, dtype=np.uint8, offset=start)  # a field's words may read past the slice
        lines, (starts, first_tab, second_tab, ends), fault, n_lines = _lines(text[: stop - start], 3, exact=True)
        rows = np.empty((len(lines), 3), dtype=np.int64)
        rows[:, 0] = entities.find(text, starts, first_tab - starts)
        rows[:, 1] = relations.find(text, first_tab + 1, second_tab - first_tab - 1)
        rows[:, 2] = entities.find(text, second_tab + 1, ends - second_tab - 1)
        if rows.min(initial=0) < 0:
            i = int(np.argmax((rows < 0).any(axis=1)))
            for kind, column, begin, finish in (
                ("entity", 0, starts[i], first_tab[i]),
                ("entity", 2, second_tab[i] + 1, ends[i]),
                ("relation", 1, first_tab[i] + 1, second_tab[i]),
            ):
                if rows[i, column] < 0:
                    key = text[begin:finish].tobytes().decode("utf-8")
                    raise DataError(f"{path}:{line + lines[i] + 1}: unknown {kind} {key!r}")
        if fault is not None:
            raise DataError(f"{path}:{line + fault[0] + 1}: expected 3 tab-separated fields, got {fault[1]}")
        parts.append(rows)
        line += n_lines
        start = stop
    return np.concatenate(parts)


def _descriptions(path: str, entities: TextTable) -> PackedTexts:
    """Each entity's description, "" where the table has none, cut from the
    table's bytes in entity-id order."""
    table = TextTable.read(path)
    ids = entities.index.find(np.frombuffer(table.data, dtype=np.uint8), table.starts, table.tabs - table.starts)
    if ids.min(initial=0) < 0:
        i = int(np.argmax(ids < 0))
        raise DataError(f"{path}:{table.lines[i] + 1}: description for unknown entity {table.keys()[i]!r}")
    starts, ends = np.zeros((2, len(entities.lines)), dtype=np.int64)
    starts[ids], ends[ids] = table.tabs + 1, table.ends
    return PackedTexts.cut(table.data, starts, ends)


def _parse(dataset_dir: str) -> tuple[KnowledgeGraph, list[PackedTexts]]:
    """The graph of a dataset directory and its three text tables as they were
    cut from the files' bytes, in ``_BUILT_TABLES`` order."""
    entities, relations = (
        TextTable.read(os.path.join(dataset_dir, name)) for name in (ENTITY_NAME_FILE, RELATION_NAME_FILE)
    )
    descriptions = _descriptions(os.path.join(dataset_dir, ENTITY_DESC_FILE), entities)
    splits = [
        _read_triples(os.path.join(dataset_dir, name), entities.index, relations.index)
        for name in (TRAIN_FILE, VALID_FILE, TEST_FILE)
    ]
    entity_names, relation_names = entities.texts(), relations.texts()
    kg = KnowledgeGraph(entity_names.tolist(), descriptions, relation_names.tolist(), *splits)
    return kg, [entity_names, relation_names, descriptions]


def _write_built(kg: KnowledgeGraph, tables: list[PackedTexts], out_dir: str) -> None:
    """Write a parsed graph's two files, its text tables the three that the
    parse cut, in ``_BUILT_TABLES`` order, each a blob from offset 0."""
    os.mkdir(out_dir)
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


def _read_built(cache_dir: str) -> KnowledgeGraph:
    """The graph built in ``cache_dir``, or a :class:`DataError` naming the
    first check that a file there fails. Nothing is parsed, sorted or
    counted, and only the names are decoded (a blob that is not ASCII is
    decoded once, to check it)."""
    path = os.path.join(cache_dir, _GRAPH_ARRAY)
    try:
        mapped = np.lib.format.open_memmap(path, mode="r")
        if mapped.offset + mapped.nbytes != os.path.getsize(path):
            raise ValueError(f"{_GRAPH_ARRAY} is longer than its array")
        graph = np.asarray(mapped)  # a read-only map as a plain ndarray: a stage reads only the pages it touches
        with open(os.path.join(cache_dir, _GRAPH_TEXTS), "rb") as f:
            # mapped too: a read would copy its megabytes into fresh pages (an empty file cannot be mapped)
            blob = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if os.fstat(f.fileno()).st_size else b""
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError, EOFError) as exc:
        raise DataError(f"{cache_dir}: {exc}") from None
    sections = _sections(graph)
    counts = [len(sections[name]) - 1 for name in _BUILT_TABLES]
    if not _is_packed(blob, graph[graph.size - len(counts) - sum(counts) :], counts):
        raise DataError(f"{_GRAPH_TEXTS} does not match its offsets")
    kg = KnowledgeGraph.__new__(KnowledgeGraph)
    for name in _BUILT_ARRAYS:
        setattr(kg, name, sections[name])
    names, relations, kg.entity_descriptions = (PackedTexts(blob, sections[name]) for name in _BUILT_TABLES)
    kg.entity_names, kg.relation_names = names.tolist(), relations.tolist()  # what every prompt reads
    if not _is_whole(kg):
        raise DataError(f"{_GRAPH_ARRAY} fails a check of its ids, keys or adjacency")
    return kg


def _sections(graph: np.ndarray) -> dict[str, np.ndarray]:
    """Each section of a built graph's array, by name; a DataError when its length
    prefix does not describe it: a length below 0, lengths that do not sum to
    the array's size, a split that is not rows of 3, no entity or relation
    names' offsets, descriptions of another count than the entity names, or
    a ``cooc`` that is not R × R, R the relation names. ``_is_whole`` counts
    the names again once split, which finds a newline inside one."""
    if not (graph.dtype == np.int64 and graph.ndim == 1 and graph.size >= len(_SECTIONS)):
        raise DataError(f"{_GRAPH_ARRAY} has a length prefix that does not describe it")
    lengths = dict(zip(_SECTIONS, graph[: len(_SECTIONS)].tolist()))
    n_e, n_r = lengths["entity_names"] - 1, lengths["relation_names"] - 1
    if not (
        min(lengths.values()) >= 0
        and sum(lengths.values()) == graph.size - len(_SECTIONS)
        and lengths["train"] % 3 == lengths["valid"] % 3 == lengths["test"] % 3 == 0
        and n_e >= 0
        and n_r >= 0
        and lengths["entity_descriptions"] == n_e + 1
        and lengths["cooc"] == n_r * n_r
    ):
        raise DataError(f"{_GRAPH_ARRAY} has a length prefix that does not describe it")
    ends = list(itertools.accumulate(lengths.values(), initial=len(_SECTIONS)))
    sections = {name: graph[start:end] for name, start, end in zip(_SECTIONS, ends, ends[1:])}
    for name in ("train", "valid", "test"):
        sections[name] = sections[name].reshape(-1, 3)
    sections["cooc"] = sections["cooc"].reshape(n_r, n_r)
    return sections


def _is_whole(kg: KnowledgeGraph) -> bool:
    """O(n) structural checks on a graph read back from its built files."""
    n_e, n_r = len(kg.entity_descriptions), len(kg.cooc)  # as many as the names' offsets
    splits = (kg.train, kg.valid, kg.test)
    offsets, facts = kg._adj_offsets, kg._adj_facts
    n_all = sum(map(len, splits))
    key_bound = n_e * n_r * n_e  # above every key (h·R + r)·E + t and (r·E + t)·E + h
    return (
        len(kg.entity_names) == n_e
        and len(kg.relation_names) == n_r
        and all(_ids_within(rows, n_e, n_r) for rows in splits)
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

    With ``cache_dir``, the graph built there is read back, or refused with
    a :class:`DataError` that says why. The caller must key that directory
    by the dataset files' content: a read looks at none of them. Otherwise
    the dataset is parsed and validated, and with ``build_dir`` the built
    graph is then written to that new directory.
    """
    if cache_dir is not None:
        return _read_built(cache_dir)
    kg, tables = _parse(dataset_dir)
    if build_dir is not None:
        _write_built(kg, tables, build_dir)
    return kg
