"""Translational embedding model: scoring, margin-loss training, checkpoint IO.

A triple (h, r, t) is scored as the negated L1 or L2 norm of the residual
e_h + e_r - e_t, so higher scores mean more plausible facts. Training
minimizes the margin ranking loss between observed facts and corrupted
negatives with plain SGD, renormalizing entity vectors to unit L2 norm
after every epoch. A batch's SGD steps are two ``(n, dim)`` blocks,
``-lr * g_pos`` and ``lr * g_neg``: each is the step of its pairs' heads and
relations, and its tails take the negated step. The scatter adds the
positive heads' block, subtracts the positive tails', then does the same for
the negatives: the order in which one ``np.add.at`` of the four blocks
``[s_pos, -s_pos, s_neg, -s_neg]`` adds them, row by row. A faster scatter
must keep that order, or the checkpoint bytes change. Subtracting is exact:
IEEE ``x - s`` equals ``x + (-s)`` for every x and s, signed zeros
included, so no negated block is made. When ``dim`` is even the scatter
adds two adjacent float64 values per step, as one ``complex128``: a complex
addition or subtraction is two independent float64 ones, so every value
still gets the same operations in the same order. Every row gather of a
batch is an ``np.take`` along axis 0, which copies the same rows faster than
indexing by a column of ids. The negatives' membership test is
``KnowledgeGraph.in_train``.

``EmbeddingTable.load`` is the only check of a checkpoint, by the one rule
``rankable``, and ``train`` raises :class:`TrainingDiverged` rather than
return a table that fails it.

Downstream code only relies on ``score_candidates``, ``first_pass`` (the
first pass of ranking, for either norm), ``query_vector``, the rows of
``entity_vecs``, and checkpoint IO, so an alternative
scorer can replace :class:`EmbeddingTable` without touching the ranking,
prompt-building, or evaluation modules.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .kg import DataError, KnowledgeGraph

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"KGE1"
_HEADER = struct.Struct("<4sIQQQB")
_NORM_CODES = {"L1": 1, "L2": 2}
_NORM_NAMES = {v: k for k, v in _NORM_CODES.items()}

# The L2 first pass holds one block of keys x entities float64 distances;
# capping it at 4 MiB (36 keys at 14,541 entities) keeps the memory of
# ranking flat in the number of queries.
BLOCK_BYTES = 4 << 20

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

HEAD = "head"  # predict the head: (?, r, t), known entity is t
TAIL = "tail"  # predict the tail: (h, r, ?), known entity is h


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite or the trained table is not rankable."""


@dataclass
class TrainConfig:
    """The ``[embedder]`` config section."""

    dim: int = 100
    learning_rate: float = 0.01
    margin: float = 1.0
    epochs: int = 1000
    batch_size: int = 1024
    negatives: int = 1  # corrupted triples per observed one
    norm: str = "L2"
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0 < self.margin < math.inf:
            raise ValueError("margin must be finite and positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.norm not in _NORM_CODES:
            raise ValueError(f"norm must be one of {sorted(_NORM_CODES)}")


@dataclass
class EmbeddingTable:
    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    norm: str

    @property
    def dim(self) -> int:
        return int(self.entity_vecs.shape[1])

    def rankable(self) -> bool:
        """Whether ``dim c^2 < M / 4``, c = 2 max |e| + max |r| over the entries,
        M float64's largest value; a NaN or inf entry fails. Then every value
        ranking forms is finite, on both norms: a residual entry is at most c,
        so an exact L2 sum of squares is below M / 4 and an L1 sum below
        max(dim, dim c^2); an L2 first pass's (|q| + max |e|)^2 <= dim c^2 bounds
        its distances, and with its far smaller delta t + delta and |d - d_g|, below M / 2."""
        a, b = (max(v.max(initial=0.0), -v.min(initial=0.0)) for v in (self.entity_vecs, self.relation_vecs))
        c = 2 * float(a) + float(b)  # Python floats: an overflow is inf, not a warning
        return self.dim * c * c < np.finfo(np.float64).max / 4

    def score_candidates(
        self, known: int, relation: int, direction: str, entities: np.ndarray | None = None
    ) -> np.ndarray:
        """Scores of all entities (or of ``entities``, an id array) substituted
        into the missing slot. An entity's score does not depend on which others
        are scored with it."""
        rel = self.relation_vecs[relation]
        candidates = self.entity_vecs if entities is None else self.entity_vecs[entities]
        # (h + r) - t in both directions: a triple scores the same whichever slot is missing
        if direction == TAIL:
            u = (self.entity_vecs[known] + rel) - candidates
        elif direction == HEAD:
            u = (candidates + rel) - self.entity_vecs[known]
        else:
            raise ValueError(f"unknown direction {direction!r}")
        if self.norm == "L1":  # u is this call's own temporary: take |u| in place
            return -np.abs(u, out=u).sum(axis=-1)
        return -_residual_norm(u, self.norm)

    def first_pass(self, keys: Iterable[tuple[int, int, str]]) -> Iterator[tuple[np.ndarray, float]]:
        """Each ``(known, relation, direction)`` key's distance to every entity,
        and its error bound, in order, taking keys only as rows are asked for.

        For a row d and entities a, b, ``d[a] < d[b] - bound`` implies that
        ``score_candidates`` of the key scores a strictly above b. An L1 row
        is the exact distance ``-score_candidates(...)``, with bound 0, one
        key at a time. L2 rows come a block of keys at a time (see
        ``BLOCK_BYTES``): ``|q|^2 - 2 q.e + |e|^2`` from one matrix product,
        with q = e_known + r (tail) or e_known - r (head), and the bound is
        ``16 (dim + 4) (eps (|q| + max |e|)^2 + tiny)``; the argument is in
        :mod:`kgrerank.ranking`. The product runs on one BLAS thread
        (``_one_blas_thread``); the bound holds for its sums in any order. A
        row is the caller's to change.
        """
        if self.norm == "L1":
            for known, relation, direction in keys:
                yield -self.score_candidates(known, relation, direction), 0.0
            return
        rows = max(1, BLOCK_BYTES // (8 * len(self.entity_vecs)))
        keys = iter(keys)
        e_sq = np.einsum("ij,ij->i", self.entity_vecs, self.entity_vecs)
        e_max = np.sqrt(e_sq.max())
        while block := list(itertools.islice(keys, rows)):
            known, relation, direction = zip(*block)
            sign = np.where(np.asarray(direction) == TAIL, 1.0, -1.0)
            q = self.entity_vecs[list(known)] + sign[:, None] * self.relation_vecs[list(relation)]
            q_sq = np.einsum("ij,ij->i", q, q)
            with _one_blas_thread():
                dist = q @ self.entity_vecs.T
            dist *= -2.0
            dist += q_sq[:, None]
            dist += e_sq
            reach = (np.sqrt(q_sq) + e_max) ** 2
            bound = 16 * (self.dim + 4) * (_EPS * reach + _TINY)
            yield from zip(dist, bound)

    def query_vector(self, known: int, relation: int, direction: str) -> np.ndarray:
        """Translational composition of a completion query.

        Tail prediction composes e_known + e_rel (the point the missing tail
        should sit at); head prediction composes e_known - e_rel.
        """
        if direction == TAIL:
            return self.entity_vecs[known] + self.relation_vecs[relation]
        if direction == HEAD:
            return self.entity_vecs[known] - self.relation_vecs[relation]
        raise ValueError(f"unknown direction {direction!r}")

    def save(self, path: str) -> None:
        """Binary vector file: fixed header then row-major little-endian float64."""
        ev = np.ascontiguousarray(self.entity_vecs, dtype="<f8")
        rv = np.ascontiguousarray(self.relation_vecs, dtype="<f8")
        header = _HEADER.pack(
            CHECKPOINT_MAGIC, 1, ev.shape[0], rv.shape[0], ev.shape[1], _NORM_CODES[self.norm]
        )
        with open(path, "wb") as f:  # each array's own buffer: no copy of the vectors is made
            f.write(header)
            f.write(ev)
            f.write(rv)

    @classmethod
    def load(cls, path: str) -> "EmbeddingTable":
        """The table saved at ``path``; a :class:`DataError` for a file cut short
        or too long, of a bad magic, version or norm code, or not ``rankable``."""
        with open(path, "rb") as f:
            header = f.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise DataError(f"{path}: truncated header")
            magic, version, n_ent, n_rel, dim, norm_code = _HEADER.unpack(header)
            if magic != CHECKPOINT_MAGIC:
                raise DataError(f"{path}: bad magic {magic!r}")
            if version != 1:
                raise DataError(f"{path}: unsupported version {version}")
            if norm_code not in _NORM_NAMES:
                raise DataError(f"{path}: unknown norm code {norm_code}")
            expected = (n_ent + n_rel) * dim * 8
            size = os.fstat(f.fileno()).st_size - _HEADER.size
            if size != expected:  # checked before allocating what the header declares
                raise DataError(f"{path}: expected {expected} payload bytes, got {size}")
            data = np.empty(expected // 8, dtype="<f8")
            if f.readinto(data) != expected or f.read(1):  # the file changed while it was read
                raise DataError(f"{path}: expected {expected} payload bytes")
        n = n_ent * dim
        table = cls(data[:n].reshape(n_ent, dim), data[n:].reshape(n_rel, dim), _NORM_NAMES[norm_code])
        if not table.rankable():
            raise DataError(f"{path}: not rankable: NaN or infinite values, or scores that can overflow")
        return table


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy loaded,
    looked up once per process in the libraries mapped into it; None when
    none of them is an OpenBLAS that exports them (an MKL or Accelerate
    numpy) or the map cannot be read (no ``/proc``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in f if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:  # already mapped: no library is loaded anew
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file that is no library
            continue
        # numpy's wheel prefixes its symbols with scipy_; 64_ marks a 64-bit-integer build
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get and set_:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the body, and restore its previous
    count on the way out, also when the body raises. Without an OpenBLAS
    setter the body runs as it is. The count is the process's: scopes open
    on two threads at once could restore a wrong one, and every stage ranks
    on its main thread."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _residual_norm(u: np.ndarray, kind: str) -> np.ndarray:
    if kind == "L1":
        return np.abs(u).sum(axis=-1)
    return np.sqrt((u * u).sum(axis=-1))


def _normalize_rows(m: np.ndarray) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
        np.divide(m, norms, out=m, where=norms > 0)


def init_embeddings(kg: KnowledgeGraph, config: TrainConfig) -> EmbeddingTable:
    """Seeded uniform init in [-6/sqrt(d), 6/sqrt(d)]; entity rows unit-normed."""
    rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(config.dim)
    entity_vecs = rng.uniform(-bound, bound, size=(kg.num_entities, config.dim))
    relation_vecs = rng.uniform(-bound, bound, size=(kg.num_relations, config.dim))
    _normalize_rows(entity_vecs)
    return EmbeddingTable(entity_vecs, relation_vecs, config.norm)


def _hinge_step(
    table: EmbeddingTable,
    pos: np.ndarray,
    neg: np.ndarray,
    margin: float,
    lr: float,
    out: np.ndarray,
) -> float:
    """Hinge loss sum of aligned positive/negative pairs; writes their SGD steps.

    ``neg[i]`` corrupts the head or tail of ``pos[i]``, so the two share
    ``pos[i]``'s relation. ``out`` is a ``(2, n, dim)`` buffer that receives
    the positive step ``-lr * g_pos`` and the negative step ``lr * g_neg``,
    g being d(distance)/d(residual). Each block is the step of its heads and
    its relations; its tails take the negated step, which the scatter
    subtracts. A pair whose hinge is inactive has a +0 gradient, so its step
    rows are zeros.
    """
    ev = table.entity_vecs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rel = np.take(table.relation_vecs, pos[:, 1], axis=0)
        residuals = []
        for rows in (pos, neg):
            u = np.take(ev, rows[:, 0], axis=0)
            u += rel
            u -= np.take(ev, rows[:, 2], axis=0)
            residuals.append(u)
        dists = [_residual_norm(u, table.norm) for u in residuals]
        d_pos, d_neg = dists
        viol = margin + d_pos
        viol -= d_neg
        active = viol > 0
        # overflowed scores must surface as divergence, not vanish in the mask
        loss_sum = float(viol[active].sum()) if np.isfinite(viol).all() else float("nan")
        for u, d, step, scale in zip(residuals, dists, out, (-lr, lr)):
            if table.norm == "L1":
                np.sign(u, out=step)
                off = ~active
            else:  # a zero, NaN or inactive distance gets a zero gradient
                np.divide(u, d[:, None], out=step)
                off = ~(active & (d > 0))
            step[off] = 0.0
            step *= scale
    return loss_sum


def _scatter_target(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``table`` seen as a flat array of scatter elements, and the flat index
    of each row's elements, one row of the index per row of ``table``: made
    once per ``train`` call, so a batch gathers its index rather than
    computing it.

    An element is two adjacent float64 values, as one ``complex128``, when
    the width is even, else one float64 value; element ``(r, j)`` of the
    flat view is row r's j-th.
    """
    if table.dtype != np.float64 or not table.flags.c_contiguous:
        raise ValueError("scatter target must be a C-contiguous float64 array")
    rows, dim = table.shape
    element, width = (np.complex128, dim // 2) if dim % 2 == 0 else (np.float64, dim)
    return table.reshape(-1).view(element), np.arange(rows * width).reshape(rows, width)


def _scatter_steps(
    entities: tuple[np.ndarray, np.ndarray],
    relations: tuple[np.ndarray, np.ndarray],
    pos: np.ndarray,
    neg: np.ndarray,
    steps: np.ndarray,
) -> None:
    """Add one batch's SGD steps to the tables, bit for bit as
    ``np.add.at(entity_vecs, [h_pos, t_pos, h_neg, t_neg], [s_pos, -s_pos,
    s_neg, -s_neg])`` and ``np.add.at(relation_vecs, [r_pos, r_pos],
    [s_pos, s_neg])`` would, where ``entities`` and ``relations`` are the
    tables' ``_scatter_target`` and ``steps`` holds ``s_pos`` and ``s_neg``.

    ``ufunc.at`` applies ``a[i] = op(a[i], v)`` once per index, in index
    order. Here each 2-D call becomes one flat call per block, in block
    order: the flat index lists row ``rows[i]``'s elements for i = 0, 1, ...
    in turn, so every float64 value receives the same operations in the
    same order. A complex addition or subtraction is two independent
    float64 ones. A tail block is subtracted: IEEE ``x - s`` equals
    ``x + (-s)`` for every x and s, signed zeros included, so no negated
    copy is made. It is faster than the 2-D calls because numpy's
    ``ufunc.at`` has a fast path for a 1-D index into a 1-D array, and
    pairing halves the index.
    """
    (entity_flat, entity_index), (relation_flat, relation_index) = entities, relations
    values = [step.reshape(-1).view(entity_flat.dtype) for step in steps]
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step is reported by train
        for rows, value in zip((pos, neg), values):
            np.add.at(entity_flat, np.take(entity_index, rows[:, 0], axis=0).ravel(), value)
            np.subtract.at(entity_flat, np.take(entity_index, rows[:, 2], axis=0).ravel(), value)
        index = np.take(relation_index, pos[:, 1], axis=0).ravel()
        for value in values:  # positives then negatives
            np.add.at(relation_flat, index, value)


def _sample_negatives(positives: np.ndarray, kg: KnowledgeGraph, rng: np.random.Generator) -> np.ndarray:
    """A corruption of each row of ``positives``, the batch with each fact
    repeated once per negative: its head or tail, chosen uniformly, is
    redrawn until it is no training fact."""
    num_entities = kg.num_entities
    neg = positives.copy()
    n = neg.shape[0]
    corrupt_head = rng.integers(0, 2, size=n).astype(bool)
    neg[corrupt_head, 0] = rng.integers(0, num_entities, size=int(corrupt_head.sum()))
    neg[~corrupt_head, 2] = rng.integers(0, num_entities, size=int((~corrupt_head).sum()))
    # dense tiny graphs may have no clean corruption; give up after a bound.
    # A row found clean is not redrawn, so each round tests only the last redraws
    rows, tested = np.arange(n), neg
    for _ in range(50):
        rows = rows[kg.in_train(tested)]
        if not rows.size:
            break
        redraw = rng.integers(0, num_entities, size=rows.size)
        heads = corrupt_head[rows]
        neg[rows[heads], 0] = redraw[heads]
        neg[rows[~heads], 2] = redraw[~heads]
        tested = neg[rows]
    return neg


def train(
    kg: KnowledgeGraph,
    config: TrainConfig,
    *,
    epoch_losses: list[float] | None = None,
) -> EmbeddingTable:
    """Margin-ranking SGD over the train split; returns the final table.

    With ``epochs == 0`` the freshly initialized table is returned unchanged.
    Pass a list as ``epoch_losses`` to collect the mean per-pair loss of each
    epoch. An epoch's loss is taken before its last step, so a final table
    that is not ``rankable`` raises :class:`TrainingDiverged` too.
    """
    if len(kg.train) == 0:
        raise DataError("cannot train on an empty train split")
    table = init_embeddings(kg, config)
    triples = kg.train
    rng = np.random.default_rng((config.seed, 1))
    k = config.negatives
    lr = config.learning_rate
    settings = f"(learning_rate={lr}, margin={config.margin})"

    # every batch's SGD steps, allocated once; a short last batch takes a prefix
    buffer = np.empty((2, min(config.batch_size, len(triples)) * k, config.dim))
    entities, relations = _scatter_target(table.entity_vecs), _scatter_target(table.relation_vecs)
    for epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            pos = np.take(triples, order[start : start + config.batch_size], axis=0)
            pos_rep = np.repeat(pos, k, axis=0)
            neg = _sample_negatives(pos_rep, kg, rng)
            steps = buffer[:, : len(neg)]
            total += _hinge_step(table, pos_rep, neg, config.margin, lr, steps)
            _scatter_steps(entities, relations, pos_rep, neg, steps)
        if not np.isfinite(total):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}: {total!r} {settings}")
        _normalize_rows(table.entity_vecs)
        mean = total / (len(triples) * k)
        if epoch_losses is not None:
            epoch_losses.append(mean)
        if epoch % 100 == 0 or epoch == config.epochs - 1:
            logger.debug("epoch %d mean loss %.6f", epoch, mean)
    if not table.rankable():
        raise TrainingDiverged(f"non-finite vectors after the last epoch, or scores that overflow {settings}")
    return table
