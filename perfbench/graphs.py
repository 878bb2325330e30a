"""Seeded input graphs for the benchmark, written in the dataset file format.

The skewed generator draws heads, tails and relations from Zipf-like
popularity laws, so a few hub entities carry thousands of facts and the
popular (entity, relation) pairs have large filter sets, as in FB15K-237.
Entity ``i`` is written on line ``i`` of ``entity2text.txt`` and relation
``j`` on line ``j`` of ``relation2text.txt``, so the loader's dense ids are
the generator's ids; the correctness checks rely on that.
"""

from __future__ import annotations

import os

import numpy as np

# FB15K-237 counts
ENTITIES = 14541
RELATIONS = 237
TRAIN = 272115

ENTITY_EXPONENT = 0.7  # with WITHIN_POOL, the top hub has ~7k facts, like FB15K-237
RELATION_EXPONENT = 0.9
WITHIN_POOL = 0.3  # popularity inside a pool is flatter than across pools
POOL_MIN, POOL_SPREAD = 20, 1.5  # a relation's head or tail pool: 3%-100% of its facts

_WORDS = (
    "american film actor born city river album award university county "
    "football club season music band language country series novel team "
    "television station company state province language painter league"
).split()


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return rng.permutation(w / w.sum())  # popularity is not tied to id order


def _within(p: np.ndarray) -> np.ndarray:
    w = p**WITHIN_POOL
    return w / w.sum()


def skewed_triples(seed: int, wanted: int) -> np.ndarray:
    """``wanted`` distinct (h, r, t) rows without self-loops.

    Each relation has a domain and a range pool of entities, drawn by
    popularity, so its facts are typed the way FB15K-237 relations are.
    """
    rng = np.random.default_rng((seed, 0x6B67))
    pe = _zipf_weights(ENTITIES, ENTITY_EXPONENT, rng)
    pr = _zipf_weights(RELATIONS, RELATION_EXPONENT, rng)
    # frequent relations get wide pools, so no single pool turns into a mega-hub
    spread = 10.0 ** rng.uniform(-POOL_SPREAD, 0.0, size=(RELATIONS, 2))
    sizes = np.clip(pr[:, None] * wanted * spread, POOL_MIN, ENTITIES // 2).astype(int)
    pools = [[rng.choice(ENTITIES, size, replace=False, p=pe) for size in pair] for pair in sizes]
    rows = np.empty((0, 3), dtype=np.int64)
    while len(rows) < wanted:
        per_rel = rng.multinomial(int((wanted - len(rows)) * 1.3) + 1024, pr)
        draws = []
        for r, n in enumerate(per_rel):
            dom, rng_pool = pools[r]
            h = rng.choice(dom, n, p=_within(pe[dom]))
            t = rng.choice(rng_pool, n, p=_within(pe[rng_pool]))
            draws.append(np.stack([h, np.full(n, r), t], axis=1))
        # shuffled, so the valid/test cut at the end is not one relation's facts
        rows = np.concatenate([rows, rng.permutation(np.concatenate(draws))])
        rows = rows[rows[:, 0] != rows[:, 2]]
        code = (rows[:, 0] * RELATIONS + rows[:, 1]) * ENTITIES + rows[:, 2]
        _, first = np.unique(code, return_index=True)
        rows = rows[np.sort(first)]
    return rows[:wanted]


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def write_dataset(out_dir: str, seed: int, rows: np.ndarray, n_valid: int, n_test: int) -> None:
    """Write ``rows`` as train/valid/test (in that order) plus the text tables."""
    rng = np.random.default_rng((seed, 0x7478))
    os.makedirs(out_dir, exist_ok=True)
    keys = [f"/m/{i:05x}" for i in range(ENTITIES)]
    descs = []
    for i in range(ENTITIES):
        words = rng.choice(_WORDS, int(rng.integers(8, 60)))
        descs.append(f"entity {i} is a " + " ".join(words))
    _write(os.path.join(out_dir, "entity2text.txt"), (f"{k}\tentity {i}" for i, k in enumerate(keys)))
    _write(os.path.join(out_dir, "entity2textlong.txt"), (f"{k}\t{d}" for k, d in zip(keys, descs)))
    _write(os.path.join(out_dir, "relation2text.txt"), (f"/r/{j}\trelation {j}" for j in range(RELATIONS)))
    n_train = len(rows) - n_valid - n_test
    splits = (("train.txt", rows[:n_train]), ("valid.txt", rows[n_train : n_train + n_valid]), ("test.txt", rows[n_train + n_valid :]))
    for name, part in splits:
        _write(os.path.join(out_dir, name), (f"{keys[h]}\t/r/{r}\t{keys[t]}" for h, r, t in part.tolist()))


def read_dataset(data_dir: str) -> dict:
    """The splits as (n, 3) id arrays, with ids in text-table line order."""

    def keys(name):
        with open(os.path.join(data_dir, name), encoding="utf-8") as f:
            return {line.split("\t", 1)[0]: i for i, line in enumerate(f)}

    ent, rel = keys("entity2text.txt"), keys("relation2text.txt")
    out = {"entities": len(ent), "relations": len(rel)}
    for split in ("train", "valid", "test"):
        with open(os.path.join(data_dir, f"{split}.txt"), encoding="utf-8") as f:
            rows = [line.rstrip("\n").split("\t") for line in f]
        out[split] = np.array([(ent[h], rel[r], ent[t]) for h, r, t in rows], dtype=np.int64).reshape(-1, 3)
    return out


def shape(data: dict) -> dict:
    """Size and skew of a graph, as seen by the test queries."""
    train, test = data["train"], data["test"]
    every = np.concatenate([train, data["valid"], test])
    n = data["entities"]
    degree = np.bincount(train[:, 0], minlength=n) + np.bincount(train[:, 2], minlength=n)
    degree -= np.bincount(train[train[:, 0] == train[:, 2], 0], minlength=n)  # a self-loop is one fact
    # filter set of a query: the other true answers of (known, r, ?) or (?, r, known)
    tail_key = every[:, 0] * data["relations"] + every[:, 1]
    head_key = every[:, 2] * data["relations"] + every[:, 1]
    tails = np.unique(tail_key, return_counts=True)
    heads = np.unique(head_key, return_counts=True)
    q_tail = tails[1][np.searchsorted(tails[0], test[:, 0] * data["relations"] + test[:, 1])] - 1
    q_head = heads[1][np.searchsorted(heads[0], test[:, 2] * data["relations"] + test[:, 1])] - 1
    return {
        "entities": n,
        "relations": data["relations"],
        "train": len(train),
        "valid": len(data["valid"]),
        "test": len(test),
        "max_degree": int(degree.max()),
        "mean_neighbor_pool": float(np.concatenate([degree[test[:, 0]], degree[test[:, 2]]]).mean()),
        "mean_filter_set": float(np.concatenate([q_tail, q_head]).mean()),
    }
