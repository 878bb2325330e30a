"""Synthetic dataset builders: small graphs written in the dataset file format.

Benchmark datasets (FB15K-237, WN18RR) are never bundled or downloaded; the
data-gated tests look them up under ``$KGRERANK_DATA`` (default ``./data``).
"""

from __future__ import annotations

import os

import numpy as np

from .kg import (
    ENTITY_DESC_FILE,
    ENTITY_NAME_FILE,
    RELATION_NAME_FILE,
    TEST_FILE,
    TRAIN_FILE,
    VALID_FILE,
)


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def make_chain_dataset(out_dir: str) -> str:
    """Six entities linked in a line by one relation; one valid and one test edge."""
    os.makedirs(out_dir, exist_ok=True)
    n = 6
    keys = [f"/ent/{i}" for i in range(n)]
    names = [f"node {i}" for i in range(n)]
    descs = [f"the {i}th node of a chain" for i in range(n)]
    _write(os.path.join(out_dir, ENTITY_NAME_FILE), (f"{k}\t{v}" for k, v in zip(keys, names)))
    _write(os.path.join(out_dir, ENTITY_DESC_FILE), (f"{k}\t{v}" for k, v in zip(keys, descs)))
    _write(os.path.join(out_dir, RELATION_NAME_FILE), ["/rel/next\tfollowed by"])
    edges = [(keys[i], "/rel/next", keys[i + 1]) for i in range(n - 1)]
    _write(os.path.join(out_dir, TRAIN_FILE), ("\t".join(e) for e in edges[:3]))
    _write(os.path.join(out_dir, VALID_FILE), ("\t".join(e) for e in edges[3:4]))
    _write(os.path.join(out_dir, TEST_FILE), ("\t".join(e) for e in edges[4:5]))
    return out_dir


def make_synthetic_dataset(
    out_dir: str,
    n_entities: int = 20,
    n_relations: int = 3,
    n_train: int = 60,
    n_valid: int = 12,
    n_test: int = 12,
    seed: int = 0,
) -> str:
    """Random triples split disjointly into train/valid/test files. Counts
    below 0, or more triples than ``n_entities·(n_entities−1)·n_relations``
    distinct non-loop ones, are a ValueError."""
    counts = dict(
        n_entities=n_entities, n_relations=n_relations, n_train=n_train, n_valid=n_valid, n_test=n_test
    )
    if min(counts.values()) < 0:
        raise ValueError("counts must not be negative: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    wanted = n_train + n_valid + n_test
    distinct = n_entities * (n_entities - 1) * n_relations
    if wanted > distinct:
        raise ValueError(
            f"n_train + n_valid + n_test = {wanted} triples, but {n_entities} entities and "
            f"{n_relations} relations make only {distinct} distinct ones without a self-loop"
        )
    rng = np.random.default_rng(seed)
    keys = [f"/ent/{i:03d}" for i in range(n_entities)]
    names = [f"entity {i}" for i in range(n_entities)]
    descs = [
        f"synthetic entity number {i} used for pipeline tests" if i % 3 else ""
        for i in range(n_entities)
    ]
    rel_keys = [f"/rel/{j}" for j in range(n_relations)]
    rel_names = [f"relation {j}" for j in range(n_relations)]

    triples: list[tuple[int, int, int]] = []
    seen = set()
    while len(triples) < wanted:
        h = int(rng.integers(0, n_entities))
        t = int(rng.integers(0, n_entities))
        r = int(rng.integers(0, n_relations))
        if h == t or (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append((h, r, t))

    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, ENTITY_NAME_FILE), (f"{k}\t{v}" for k, v in zip(keys, names)))
    _write(
        os.path.join(out_dir, ENTITY_DESC_FILE),
        (f"{k}\t{v}" for k, v in zip(keys, descs) if v),
    )
    _write(
        os.path.join(out_dir, RELATION_NAME_FILE),
        (f"{k}\t{v}" for k, v in zip(rel_keys, rel_names)),
    )

    def rows(chunk):
        return ("\t".join((keys[h], rel_keys[r], keys[t])) for h, r, t in chunk)

    _write(os.path.join(out_dir, TRAIN_FILE), rows(triples[:n_train]))
    _write(os.path.join(out_dir, VALID_FILE), rows(triples[n_train : n_train + n_valid]))
    _write(os.path.join(out_dir, TEST_FILE), rows(triples[n_train + n_valid :]))
    return out_dir
