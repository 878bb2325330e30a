"""Correctness gate: independent recomputation of what the program reports.

Nothing here calls ``kgrerank``. The checkpoint is read with numpy, filter
sets come from the benchmark's own copy of the triples, and ranks are
counted directly: ``#(score > gold) + #(score == gold and id < gold) + 1``
over the entities left after filtering, so ties go to the smaller id.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

_HEADER = np.dtype(
    [("magic", "S4"), ("version", "<u4"), ("entities", "<u8"), ("relations", "<u8"), ("dim", "<u8"), ("norm", "u1")]
)
_NORMS = {1: "L1", 2: "L2"}


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_checkpoint(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    header = np.fromfile(path, dtype=_HEADER, count=1)[0]
    n_ent, n_rel, dim = int(header["entities"]), int(header["relations"]), int(header["dim"])
    data = np.fromfile(path, dtype="<f8", offset=_HEADER.itemsize)
    if header["magic"] != b"KGE1" or data.size != (n_ent + n_rel) * dim:
        raise ValueError(f"{path}: not a version-1 checkpoint")
    return data[: n_ent * dim].reshape(n_ent, dim), data[n_ent * dim :].reshape(n_rel, dim), _NORMS[int(header["norm"])]


def brute_force(ckpt, every: np.ndarray, row: dict, m: int) -> tuple[int, list[int]]:
    """Filtered rank of the gold and the top-m ids for one audited query."""
    ev, rv, norm = ckpt
    known, rel, gold = row["known"], row["relation"], row["gold"]
    # same operand grouping as the scorer, so equal inputs give equal floats
    if row["direction"] == "tail":
        u = (ev[known] + rv[rel]) - ev
        true = every[(every[:, 0] == known) & (every[:, 1] == rel), 2]
    else:
        u = (ev + rv[rel]) - ev[known]
        true = every[(every[:, 2] == known) & (every[:, 1] == rel), 0]
    scores = -(np.abs(u).sum(axis=-1) if norm == "L1" else np.sqrt((u * u).sum(axis=-1)))
    keep = np.ones(len(scores), dtype=bool)
    keep[true] = False
    keep[gold] = True
    ids = np.flatnonzero(keep)
    s, g = scores[ids], scores[gold]
    rank = int((s > g).sum() + ((s == g) & (ids < gold)).sum()) + 1
    order = np.lexsort((ids, -s))[:m]  # score descending, then id ascending
    return rank, [int(i) for i in ids[order]]


def check_ranks(ckpt, every, audit, m: int, sample: int, seed: int, candidates: dict | None) -> list[str]:
    """Recompute base_rank (and the candidate list, when given) for a seeded sample."""
    rng = np.random.default_rng((seed, 0x636B))
    picks = rng.choice(len(audit), size=min(sample, len(audit)), replace=False)
    failures = []
    for i in sorted(int(p) for p in picks):
        row = audit[i]
        rank, topm = brute_force(ckpt, every, row, m)
        if rank != row["base_rank"]:
            failures.append(f"{row['id']}: base_rank {row['base_rank']}, brute force {rank}")
        if candidates is not None and candidates.get(row["id"]) != topm:
            failures.append(f"{row['id']}: candidates differ from the brute-force top-{m}")
        if row["selection"] is not None and row["selected_id"] != topm[row["selection"]]:
            failures.append(f"{row['id']}: selected_id is not candidate {row['selection']}")
    return failures


def expected_final(row: dict) -> int:
    """Move-to-top: the chosen candidate goes first, everything else keeps its order."""
    base = row["base_rank"]
    if row["selection"] is None:
        return base
    if row["selected_id"] == row["gold"]:
        return 1
    chosen_rank = row["selection"] + 1  # candidates are listed in base-rank order
    return base if chosen_rank < base else base + 1


def check_move_to_top(audit) -> list[str]:
    return [
        f"{row['id']}: final_rank {row['final_rank']}, expected {expected_final(row)}"
        for row in audit
        if row["final_rank"] != expected_final(row)
    ]


def check_report(report: dict, audit, queries: int) -> list[str]:
    """The report's counts and combined metrics must follow from the audit."""
    failures = []
    if report["queries"] != queries or len(audit) != queries:
        failures.append(f"report has {report['queries']} queries, audit {len(audit)}, expected {queries}")
    abstain = sum(1 for row in audit if row["selection"] is None)
    if report["abstentions"] != abstain:
        failures.append(f"report abstentions {report['abstentions']}, audit {abstain}")
    for key, field in (("combined", "final_rank"), ("base", "base_rank")):
        got = report[key]["mrr"] if key == "combined" else report["base"]["combined"]["mrr"]
        want = sum(1.0 / row[field] for row in audit) / len(audit) if audit else 0.0
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"{key} MRR {got} does not match the audit ({want})")
    return failures


def check_abstentions(report: dict, stub: dict) -> list[str]:
    """Abstentions are the off-list answers plus the queries that never got a 200."""
    failed = report["queries"] - stub["ok"]
    if report["abstentions"] != stub["off_list"] + failed:
        return [f"abstentions {report['abstentions']} != off-list {stub['off_list']} + failed {failed}"]
    return []
