"""Selection-prompt construction and instruction-dataset serialization.

A prompt concatenates four blocks: the query sentence (with one [QUERY]
placeholder after the missing slot), an optional entity description, an
optional block of neighbor facts, and the ordered candidate list where
every name is followed by an [ENTITY] placeholder. Neighbor facts are
chosen by relation co-occurrence with the query relation (or uniformly at
random when that is disabled), capped at ``gamma`` facts, and never include
the query's own gold fact.

Both sets are built by :func:`build_set`: it ranks a split, writes a record
per kept query and, after the last, the set's ``summary.json``.

A record holds ids, not vectors: the knowledge vectors of a sample are the
query vector of (``known``, ``relation``, ``direction``) and the entity
vector of each of ``candidate_ids``, read from the checkpoint that the set's
``summary.json`` names (see :func:`kgrerank.adapter.attach_knowledge`).

The template and the record layout are versioned: any change to the wording
or to the record's fields must bump ``TEMPLATE_VERSION``. Golden tests and
downstream parsers rely on the exact byte layout, and the stage digests
include the version, so sets cached under an old one are never served.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import closing
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .embeddings import TAIL, EmbeddingTable
from .kg import DataError, KnowledgeGraph, Triple
from .ranking import (
    ConfidenceParams,
    Query,
    RankedQuery,
    queries_for_triple,
    rank_queries,
    survives_truncation,
)

logger = logging.getLogger(__name__)

TEMPLATE_VERSION = 2
QUERY_PLACEHOLDER = "[QUERY]"
ENTITY_PLACEHOLDER = "[ENTITY]"
QUERY_TEXT_TAIL = "Query: the incomplete fact ({head}, {relation}, ?[QUERY]) is missing its tail entity."
QUERY_TEXT_HEAD = "Query: the incomplete fact (?[QUERY], {relation}, {tail}) is missing its head entity."
DESCRIPTION_PREFIX = "Description: "
NEIGHBORS_HEADER = "Known facts:"
CANDIDATES_HEADER = "Candidates:"
DIRECTIVE = "Select the answer to the query from the candidates above and reply with exactly one entity name."


@dataclass
class BuildOptions:
    """The ``[instruct]`` config section: prompt contents, their ablations and
    the seed of every random choice in building a set. A prompt has no
    description block at ``max_description_chars = 0`` and no neighbor block
    at ``gamma = 0``."""

    gamma: int = 10
    max_description_chars: int = 512
    rc_sampling: bool = True
    shuffle_candidates: bool = False
    seed: int = 0  # candidate shuffling, uniform neighbors, and the 9:1 validation split

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.max_description_chars < 0:
            raise ValueError("max_description_chars must be >= 0")


@dataclass
class InstructionSample:
    """One selection query, field for field the line of an instruction file
    (``vars(sample)`` is the record, ``InstructionSample(**record)`` reads it back)."""

    id: str
    direction: str
    known: int
    relation: int
    prompt: str
    gold_name: str
    gold_id: int
    candidate_ids: list[int]
    candidate_names: list[str]
    candidate_ranks: list[int]  # each candidate's base rank, in prompt order
    gold_rank: int


def rc_sample_neighbors(kg: KnowledgeGraph, q: Query, gamma: int) -> list[Triple]:
    """Neighbor facts of the known entity ranked by relation co-occurrence (``kg.cooc``).

    Facts are sorted by descending co-occurrence of their relation with the
    query relation, ties broken by ascending relation id and then file
    order, truncated to at most ``gamma`` facts. The query's own gold fact
    is excluded.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    pool = _neighbor_pool(kg, q)
    rel = pool[:, 1]
    order = np.lexsort((rel, -kg.cooc[rel, q.relation]))  # stable: ties keep the pool's file order
    return [Triple(*fact) for fact in pool[order[:gamma]].tolist()]


def _neighbor_pool(kg: KnowledgeGraph, q: Query) -> np.ndarray:
    """Train facts incident to the known entity, in file order, without the gold fact."""
    pool = kg.train[kg.incident_rows(q.known)]
    h, r, t = q.completed(q.gold)
    return pool[(pool[:, 0] != h) | (pool[:, 1] != r) | (pool[:, 2] != t)]


def _uniform_sample_neighbors(
    kg: KnowledgeGraph, q: Query, gamma: int, rng: np.random.Generator
) -> list[Triple]:
    pool = _neighbor_pool(kg, q)
    picks = rng.choice(len(pool), size=min(gamma, len(pool)), replace=False)
    return [Triple(*fact) for fact in pool[picks].tolist()]


def render_fact(kg: KnowledgeGraph, fact: Triple) -> str:
    return "({}, {}, {})".format(
        kg.entity_names[fact.head],
        kg.relation_names[fact.relation],
        kg.entity_names[fact.tail],
    )


def query_text_for(kg: KnowledgeGraph, q: Query) -> str:
    if q.direction == TAIL:
        return QUERY_TEXT_TAIL.format(
            head=kg.entity_names[q.known], relation=kg.relation_names[q.relation]
        )
    return QUERY_TEXT_HEAD.format(
        relation=kg.relation_names[q.relation], tail=kg.entity_names[q.known]
    )


def render_prompt(
    query_text: str, description_text: str, neighbor_texts: list[str], candidate_names: list[str]
) -> str:
    blocks = [query_text]
    if description_text:
        blocks.append(DESCRIPTION_PREFIX + description_text)
    if neighbor_texts:
        blocks.append(NEIGHBORS_HEADER + "\n" + "\n".join(neighbor_texts))
    blocks.append(
        CANDIDATES_HEADER
        + "\n"
        + "\n".join(name + ENTITY_PLACEHOLDER for name in candidate_names)
    )
    blocks.append(DIRECTIVE)
    return "\n\n".join(blocks)


def build_sample(
    kg: KnowledgeGraph,
    rq: RankedQuery,
    options: BuildOptions,
    sample_id: str,
    query_index: int,
) -> InstructionSample:
    """Assemble one sample from a ranked query.

    ``query_index`` seeds the per-query randomness (candidate shuffling and
    uniform neighbor sampling) so output is independent of processing order.
    """
    q = rq.query
    description = kg.entity_descriptions[q.known][: options.max_description_chars]
    neighbor_facts: list[Triple] = []
    if options.gamma > 0:
        if options.rc_sampling:
            neighbor_facts = rc_sample_neighbors(kg, q, options.gamma)
        else:
            rng = np.random.default_rng((options.seed, query_index))
            neighbor_facts = _uniform_sample_neighbors(kg, q, options.gamma, rng)

    # position k of the top-m holds base rank k + 1
    candidate_ranks = list(range(1, len(rq.topm_ids) + 1))
    if options.shuffle_candidates:
        rng = np.random.default_rng((options.seed, query_index))
        candidate_ranks = [candidate_ranks[i] for i in rng.permutation(len(candidate_ranks))]
    candidate_ids = [rq.topm_ids[rank - 1] for rank in candidate_ranks]

    candidate_names = [kg.entity_names[e] for e in candidate_ids]
    return InstructionSample(
        id=sample_id,
        direction=q.direction,
        known=q.known,
        relation=q.relation,
        prompt=render_prompt(
            query_text_for(kg, q),
            description,
            [render_fact(kg, f) for f in neighbor_facts],
            candidate_names,
        ),
        gold_name=kg.entity_names[q.gold],
        gold_id=q.gold,
        candidate_ids=candidate_ids,
        candidate_names=candidate_names,
        candidate_ranks=candidate_ranks,
        gold_rank=rq.gold_rank,
    )


class InstructionWriter:
    """Writes a JSONL instruction file, one sample per line, and the sha256 of
    the bytes it writes (``sha256``)."""

    def __init__(self, instructions_path: str):
        self._f = open(instructions_path, "wb")
        self.sha256 = hashlib.sha256()
        self.count = 0
        self.prompt_chars = 0

    def write(self, sample: InstructionSample) -> None:
        line = (json.dumps(vars(sample), ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")
        self._f.write(line)
        self.sha256.update(line)
        self.count += 1
        self.prompt_chars += len(sample.prompt)

    def close(self) -> None:
        self._f.close()


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as a JSON file: keys sorted, indented by 2, one closing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_samples(
    w: InstructionWriter,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    params: ConfidenceParams,
    options: BuildOptions,
    indexed_triples: Iterable[tuple[int, Triple]],
    id_prefix: str,
    truncate: bool,
) -> Iterator[InstructionSample]:
    """Rank both directions of each (original index, triple) and write their samples,
    with ``truncate`` only those that survive, yielding each once it is written.
    Ids are ``<prefix>-<index>-<direction>``."""
    queries = [
        (i, k, q) for i, triple in indexed_triples for k, q in enumerate(queries_for_triple(triple))
    ]
    ranked = rank_queries(table, kg, (q for _, _, q in queries), params.m)
    for (i, k, q), rq in zip(queries, ranked):
        if not truncate or survives_truncation(rq, params):
            sample = build_sample(kg, rq, options, f"{id_prefix}-{i}-{q.direction}", 2 * i + k)
            w.write(sample)
            yield sample


def iter_samples(path: str) -> Iterator[InstructionSample]:
    """The samples of an instruction file, each read as it is taken. A line
    that is not UTF-8 JSON with exactly the record's keys (say, one written
    before ``TEMPLATE_VERSION`` changed) is a :class:`DataError` naming the
    file and line. No value is checked: a cached set's records are those its
    summary's ``record_sha256`` names, or the set is rebuilt before one is read."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                try:  # a UnicodeDecodeError is a ValueError
                    sample = InstructionSample(**json.loads(line.decode("utf-8")))
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}:{lineno}: not an instruction record: {exc}") from None
                yield sample


def build_set(
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    params: ConfidenceParams,
    options: BuildOptions,
    outdir: str,
    which: str,
    checkpoint: str,
) -> Iterator[InstructionSample]:
    """Build the ``eval`` or ``finetune`` set in the directory ``outdir``,
    yielding each record once it is written, in file order.

    The eval set holds one untruncated sample per direction of every test
    triple in ``instructions.jsonl``. The finetune set cuts the validation
    split 9:1 by ``options.seed``: the 90% part, confidence-truncated, goes to
    ``instructions.jsonl`` and the 10% part, untruncated, to ``holdout.jsonl``
    for hyperparameter selection. The train split is never used here.

    After the last record comes ``summary.json``: the ``[ranker]`` and
    ``[instruct]`` values (the two sections share no key), the template
    version, ``checkpoint`` (the file that the records' ids refer to), the
    counts of ``instructions.jsonl`` (``kept`` is the number of its records),
    its mean prompt length and the sha256 of each record file
    (``record_sha256``, by file name).
    """
    if which == "eval":
        split, prefix = kg.test, "test"
        parts = [("instructions.jsonl", range(len(split)), False)]
    else:
        split, prefix = kg.valid, "valid"
        if len(split) == 0:
            raise DataError("finetune building requires a non-empty validation split")
        perm = np.random.default_rng(options.seed).permutation(len(split))
        cut = (len(split) * 9) // 10
        parts = [
            ("instructions.jsonl", sorted(int(i) for i in perm[:cut]), True),
            ("holdout.jsonl", sorted(int(i) for i in perm[cut:]), False),
        ]
    writers = {}
    for name, rows, truncate in parts:
        with closing(InstructionWriter(os.path.join(outdir, name))) as w:
            indexed = ((i, split[i]) for i in rows)
            yield from _write_samples(w, kg, table, params, options, indexed, prefix, truncate)
        if truncate and w.count == 0:
            logger.warning("truncation at beta=%s kept no finetune samples", params.beta)
        writers[name] = w
    queries = [2 * len(rows) for _, rows, _ in parts]  # both directions of each triple
    w = writers["instructions.jsonl"]
    summary = {
        **asdict(params),
        **asdict(options),
        "template_version": TEMPLATE_VERSION,
        "checkpoint": checkpoint,
        "queries": queries[0],
        "kept": w.count,
        "dropped": queries[0] - w.count,
        "holdout_queries": sum(queries[1:]),
        "mean_prompt_chars": (w.prompt_chars / w.count) if w.count else 0.0,
        "record_sha256": {name: writer.sha256.hexdigest() for name, writer in writers.items()},
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    logger.info(
        "built the %s set: %d queries, %d kept, %d dropped, %d holdout queries",
        which, *(summary[key] for key in ("queries", "kept", "dropped", "holdout_queries")),
    )
