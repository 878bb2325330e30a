"""Shared test utilities: in-memory graphs, datasets written back to disk,
instruction sets built whole and their records read back from disk, a
chat-completion stub served on a thread, prompt parsing, and independent
oracles.

The oracles here deliberately avoid the library's vectorized code paths:
ranking is an exhaustive per-entity loop over plain Python arithmetic (or,
in ``exact_ranking``, a Python sort of the table's own score of every
entity), filtered by facts looked up in the splits, move-to-top rebuilds
the whole permutation, co-occurrence is a quadratic scan, gradients come
from central finite differences, the training epoch is the earlier loop
that scattered with ``np.add.at`` on the 2-D tables, and a text table or a
triple file is read line by line, each field looked up in a set or a dict.
The exception is ``base_model_metrics``, which ranks through
``rank_queries`` to judge ``evaluate``, a stage that reads its ranks from
an eval set.
"""

from __future__ import annotations

import http.server
import itertools
import json
import math
import os
import tempfile
import threading
import time
from contextlib import closing, contextmanager

import numpy as np

from kgrerank import embeddings
from kgrerank.embeddings import (
    TrainingDiverged,
    _hinge_step,
    _normalize_rows,
    _residual_norm,
)
from kgrerank.instructions import (
    CANDIDATES_HEADER,
    ENTITY_PLACEHOLDER,
    BuildOptions,
    build_set,
    iter_samples,
)
from kgrerank.kg import (
    ENTITY_DESC_FILE,
    ENTITY_NAME_FILE,
    RELATION_NAME_FILE,
    TEST_FILE,
    TRAIN_FILE,
    VALID_FILE,
    DataError,
    KnowledgeGraph,
    PackedTexts,
    Triple,
)
from kgrerank.ranking import RankedQuery, metrics, queries_for_triple, rank_queries


def build_kg(n_entities, n_relations, train, valid=(), test=(), descriptions=None):
    names = [f"entity {i}" for i in range(n_entities)]
    if descriptions is None:
        descriptions = [f"about entity {i}" for i in range(n_entities)]
    rel_names = [f"relation {j}" for j in range(n_relations)]
    return KnowledgeGraph(
        names,
        descriptions,
        rel_names,
        [Triple(*t) for t in train],
        [Triple(*t) for t in valid],
        [Triple(*t) for t in test],
    )


def planted_graph(seed, n_entities=400, n_relations=5, dim=32, n_facts=5000, nearest=3):
    """A graph that a translational embedder can learn: entities get random
    unit vectors and relations N(0, 0.5²) ones, in ``dim`` dimensions, and a
    fact (h, r, t) has t among the ``nearest`` entities to e_h + e_r, h
    excluded. ``n_facts`` distinct facts are drawn uniformly from all such
    (h, r, t), in random order, and split 8:1:1."""
    rng = np.random.default_rng(seed)
    ev = rng.normal(size=(n_entities, dim))
    ev /= np.linalg.norm(ev, axis=1, keepdims=True)
    rv = rng.normal(scale=0.5, size=(n_relations, dim))
    points = (ev[:, None, :] + rv[None, :, :]).reshape(-1, dim)  # row h·R + r
    dist, term = np.zeros((2, len(points), n_entities))
    for p, e in zip(points.T, ev.T):  # a dimension at a time: no (points, entities, dim) temporary, no BLAS call
        dist += np.square(np.subtract.outer(p, e, out=term), out=term)
    heads = np.repeat(np.arange(n_entities), n_relations)
    dist[np.arange(len(points)), heads] = np.inf
    tails = np.argpartition(dist, nearest, axis=1)[:, :nearest]
    facts = np.stack(
        [np.repeat(heads, nearest), np.tile(np.repeat(np.arange(n_relations), nearest), n_entities), tails.ravel()],
        axis=1,
    )
    facts = facts[rng.permutation(len(facts))[:n_facts]]
    n_train, n_valid = 8 * n_facts // 10, n_facts // 10
    return build_kg(
        n_entities,
        n_relations,
        facts[:n_train].tolist(),
        facts[n_train : n_train + n_valid].tolist(),
        facts[n_train + n_valid :].tolist(),
    )


def assert_same_graph(graph, reference):
    """``graph`` equals ``reference`` on every attribute and accessor: each
    split's bytes, dtype and shape, the three text tables, ``cooc``, and what
    ``incident_rows``, ``known_tails``, ``known_heads`` and ``in_train`` answer
    for every entity, relation and (h, r, t) row."""
    for split in ("train", "valid", "test"):
        a, b = getattr(graph, split), getattr(reference, split)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), split
    for table in ("entity_names", "entity_descriptions", "relation_names"):
        assert list(getattr(graph, table)) == list(getattr(reference, table)), table
    assert graph.cooc.dtype == reference.cooc.dtype and np.array_equal(graph.cooc, reference.cooc)
    n_e, n_r = reference.num_entities, reference.num_relations
    for e in range(n_e):
        assert np.array_equal(graph.incident_rows(e), reference.incident_rows(e))
        for r in range(n_r):
            assert np.array_equal(graph.known_tails(e, r), reference.known_tails(e, r))
            assert np.array_equal(graph.known_heads(r, e), reference.known_heads(r, e))
    every = np.array(np.meshgrid(range(n_e), range(n_r), range(n_e), indexing="ij"), dtype=np.int64)
    every = every.reshape(3, -1).T
    assert np.array_equal(graph.in_train(every), reference.in_train(every))


def read_text(path):
    """A UTF-8 file's text, read and closed."""
    with open(path, encoding="utf-8") as f:
        return f.read()


def read_lines(path):
    """A UTF-8 file's lines, each with its line end as ``readlines`` gives it, read and closed."""
    with open(path, encoding="utf-8") as f:
        return f.readlines()


def read_bytes(path):
    """A file's bytes, read and closed."""
    with open(path, "rb") as f:
        return f.read()


def read_text_table_by_line(path):
    """The ``(line number, key, text)`` of each non-blank ``<key><TAB><text>``
    line of a text table, read as the library once did: decoded whole with
    universal newlines, then line by line, a byte that is not UTF-8, a line
    without a tab or a repeated key raised as a DataError naming the line."""
    data = read_bytes(path).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from None
    rows = []
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
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


def read_triples_by_line(path, entity_ids, relation_ids):
    """The ``(n, 3)`` (head, relation, tail) ids of a triple file, read as the
    library once did: line by line with universal newlines, each field a
    ``str`` looked up in a dict, the first fault raised as a DataError."""
    heads, rels, tails = [], [], []
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        h, r, t = fields
        for kind, key, ids in (("entity", h, entity_ids), ("entity", t, entity_ids), ("relation", r, relation_ids)):
            if key not in ids:
                raise DataError(f"{path}:{lineno}: unknown {kind} {key!r}")
        heads.append(entity_ids[h])
        rels.append(relation_ids[r])
        tails.append(entity_ids[t])
    return np.array([heads, rels, tails], dtype=np.int64).T


def parse_by_line(dataset_dir):
    """The graph of a dataset directory as the library once parsed it, and
    its three text tables packed in the order ``kg._write_built`` takes them:
    each file read by the line-by-line oracles above, the descriptions
    placed by a dict of the entity keys, and the constructor run on the result."""

    def path(name):
        return os.path.join(dataset_dir, name)

    entities = read_text_table_by_line(path(ENTITY_NAME_FILE))
    relations = read_text_table_by_line(path(RELATION_NAME_FILE))
    entity_ids = {key: i for i, (_, key, _) in enumerate(entities)}
    relation_ids = {key: i for i, (_, key, _) in enumerate(relations)}
    descriptions = [""] * len(entities)
    for lineno, key, text in read_text_table_by_line(path(ENTITY_DESC_FILE)):
        if key not in entity_ids:
            raise DataError(f"{path(ENTITY_DESC_FILE)}:{lineno}: description for unknown entity {key!r}")
        descriptions[entity_ids[key]] = text
    splits = [
        read_triples_by_line(path(name), entity_ids, relation_ids) for name in (TRAIN_FILE, VALID_FILE, TEST_FILE)
    ]
    entity_names = [name for _, _, name in entities]
    relation_names = [name for _, _, name in relations]
    kg = KnowledgeGraph(entity_names, descriptions, relation_names, *splits)
    return kg, [pack_texts(table) for table in (entity_names, relation_names, descriptions)]


def pack_texts(entries):
    r"""``entries`` as a PackedTexts: each one's UTF-8 followed by "\n", and
    the running sum of those lengths as its offsets."""
    encoded = [entry.encode("utf-8") + b"\n" for entry in entries]
    return PackedTexts(b"".join(encoded), np.array([0, *itertools.accumulate(map(len, encoded))], dtype=np.int64))


def neighbors(kg, entity):
    """Training facts incident to ``entity``, in train-file order."""
    return tuple(Triple(*row) for row in kg.train[kg.incident_rows(entity)].tolist())


def write_kg(kg, out_dir, entity_keys=None, relation_keys=None):
    """Serialize a graph back to the dataset file format (round-trip safe),
    each entity and relation under its key in ``entity_keys`` and
    ``relation_keys``, by default ``E<id>`` and ``R<id>``."""
    os.makedirs(out_dir, exist_ok=True)
    if entity_keys is None:
        entity_keys = [f"E{i}" for i in range(kg.num_entities)]
    if relation_keys is None:
        relation_keys = [f"R{j}" for j in range(kg.num_relations)]

    def dump(name, lines):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")

    dump(ENTITY_NAME_FILE, (f"{k}\t{n}" for k, n in zip(entity_keys, kg.entity_names)))
    dump(
        ENTITY_DESC_FILE,
        (f"{k}\t{d}" for k, d in zip(entity_keys, kg.entity_descriptions) if d),
    )
    dump(RELATION_NAME_FILE, (f"{k}\t{n}" for k, n in zip(relation_keys, kg.relation_names)))
    for name, triples in ((TRAIN_FILE, kg.train), (VALID_FILE, kg.valid), (TEST_FILE, kg.test)):
        dump(
            name,
            (
                f"{entity_keys[h]}\t{relation_keys[r]}\t{entity_keys[t]}"
                for h, r, t in triples.tolist()
            ),
        )


def find_benchmark_dir(name):
    """Path of a benchmark dataset placed under $KGRERANK_DATA (default ./data), or None."""
    root = os.environ.get("KGRERANK_DATA", "data")
    path = os.path.join(root, name)
    if all(
        os.path.isfile(os.path.join(path, f))
        for f in (TRAIN_FILE, VALID_FILE, TEST_FILE, ENTITY_NAME_FILE, RELATION_NAME_FILE)
    ):
        return path
    return None


class ChatStub(http.server.ThreadingHTTPServer):
    """A chat-completion endpoint whose n-th request (from 1) gets ``reply(n)``:
    a status, ``"malformed"`` for a 200 whose body is not JSON, ``"null"`` for
    a 200 whose message content is null (a refusal or a tool call), or
    ``"timeout"`` for no answer before the client gives up."""

    def __init__(self, reply):
        super().__init__(("127.0.0.1", 0), _ChatStubHandler)
        self.reply = reply
        self.requests = 0
        self.lock = threading.Lock()

    @property
    def endpoint(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"


class _ChatStubHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self.server.requests += 1
            reply = self.server.reply(self.server.requests)
        if reply == "timeout":  # hang up once the client has given up
            time.sleep(1.0)
            self.close_connection = True
            return
        body = json.dumps({"choices": [{"message": {"content": "entity 1"}}]}).encode()
        if reply == "malformed":
            body = b"{not json"
        elif reply == "null":
            body = json.dumps({"choices": [{"message": {"content": None}}]}).encode()
        elif reply != 200:
            body = b'{"error": "busy"}'
        self.send_response(200 if reply in ("malformed", "null") else reply)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextmanager
def serving(server):
    """``server`` (an HTTP server) answering on a thread while the block runs;
    then shut down, closed and its thread joined. It polls for the shutdown
    every 10 ms, so the shutdown waits no longer than that."""
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def write_set(kg, table, params, options, outdir, which):
    """Build the whole ``which`` set into ``outdir`` through ``build_set``, as
    ``build-eval`` or ``build-finetune`` does; its summary."""
    os.makedirs(outdir, exist_ok=True)
    for _ in build_set(kg, table, params, options, str(outdir), which, "embeddings.ckpt"):
        pass
    return json.loads(read_text(os.path.join(outdir, "summary.json")))


def write_eval_set(kg, table, params, options, outdir):
    """Build the whole eval set into ``outdir``; its summary."""
    return write_set(kg, table, params, options, outdir, "eval")


def write_finetune_set(kg, table, params, options, outdir):
    """Build the whole finetune set into ``outdir``; its summary."""
    return write_set(kg, table, params, options, outdir, "finetune")


def report_header(params, options=None):
    """The head of a report on a set built with ``params`` and ``options``, as ``evaluate`` takes it."""
    gamma = (options or BuildOptions()).gamma
    return {"m": params.m, "alpha": params.alpha, "beta": params.beta, "gamma": gamma}


def eval_samples(kg, table, params, options=None, limit=None):
    """(samples, report header) of the eval set that ``build_set`` writes, read
    back from disk: its first ``limit`` samples (None: all of them); the rest
    are never built."""
    with tempfile.TemporaryDirectory() as tmp:
        built = build_set(kg, table, params, options or BuildOptions(), tmp, "eval", "embeddings.ckpt")
        with closing(built):
            for _ in itertools.islice(built, limit):
                pass
        samples = list(iter_samples(os.path.join(tmp, "instructions.jsonl")))
    return samples, report_header(params, options)


def read_records(path):
    """The records of an instruction file as dicts, field for field its lines."""
    return [vars(sample) for sample in iter_samples(path)]


def base_model_metrics(kg, table, m, limit_triples=0):
    """Filtered metrics of the scorer itself, without prompts or reranking: the
    ``metrics`` of the head, the tail and the pooled gold ranks of the first
    ``limit_triples`` test triples (0: all), ranked here rather than read from
    an eval set, so that ``evaluate``'s base rows can be judged against it."""
    triples = kg.test[:limit_triples] if limit_triples else kg.test
    ranks = {"head": [], "tail": []}
    queries = (q for triple in triples for q in queries_for_triple(triple))
    for rq in rank_queries(table, kg, queries, m):
        ranks[rq.query.direction].append(rq.gold_rank)
    return {
        "head": metrics(ranks["head"]),
        "tail": metrics(ranks["tail"]),
        "combined": metrics(ranks["head"] + ranks["tail"]),
    }


def parse_candidate_names(prompt):
    """Recover the ordered candidate names from a rendered prompt."""
    for block in prompt.split("\n\n"):
        lines = block.split("\n")
        if lines[0] != CANDIDATES_HEADER:
            continue
        names = []
        for line in lines[1:]:
            if not line.endswith(ENTITY_PLACEHOLDER):
                raise ValueError(f"malformed candidate line: {line!r}")
            names.append(line[: -len(ENTITY_PLACEHOLDER)])
        return names
    raise ValueError("prompt has no candidate block")


def score(table, h, r, t):
    """The table's score of one triple: the negated residual norm, grouped as
    ``score_candidates`` groups it, so the two agree bitwise."""
    u = table.entity_vecs[h] + table.relation_vecs[r] - table.entity_vecs[t]
    return float(-_residual_norm(u, table.norm))


def brute_force_score(table, h, r, t):
    """The negated L1 or L2 norm of one triple's residual, formed an element
    at a time. The residual row is summed with ``np.sum`` of a 1-D float64
    array, which adds pairwise as the row sums of ``score_candidates`` do: a
    sum in sequence can round two rows one ulp apart to a tie."""
    eh = table.entity_vecs[h]
    er = table.relation_vecs[r]
    et = table.entity_vecs[t]
    u = np.array([float(eh[i]) + float(er[i]) - float(et[i]) for i in range(len(eh))])
    if table.norm == "L1":
        return -float(np.sum(np.abs(u)))
    return -math.sqrt(float(np.sum(u * u)))


def filtered_out(kg, q):
    """The entities that complete a known-true triple of q other than its gold,
    found in the splits themselves, not in a library index."""
    true_facts = {tuple(f) for split in (kg.train, kg.valid, kg.test) for f in split.tolist()}
    return [e for e in range(kg.num_entities) if e != q.gold and tuple(q.completed(e)) in true_facts]


def sort_ranking(scores, q):
    """Every entity of ``scores`` (a list by id), score descending and ties
    to the smaller id, and the gold's rank in that order."""
    order = sorted(range(len(scores)), key=lambda e: (-scores[e], e))
    return order, order.index(q.gold) + 1


def brute_force_rank(table, kg, q, m, filtered=True):
    """Exhaustive ranking oracle: per-entity scores, filtering, explicit sort."""
    scores = [brute_force_score(table, *q.completed(e)) for e in range(kg.num_entities)]
    for e in filtered_out(kg, q) if filtered else ():
        scores[e] = -math.inf
    order, gold_rank = sort_ranking(scores, q)
    return order, order[:m], gold_rank


def exact_ranking(table, kg, q, m):
    """The ranking from the table's exact score of every entity, the filtered
    ones at -inf, sorted in full."""
    scores = table.score_candidates(q.known, q.relation, q.direction).tolist()
    for e in filtered_out(kg, q):
        scores[e] = -math.inf
    order, gold_rank = sort_ranking(scores, q)
    return RankedQuery(q, order[:m], [scores[e] for e in order[:m]], gold_rank, scores[q.gold])


def rerank(ranking, selection, candidate_ids):
    """Move-to-top oracle: the candidate at index ``selection`` goes first, all
    other order is kept; None (an abstention) keeps the ranking."""
    if selection is None:
        return np.array(ranking, copy=True)
    if not 0 <= selection < len(candidate_ids):
        raise ValueError(f"selection index {selection} out of range")
    chosen = candidate_ids[selection]
    ranking = np.asarray(ranking)
    out = np.empty_like(ranking)
    out[0] = chosen
    out[1:] = ranking[ranking != chosen]
    return out


def brute_force_cooc(kg):
    counts = np.zeros((kg.num_relations, kg.num_relations), dtype=np.int64)
    train = [Triple(*f) for f in kg.train.tolist()]
    for r1 in range(kg.num_relations):
        for r2 in range(kg.num_relations):
            n = 0
            for e in range(kg.num_entities):
                has_r1 = any(
                    f.relation == r1 and e in (f.head, f.tail) for f in train
                )
                has_r2 = any(
                    f.relation == r2 and e in (f.head, f.tail) for f in train
                )
                if has_r1 and has_r2:
                    n += 1
            counts[r1, r2] = n
    return counts


def pair_loss_and_grads(table, pos, neg, margin):
    """Loss and accumulated per-vector gradients for one (positive, negative)
    pair, from the training step's own hinge, for the finite-difference check.
    With a learning rate of 1 the positive step block is the negated gradient
    of the positive head and relation and the gradient of the positive tail;
    the negative block is the same for the negative pair."""
    pos_arr = np.asarray([pos], dtype=np.int64)
    neg_arr = np.asarray([neg], dtype=np.int64)
    steps = np.empty((2, 1, table.dim))
    loss = _hinge_step(table, pos_arr, neg_arr, margin, 1.0, steps)
    rows = [
        ("entity", pos[0], -steps[0]), ("entity", pos[2], steps[0]),
        ("entity", neg[0], -steps[1]), ("entity", neg[2], steps[1]),
        ("relation", pos[1], -steps[0]), ("relation", neg[1], -steps[1]),
    ]
    grads = {}
    for kind, i, grad in rows:
        grads[(kind, i)] = grads.get((kind, i), 0.0) + grad[0]
    return loss, grads


def reference_hinge_step(table, pos, neg, margin):
    """The hinge step that trained every earlier checkpoint, kept verbatim as
    the reference for ``train``: (loss_sum, entity_idx, entity_grads,
    relation_idx, relation_grads), the gradients unscaled."""
    ev, rv = table.entity_vecs, table.relation_vecs
    with np.errstate(over="ignore", invalid="ignore"):
        u_pos = ev[pos[:, 0]] + rv[pos[:, 1]] - ev[pos[:, 2]]
        u_neg = ev[neg[:, 0]] + rv[neg[:, 1]] - ev[neg[:, 2]]
        d_pos = _residual_norm(u_pos, table.norm)
        d_neg = _residual_norm(u_neg, table.norm)
        viol = margin + d_pos - d_neg
    if not np.isfinite(viol).all():
        # overflowed scores must surface as divergence, not vanish in the mask
        loss_sum = float("nan")
    else:
        loss_sum = float(viol[viol > 0].sum())
    active = viol > 0

    with np.errstate(over="ignore", invalid="ignore"):
        if table.norm == "L1":
            g_pos = np.sign(u_pos)
            g_neg = np.sign(u_neg)
        else:
            g_pos = np.zeros_like(u_pos)
            g_neg = np.zeros_like(u_neg)
            np.divide(u_pos, d_pos[:, None], out=g_pos, where=d_pos[:, None] > 0)
            np.divide(u_neg, d_neg[:, None], out=g_neg, where=d_neg[:, None] > 0)
        g_pos = np.where(active[:, None], g_pos, 0.0)
        g_neg = np.where(active[:, None], g_neg, 0.0)

    entity_idx = np.concatenate([pos[:, 0], pos[:, 2], neg[:, 0], neg[:, 2]])
    entity_grads = np.concatenate([g_pos, -g_pos, -g_neg, g_neg])
    relation_idx = np.concatenate([pos[:, 1], neg[:, 1]])
    relation_grads = np.concatenate([g_pos, -g_neg])
    return loss_sum, entity_idx, entity_grads, relation_idx, relation_grads


def reference_sample_negatives(positives, kg, k, rng):
    """The negative sampler that drew every earlier checkpoint's negatives,
    kept as it was: each round tests the whole batch again."""
    num_entities = kg.num_entities
    neg = np.repeat(positives, k, axis=0)
    n = neg.shape[0]
    corrupt_head = rng.integers(0, 2, size=n).astype(bool)
    neg[corrupt_head, 0] = rng.integers(0, num_entities, size=int(corrupt_head.sum()))
    neg[~corrupt_head, 2] = rng.integers(0, num_entities, size=int((~corrupt_head).sum()))
    for _ in range(50):
        clash = kg.in_train(neg)
        if not clash.any():
            break
        redraw = rng.integers(0, num_entities, size=int(clash.sum()))
        rows = np.where(clash)[0]
        heads = corrupt_head[rows]
        neg[rows[heads], 0] = redraw[heads]
        neg[rows[~heads], 2] = redraw[~heads]
    return neg


def reference_train(kg, config, *, epoch_losses=None):
    """The training loop that wrote every earlier checkpoint, kept as it was
    (less its logging, and with the check that its final table is rankable)
    with ``np.add.at`` on the 2-D tables as its scatter
    and ``reference_sample_negatives`` as its sampler:
    ``train`` must equal it byte for byte. It draws its initial table through
    the module, as ``train`` does, so a patched ``init_embeddings`` reaches
    both."""
    table = embeddings.init_embeddings(kg, config)
    triples = kg.train
    rng = np.random.default_rng((config.seed, 1))
    k = config.negatives
    lr = config.learning_rate
    settings = f"(learning_rate={lr}, margin={config.margin})"

    for epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            pos = triples[order[start : start + config.batch_size]]
            pos_rep = np.repeat(pos, k, axis=0)
            neg = reference_sample_negatives(pos, kg, k, rng)
            loss, e_idx, e_grads, r_idx, r_grads = reference_hinge_step(
                table, pos_rep, neg, config.margin
            )
            total += loss
            np.add.at(table.entity_vecs, e_idx, -lr * e_grads)
            np.add.at(table.relation_vecs, r_idx, -lr * r_grads)
        if not np.isfinite(total):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}: {total!r} {settings}")
        _normalize_rows(table.entity_vecs)
        mean = total / (len(triples) * k)
        if epoch_losses is not None:
            epoch_losses.append(mean)
    if not table.rankable():
        raise TrainingDiverged(f"non-finite vectors after the last epoch, or scores that overflow {settings}")
    return table


def rel_err(a, b):
    """Guarded relative error for gradient checks."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def central_diff(f, x, h=1e-6, batch=128):
    """Central finite-difference gradient of a scalar function at array x.

    ``f`` takes a stack of arrays shaped like x, ``(k, *x.shape)``, and returns
    their k values. Each call differences up to ``batch`` entries: the stack
    holds x with one entry moved by +h, for each of them, then by -h."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    grad = np.empty_like(flat)
    for lo in range(0, flat.size, batch):
        entries = np.arange(lo, min(lo + batch, flat.size))
        k = entries.size
        stack = np.tile(flat, (2 * k, 1))
        stack[np.arange(k), entries] = flat[entries] + h
        stack[np.arange(k, 2 * k), entries] = flat[entries] - h
        values = f(stack.reshape(2 * k, *np.shape(x)))
        grad[entries] = (values[:k] - values[k:]) / (2 * h)
    return grad.reshape(np.shape(x))
