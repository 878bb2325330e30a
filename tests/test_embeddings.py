import hashlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    base_model_metrics,
    brute_force_score,
    build_kg,
    central_diff,
    pair_loss_and_grads,
    planted_graph,
    reference_sample_negatives,
    reference_train,
    rel_err,
    score,
)
from kgrerank import embeddings
from kgrerank.embeddings import (
    EmbeddingTable,
    TrainConfig,
    TrainingDiverged,
    _sample_negatives,
    _scatter_steps,
    _scatter_target,
    init_embeddings,
    train,
)
from kgrerank.kg import DataError

CHAIN = build_kg(4, 1, train=[(0, 0, 1), (1, 0, 2), (2, 0, 3)])


def small_config(**overrides):
    defaults = dict(dim=8, learning_rate=0.1, margin=1.0, epochs=0, batch_size=4, seed=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_init_is_deterministic_per_seed():
    a = init_embeddings(CHAIN, small_config(seed=5))
    b = init_embeddings(CHAIN, small_config(seed=5))
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)


def test_init_differs_across_seeds():
    a = init_embeddings(CHAIN, small_config(seed=5))
    b = init_embeddings(CHAIN, small_config(seed=6))
    assert not np.array_equal(a.entity_vecs, b.entity_vecs)


def test_init_one_dimensional_vectors_are_signs():
    table = init_embeddings(CHAIN, small_config(dim=1))
    assert set(np.unique(table.entity_vecs)) <= {-1.0, 1.0}


def test_init_entity_rows_unit_norm():
    table = init_embeddings(CHAIN, small_config(dim=7))
    norms = np.linalg.norm(table.entity_vecs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_score_exact_translation_is_zero():
    table = EmbeddingTable(
        entity_vecs=np.array([[1.0, 0.0], [1.0, 1.0]]),
        relation_vecs=np.array([[0.0, 1.0]]),
        norm="L2",
    )
    assert score(table, 0, 0, 1) == 0.0


def test_score_unit_offset():
    table = EmbeddingTable(
        entity_vecs=np.array([[0.0, 0.0], [1.0, 0.0]]),
        relation_vecs=np.array([[0.0, 0.0]]),
        norm="L2",
    )
    assert score(table, 0, 0, 1) == -1.0


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_score_matches_arithmetic_oracle(norm):
    rng = np.random.default_rng(11)
    table = EmbeddingTable(
        entity_vecs=rng.normal(size=(5, 6)),
        relation_vecs=rng.normal(size=(2, 6)),
        norm=norm,
    )
    for _ in range(10):
        h, t = rng.integers(0, 5, size=2)
        r = int(rng.integers(0, 2))
        assert score(table, int(h), r, int(t)) == pytest.approx(
            brute_force_score(table, int(h), r, int(t)), abs=1e-12
        )


def test_score_candidates_agrees_with_single_scores():
    rng = np.random.default_rng(2)
    table = EmbeddingTable(rng.normal(size=(6, 4)), rng.normal(size=(2, 4)), "L2")
    for direction in ("tail", "head"):
        scores = table.score_candidates(3, 1, direction)
        for e in range(6):
            h, t = (3, e) if direction == "tail" else (e, 3)
            assert scores[e] == score(table, h, 1, t)


def test_l1_score_candidates_is_bit_equal_to_the_norm_of_its_residual():
    rng = np.random.default_rng(5)
    table = EmbeddingTable(rng.normal(size=(50, 7)), rng.normal(size=(3, 7)), "L1")
    ev, rv = table.entity_vecs.copy(), table.relation_vecs.copy()
    for direction in ("tail", "head"):
        for entities in (None, np.array([0, 4, 11, 17, 49])):
            candidates = ev if entities is None else ev[entities]
            u = (ev[11] + rv[2]) - candidates if direction == "tail" else (candidates + rv[2]) - ev[11]
            scores = table.score_candidates(11, 2, direction, entities)
            assert scores.tobytes() == (-np.abs(u).sum(-1)).tobytes()
    # |u| is taken in the call's own temporary, never in the table
    assert table.entity_vecs.tobytes() == ev.tobytes()
    assert table.relation_vecs.tobytes() == rv.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=9, max_size=9
    ),
    shift=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_score_is_translation_consistent(vals, shift):
    base = np.array(vals).reshape(3, 3)
    table = EmbeddingTable(base[:2].copy(), base[2:].copy(), "L2")
    shifted = EmbeddingTable(base[:2] + shift, base[2:].copy(), "L2")
    assert score(table, 0, 0, 1) == pytest.approx(score(shifted, 0, 0, 1), abs=1e-9)


@pytest.mark.parametrize("norm", ["L2", "L1"])
def test_pair_gradients_match_finite_differences(norm):
    rng = np.random.default_rng(17)
    table = EmbeddingTable(rng.normal(size=(5, 4)), rng.normal(size=(2, 4)), norm)
    pos, neg = (0, 0, 1), (0, 0, 3)
    margin = 4.0

    def loss_fn(t):
        d_pos = -brute_force_score(t, *pos)
        d_neg = -brute_force_score(t, *neg)
        return max(0.0, margin + d_pos - d_neg)

    base_loss, grads = pair_loss_and_grads(table, pos, neg, margin)
    assert base_loss > 0.05  # hinge active, away from the kink
    for (kind, idx), grad in grads.items():
        vecs = table.entity_vecs if kind == "entity" else table.relation_vecs
        if norm == "L1":
            # keep clear of the absolute-value kinks
            u = table.entity_vecs[pos[0]] + table.relation_vecs[pos[1]] - table.entity_vecs[pos[2]]
            assert np.abs(u).min() > 1e-3
        def f(stack, vecs=vecs, idx=idx):
            saved = vecs[idx].copy()
            values = []
            try:
                for row in stack:
                    vecs[idx] = row
                    values.append(loss_fn(table))
            finally:
                vecs[idx] = saved
            return np.array(values)
        fd = central_diff(f, vecs[idx].copy())  # f writes into vecs[idx]
        for a, b in zip(np.asarray(grad).ravel(), fd.ravel()):
            assert rel_err(a, b) < 1e-5


def test_pair_gradients_zero_when_hinge_inactive():
    # positive is an exact translation, negative sits far away: hinge closed
    table = EmbeddingTable(
        entity_vecs=np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]]),
        relation_vecs=np.array([[1.0, 0.0]]),
        norm="L2",
    )
    loss, grads = pair_loss_and_grads(table, (0, 0, 1), (0, 0, 2), margin=1.0)
    assert loss == 0.0
    for grad in grads.values():
        assert np.allclose(grad, 0.0)


def test_train_zero_epochs_returns_initial_table():
    cfg = small_config(epochs=0)
    trained = train(CHAIN, cfg)
    fresh = init_embeddings(CHAIN, cfg)
    assert np.array_equal(trained.entity_vecs, fresh.entity_vecs)
    assert np.array_equal(trained.relation_vecs, fresh.relation_vecs)


def test_train_is_deterministic():
    cfg = small_config(epochs=25)
    a = train(CHAIN, cfg)
    b = train(CHAIN, cfg)
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)


def test_train_separates_true_from_corrupted():
    cfg = small_config(epochs=200, batch_size=8)
    table = train(CHAIN, cfg)
    true_scores = [score(table, *t) for t in CHAIN.train]
    rng = np.random.default_rng(23)
    corrupted = []
    while len(corrupted) < 50:
        h, r, t = CHAIN.train[rng.integers(0, len(CHAIN.train))]
        if rng.integers(0, 2):
            h = int(rng.integers(0, CHAIN.num_entities))
        else:
            t = int(rng.integers(0, CHAIN.num_entities))
        if [h, r, t] in CHAIN.train.tolist():
            continue
        corrupted.append(score(table, h, r, t))
    assert np.mean(true_scores) > np.mean(corrupted)


def test_train_entity_norms_stay_unit():
    table = train(CHAIN, small_config(epochs=30))
    norms = np.linalg.norm(table.entity_vecs, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_train_loss_windows_non_increasing():
    # deterministic descent run: extra negatives smooth the per-epoch estimate
    cfg = TrainConfig(
        dim=16,
        learning_rate=0.02,
        margin=1.0,
        epochs=100,
        batch_size=8,
        negatives=16,
        seed=2,
    )
    losses: list[float] = []
    train(CHAIN, cfg, epoch_losses=losses)
    windows = [np.mean(losses[i : i + 10]) for i in range(0, cfg.epochs, 10)]
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier


@st.composite
def batch_scatter_case(draw):
    """Tables, one batch's positive and negative rows, and its two step
    blocks of mixed magnitude (1e-200 to 1e200, either sign) with zeros of
    both signs. The rows of inactive pairs are signed zeros, -0 in the
    positive block and +0 in the negative one, as ``_hinge_step`` writes
    them. One entity is a positive tail and a negative head in hundreds of
    pairs, and one relation repeats hundreds of times, as a hub and a
    frequent relation do in a batch."""
    n_entities = draw(st.integers(min_value=2, max_value=12))
    n_relations = draw(st.integers(min_value=1, max_value=4))
    dim = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=100, max_value=400))
    hub = draw(st.integers(0, n_entities - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pos = np.stack(
        [rng.integers(0, n_entities, n), rng.integers(0, n_relations, n), rng.integers(0, n_entities, n)], axis=1
    )
    pos[rng.random(n) < 0.8, 1] = draw(st.integers(0, n_relations - 1))
    pos[rng.random(n) < 0.5, 2] = hub
    neg = pos.copy()
    corrupt_head = rng.random(n) < 0.5
    neg[corrupt_head, 0] = np.where(rng.random(n) < 0.6, hub, rng.integers(0, n_entities, n))[corrupt_head]
    neg[~corrupt_head, 2] = rng.integers(0, n_entities, n)[~corrupt_head]

    def values(shape):
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-200, 201, size=shape)
        zero = rng.random(shape) < 0.2
        v[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
        return v

    steps = values((2, n, dim))
    inactive = rng.random(n) < 0.3
    steps[0, inactive], steps[1, inactive] = -0.0, 0.0
    return values((n_entities, dim)), values((n_relations, dim)), pos, neg, steps


@given(batch_scatter_case())
@settings(max_examples=60, deadline=None)
def test_scatter_steps_is_bit_equal_to_add_at_of_the_four_gradient_blocks(case):
    entity_vecs, relation_vecs, pos, neg, steps = case
    s_pos, s_neg = steps
    expected_entities, expected_relations = entity_vecs.copy(), relation_vecs.copy()
    np.add.at(
        expected_entities,
        np.concatenate([pos[:, 0], pos[:, 2], neg[:, 0], neg[:, 2]]),
        np.concatenate([s_pos, -s_pos, s_neg, -s_neg]),
    )
    np.add.at(expected_relations, np.concatenate([pos[:, 1], pos[:, 1]]), np.concatenate([s_pos, s_neg]))
    _scatter_steps(_scatter_target(entity_vecs), _scatter_target(relation_vecs), pos, neg, steps)
    assert entity_vecs.tobytes() == expected_entities.tobytes()
    assert relation_vecs.tobytes() == expected_relations.tobytes()


def test_a_scatter_target_must_be_a_contiguous_float64_table():
    with pytest.raises(ValueError, match="C-contiguous float64"):
        _scatter_target(np.zeros((4, 6))[:, ::2])
    with pytest.raises(ValueError, match="C-contiguous float64"):
        _scatter_target(np.zeros((4, 6), dtype=np.float32))


def _pinned_graph():
    rng = np.random.default_rng(11)
    relations = rng.choice(3, size=300, p=[0.8, 0.15, 0.05])
    facts = np.stack([rng.integers(0, 40, 300), relations, rng.integers(0, 40, 300)], axis=1)
    return build_kg(40, 3, train=[tuple(t) for t in facts.tolist() if t[0] != t[2]])


# sha256 of the trained vectors as computed with np.add.at scattering rows;
# an epoch change that is not bit-exact changes them. dim 10 scatters float64
# pairs, dim 7 single float64 values.
@pytest.mark.parametrize(
    "norm, dim, digest",
    [
        ("L1", 10, "01ed4484f460b7d4e15dc6d640e6a94c08232e52c472d8cbed495fed927a0f5e"),
        ("L2", 10, "f15c5076a58d15d71c40651106ad54472c66fb6c7b4fc5a2cf66ef417dd01c01"),
        ("L1", 7, "d7a8bbfc17449cc852f163d8cc4405134d3a91d6c29bcfd22ff6f5f8a7cde8ae"),
        ("L2", 7, "00e5e08bfa7abf51a0491d7b69f4082f1e9682e57d408485493900814b16cab1"),
    ],
    ids=["L1", "L2", "L1-dim7", "L2-dim7"],
)
def test_trained_bytes_are_pinned(norm, dim, digest):
    cfg = TrainConfig(dim=dim, learning_rate=0.05, epochs=4, batch_size=128, negatives=2, seed=5, norm=norm)
    table = train(_pinned_graph(), cfg)
    assert hashlib.sha256(table.entity_vecs.tobytes() + table.relation_vecs.tobytes()).hexdigest() == digest


def _collapsed_init(kg, config):
    """The seeded init with every even entity row a copy of row 0 and relation
    0 zero, so a relation-0 fact between even entities has distance 0."""
    table = init_embeddings(kg, config)
    table.entity_vecs[::2] = table.entity_vecs[0]
    table.relation_vecs[0] = 0.0
    return table


@st.composite
def training_case(draw):
    """A small graph with repeated entities and self-loops; a config whose
    batches may leave a short last batch, whose margin closes (1e-9) or opens
    (50) nearly every hinge, and whose learning rate may diverge (1e307); and
    whether training starts from ``_collapsed_init``."""
    n_entities = draw(st.integers(min_value=2, max_value=10))
    n_relations = draw(st.integers(min_value=1, max_value=3))
    facts = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_entities - 1), st.integers(0, n_relations - 1), st.integers(0, n_entities - 1)
            ),
            min_size=1,
            max_size=30,
        )
    )
    kg = build_kg(n_entities, n_relations, train=facts)
    cfg = TrainConfig(
        dim=draw(st.integers(min_value=1, max_value=7)),
        learning_rate=draw(st.sampled_from([0.01, 0.3, 1e307])),
        margin=draw(st.sampled_from([1e-9, 1.0, 50.0])),
        epochs=draw(st.integers(min_value=1, max_value=4)),
        batch_size=draw(st.integers(min_value=1, max_value=len(kg.train) + 1)),
        negatives=draw(st.integers(min_value=1, max_value=3)),
        norm=draw(st.sampled_from(["L1", "L2"])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    return kg, cfg, draw(st.booleans())


def _train_or_divergence(trainer, kg, cfg):
    losses = []
    try:
        table = trainer(kg, cfg, epoch_losses=losses)
    except TrainingDiverged as exc:
        return "diverged", str(exc), losses
    return table.entity_vecs.tobytes(), table.relation_vecs.tobytes(), losses


@given(training_case())
@settings(max_examples=80, deadline=None)
def test_train_is_bit_equal_to_the_reference_epoch(case):
    kg, cfg, collapsed = case
    init = _collapsed_init if collapsed else init_embeddings
    # a diverging run may overflow its loss sum; both report it as divergence
    with mock.patch.object(embeddings, "init_embeddings", init), np.errstate(over="ignore"):
        got = _train_or_divergence(train, kg, cfg)
        expected = _train_or_divergence(reference_train, kg, cfg)
    assert got[:2] == expected[:2]
    assert np.array(got[2]).tobytes() == np.array(expected[2]).tobytes()


# The bounds of the planted-graph test: the filtered test MRR at m = 20 of a
# table trained 8 epochs on planted_graph(seed) must clear them. Over graph
# seeds 0-11, training gave 0.234-0.306 (L2) and 0.195-0.247 (L1); the caught
# mutants (``_normalize_rows`` a no-op, only heads corrupted, ``_hinge_step``
# called with the negatives as positives) gave at most 0.177 and 0.138, and
# an untrained table 0.015-0.037.
PLANTED_BOUNDS = {"L2": 0.205, "L1": 0.165}


@pytest.fixture(scope="module")
def planted():
    return planted_graph(seed=0)


@pytest.mark.parametrize("norm", ["L2", "L1"])
def test_training_learns_a_planted_graph(planted, norm):
    # judges learning, where the bit-equality tests judge exactness: a fault
    # shared by train and reference_train passes those and fails this
    config = TrainConfig(dim=32, epochs=8, batch_size=256, norm=norm)
    trained = base_model_metrics(planted, train(planted, config), m=20)["combined"]["mrr"]
    untrained = base_model_metrics(planted, init_embeddings(planted, config), m=20)["combined"]["mrr"]
    assert trained > PLANTED_BOUNDS[norm]
    assert trained > 5 * untrained


def _hub_graph():
    """About 20,000 facts over 2,000 entities and 40 Zipf-weighted relations,
    with entity 0 in one fact of six: some 170 facts of a 1,024-fact batch."""
    rng = np.random.default_rng(29)
    n = 24_000
    weights = 1.0 / np.arange(1, 41)
    facts = np.stack(
        [rng.integers(0, 2000, n), rng.choice(40, size=n, p=weights / weights.sum()), rng.integers(0, 2000, n)],
        axis=1,
    )
    hub = rng.random(n) < 1 / 6
    facts[hub, np.where(rng.random(n) < 0.5, 0, 2)[hub]] = 0
    facts = facts[facts[:, 0] != facts[:, 2]]
    _, first = np.unique((facts[:, 0] * 40 + facts[:, 1]) * 2000 + facts[:, 2], return_index=True)
    return build_kg(2000, 40, train=facts[np.sort(first)][:20_000].tolist())


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_one_epoch_at_the_benchmark_batch_shape_equals_the_reference(norm):
    kg = _hub_graph()
    assert len(kg.train) == 20_000
    assert ((kg.train[:, 0] == 0) | (kg.train[:, 2] == 0)).sum() >= 100 * len(kg.train) / 1024
    cfg = TrainConfig(dim=100, epochs=1, batch_size=1024, norm=norm, seed=4)
    got = _train_or_divergence(train, kg, cfg)
    expected = _train_or_divergence(reference_train, kg, cfg)
    assert got[:2] == expected[:2]
    assert np.array(got[2]).tobytes() == np.array(expected[2]).tobytes()


def _sample_counting(sampler, kg, positives, k, seed):
    """The negatives ``sampler`` draws, and the rows of each ``in_train`` call it makes."""
    tested = []
    original = kg.in_train
    kg.in_train = lambda rows: tested.append(len(rows)) or original(rows)
    try:
        return sampler(positives, kg, k, np.random.default_rng(seed)), tested
    finally:
        del kg.in_train


@pytest.mark.parametrize("seed", range(5))
def test_negatives_equal_the_reference_and_only_redraws_are_tested_again(seed):
    # dense: three in four corruptions are training facts, so rows are redrawn for rounds
    kg = build_kg(6, 1, train=[(h, 0, t) for h in range(6) for t in range(6) if (h + t) % 4])
    positives = kg.train[:8]
    neg, tested = _sample_counting(
        lambda pos, kg, k, rng: _sample_negatives(np.repeat(pos, k, axis=0), kg, rng), kg, positives, 4, seed
    )
    expected, reference_tested = _sample_counting(reference_sample_negatives, kg, positives, 4, seed)
    assert np.array_equal(neg, expected)
    assert len(tested) == len(reference_tested) > 2
    assert tested[0] == reference_tested[0] == 32 and sum(tested) < sum(reference_tested)
    assert tested == sorted(tested, reverse=True)  # a round tests no more rows than the one before


@pytest.mark.parametrize("seed", range(5))
def test_negatives_are_no_training_facts_and_corrupt_one_end(seed):
    # three in four corruptions are training facts, yet every fact has clean
    # ones at both ends: judged by a set of the train triples, not by in_train
    kg = build_kg(6, 2, train=[(h, r, t) for h in range(6) for r in range(2) for t in range(6) if (h + r + t) % 4])
    positives = np.repeat(kg.train, 3, axis=0)
    neg = _sample_negatives(positives, kg, np.random.default_rng(seed))
    facts = {tuple(fact) for fact in kg.train.tolist()}
    assert [fact for fact in neg.tolist() if tuple(fact) in facts] == []
    assert np.array_equal(neg[:, 1], positives[:, 1])
    changed = (neg[:, [0, 2]] != positives[:, [0, 2]]).sum(axis=1)
    assert (changed == 1).all()


def test_train_empty_split_rejected():
    empty = build_kg(3, 1, train=[])
    with pytest.raises(DataError):
        train(empty, small_config(epochs=1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_raises():
    with pytest.raises(TrainingDiverged):
        train(CHAIN, small_config(learning_rate=1e307, epochs=5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_last_step_that_overflows_raises():
    # one batch: its loss is taken before its L1 steps of +-1e308 add up to inf,
    # and the scatter that overflows warns nothing
    with pytest.raises(TrainingDiverged, match="non-finite vectors after the last epoch"):
        train(CHAIN, small_config(learning_rate=1e308, epochs=1, norm="L1"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_loss_sum_that_overflows_is_inf_without_a_warning():
    # two finite hinges of about 1.5e308 each, whose sum overflows
    table = EmbeddingTable(np.array([[0.0], [1.5e308]]), np.zeros((1, 1)), "L1")
    pos = np.array([[0, 0, 1], [0, 0, 1]])
    neg = np.array([[0, 0, 0], [0, 0, 0]])
    assert embeddings._hinge_step(table, pos, neg, 1.0, 0.1, np.empty((2, 2, 1))) == np.inf


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    table = EmbeddingTable(rng.normal(size=(5, 3)), rng.normal(size=(2, 3)), "L1")
    path = str(tmp_path / "table.ckpt")
    table.save(path)
    back = EmbeddingTable.load(path)
    assert back.norm == "L1"
    assert back.entity_vecs.tobytes() == table.entity_vecs.tobytes()
    assert back.relation_vecs.tobytes() == table.relation_vecs.tobytes()


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda b: b[:1], "truncated header"),
        (lambda b: b[: embeddings._HEADER.size], "expected 64 payload bytes, got 0"),
        (lambda b: b[:-1], "expected 64 payload bytes, got 63"),
        (lambda b: b + bytes(1), "expected 64 payload bytes, got 65"),
    ],
    ids=["one-byte", "header", "short", "longer"],
)
def test_a_checkpoint_of_the_wrong_size_is_rejected(tmp_path, cut, message):
    path = tmp_path / "table.ckpt"
    EmbeddingTable(np.ones((3, 2)), np.ones((1, 2)), "L2").save(str(path))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(DataError, match=message):
        EmbeddingTable.load(str(path))


def test_corrupt_checkpoint_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(DataError):
        EmbeddingTable.load(str(path))


def test_query_vector_composition():
    rng = np.random.default_rng(3)
    table = EmbeddingTable(rng.normal(size=(4, 5)), rng.normal(size=(2, 5)), "L2")
    np.testing.assert_array_equal(
        table.query_vector(1, 0, "tail"), table.entity_vecs[1] + table.relation_vecs[0]
    )
    np.testing.assert_array_equal(
        table.query_vector(2, 1, "head"), table.entity_vecs[2] - table.relation_vecs[1]
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 0},
        {"learning_rate": 0.0},
        {"margin": -1.0},
        {"epochs": -1},
        {"negatives": 0},
        {"batch_size": 0},
        {"norm": "L3"},
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        small_config(**kwargs)


class FakeBlas:
    """A thread-count getter and setter that record every count set."""

    def __init__(self, count):
        self.count, self.counts_set = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.counts_set.append(count)


def test_one_blas_thread_holds_one_thread_and_restores_the_count(monkeypatch):
    blas = FakeBlas(4)
    monkeypatch.setattr(embeddings, "_openblas_threads", lambda: (blas.get, blas.set))
    with embeddings._one_blas_thread():
        assert blas.count == 1
    assert blas.count == 4
    with pytest.raises(ZeroDivisionError), embeddings._one_blas_thread():
        assert blas.count == 1
        1 / 0
    assert blas.count == 4
    assert blas.counts_set == [1, 4, 1, 4]


def test_first_pass_runs_its_product_on_one_blas_thread(monkeypatch):
    rng = np.random.default_rng(6)
    table = EmbeddingTable(rng.normal(size=(9, 5)), rng.normal(size=(2, 5)), "L2")
    keys = [(0, 1, "tail"), (3, 0, "head")]
    blas = FakeBlas(2)
    monkeypatch.setattr(embeddings, "_openblas_threads", lambda: (blas.get, blas.set))
    rows = table.first_pass(keys)
    pooled = [next(rows)]
    assert blas.count == 2  # restored while the caller holds a row
    pooled += rows
    assert blas.counts_set == [1, 2]
    # an L1 pass makes no product and leaves the count alone
    list(EmbeddingTable(table.entity_vecs, table.relation_vecs, "L1").first_pass(keys))
    assert blas.counts_set == [1, 2]
    # no OpenBLAS setter in the process: the same product, untouched
    monkeypatch.setattr(embeddings, "_openblas_threads", lambda: None)
    for (d, bound), (expected_d, expected_bound) in zip(table.first_pass(keys), pooled, strict=True):
        np.testing.assert_array_equal(d, expected_d)
        assert bound == expected_bound
    ran = []
    with embeddings._one_blas_thread():
        ran.append(True)
    assert ran == [True]


@pytest.mark.parametrize("maps", [None, "7f00-7f01 r--p 0 08:01 1 {path}\n"])
def test_no_openblas_setter_is_found_without_a_readable_map_or_library(monkeypatch, tmp_path, maps):
    not_a_library = tmp_path / "libopenblas.so"
    not_a_library.write_bytes(b"no ELF here")

    def fake_open(path, *args, **kwargs):
        if maps is None:
            raise FileNotFoundError(path)
        return io.StringIO(maps.format(path=not_a_library))

    monkeypatch.setattr(embeddings, "open", fake_open, raising=False)
    assert embeddings._openblas_threads.__wrapped__() is None


def test_the_openblas_that_numpy_loaded_is_found():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("numpy is not built against OpenBLAS")
    threads = embeddings._openblas_threads()
    assert threads is not None
    get, _ = threads
    before = get()
    with embeddings._one_blas_thread():
        assert get() == 1
    assert get() == before
