import numpy as np
import pytest

from helpers import central_diff, rel_err
from kgrerank.adapter import (
    AdapterParams,
    attach_knowledge,
    init_adapter,
    project,
    project_grad,
)
from kgrerank.embeddings import EmbeddingTable
from kgrerank.instructions import InstructionSample
from kgrerank.kg import DataError


def random_params(d0, d1, d2, seed):
    rng = np.random.default_rng(seed)
    return AdapterParams(
        w1=rng.normal(size=(2 * d1, d0)),
        b1=rng.normal(size=2 * d1),
        w2=rng.normal(size=(d2, d1)),
        b2=rng.normal(size=d2),
    )


def test_zero_input_with_zero_bias_yields_output_bias():
    params = random_params(3, 4, 2, seed=0)
    params.b1[:] = 0.0
    out = project(params, np.zeros(3))
    np.testing.assert_array_equal(out, params.b2)


def test_scalar_gated_evaluation():
    params = AdapterParams(
        w1=np.array([[1.0], [1.0]]),
        b1=np.zeros(2),
        w2=np.array([[1.0]]),
        b2=np.zeros(1),
    )
    out = project(params, np.array([1.0]))
    assert out[0] == pytest.approx(0.731059, abs=1e-6)  # silu(1) * 1


def test_output_scales_linearly_with_w2():
    params = random_params(3, 4, 2, seed=1)
    scaled = AdapterParams(
        w1=params.w1, b1=params.b1, w2=3.5 * params.w2, b2=params.b2
    )
    e = np.array([0.3, -0.2, 0.9])
    base = project(params, e) - params.b2
    np.testing.assert_allclose(project(scaled, e) - params.b2, 3.5 * base, rtol=1e-12)


def test_project_rejects_bad_shape():
    params = random_params(3, 4, 2, seed=2)
    with pytest.raises(ValueError):
        project(params, np.zeros(5))


def test_zero_upstream_gives_zero_gradients():
    params = random_params(3, 4, 2, seed=3)
    grads = project_grad(params, np.ones(3), np.zeros(2))
    for arr in (grads.w1, grads.b1, grads.w2, grads.b2, grads.e):
        assert np.allclose(arr, 0.0)


def test_b2_gradient_is_upstream():
    params = random_params(3, 4, 2, seed=4)
    upstream = np.array([1.5, -2.0])
    grads = project_grad(params, np.ones(3), upstream)
    np.testing.assert_array_equal(grads.b2, upstream)


@pytest.mark.parametrize("dims", [(3, 4, 2), (5, 3, 6)])
def test_gradients_match_finite_differences(dims):
    d0, d1, d2 = dims
    for seed in range(10):
        params = random_params(d0, d1, d2, seed=seed)
        rng = np.random.default_rng(100 + seed)
        e = rng.normal(size=d0)
        upstream = rng.normal(size=d2)
        grads = project_grad(params, e, upstream)

        def check(analytic, array, setter):
            fd = central_diff(lambda stack: project(setter(stack), e) @ upstream, array)
            for a, b in zip(np.asarray(analytic).ravel(), fd.ravel()):
                assert rel_err(a, b) < 1e-5

        check(grads.w1, params.w1, lambda x: AdapterParams(x, params.b1, params.w2, params.b2))
        check(grads.b1, params.b1, lambda x: AdapterParams(params.w1, x, params.w2, params.b2))
        check(grads.w2, params.w2, lambda x: AdapterParams(params.w1, params.b1, x, params.b2))
        check(grads.b2, params.b2, lambda x: AdapterParams(params.w1, params.b1, params.w2, x))
        fd_e = central_diff(lambda stack: project(params, stack) @ upstream, e)
        for a, b in zip(grads.e, fd_e):
            assert rel_err(a, b) < 1e-5


def test_forced_gate_recovers_linear_map():
    # gate rows see only the bias, pushed far into the saturated region,
    # so the layer collapses to (silu(c)/silu(c)) * identity on the value stream
    d = 4
    c = 30.0
    silu_c = c / (1.0 + np.exp(-c))
    params = AdapterParams(
        w1=np.vstack([np.zeros((d, d)), np.eye(d)]),
        b1=np.concatenate([np.full(d, c), np.zeros(d)]),
        w2=np.eye(d) / silu_c,
        b2=np.zeros(d),
    )
    rng = np.random.default_rng(8)
    e = rng.normal(size=d)
    np.testing.assert_allclose(project(params, e), e, atol=1e-9)


def test_init_adapter_defaults_and_determinism():
    a = init_adapter(d0=6, d2=8, seed=5)
    b = init_adapter(d0=6, d2=8, seed=5)
    assert a.d1 == 4  # d2 // 2
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert a.w1.shape == (8, 6)  # gate + value rows


def make_sample(known, candidate_ids, relation=0, direction="tail"):
    return InstructionSample(
        id="s-0",
        direction=direction,
        known=known,
        relation=relation,
        prompt="Query: q?[QUERY]",
        gold_name="c0",
        gold_id=candidate_ids[0],
        candidate_ids=list(candidate_ids),
        candidate_names=[f"c{i}" for i in candidate_ids],
        candidate_ranks=list(range(1, len(candidate_ids) + 1)),
        gold_rank=1,
    )


def knowledge_table():
    rng = np.random.default_rng(7)
    return EmbeddingTable(rng.normal(size=(10, 3)), rng.normal(size=(2, 3)), "L2")


def test_attach_knowledge_projects_in_placeholder_order():
    params = random_params(3, 4, 2, seed=6)
    table = knowledge_table()
    for direction, sign in (("tail", 1.0), ("head", -1.0)):
        out = attach_knowledge(make_sample(4, [2, 9, 0], 1, direction), params, table)
        assert out.shape == (4, 2)
        query = table.entity_vecs[4] + sign * table.relation_vecs[1]
        np.testing.assert_array_equal(out[0], project(params, query))
        for row, ent in enumerate([2, 9, 0], start=1):
            np.testing.assert_array_equal(out[row], project(params, table.entity_vecs[ent]))


def test_attach_knowledge_missing_ref_is_error():
    # ids come from a file; a negative one must not wrap around to the last row
    params = random_params(3, 4, 2, seed=6)
    table = knowledge_table()
    for known, candidates, relation, bad in (
        (10, [0, 1], 0, "entity id 10"),
        (-1, [0, 1], 0, "entity id -1"),
        (0, [1, 10], 0, "entity id 10"),
        (0, [-1, 1], 0, "entity id -1"),
        (0, [1, 2], 2, "relation id 2"),
        (0, [1, 2], -1, "relation id -1"),
    ):
        with pytest.raises(DataError, match=bad):
            attach_knowledge(make_sample(known, candidates, relation), params, table)


def test_shape_validation():
    with pytest.raises(ValueError):
        AdapterParams(
            w1=np.zeros((3, 2)),  # odd row count cannot split into gate + value
            b1=np.zeros(3),
            w2=np.zeros((2, 1)),
            b2=np.zeros(2),
        )
    with pytest.raises(ValueError):
        AdapterParams(
            w1=np.zeros((4, 2)),
            b1=np.zeros(4),
            w2=np.zeros((2, 3)),  # wrong inner width
            b2=np.zeros(2),
        )
    with pytest.raises(ValueError):
        AdapterParams(
            w1=np.full((4, 2), np.nan),
            b1=np.zeros(4),
            w2=np.zeros((2, 2)),
            b2=np.zeros(2),
        )
