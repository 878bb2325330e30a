"""Projection of scorer embeddings into a target hidden space.

The map is e_hat = W2 @ (silu(z_gate) * z_up) + b2 with z = W1 @ e + b1:
W1 has 2*d1 rows, the first half drives the gate and the second half the
value stream. Exact reverse-mode gradients are provided so the layer can be
checked against finite differences and trained externally. ``attach_knowledge``
projects the knowledge vectors of an instruction sample, read from the
embedding checkpoint by the entity and relation ids that the sample holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .kg import DataError


@dataclass
class AdapterParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        rows = self.w1.shape[-2]
        if rows % 2:
            raise ValueError("W1 needs an even number of rows (gate + value)")
        d1 = rows // 2
        if self.b1.shape[-1:] != (rows,):
            raise ValueError(f"b1 must have shape (..., {rows})")
        if self.w2.shape[-1] != d1:
            raise ValueError(f"W2 must have {d1} columns, got {self.w2.shape[-1]}")
        if self.b2.shape[-1:] != (self.d2,):
            raise ValueError(f"b2 must have shape (..., {self.d2})")
        for name, arr in (("W1", self.w1), ("b1", self.b1), ("W2", self.w2), ("b2", self.b2)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")

    @property
    def d0(self) -> int:
        return int(self.w1.shape[-1])

    @property
    def d1(self) -> int:
        return int(self.w2.shape[-1])

    @property
    def d2(self) -> int:
        return int(self.w2.shape[-2])


@dataclass
class AdapterGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    e: np.ndarray


def init_adapter(
    d0: int,
    d2: int = 4096,
    d1: int | None = None,
    seed: int = 0,
) -> AdapterParams:
    """Seeded uniform init; d1 defaults to d2 // 2."""
    if d1 is None:
        d1 = max(1, d2 // 2)
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(d0)
    s2 = 1.0 / np.sqrt(d1)
    return AdapterParams(
        w1=rng.uniform(-s1, s1, size=(2 * d1, d0)),
        b1=np.zeros(2 * d1),
        w2=rng.uniform(-s2, s2, size=(d2, d1)),
        b2=np.zeros(d2),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _silu(x: np.ndarray) -> np.ndarray:
    return x * _sigmoid(x)


def project(params: AdapterParams, e: np.ndarray) -> np.ndarray:
    """Map a d0-vector into the d2-dimensional target space. Leading axes of
    ``e`` and of the parameter arrays (a stack of parameter sets) broadcast;
    each output row has the bits that its vector and parameter set give alone."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape[-1:] != (params.d0,):
        raise ValueError(f"expected input shape (..., {params.d0}), got {e.shape}")
    z = (params.w1 @ e[..., None])[..., 0] + params.b1
    gate, up = z[..., : params.d1], z[..., params.d1 :]
    hidden = _silu(gate) * up
    return (params.w2 @ hidden[..., None])[..., 0] + params.b2


def project_grad(params: AdapterParams, e: np.ndarray, upstream: np.ndarray) -> AdapterGrads:
    """Gradients of <upstream, project(params, e)> for all parameters and e."""
    e = np.asarray(e, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if e.shape != (params.d0,):
        raise ValueError(f"expected input shape ({params.d0},), got {e.shape}")
    if upstream.shape != (params.d2,):
        raise ValueError(f"expected upstream shape ({params.d2},), got {upstream.shape}")

    z = params.w1 @ e + params.b1
    gate, up = z[: params.d1], z[params.d1 :]
    sg = _sigmoid(gate)
    silu_gate = gate * sg
    hidden = silu_gate * up
    d_hidden = params.w2.T @ upstream
    d_gate = d_hidden * up * (sg + gate * sg * (1.0 - sg))
    d_up = d_hidden * silu_gate
    d_z = np.concatenate([d_gate, d_up])

    return AdapterGrads(
        w1=np.outer(d_z, e),
        b1=d_z,
        w2=np.outer(upstream, hidden),
        b2=upstream.copy(),
        e=params.w1.T @ d_z,
    )


def attach_knowledge(sample, params: AdapterParams, table: EmbeddingTable) -> np.ndarray:
    """Project a sample's knowledge vectors in placeholder order.

    The result has one row per placeholder: the [QUERY] row projects
    ``table.query_vector(known, relation, direction)``, then one row per
    [ENTITY] slot projects the entity vector of each of ``candidate_ids``,
    in prompt order. ``table`` is the checkpoint the sample's set was built
    from; an id outside it is a :class:`DataError` (numpy would wrap a
    negative one).
    """
    refs = [("entity", e, len(table.entity_vecs)) for e in (sample.known, *sample.candidate_ids)]
    refs.append(("relation", sample.relation, len(table.relation_vecs)))
    for kind, ref, count in refs:
        if not 0 <= ref < count:
            raise DataError(f"sample {sample.id}: {kind} id {ref} outside the checkpoint's [0, {count})")
    query = table.query_vector(sample.known, sample.relation, sample.direction)
    return project(params, np.vstack([query, table.entity_vecs[sample.candidate_ids]]))

