"""Projection of scorer embeddings into a target hidden space.

The map is e_hat = W2 @ act(W1 @ e + b1) + b2. With the default gated
activation, W1 has 2*d1 rows: the first half drives the gate
silu(z_gate) and the second half the value stream, combined as
silu(z_gate) * z_up. The plain "silu" variant uses d1 rows and no gate.
Exact reverse-mode gradients are provided so the layer can be checked
against finite differences and trained externally. ``attach_knowledge``
projects the knowledge vectors of an instruction sample, read from the
embedding checkpoint by the entity and relation ids that the sample holds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .kg import DataError

ADAPTER_MAGIC = b"KGA1"
_HEADER = struct.Struct("<4sIQQQB")
_ACTIVATION_CODES = {"swiglu": 1, "silu": 2}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


@dataclass
class AdapterParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str = "swiglu"

    def __post_init__(self):
        if self.activation not in _ACTIVATION_CODES:
            raise ValueError(f"activation must be one of {sorted(_ACTIVATION_CODES)}")
        rows = self.w1.shape[0]
        if self.activation == "swiglu":
            if rows % 2:
                raise ValueError("swiglu needs an even number of W1 rows (gate + value)")
            d1 = rows // 2
        else:
            d1 = rows
        if self.b1.shape != (rows,):
            raise ValueError(f"b1 must have shape ({rows},)")
        if self.w2.shape[1] != d1:
            raise ValueError(f"W2 must have {d1} columns, got {self.w2.shape[1]}")
        if self.b2.shape != (self.w2.shape[0],):
            raise ValueError(f"b2 must have shape ({self.w2.shape[0]},)")
        for name, arr in (("W1", self.w1), ("b1", self.b1), ("W2", self.w2), ("b2", self.b2)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")

    @property
    def d0(self) -> int:
        return int(self.w1.shape[1])

    @property
    def d1(self) -> int:
        return int(self.w2.shape[1])

    @property
    def d2(self) -> int:
        return int(self.w2.shape[0])


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
    activation: str = "swiglu",
    seed: int = 0,
) -> AdapterParams:
    """Seeded uniform init; d1 defaults to d2 // 2."""
    if d1 is None:
        d1 = max(1, d2 // 2)
    rng = np.random.default_rng(seed)
    rows = 2 * d1 if activation == "swiglu" else d1
    s1 = 1.0 / np.sqrt(d0)
    s2 = 1.0 / np.sqrt(d1)
    return AdapterParams(
        w1=rng.uniform(-s1, s1, size=(rows, d0)),
        b1=np.zeros(rows),
        w2=rng.uniform(-s2, s2, size=(d2, d1)),
        b2=np.zeros(d2),
        activation=activation,
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
    """Map a d0-vector into the d2-dimensional target space."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (params.d0,):
        raise ValueError(f"expected input shape ({params.d0},), got {e.shape}")
    z = params.w1 @ e + params.b1
    if params.activation == "swiglu":
        gate, up = z[: params.d1], z[params.d1 :]
        hidden = _silu(gate) * up
    else:
        hidden = _silu(z)
    return params.w2 @ hidden + params.b2


def project_grad(params: AdapterParams, e: np.ndarray, upstream: np.ndarray) -> AdapterGrads:
    """Gradients of <upstream, project(params, e)> for all parameters and e."""
    e = np.asarray(e, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if e.shape != (params.d0,):
        raise ValueError(f"expected input shape ({params.d0},), got {e.shape}")
    if upstream.shape != (params.d2,):
        raise ValueError(f"expected upstream shape ({params.d2},), got {upstream.shape}")

    z = params.w1 @ e + params.b1
    if params.activation == "swiglu":
        gate, up = z[: params.d1], z[params.d1 :]
        sg = _sigmoid(gate)
        silu_gate = gate * sg
        hidden = silu_gate * up
        d_hidden = params.w2.T @ upstream
        d_gate = d_hidden * up * (sg + gate * sg * (1.0 - sg))
        d_up = d_hidden * silu_gate
        d_z = np.concatenate([d_gate, d_up])
    else:
        sg = _sigmoid(z)
        hidden = z * sg
        d_hidden = params.w2.T @ upstream
        d_z = d_hidden * (sg + z * sg * (1.0 - sg))

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
    out = np.empty((len(sample.candidate_ids) + 1, params.d2), dtype=np.float64)
    out[0] = project(params, table.query_vector(sample.known, sample.relation, sample.direction))
    for row, ent in enumerate(sample.candidate_ids, start=1):
        out[row] = project(params, table.entity_vector(ent))
    return out


def save_adapter(params: AdapterParams, path: str) -> None:
    header = _HEADER.pack(
        ADAPTER_MAGIC, 1, params.d0, params.d1, params.d2,
        _ACTIVATION_CODES[params.activation],
    )
    with open(path, "wb") as f:
        f.write(header)
        for arr in (params.w1, params.b1, params.w2, params.b2):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_adapter(path: str) -> AdapterParams:
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, version, d0, d1, d2, act_code = _HEADER.unpack(header)
        if magic != ADAPTER_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise DataError(f"{path}: unsupported version {version}")
        if act_code not in _ACTIVATION_NAMES:
            raise DataError(f"{path}: unknown activation code {act_code}")
        activation = _ACTIVATION_NAMES[act_code]
        rows = 2 * d1 if activation == "swiglu" else d1
        payload = f.read()
    sizes = [rows * d0, rows, d2 * d1, d2]
    if len(payload) != sum(sizes) * 8:
        raise DataError(f"{path}: expected {sum(sizes) * 8} payload bytes, got {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8").copy()
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return AdapterParams(
        w1=parts[0].reshape(rows, d0),
        b1=parts[1],
        w2=parts[2].reshape(d2, d1),
        b2=parts[3],
        activation=activation,
    )
