"""Shared builders for tiny random models, frames, and quantized models."""

from __future__ import annotations

import numpy as np
import pytest

from edgehar import model
from edgehar.model import BranchSpec, ConvSpec, ModelSpec
from edgehar.quantize import QLayer, QuantizedModel
from edgehar.train import init_params


def tiny_spec(
    rng: np.random.Generator,
    with_2d: bool = False,
    alpha: bool = False,
    pools: bool = False,
) -> ModelSpec:
    """A small random feature-fusion spec that always has valid shapes."""
    n_branches = int(rng.integers(1, 4)) if not alpha else int(rng.integers(2, 4))
    f = int(rng.integers(2, 4))
    branches = []
    for i in range(n_branches):
        k = int(rng.integers(2, 4))
        pool = 2 if (pools and rng.random() < 0.5) else None
        layers = (ConvSpec(f, k), ConvSpec(f, k, pool), ConvSpec(f, k))
        if with_2d and i == n_branches - 1:
            g = 4 + int(rng.integers(0, 2)) + 3 * k  # roomy enough for 3 layers
            branches.append(
                BranchSpec(f"s{i}", g * g, layers, conv_dim=2, grid=(g, g))
            )
        else:
            c = int(rng.integers(1, 4))
            branches.append(BranchSpec(f"s{i}", c, layers))
    return ModelSpec(
        tuple(branches),
        hidden=int(rng.integers(3, 6)),
        classes=int(rng.integers(2, 5)),
        alpha_enabled=alpha,
    )


def rows_for(spec: ModelSpec, rng: np.random.Generator) -> dict[str, int]:
    rows = {}
    for b in spec.branches:
        if b.conv_dim == 1:
            need = sum(l.kernel - 1 for l in b.layers) + max(
                l.pool or 1 for l in b.layers
            ) * 2
            rows[b.name] = need + int(rng.integers(2, 8))
        else:
            rows[b.name] = int(rng.integers(2, 5))
    return rows


def random_inputs(
    spec: ModelSpec, rng: np.random.Generator, batch: int, rows: dict | None = None
) -> dict[str, np.ndarray]:
    rows = rows or rows_for(spec, rng)
    return {
        b.name: np.clip(rng.normal(scale=0.5, size=(batch, rows[b.name], b.channels)),
                        -1.0, 1.0)
        for b in spec.branches
    }


def random_qmodel(rng: np.random.Generator, n_bits: int, spec: ModelSpec | None = None,
                  rows: dict | None = None) -> tuple[QuantizedModel, dict]:
    """A hand-rolled integer model (not via the quantizer) plus a matching
    qframe, of a random tiny spec unless spec (and rows) are given."""
    spec = spec or tiny_spec(rng, with_2d=rng.random() < 0.3, pools=rng.random() < 0.4)
    rows = rows or rows_for(spec, rng)
    lim = (1 << n_bits) - 1
    branches = []
    for b in spec.branches:
        qls = []
        for i in range(len(b.layers)):
            w = rng.integers(-lim, lim + 1, size=b.weight_shape(i), dtype=np.int64)
            mult = int(rng.integers(1, 1 << 16))
            shift = n_bits + int(rng.integers(8, 16))
            qls.append(QLayer(w, mult, shift, relu=True))
        branches.append(qls)
    dense = []
    d_in = spec.dense_in
    for j, (n_in, n_out) in enumerate([(d_in, spec.hidden), (spec.hidden, spec.classes)]):
        w = rng.integers(-lim, lim + 1, size=(n_in, n_out), dtype=np.int64)
        dense.append(QLayer(w, int(rng.integers(1, 1 << 16)),
                            n_bits + int(rng.integers(8, 16)), relu=j == 0))
    qm = QuantizedModel(spec, n_bits, [1.0, 1.0, 1.0], [(1.0, 1.0), (1.0, 1.0)],
                        branches, dense, rows)
    qframe = {
        b.name: rng.integers(-(1 << n_bits), (1 << n_bits), size=(rows[b.name], b.channels),
                             dtype=np.int64)
        for b in spec.branches
    }
    return qm, qframe


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """The block map on 1, 2 or 3 workers, with a pool of its own, shut down after."""
    monkeypatch.setattr(model, "_WORKERS", request.param)
    monkeypatch.setattr(model, "_POOL", None)
    yield request.param
    if model._POOL is not None:
        model._POOL.shutdown()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
