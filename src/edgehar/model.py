"""Branched feature-fusion CNN: architecture description and FP32 forward pass.

The network is bias-free everywhere (bias removal via tensor normalization),
uses valid padding and stride 1, ReLU on all layers except the final dense,
and an argmax output head instead of softmax. Branches end in a global
max-pool producing one feature vector per sensor; the data-fusion baseline
runs a single 2D convolution stack over the stacked (window x channels)
matrix and flattens it, which is what makes its dense layer large.

Every convolution in the package runs through one kernel, _conv_batch: an
im2col GEMM over patch columns built in fixed-size blocks. The forward pass
here, training's cached forward and backward passes, calibration, and the
integer engine's exact fast path all call it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ConvSpec",
    "BranchSpec",
    "ModelSpec",
    "ModelParams",
    "Frame",
    "conv_forward",
    "global_max_pool",
    "mix_features",
    "forward",
    "forward_batch",
    "count_params",
    "normalize_inputs",
    "feature_fusion_spec",
    "data_fusion_spec",
    "save_model",
    "load_model",
    "MODEL_SCHEMA",
]

MODEL_SCHEMA = "edgehar.model/v1"

# Cap in bytes on one block of im2col patch columns. It keeps conv memory flat
# in the batch size, and a block small enough to stay in cache between its
# copy and its GEMM measured faster than larger ones (1 MiB vs 2-32 MiB).
_COL_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: F filters, K-tap kernel, optional max-pool of size pool."""

    filters: int
    kernel: int
    pool: int | None = None

    def __post_init__(self) -> None:
        if self.filters < 1 or self.kernel < 1:
            raise ValueError(f"filters and kernel must be >= 1, got {self}")
        if self.pool is not None and self.pool < 2:
            raise ValueError(f"pool size must be >= 2 when set, got {self.pool}")


@dataclass(frozen=True)
class BranchSpec:
    """One per-sensor feature branch.

    conv_dim 1 treats the input as (time x channels); conv_dim 2 treats each
    timestep's channels as a (rows x cols) grid with a single feature channel
    (grid is required and rows*cols must equal channels). head is "gmax"
    (global max-pool over all non-filter axes, giving 1xF) or "flatten"
    (used only by the data-fusion baseline).
    """

    name: str
    channels: int
    layers: tuple[ConvSpec, ConvSpec, ConvSpec]
    conv_dim: int = 1
    grid: tuple[int, int] | None = None
    head: str = "gmax"

    def __post_init__(self) -> None:
        if len(self.layers) != 3:
            raise ValueError(f"branch {self.name!r} must have exactly 3 conv layers")
        if self.channels < 1:
            raise ValueError(f"branch {self.name!r} needs channels >= 1")
        if self.conv_dim not in (1, 2):
            raise ValueError(f"conv_dim must be 1 or 2, got {self.conv_dim}")
        if self.conv_dim == 2:
            if self.grid is None:
                raise ValueError(f"2D branch {self.name!r} requires a grid")
            r, c = self.grid
            if r * c != self.channels:
                raise ValueError(
                    f"branch {self.name!r}: grid {self.grid} != {self.channels} channels"
                )
        if self.head not in ("gmax", "flatten"):
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def out_features(self) -> int:
        return self.layers[-1].filters

    def layer_in_channels(self, idx: int) -> int:
        if idx == 0:
            return 1 if self.conv_dim == 2 else self.channels
        return self.layers[idx - 1].filters

    def spatial_dims_after(self, n_layers: int) -> tuple[int, ...] | None:
        """Grid dims after n 2D conv layers, or None for 1D branches."""
        if self.conv_dim != 2:
            return None
        dims = list(self.grid)
        for spec in self.layers[:n_layers]:
            dims = [d - spec.kernel + 1 for d in dims]
            if spec.pool:
                dims = [d // spec.pool for d in dims]
            if min(dims) < 1:
                raise ValueError(
                    f"branch {self.name!r}: grid collapses at layer {n_layers}"
                )
        return tuple(dims)


@dataclass(frozen=True)
class ModelSpec:
    """Full architecture: branches, two dense layers, fusion mode, optional alpha mixing."""

    branches: tuple[BranchSpec, ...]
    hidden: int
    classes: int
    fusion: str = "feature"
    alpha_enabled: bool = False
    window_rows: int | None = None  # fixed input rows, required for flatten heads

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        if self.fusion not in ("feature", "data"):
            raise ValueError(f"unknown fusion mode {self.fusion!r}")
        if not self.branches:
            raise ValueError("model needs at least one branch")
        if self.fusion == "data" and len(self.branches) != 1:
            raise ValueError("data fusion uses exactly one branch")
        if self.alpha_enabled:
            if self.fusion != "feature":
                raise ValueError("alpha mixing requires feature fusion")
            fs = {b.out_features for b in self.branches}
            if len(fs) != 1:
                raise ValueError("alpha mixing requires equal feature width per branch")
        for b in self.branches:
            if b.head == "flatten" and self.window_rows is None:
                raise ValueError("flatten head requires a fixed window_rows")

    def head_size(self, branch: BranchSpec) -> int:
        """Feature count a branch contributes to the dense input."""
        if branch.head == "gmax":
            return branch.out_features
        dims = self._flatten_dims(branch)
        return int(np.prod(dims)) * branch.out_features

    def _flatten_dims(self, branch: BranchSpec) -> tuple[int, ...]:
        if branch.conv_dim == 2:
            t = 1 if self.fusion == "data" else self.window_rows
            return (t, *branch.spatial_dims_after(3))
        t = self.window_rows
        for spec in branch.layers:
            t = t - spec.kernel + 1
            if spec.pool:
                t //= spec.pool
        return (t,)

    @property
    def dense_in(self) -> int:
        if self.alpha_enabled:
            return self.branches[0].out_features
        return sum(self.head_size(b) for b in self.branches)


@dataclass
class ModelParams:
    """FP32 weight tensors matching a ModelSpec. No layer carries a bias.

    branch_weights[i][l] is (K, C_in, F) for 1D or (K, K, C_in, F) for 2D;
    dense1 is (dense_in, hidden), dense2 is (hidden, classes); alpha is a
    per-branch vector when the spec enables importance mixing.
    """

    branch_weights: list[list[np.ndarray]]
    dense1: np.ndarray
    dense2: np.ndarray
    alpha: np.ndarray | None = None

    def copy(self) -> "ModelParams":
        return ModelParams(
            [[w.copy() for w in ws] for ws in self.branch_weights],
            self.dense1.copy(),
            self.dense2.copy(),
            None if self.alpha is None else self.alpha.copy(),
        )


@dataclass
class Frame:
    """One sliding-window snapshot: per-branch (timesteps x channels) tensors
    covering the same wall-clock span, values normalized into [-1, 1]."""

    tensors: dict[str, np.ndarray]
    t_start_ns: int = 0
    t_end_ns: int = 0


def _check_weight_shape(branch: BranchSpec, idx: int, w: np.ndarray) -> None:
    spec = branch.layers[idx]
    c_in = branch.layer_in_channels(idx)
    if branch.conv_dim == 2:
        want = (spec.kernel, spec.kernel, c_in, spec.filters)
    else:
        want = (spec.kernel, c_in, spec.filters)
    if w.shape != want:
        raise ValueError(
            f"branch {branch.name!r} layer {idx}: weight shape {w.shape}, expected {want}"
        )


def validate_params(spec: ModelSpec, params: ModelParams) -> None:
    if len(params.branch_weights) != len(spec.branches):
        raise ValueError("branch count mismatch between spec and params")
    for branch, ws in zip(spec.branches, params.branch_weights):
        if len(ws) != 3:
            raise ValueError(f"branch {branch.name!r} must carry 3 weight tensors")
        for i, w in enumerate(ws):
            _check_weight_shape(branch, i, w)
    if params.dense1.shape != (spec.dense_in, spec.hidden):
        raise ValueError(
            f"dense1 shape {params.dense1.shape}, expected {(spec.dense_in, spec.hidden)}"
        )
    if params.dense2.shape != (spec.hidden, spec.classes):
        raise ValueError(
            f"dense2 shape {params.dense2.shape}, expected {(spec.hidden, spec.classes)}"
        )
    if spec.alpha_enabled:
        if params.alpha is None or params.alpha.shape != (len(spec.branches),):
            raise ValueError("alpha vector missing or mis-sized")
    elif params.alpha is not None:
        raise ValueError("alpha present but spec has alpha_enabled=False")


# ---------------------------------------------------------------------------
# Layer primitives (batched; leading axis is the batch)
# ---------------------------------------------------------------------------

def _conv_blocks(x: np.ndarray, k: int, nd: int):
    """Yield the im2col patch matrix of x in blocks over its flattened lead axes.

    x is (*lead, *spatial, C) with nd spatial axes. Each item is (rows, cols):
    rows slices the flattened lead axes, cols is (rows x positions, k**nd * C)
    ordered tap-major, so it pairs with a weight reshaped to (-1, F). A block
    holds at most _COL_BLOCK_BYTES of columns (or one lead row if that is
    larger), so memory stays flat in the batch size.
    """
    spatial = x.shape[-nd - 1 : -1]
    flat = x.reshape(math.prod(x.shape[: -nd - 1]), *spatial, x.shape[-1])
    width = k**nd * x.shape[-1]
    per_row = math.prod(d - k + 1 for d in spatial) * width * x.itemsize
    step = max(1, _COL_BLOCK_BYTES // per_row)
    axes = tuple(range(1, nd + 1))
    # sliding_window_view appends the window axes after C; move them before it
    order = (0, *axes, *range(nd + 2, 2 * nd + 2), nd + 1)
    win = sliding_window_view(flat, (k,) * nd, axis=axes).transpose(order)
    for s in range(0, flat.shape[0], step):
        yield slice(s, s + step), win[s : s + step].reshape(-1, width)


def _conv_batch(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Batched valid stride-1 convolution as one im2col GEMM per column block.

    1D: x (B, L, C), w (K, C, F) -> (B, L-K+1, F).
    2D: x (B, T, H, W, C), w (K, K, C, F) -> (B, T, H-K+1, W-K+1, F).
    """
    nd = w.ndim - 2
    k, f = w.shape[0], w.shape[-1]
    spatial = x.shape[-nd - 1 : -1]
    out_sp = tuple(d - k + 1 for d in spatial)
    if min(out_sp) < 1:
        raise ValueError(f"input {spatial} shorter than kernel {k}")
    lead = x.shape[: -nd - 1]
    out = np.empty((math.prod(lead), *out_sp, f), dtype=np.result_type(x, w))
    wmat = w.reshape(-1, f)
    for rows, cols in _conv_blocks(x, k, nd):
        out[rows] = (cols @ wmat).reshape(-1, *out_sp, f)
    return out.reshape(*lead, *out_sp, f)


def _pool_time(x: np.ndarray, p: int) -> np.ndarray:
    """Max-pool (B, L, F) over time with kernel and stride p; remainder dropped."""
    lp = x.shape[1] // p
    if lp < 1:
        raise ValueError(f"length {x.shape[1]} too short for pool {p}")
    return x[:, : lp * p, :].reshape(x.shape[0], lp, p, x.shape[2]).max(axis=2)


def _pool_grid(x: np.ndarray, p: int) -> np.ndarray:
    """Max-pool (B, T, H, W, F) spatially with kernel and stride p."""
    b, t, h, w, f = x.shape
    hp, wp = h // p, w // p
    if hp < 1 or wp < 1:
        raise ValueError(f"grid {(h, w)} too small for pool {p}")
    x = x[:, :, : hp * p, : wp * p, :].reshape(b, t, hp, p, wp, p, f)
    return x.max(axis=(3, 5))


def conv_forward(
    x: np.ndarray, w: np.ndarray, relu: bool = True, pool: int | None = None
) -> np.ndarray:
    """Single-tensor convolution layer, FP32 reference semantics.

    1D: x (L, C) with w (K, C, F). 2D: x (T, H, W, C) with w (K, K, C, F).
    Valid padding, stride 1; optional kernel max-pool of size pool.
    """
    if w.ndim not in (3, 4):
        raise ValueError(f"weight tensor must be 3D or 4D, got {w.ndim}D")
    out = _conv_batch(x[None], w)
    if relu:
        out = np.maximum(out, 0)
    if pool:
        out = _pool_time(out, pool) if w.ndim == 3 else _pool_grid(out, pool)
    return out[0]


def global_max_pool(x: np.ndarray) -> np.ndarray:
    """Reduce every non-filter axis by max: (.., F) -> (F,)."""
    if x.size == 0:
        raise ValueError("cannot max-pool an empty tensor")
    return x.reshape(-1, x.shape[-1]).max(axis=0)


def softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def mix_features(features: list[np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """Softmax(alpha)-weighted sum of equal-length branch feature vectors."""
    feats = [np.asarray(f).reshape(-1) for f in features]
    n = len(feats)
    if len(alpha) != n:
        raise ValueError(f"{n} features but {len(alpha)} alpha entries")
    if len({f.shape[0] for f in feats}) != 1:
        raise ValueError("branch features must share one length to mix")
    s = softmax(np.asarray(alpha, dtype=feats[0].dtype))
    return sum(s[i] * feats[i] for i in range(n))


# ---------------------------------------------------------------------------
# Full forward pass
# ---------------------------------------------------------------------------

def _branch_input(spec: ModelSpec, branch: BranchSpec, x: np.ndarray) -> np.ndarray:
    """Reshape a batched (B, T, C) branch tensor for its conv dimensionality."""
    if branch.conv_dim == 1:
        return x
    if spec.fusion == "data":
        # whole window as a single-channel image: (B, 1, rows, cols, 1)
        return x[:, None, :, :, None]
    r, c = branch.grid
    return x.reshape(x.shape[0], x.shape[1], r, c, 1)


def _run_branch(spec: ModelSpec, branch: BranchSpec, ws, x: np.ndarray) -> np.ndarray:
    h = _branch_input(spec, branch, x)
    for lspec, w in zip(branch.layers, ws):
        h = np.maximum(_conv_batch(h, w), 0)
        if lspec.pool:
            pool = _pool_time if branch.conv_dim == 1 else _pool_grid
            h = pool(h, lspec.pool)
    b = h.shape[0]
    if branch.head == "gmax":
        return h.reshape(b, -1, h.shape[-1]).max(axis=1)
    return h.reshape(b, -1)


def forward_batch(
    spec: ModelSpec, params: ModelParams, inputs: dict[str, np.ndarray]
) -> np.ndarray:
    """Batched logits for stacked branch inputs {name: (B, T, C)} (data fusion:
    {name: (B, rows, cols)})."""
    validate_params(spec, params)
    feats = []
    for branch, ws in zip(spec.branches, params.branch_weights):
        if branch.name not in inputs:
            raise ValueError(f"missing input tensor for branch {branch.name!r}")
        x = np.asarray(inputs[branch.name])
        if x.shape[2] != branch.channels and spec.fusion != "data":
            raise ValueError(
                f"branch {branch.name!r}: {x.shape[2]} channels, expected {branch.channels}"
            )
        feats.append(_run_branch(spec, branch, ws, x))
    if spec.alpha_enabled:
        s = softmax(params.alpha.astype(feats[0].dtype))
        fused = sum(s[i] * feats[i] for i in range(len(feats)))
    else:
        fused = np.concatenate(feats, axis=1)
    hidden = np.maximum(fused @ params.dense1, 0)
    return hidden @ params.dense2


def forward(
    spec: ModelSpec, params: ModelParams, frame: Frame
) -> tuple[np.ndarray, int]:
    """Evaluate one frame: returns (logits, predicted class).

    Argmax ties resolve to the lowest index, matching a priority comparator.
    """
    inputs = {name: t[None] for name, t in frame.tensors.items()}
    logits = forward_batch(spec, params, inputs)[0]
    return logits, int(np.argmax(logits))


def count_params(spec: ModelSpec) -> int:
    """Total trainable weight count (the model has no bias terms)."""
    total = 0
    for b in spec.branches:
        for i, lspec in enumerate(b.layers):
            taps = lspec.kernel ** b.conv_dim
            total += taps * b.layer_in_channels(i) * lspec.filters
    total += spec.dense_in * spec.hidden + spec.hidden * spec.classes
    if spec.alpha_enabled:
        total += len(spec.branches)
    return total


def normalize_inputs(
    raw: dict[str, np.ndarray], stats: dict[str, tuple[float, float]]
) -> Frame:
    """Affinely map each sensor's training range [lo, hi] onto [-1, 1], clipping
    values outside the range."""
    tensors = {}
    for name, x in raw.items():
        if name not in stats:
            raise ValueError(f"no normalization stats for sensor {name!r}")
        lo, hi = stats[name]
        if not hi > lo:
            raise ValueError(f"degenerate stats for sensor {name!r}: min == max == {lo}")
        y = (np.asarray(x, dtype=np.float64) - lo) * (2.0 / (hi - lo)) - 1.0
        tensors[name] = np.clip(y, -1.0, 1.0)
    return Frame(tensors)


# ---------------------------------------------------------------------------
# Spec builders
# ---------------------------------------------------------------------------

def feature_fusion_spec(
    sensors,
    filters: int = 8,
    kernel: int = 5,
    hidden: int = 32,
    classes: int = 10,
    alpha_enabled: bool = False,
    pools: tuple[int | None, int | None, int | None] = (None, None, None),
    window_rows: int | None = None,
) -> ModelSpec:
    """One conv branch per sensor; sensors need .name/.channels/.conv_dim/.grid."""
    branches = []
    for s in sensors:
        layers = tuple(ConvSpec(filters, kernel, p) for p in pools)
        branches.append(
            BranchSpec(s.name, s.channels, layers, conv_dim=s.conv_dim,
                       grid=getattr(s, "grid", None))
        )
    return ModelSpec(tuple(branches), hidden, classes, fusion="feature",
                     alpha_enabled=alpha_enabled, window_rows=window_rows)


def data_fusion_spec(
    total_channels: int,
    window_rows: int,
    filters: int = 8,
    kernel: int = 5,
    hidden: int = 32,
    classes: int = 10,
) -> ModelSpec:
    """Input-level fusion baseline: the stacked (window x channels) matrix runs
    through a single 2D conv stack and is flattened into the dense layers."""
    layers = tuple(ConvSpec(filters, kernel) for _ in range(3))
    branch = BranchSpec(
        "fused", window_rows * total_channels, layers,
        conv_dim=2, grid=(window_rows, total_channels), head="flatten",
    )
    return ModelSpec((branch,), hidden, classes, fusion="data",
                     window_rows=window_rows)


# ---------------------------------------------------------------------------
# Persistence (versioned JSON, canonical field order)
# ---------------------------------------------------------------------------

def _spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "branches": [
            {
                "name": b.name,
                "channels": b.channels,
                "conv_dim": b.conv_dim,
                "grid": list(b.grid) if b.grid else None,
                "head": b.head,
                "layers": [
                    {"filters": l.filters, "kernel": l.kernel, "pool": l.pool}
                    for l in b.layers
                ],
            }
            for b in spec.branches
        ],
        "hidden": spec.hidden,
        "classes": spec.classes,
        "fusion": spec.fusion,
        "alpha_enabled": spec.alpha_enabled,
        "window_rows": spec.window_rows,
    }


def _spec_from_dict(d: dict) -> ModelSpec:
    branches = tuple(
        BranchSpec(
            b["name"], b["channels"],
            tuple(ConvSpec(l["filters"], l["kernel"], l["pool"]) for l in b["layers"]),
            conv_dim=b["conv_dim"],
            grid=tuple(b["grid"]) if b["grid"] else None,
            head=b["head"],
        )
        for b in d["branches"]
    )
    return ModelSpec(branches, d["hidden"], d["classes"], d["fusion"],
                     d["alpha_enabled"], d.get("window_rows"))


def save_model(path, spec: ModelSpec, params: ModelParams, meta: dict | None = None) -> None:
    validate_params(spec, params)
    doc = {
        "schema": MODEL_SCHEMA,
        "spec": _spec_to_dict(spec),
        "weights": {
            "branches": [[w.tolist() for w in ws] for ws in params.branch_weights],
            "dense1": params.dense1.tolist(),
            "dense2": params.dense2.tolist(),
            "alpha": None if params.alpha is None else params.alpha.tolist(),
        },
        "meta": meta or {},
    }
    from .persist import write_json_atomic

    write_json_atomic(path, doc)


def load_model(path) -> tuple[ModelSpec, ModelParams, dict]:
    from .persist import read_json_checked

    doc = read_json_checked(path, MODEL_SCHEMA)
    spec = _spec_from_dict(doc["spec"])
    w = doc["weights"]
    dt = np.float64
    params = ModelParams(
        [[np.asarray(a, dtype=dt) for a in ws] for ws in w["branches"]],
        np.asarray(w["dense1"], dtype=dt),
        np.asarray(w["dense2"], dtype=dt),
        None if w["alpha"] is None else np.asarray(w["alpha"], dtype=dt),
    )
    validate_params(spec, params)
    return spec, params, doc.get("meta", {})
