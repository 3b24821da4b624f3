"""Branched feature-fusion CNN: architecture description and FP32 forward pass.

The network is bias-free everywhere (bias removal via tensor normalization),
uses valid padding and stride 1, ReLU on all layers except the final dense,
and an argmax output head instead of softmax. Branches end in a global
max-pool producing one feature vector per sensor; the data-fusion baseline
runs a single 2D convolution stack over the stacked (window x channels)
matrix and flattens it, which is what makes its dense layer large.

Each concept of the network is defined once, here:
- _walk is the network. forward_batch runs it; training's backward pass and
  the quantizer's calibration run it with an observer that keeps what they
  need of each layer (activations and pool indices, or running maxima).
- _conv_batch is every convolution, FP and integer: one GEMM per block of
  _map_blocks, the one im2col block loop, which cast-copies the patches of
  _block_plan's view into one buffer per worker. It runs the FP forward pass,
  training's backward dX and the engine's integer MAC (an integer input
  gives the exact int64 accumulator); the backward dW reads the same blocks.
- _map_blocks alone sizes the blocks, in patch rows, so that no window or
  run makes a block whose sums depend on the BLAS thread count. It plans
  each input shape once (_block_plan, a bounded cache, the one code that
  knows the im2col layout): the patch view's shape and strides, the blocks
  and the one-block test, keyed on the shape, K, the spatial axes, the
  input's and the columns' itemsizes and both block caps. A call builds only
  the view over x's buffer, the mask filter, the copies and the GEMMs. A call
  with at least two blocks per worker runs contiguous slices of its block
  list on every usable core, as _WORKERS threads (the caller's and a pool's
  made on first use), while numpy's copy and GEMM release the GIL; its
  results are the serial loop's, bit for bit. Smaller calls start no thread.
  A caller may mark the lead rows it needs; blocks without one are skipped,
  and _conv_batch leaves their output rows zero. Training's dW and dX below
  a 2D branch's gmax head pass such a mask.
- _pool_windows is every kernel max-pool, FP and integer alike; _head is the
  branch head (global max-pool or flatten) and _mix the importance mixing.
- ModelSpec.layer_dims is the layer-shape walker: the dense width, the cycle
  and memory models and the window check at config load all use it, and it
  raises ShapeError naming the branch and layer that a window starves.
  BranchSpec.weight_shape is the one weight-shape rule.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .persist import check_array, check_value, labelled, read_json_checked, write_json_atomic

__all__ = [
    "ConvSpec",
    "BranchSpec",
    "ModelSpec",
    "ModelParams",
    "Frame",
    "ShapeError",
    "check_layout",
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

# Caps on one block of im2col patch rows, one buffer per worker. The bytes cap
# keeps conv memory flat in the batch size, and a block that stays in cache
# between its copy and its GEMM measured faster (1 MiB vs 2-32 MiB).
_COL_BLOCK_BYTES = 1 << 20
# The rows cap keeps a block's sums independent of the BLAS thread count: a
# dW partial cols.T @ dZ of 25 columns and 8 filters changed bytes between 1
# and 2 OpenBLAS threads at 5,040 rows in 20 of 20 random draws, and at 560,
# 1,120 and 2,240 in none (OpenBLAS 0.3.31, 2 vCPUs). A 16-frame batch of a
# shipped 1D sensor (at most 1,840 rows) stays one block.
_BLOCK_ROWS = 2240
# Workers of the block map: the cores this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = None  # the map's _WORKERS - 1 threads beside the caller's
# Input shapes whose block plans _block_plan keeps, least recently used first
# out. All 8 stages of a shipped config plan at most 109 (the rig's, about
# 1 MB of plans).
_PLAN_SHAPES = 256


class ShapeError(ValueError):
    """An input window is too small for one of a branch's layers."""


def check_layout(label: str, channels, conv_dim, grid) -> tuple[int, int] | None:
    """The one layout rule of a sensor's or a branch's input, its errors led by
    label: a 1D input takes no grid, a 2D one two positive integers whose
    product is channels. Returns grid as a tuple (JSON gives a list)."""
    check_value(f"{label}: channels", channels, int, 1)
    check_value(f"{label}: conv_dim", conv_dim, int, 1)
    if conv_dim > 2:
        raise ValueError(f"{label}: conv_dim must be 1 or 2, got {conv_dim!r}")
    if conv_dim == 1:
        if grid is not None:
            raise ValueError(f"{label}: a 1D input takes no grid, got {grid!r}")
        return None
    if type(grid) not in (list, tuple) or len(grid) != 2:
        raise ValueError(f"{label}: a 2D input's grid must be two positive integers, "
                         f"got {grid!r}")
    for d in grid:
        check_value(f"{label}: each entry of grid {grid!r}", d, int, 1)
    if grid[0] * grid[1] != channels:
        raise ValueError(f"{label}: grid {grid!r} does not hold {channels} channels")
    return tuple(grid)


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: F filters, K-tap kernel, optional max-pool of size pool."""

    filters: int
    kernel: int
    pool: int | None = None

    def __post_init__(self) -> None:
        check_value("filters", self.filters, int, 1)
        check_value("kernel", self.kernel, int, 1)
        if self.pool is not None:
            check_value("pool", self.pool, int, 2)


@dataclass(frozen=True)
class BranchSpec:
    """One per-sensor feature branch.

    conv_dim 1 treats the input as (time x channels); conv_dim 2 treats each
    timestep's channels as a (rows x cols) grid with a single feature channel;
    check_layout, a SensorSpec's rule too, checks them. head is "gmax"
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
        object.__setattr__(self, "grid", check_layout(f"branch {self.name!r}", self.channels,
                                                      self.conv_dim, self.grid))
        if self.head not in ("gmax", "flatten"):
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def out_features(self) -> int:
        return self.layers[-1].filters

    def layer_in_channels(self, idx: int) -> int:
        if idx == 0:
            return 1 if self.conv_dim == 2 else self.channels
        return self.layers[idx - 1].filters

    def weight_shape(self, idx: int) -> tuple[int, ...]:
        """Weight shape of layer idx: (K, C_in, F) in 1D, (K, K, C_in, F) in 2D."""
        l = self.layers[idx]
        return (*(l.kernel,) * self.conv_dim, self.layer_in_channels(idx), l.filters)


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
        check_value("classes", self.classes, int, 2)
        check_value("hidden", self.hidden, int, 1)
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
            if b.head == "flatten":
                if self.window_rows is None:
                    raise ValueError("flatten head requires a fixed window_rows")
                self.layer_dims(b, self.window_rows)

    def layer_dims(self, branch: BranchSpec, rows: int) -> list[tuple[tuple[int, ...], ...]]:
        """Walk a branch's shapes for an input window of `rows` rows.

        Returns (input, conv output, pooled output) dims for each conv layer,
        without the channel axis: (length,) for 1D branches and (T, H, W) for
        2D ones (T is 1 under data fusion, whose grid already spans the
        window). Raises ShapeError naming the branch and the layer at which
        the window is too small.
        """
        if branch.conv_dim == 1:
            lead, dims = (), (rows,)
        else:
            lead, dims = (1 if self.fusion == "data" else rows,), tuple(branch.grid)
        walk = []
        for i, l in enumerate(branch.layers):
            conv = tuple(d - l.kernel + 1 for d in dims)
            if min((*lead, *conv)) < 1:
                raise ShapeError(f"branch {branch.name!r} layer {i}: input "
                                 f"{(*lead, *dims)} shorter than kernel {l.kernel}")
            pooled = tuple(d // l.pool for d in conv) if l.pool else conv
            if min(pooled) < 1:
                raise ShapeError(f"branch {branch.name!r} layer {i}: conv output "
                                 f"{(*lead, *conv)} shorter than pool {l.pool}")
            walk.append(((*lead, *dims), (*lead, *conv), (*lead, *pooled)))
            dims = pooled
        return walk

    def head_size(self, branch: BranchSpec) -> int:
        """Feature count a branch contributes to the dense input."""
        if branch.head == "gmax":
            return branch.out_features
        return math.prod(self.layer_dims(branch, self.window_rows)[-1][2]) * branch.out_features

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


@dataclass
class Frame:
    """One sliding-window snapshot: per-branch (timesteps x channels) tensors
    of raw sensor values covering the same virtual-time span. normalize_inputs
    maps them into model inputs. first_rows, when set, holds each tensor's
    first row as an index into its sensor's track, where the tensor is
    exactly the track's next timesteps rows: such an exact frame's tensors
    are read-only views of the tracks, and simulate reads its rows from the
    tracks, not its tensors. It is None for a frame the DAQ fitted (trimmed,
    held or split by an overflow), whose tensors are arrays of its own."""

    tensors: dict[str, np.ndarray]
    t_start_ns: int = 0
    t_end_ns: int = 0
    first_rows: dict[str, int] | None = None


def validate_params(spec: ModelSpec, params: ModelParams) -> None:
    have, names = len(params.branch_weights), [b.name for b in spec.branches]
    if have != len(names):
        gap = (f"none for branch {', '.join(map(repr, names[have:]))}" if have < len(names)
               else f"{have - len(names)} beyond its last branch {names[-1]!r}")
        raise ValueError(f"weights for {have} branches, but the spec has {len(names)}: {gap}")
    for branch, ws in zip(spec.branches, params.branch_weights):
        if len(ws) != 3:
            raise ValueError(f"branch {branch.name!r} must carry 3 weight tensors")
        for i, w in enumerate(ws):
            if w.shape != branch.weight_shape(i):
                raise ValueError(f"branch {branch.name!r} layer {i}: weight shape "
                                 f"{w.shape}, expected {branch.weight_shape(i)}")
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

@functools.lru_cache(maxsize=_PLAN_SHAPES)
def _block_plan(shape: tuple, k: int, nd: int, itemsize: int, col_itemsize: int,
                block_rows: int, col_bytes: int) -> tuple:
    """_map_blocks' geometry for a C-contiguous input of this shape and
    itemsize, cast to columns of col_itemsize under the caps block_rows and
    col_bytes: (view shape, view strides, patch rows, whether they fit one
    block, blocks, each block's first lead index). The key holds both caps,
    so a changed cap plans anew.

    The view is the im2col patches of x (*lead, *spatial, C), (n, *positions,
    *(k,) * nd, C) over the n flattened lead rows, straight over x's buffer:
    a step along a position axis and along its tap are the same stride. Each
    patch flattens tap-major, so it pairs with a weight reshaped to (-1, F).
    """
    tail = shape[-nd - 1 :]  # (*spatial, C)
    st = [itemsize * math.prod(tail[i:]) for i in range(1, nd + 1)]  # the spatial strides
    n, first = math.prod(shape[: -nd - 1]), tail[0] - k + 1
    view_shape = (n, *[d - k + 1 for d in tail[:-1]], *(k,) * nd, tail[-1])
    strides = (itemsize * math.prod(tail), *st, *st, itemsize)
    per = math.prod(view_shape[1 : nd + 1])  # rows of one lead index
    step = per // first  # rows of one step along its first position axis
    row_bytes = math.prod(view_shape[nd + 1 :]) * col_itemsize
    cap = max(1, min(block_rows, col_bytes // row_bytes))
    leads, span = max(1, cap // per), min(first, max(1, cap // step))
    lead_cuts, pos_cuts = [*range(0, n, leads), n], [*range(0, first, span), first]
    blocks = tuple(((slice(a, b), slice(p, q)), slice(a * per + p * step, (b - 1) * per + q * step))
                   for a, b in zip(lead_cuts, lead_cuts[1:])
                   for p, q in zip(pos_cuts, pos_cuts[1:]))
    starts = tuple(rows.start // per for _, rows in blocks)
    return view_shape, strides, n * per, 0 < n * per <= cap, blocks, starts


def _map_blocks(x: np.ndarray, k: int, nd: int, dtype: np.dtype, fn, need=None) -> list:
    """fn(rows, cols) for each block of rows of the im2col patch matrix of x,
    in block order.

    x is (*lead, *spatial, C) with nd spatial axes. The patch matrix has one
    row per lead index and output position, k**nd * C columns ordered
    tap-major, so it pairs with a weight reshaped to (-1, F). A block holds
    at most min(_BLOCK_ROWS, _COL_BLOCK_BYTES // bytes per row) rows: whole
    lead indices when one fits, else steps along one lead index's first
    position axis (one step at least). The blocks are planned once per input
    shape (_block_plan). cols holds the block's rows, cast-copied to dtype
    in its worker's buffer. need, when given, is a boolean per flattened
    lead index: blocks that hold none are dropped. cols is valid only during
    its fn call, which may run on a pool thread: fn may write only its own
    rows of a shared output, and must not map blocks itself (a pool thread
    waiting on the pool could wait forever). With at least two blocks per
    worker, contiguous slices of the block list run at once, the first on
    the caller's thread. An exception from any run reaches the caller once
    every run has stopped.
    """
    flat = np.ascontiguousarray(x)
    view_shape, strides, n_rows, one, blocks, starts = _block_plan(
        flat.shape, k, nd, flat.itemsize, dtype.itemsize, _BLOCK_ROWS, _COL_BLOCK_BYTES)
    patches = np.ndarray(view_shape, flat.dtype, flat, 0, strides)
    if need is None and one:  # one block, cast-copied by itself
        return [fn(slice(0, n_rows), patches.astype(dtype).reshape(n_rows, -1))]
    if need is not None:
        keep = np.logical_or.reduceat(need, starts)
        blocks = [block for block, kept in zip(blocks, keep) if kept]
    count = len(blocks)
    if count < 4 or _WORKERS < 2:  # under two blocks for each of two workers
        return _run_blocks(patches, blocks, dtype, fn)
    workers = min(_WORKERS, count // 2)
    cuts = [count * i // workers for i in range(workers + 1)]
    futures = [_pool().submit(_run_blocks, patches, blocks[a:b], dtype, fn)
               for a, b in zip(cuts[1:-1], cuts[2:])]
    try:
        results = _run_blocks(patches, blocks[: cuts[1]], dtype, fn)
    finally:
        for f in futures:
            f.exception()  # waits: no run outlives the call
    for f in futures:
        results += f.result()
    return results


def _run_blocks(patches: np.ndarray, blocks: list, dtype: np.dtype, fn) -> list:
    """One run of _map_blocks: fn on each of its (index into patches, rows)
    blocks in order, cast-copied into the run's one buffer."""
    srcs = [patches[index] for index, _ in blocks]
    buf = np.empty(max((src.size for src in srcs), default=0), dtype)
    results = []
    for src, (_, rows) in zip(srcs, blocks):
        block = buf[: src.size].reshape(src.shape)
        np.copyto(block, src)
        results.append(fn(rows, block.reshape(rows.stop - rows.start, -1)))
    return results


def _pool():
    """The block map's pool, made on first use, so a process whose calls all
    stay under two blocks per worker starts no thread."""
    global _POOL
    if _POOL is None:
        # imported here, so that a process that never pools never loads it
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="edgehar-blocks")
    return _POOL


def _conv_batch(x: np.ndarray, w: np.ndarray, need=None) -> np.ndarray:
    """Batched valid stride-1 convolution, one GEMM per _map_blocks block.

    1D: x (B, L, C), w (K, C, F) -> (B, L-K+1, F).
    2D: x (B, T, H, W, C), w (K, K, C, F) -> (B, T, H-K+1, W-K+1, F).
    The GEMM runs in result_type(x, w) and writes straight into the output.
    An integer x gives the int64 accumulator: its GEMM runs in float64 for a
    float w (exact, for a w whose model proves the range), and each block's
    sums are cast to int64 in place, in their own output rows. need, when
    given, is _map_blocks' per-lead-row mask: the rows of a skipped block
    stay zero, +0.0 (or int64 0), and the rows of a kept block are those of
    the unmasked call.
    """
    nd = w.ndim - 2
    k, f = w.shape[0], w.shape[-1]
    lead, spatial = x.shape[: -nd - 1], x.shape[-nd - 1 : -1]
    out_sp = tuple([d - k + 1 for d in spatial])
    if min(out_sp) < 1:
        raise ValueError(f"input {spatial} shorter than kernel {k}")
    integer = x.dtype.kind in "iu"
    gemm = np.result_type(x, w, np.int64) if integer else np.result_type(x, w)
    to_int = integer and gemm.kind == "f"
    shape = (math.prod(lead) * math.prod(out_sp), f)
    out = np.empty(shape, gemm) if need is None else np.zeros(shape, gemm)
    wmat = w.reshape(-1, f)

    def gemm_block(rows, cols):
        np.matmul(cols, wmat, out=out[rows])
        if to_int:  # a 1-D same-size cast in place needs no temporary
            sums = out[rows].reshape(-1)
            sums.view(np.int64)[...] = sums

    _map_blocks(x, k, nd, gemm, gemm_block, need)
    return (out.view(np.int64) if to_int else out).reshape(*lead, *out_sp, f)


def _pool_windows(a: np.ndarray, p: int, nd: int) -> np.ndarray:
    """Kernel-p, stride-p max-pool windows of a (*lead, *spatial, F) tensor
    over its nd spatial axes, the remainder dropped: (*lead, *spatial // p,
    p**nd, F), row-major within a window. Pooling is max over axis -2."""
    k = a.ndim - nd - 1
    out = [d // p for d in a.shape[k:-1]]
    if min(out) < 1:
        raise ValueError(f"input {a.shape[k:-1]} shorter than pool {p}")
    crop = a[(..., *(slice(o * p) for o in out), slice(None))]
    split = crop.reshape(*a.shape[:k], *(n for o in out for n in (o, p)), a.shape[-1])
    order = (*range(k), *range(k, k + 2 * nd, 2), *range(k + 1, k + 2 * nd, 2), k + 2 * nd)
    return split.transpose(order).reshape(*a.shape[:k], *out, p**nd, a.shape[-1])


def _head(branch: BranchSpec, h: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A branch's features (B, n) from its last layer's output h (B, ..., F),
    with the windows a gmax head maxes over axis 1 (None for flatten)."""
    if branch.head == "flatten":
        return h.reshape(len(h), math.prod(h.shape[1:])), None
    win = h.reshape(len(h), math.prod(h.shape[1:-1]), h.shape[-1])
    return win.max(axis=1), win


def softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def _mix(feats: list[np.ndarray], alpha: np.ndarray) -> np.ndarray:
    """Softmax(alpha)-weighted sum of equal-width branch features."""
    s = softmax(alpha.astype(feats[0].dtype))
    return sum(s[i] * feats[i] for i in range(len(feats)))


# ---------------------------------------------------------------------------
# The network
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


def _walk(spec: ModelSpec, params: ModelParams, inputs: dict, observe=None) -> np.ndarray:
    """Logits of the FP32 network for stacked branch inputs {name: (B, T, C)}
    (data fusion: {name: (B, rows, cols)}).

    observe, when given, is called as observe(key, x, a, win) once per layer
    as the walk passes it. key is (branch index, depth) for conv depths 0-2,
    (branch index, 3) for the branch head and "dense" for the hidden layer;
    x is the layer's input and a its post-ReLU output (the head's features);
    win is what the layer's max-pool reduces over axis -2, or None. An
    observer that keeps only reductions of them, as calibration does, leaves
    the walk's peak memory what it is without one.
    """
    validate_params(spec, params)
    feats = [
        _branch(spec, bi, branch, ws, inputs, observe)
        for bi, (branch, ws) in enumerate(zip(spec.branches, params.branch_weights))
    ]
    fused = _mix(feats, params.alpha) if spec.alpha_enabled else np.concatenate(feats, axis=1)
    hidden = np.maximum(fused @ params.dense1, 0)
    if observe:
        observe("dense", fused, hidden, None)
    return hidden @ params.dense2


def _branch(spec: ModelSpec, bi: int, branch: BranchSpec, ws, inputs: dict, observe):
    """One branch of the walk, returning its features; a function of its own so
    that the branch's activations are freed before the next branch runs."""
    if branch.name not in inputs:
        raise ValueError(f"missing input tensor for branch {branch.name!r}")
    x = np.asarray(inputs[branch.name])
    if x.shape[2] != branch.channels and spec.fusion != "data":
        raise ValueError(
            f"branch {branch.name!r}: {x.shape[2]} channels, expected {branch.channels}"
        )
    spec.layer_dims(branch, x.shape[1])
    h = _branch_input(spec, branch, x)
    for depth, (lspec, w) in enumerate(zip(branch.layers, ws)):
        a = _conv_batch(h, w)
        np.maximum(a, 0, out=a)
        win = _pool_windows(a, lspec.pool, branch.conv_dim) if lspec.pool else None
        if observe:
            observe((bi, depth), h, a, win)
        h = a if win is None else win.max(axis=-2)
    feat, win = _head(branch, h)
    if observe:
        observe((bi, 3), h, feat, win)
    return feat


def forward_batch(
    spec: ModelSpec, params: ModelParams, inputs: dict[str, np.ndarray]
) -> np.ndarray:
    """Batched logits for stacked branch inputs {name: (B, T, C)} (data fusion:
    {name: (B, rows, cols)})."""
    return _walk(spec, params, inputs)


def count_params(spec: ModelSpec) -> int:
    """Total trainable weight count (the model has no bias terms)."""
    total = sum(math.prod(b.weight_shape(i)) for b in spec.branches for i in range(3))
    total += spec.dense_in * spec.hidden + spec.hidden * spec.classes
    if spec.alpha_enabled:
        total += len(spec.branches)
    return total


def normalize_inputs(
    raw: dict[str, np.ndarray], stats: dict[str, tuple[float, float]]
) -> dict[str, np.ndarray]:
    """Affinely map each sensor's training range [lo, hi] onto [-1, 1], clipping
    values outside the range."""
    tensors = {}
    for name, x in raw.items():
        if name not in stats:
            raise ValueError(f"no normalization stats for sensor {name!r}")
        lo, hi = stats[name]
        if not hi > lo:
            same = f"min == max == {lo}" if lo == hi else f"min {lo} > max {hi}"
            raise ValueError(f"degenerate stats for sensor {name!r}: {same}")
        y = (np.asarray(x, dtype=np.float64) - lo) * (2.0 / (hi - lo)) - 1.0
        tensors[name] = np.clip(y, -1.0, 1.0)
    return tensors


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
                     alpha_enabled=alpha_enabled)


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

def _spec_from_dict(d: dict) -> ModelSpec:
    branches = tuple(BranchSpec(**(b | {"layers": tuple(ConvSpec(**l) for l in b["layers"])}))
                     for b in d["branches"])
    return ModelSpec(**(d | {"branches": branches}))


def save_model(path, spec: ModelSpec, params: ModelParams, meta: dict | None = None) -> None:
    validate_params(spec, params)
    doc = {
        "schema": MODEL_SCHEMA,
        "spec": asdict(spec),
        "weights": {
            "branches": [[w.tolist() for w in ws] for ws in params.branch_weights],
            "dense1": params.dense1.tolist(),
            "dense2": params.dense2.tolist(),
            "alpha": None if params.alpha is None else params.alpha.tolist(),
        },
        "meta": meta or {},
    }
    write_json_atomic(path, doc)


def load_model(path) -> tuple[ModelSpec, ModelParams, dict]:
    """A saved model's spec, weights and meta. A spec its classes reject, a weight
    check_array rejects or of a shape not the spec's, and a badly shaped
    document are rejected, naming the file."""
    doc = read_json_checked(path, MODEL_SCHEMA)
    with labelled(path):
        spec = _spec_from_dict(doc["spec"])
        w = doc["weights"]
        params = ModelParams(
            [[check_array(f"weights.branches[{j}][{i}]", a, float) for i, a in enumerate(ws)]
             for j, ws in enumerate(w["branches"])],
            check_array("weights.dense1", w["dense1"], float),
            check_array("weights.dense2", w["dense2"], float),
            None if w["alpha"] is None else check_array("weights.alpha", w["alpha"], float),
        )
        validate_params(spec, params)
    return spec, params, doc.get("meta", {})
