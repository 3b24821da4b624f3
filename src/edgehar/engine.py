"""Bit-accurate integer inference mirroring the streaming micro-architecture,
plus analytic cycle-latency and hardware-resource models.

Numerics: every layer computes the exact integer MAC of the stepped hardware
schedule (input channels advance sequentially; the kernel taps of one channel
are summed as a parallel adder tree within the step), then requantizes in the
accumulator's own buffer: one multiply, one rounding right-shift and two
clips, the lower of which is the folded ReLU when it sits at 0. Kernel or
global max-pooling is a comparator pass over the requantized stream, so it
commutes with the monotone requantization.

One MAC path runs every layer, and its range is proven when the model is
built, not per frame. Every layer input lies in signed (n + 1)-bit storage:
_q_forward checks the model input, and requantize saturates every later one.
So taps x 2^n x max|w| bounds every partial sum of a layer in every order.
QuantizedModel records that bound per layer and rejects a model where one
reaches 2^(acc_width - 1) or 2^53, so no partial sum can leave the register
and every float64 product and sum is an exact integer: one float64 GEMM
over cast-copied im2col columns, converted straight to int64, is the exact
accumulator.

Work per layer is split by what it depends on. Everything about the weights
and the model is done once, at build: a QLayer's read-only int64 weights,
their range, taps and float64 copy; a QuantizedModel's weight storage check,
acc_width, storage format and per-layer bounds. A call then pays only for
its frames: one min and one max of each branch input, then per layer the
column copy, the GEMM and the requantization, with no scan and no format
built. The cycle report depends only on the spec, the rows and the
schedule, so qinfer makes it once per model and its frames share it.

One path runs every frame: _q_forward takes a lead frame axis, and each
layer runs once over all the frames it is given. qinfer is a batch of one,
as simulate streams frames in. qinfer_batch runs a whole set through it in
chunks whose widest layer output is at most _BATCH_BYTES, so its memory
stays flat in the batch size.

Nothing here restates the model or the arithmetic: rounding, saturation,
the storage format and the multiply-shift requantization are fxp's; the
branch input layout, the im2col patches and their block size, the pooling
windows and the shape walk (which the cycle and resource models count) are
the FP model's.

Timing: serial schedules run feature branches one after another, parallel
schedules run them concurrently; both produce bit-identical values and
differ only in the cycle composition (sum versus max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fxp import requantize, round_nearest, storage_format
from .model import (
    BranchSpec, Frame, ModelSpec, _block_rows, _branch_input, _head, _patch_view,
    _pool_windows,
)
from .quantize import QLayer, QuantizedModel

__all__ = [
    "CycleReport",
    "ResourceReport",
    "quantize_frame",
    "qconv_layer",
    "qdense_layer",
    "qinfer",
    "qinfer_batch",
    "conv_layer_cycles",
    "dense_layer_cycles",
    "model_cycles",
    "schedule_latency",
    "estimate_resources",
    "MULTIPLIER_INPUT_WIDTH",
]

MULTIPLIER_INPUT_WIDTH = 9  # input width of one embedded hardware multiplier

_SCHEDULES = ("serial", "parallel")

# Cap in bytes on the widest int64 layer output of one chunk of qinfer_batch
# frames, so that its peak memory stays flat in the batch size.
_BATCH_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# Integer numerics
# ---------------------------------------------------------------------------

def quantize_frame(frame: Frame | dict, n_bits: int) -> dict[str, np.ndarray]:
    """Map normalized [-1, 1] tensors onto the integer grid round(x * 2^n) in
    signed (n + 1)-bit storage, rounding one scaled float64 copy in place."""
    tensors = frame.tensors if isinstance(frame, Frame) else frame
    fmt = storage_format(n_bits)
    out = {}
    for name, x in tensors.items():
        try:
            out[name] = round_nearest(np.multiply(x, float(2**n_bits), dtype=np.float64), fmt)
        except ValueError as ex:
            raise ValueError(f"sensor {name!r}: {ex}") from None
    return out


def _mac(x: np.ndarray, q: QLayer) -> np.ndarray:
    """Exact integer MAC of x against q's weights: dense x (*lead, C) with w
    (C, F); conv x (*lead, L, C) or (*lead, T, H, W, C) with w (K, C, F) or
    (K, K, C, F), valid padding.

    x must lie in the model's storage format, so the layer's proven bound
    keeps every float64 product and sum an exact integer: the float64 GEMM
    converts straight to int64. Conv columns are cast-copied from the im2col
    view of x one _block_rows block at a time, so no float64 copy of the
    whole input or its patches exists; an input that fits in one block is
    one GEMM.
    """
    if q.w_int.ndim == 2:
        return (x @ q.w_float).astype(np.int64)
    nd = q.w_int.ndim - 2
    patches = _patch_view(x, q.w_int.shape[0], nd)
    n, out_sp, f = patches.shape[0], patches.shape[1 : nd + 1], q.w_int.shape[-1]
    wmat = q.w_float.reshape(q.taps, f)
    step = _block_rows(patches)
    cols = np.empty((min(step, n), *patches.shape[1:]), dtype=np.float64)
    acc = np.empty((n, *out_sp, f), dtype=np.int64)
    for s in range(0, n, step):
        block = cols[: min(step, n - s)]
        np.copyto(block, patches[s : s + step])
        acc[s : s + step] = (block.reshape(-1, q.taps) @ wmat).reshape(-1, *out_sp, f)
    return acc.reshape(*x.shape[: -nd - 1], *out_sp, f)


def qconv_layer(
    x: np.ndarray,
    qlayer: QLayer,
    n_bits: int,
    pool: int | None = None,
    where: str = "conv",
) -> np.ndarray:
    """Integer convolution with folded requantization/ReLU and an optional
    kernel max-pool of size pool.

    1D input is (L, C); 2D input is (T, H, W, C); either may carry lead frame
    axes in front. The input must lie in signed (n_bits + 1)-bit storage, as
    every input inside a QuantizedModel does; it is not scanned.
    """
    qlayer.check_storage(n_bits, where)
    nd = qlayer.w_int.ndim - 2
    k = qlayer.w_int.shape[0]
    grid = x.shape[-nd - 1 : -1]
    if min(grid) < k:
        raise ValueError(f"{where}: input {grid} < kernel {k}")
    out = requantize(_mac(x, qlayer), qlayer.mult, qlayer.shift, storage_format(n_bits),
                     qlayer.relu)
    if pool:
        out = _pool_windows(out, pool, nd).max(axis=-2)
    return out


def qdense_layer(x: np.ndarray, qlayer: QLayer, n_bits: int, where: str = "dense") -> np.ndarray:
    """Integer dense layer on x (*lead, C_in), then requantize. The input must
    lie in signed (n_bits + 1)-bit storage; it is not scanned."""
    qlayer.check_storage(n_bits, where)
    if x.shape[-1] != qlayer.w_int.shape[0]:
        raise ValueError(
            f"{where}: {x.shape[-1]} inputs vs weight rows {qlayer.w_int.shape[0]}"
        )
    return requantize(_mac(x, qlayer), qlayer.mult, qlayer.shift, storage_format(n_bits),
                      qlayer.relu)


def _q_branch(spec: ModelSpec, branch: BranchSpec, qlayers: list[QLayer],
              x: np.ndarray, n_bits: int) -> np.ndarray:
    """Integer features (N, n) of a branch's quantized frames x (N, rows, C)."""
    h = _branch_input(spec, branch, x)
    for i, q in enumerate(qlayers):
        h = qconv_layer(h, q, n_bits, q.pool, where=f"branch {branch.name!r} layer {i}")
    return _head(branch, h)[0]


def _q_forward(qm: QuantizedModel, qX: dict) -> np.ndarray:
    """Integer logits (N, classes) of N quantized frames {name: (N, rows, C)},
    one qconv_layer/qdense_layer call per layer for all of them.

    Each branch's input is checked against the storage format here, once;
    every later layer input is a saturated requantize output."""
    feats = []
    for branch, qlayers in zip(qm.spec.branches, qm.branches):
        if branch.name not in qX:
            raise ValueError(f"missing quantized tensor for branch {branch.name!r}")
        x = np.asarray(qX[branch.name], dtype=np.int64)
        if x.size and (x.min() < qm.fmt.min_int or x.max() > qm.fmt.max_int):
            raise ValueError(f"branch {branch.name!r} input: values exceed signed "
                             f"{qm.fmt.n_bits}-bit storage")
        feats.append(_q_branch(qm.spec, branch, qlayers, x, qm.n_bits))
    fused = np.concatenate(feats, axis=1)
    hidden = qdense_layer(fused, qm.dense[0], qm.n_bits, "dense hidden")
    return qdense_layer(hidden, qm.dense[1], qm.n_bits, "dense output")


def qinfer(
    qm: QuantizedModel,
    qframe: dict,
    schedule: str = "serial",
    clock_hz: float = 100e6,
    kappa: int = 0,
) -> tuple[int, "CycleReport"]:
    """Integer inference on one quantized frame, a batch of one.

    Returns the comparator-argmax class (lowest index on ties) and the cycle
    report composed per schedule; the schedule never changes the numerics.
    The report depends only on the rows of each branch, the schedule, the
    clock and kappa, so the frames of a stream share one (read-only to its
    callers), kept in the model's cycle_memo.
    """
    if schedule not in _SCHEDULES:
        raise ValueError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
    logits = _q_forward(qm, {k: np.asarray(v)[None] for k, v in qframe.items()})[0]
    key = (tuple(np.shape(qframe[b.name])[0] for b in qm.spec.branches),
           schedule, clock_hz, kappa)
    report = qm.cycle_memo.get(key)
    if report is None:
        rows = {b.name: r for b, r in zip(qm.spec.branches, key[0])}
        report = qm.cycle_memo[key] = model_cycles(qm.spec, rows, schedule, clock_hz, kappa)
    return int(np.argmax(logits)), report


def _frame_bytes(spec: ModelSpec, X: dict) -> int:
    """Bytes of one frame's widest int64 conv layer output."""
    return 8 * max((math.prod(conv) * l.filters for b in spec.branches if b.name in X
                    for (_, conv, _), l in zip(spec.layer_dims(b, np.shape(X[b.name])[1]),
                                               b.layers)), default=1)


def qinfer_batch(qm: QuantizedModel, X: dict) -> np.ndarray:
    """Predicted classes for a batch of normalized float inputs {name: (N, ...)}.

    The frames run together through _q_forward, in chunks of at most
    _BATCH_BYTES of the widest layer output.
    """
    n = len(next(iter(X.values())))
    step = max(1, _BATCH_BYTES // _frame_bytes(qm.spec, X))
    preds = np.empty(n, dtype=np.int64)
    for s in range(0, n, step):
        qX = quantize_frame({k: v[s : s + step] for k, v in X.items()}, qm.n_bits)
        preds[s : s + step] = np.argmax(_q_forward(qm, qX), axis=1)
    return preds


# ---------------------------------------------------------------------------
# Cycle cost model
# ---------------------------------------------------------------------------

def conv_layer_cycles(in_channels: int, positions: int, taps: int, kappa: int = 0) -> int:
    """Stepped conv cost: input channels are sequential, taps and output
    channels are parallel lanes."""
    return in_channels * positions * taps + kappa


def dense_layer_cycles(n_in: int, n_out: int, lanes: int = 1, kappa: int = 0) -> int:
    return -(-n_in * n_out // lanes) + kappa


@dataclass
class CycleReport:
    """Per-layer and total cycle counts with latency/throughput at a clock."""

    mode: str
    clock_hz: float
    per_branch: dict[str, list[int]]
    dense_cycles: list[int]
    total_cycles: int

    @property
    def branch_totals(self) -> dict[str, int]:
        return {k: sum(v) for k, v in self.per_branch.items()}

    @property
    def latency_s(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def throughput_lps(self) -> float:
        return self.clock_hz / self.total_cycles

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "clock_hz": self.clock_hz,
            "per_branch": self.per_branch,
            "branch_totals": self.branch_totals,
            "dense_cycles": self.dense_cycles,
            "total_cycles": self.total_cycles,
            "latency_s": self.latency_s,
            "throughput_labels_per_s": self.throughput_lps,
        }


def model_cycles(
    spec: ModelSpec,
    input_rows: dict[str, int],
    mode: str = "serial",
    clock_hz: float = 100e6,
    kappa: int = 0,
) -> CycleReport:
    """Analytic cycle report for a model at given per-branch window rows."""
    per_branch = {
        b.name: [
            conv_layer_cycles(b.layer_in_channels(i), math.prod(conv),
                              b.layers[i].kernel ** b.conv_dim, kappa)
            for i, (_, conv, _) in enumerate(spec.layer_dims(b, input_rows[b.name]))
        ]
        for b in spec.branches
    }
    dense = [
        dense_layer_cycles(spec.dense_in, spec.hidden, kappa=kappa),
        dense_layer_cycles(spec.hidden, spec.classes, kappa=kappa),
    ]
    return _compose(per_branch, dense, mode, clock_hz)


def _compose(per_branch, dense, mode, clock_hz) -> CycleReport:
    if mode not in _SCHEDULES:
        raise ValueError(f"schedule must be one of {_SCHEDULES}, got {mode!r}")
    totals = [sum(v) for v in per_branch.values()]
    if not totals:
        raise ValueError("at least one branch is required")
    branch_part = sum(totals) if mode == "serial" else max(totals)
    total = branch_part + sum(dense)
    return CycleReport(mode, clock_hz, per_branch, list(dense), total)


def schedule_latency(
    branch_cycles, dense_cycles: int, mode: str, clock_hz: float = 100e6
) -> CycleReport:
    """Compose branch and dense cycle counts per schedule:
    serial totals sum the branches, parallel totals take their max."""
    if isinstance(branch_cycles, dict):
        per_branch = {k: list(np.atleast_1d(v)) for k, v in branch_cycles.items()}
    else:
        per_branch = {f"branch{i}": [int(c)] for i, c in enumerate(branch_cycles)}
    return _compose(per_branch, [int(dense_cycles)], mode, clock_hz)


# ---------------------------------------------------------------------------
# Resource model
# ---------------------------------------------------------------------------

@dataclass
class ResourceReport:
    """Memory bits and multiplier units for one schedule at one stored width."""

    mode: str
    stored_width: int
    weight_words: int
    feature_words: int
    mac_lanes: int

    @property
    def weight_bits(self) -> int:
        return self.weight_words * self.stored_width

    @property
    def memory_bits(self) -> int:
        return (self.weight_words + self.feature_words) * self.stored_width

    @property
    def multipliers_per_lane(self) -> int:
        return -(-self.stored_width // MULTIPLIER_INPUT_WIDTH)

    @property
    def multiplier_units(self) -> int:
        return self.mac_lanes * self.multipliers_per_lane

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "stored_width": self.stored_width,
            "weight_words": self.weight_words,
            "feature_words": self.feature_words,
            "weight_bits": self.weight_bits,
            "memory_bits": self.memory_bits,
            "mac_lanes": self.mac_lanes,
            "multiplier_units": self.multiplier_units,
        }


def estimate_resources(
    qm: QuantizedModel, schedule: str = "serial", stored_width: int | None = None
) -> ResourceReport:
    """Linear memory model (words x width) plus the MAC lane count.

    Feature words cover the input frame and every layer's stored (post-pool)
    output. Output-channel lanes are shared across branches in serial mode
    and summed in parallel mode; each lane needs ceil(width / 9) embedded
    multipliers.
    """
    if schedule not in _SCHEDULES:
        raise ValueError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
    if stored_width is None:
        stored_width = qm.storage_bits
    if stored_width < 2:
        raise ValueError(f"stored width must be >= 2, got {stored_width}")

    feature_words = 0
    branch_lanes = []
    for b in qm.spec.branches:
        rows = qm.input_rows.get(b.name, 0)
        if rows:
            dims = qm.spec.layer_dims(b, rows)
            feature_words += math.prod(dims[0][0]) * b.layer_in_channels(0)
            feature_words += sum(math.prod(out) * l.filters
                                 for (_, _, out), l in zip(dims, b.layers))
        branch_lanes.append(max(l.filters for l in b.layers))
    feature_words += qm.spec.hidden + qm.spec.classes
    lanes = (sum(branch_lanes) if schedule == "parallel" else max(branch_lanes)) if branch_lanes else 0
    return ResourceReport(schedule, stored_width, qm.weight_words, feature_words, lanes)
