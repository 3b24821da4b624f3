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
and every float64 product and sum is an exact integer. A conv layer's MAC is
therefore the FP model's own convolution, model._conv_batch, run on the
int64 input against the float64 weight copy: its float64 GEMM over
cast-copied im2col blocks is cast in place, block by block, to the int64
accumulator. Large layers run their blocks on every core through the
model's block map, whose results are the serial loop's. A dense layer is
one such GEMM.

Work per layer is split by what it depends on. Everything about the weights
and the model is done once, at build: a QLayer's read-only int64 weights,
their range, taps and float64 copy; a QuantizedModel's weight storage check,
acc_width, storage format and per-layer bounds. A call then pays only for
its frames: one min and one max of each branch input, then per layer the
column copy, the GEMM and the requantization, with no scan and no format
built. Every structural choice, each layer's pool included, is read from
the spec, which a QLayer does not copy.

One path runs every frame: _q_forward takes a lead frame axis, and each
layer runs once over all the frames it is given. qinfer_batch quantizes a
whole set once and runs it through _q_forward once, as forward_batch runs
the FP model; infer runs the test split through it, and simulate runs its
stream through it in fixed chunks of frames. qinfer is the batch-of-one API.

Nothing here restates the model or the arithmetic: rounding, saturation,
the storage format and the multiply-shift requantization are fxp's; the
branch input layout, the convolution with its im2col blocks, the pooling
windows and the shape walk (which the cycle and resource models count) are
the FP model's.

Cost models: model_cycles and estimate_resources are functions of (spec,
rows, schedule[, width]) and read no weights, so a run's cycle report is
made once, before any frame, and inference returns only the class.
schedule_latency is the one composition rule: serial schedules run feature
branches one after another, parallel ones concurrently. The values are
bit-identical, and only the cycle composition (sum versus max) and the MAC
lane count (max versus sum) differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fxp import requantize, round_nearest, storage_format
from .model import (
    BranchSpec, ModelSpec, _branch_input, _conv_batch, _head, _pool_windows, count_params,
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


# ---------------------------------------------------------------------------
# Integer numerics
# ---------------------------------------------------------------------------

def quantize_frame(tensors: dict, n_bits: int) -> dict[str, np.ndarray]:
    """Map normalized [-1, 1] tensors onto the integer grid round(x * 2^n) in
    signed (n + 1)-bit storage, rounding one scaled float64 copy in place."""
    fmt = storage_format(n_bits)
    out = {}
    for name, x in tensors.items():
        try:
            out[name] = round_nearest(np.multiply(x, float(2**n_bits), dtype=np.float64), fmt)
        except ValueError as ex:
            raise ValueError(f"sensor {name!r}: {ex}") from None
    return out


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
    try:
        acc = _conv_batch(x, qlayer.w_float)
    except ValueError as ex:
        raise ValueError(f"{where}: {ex}") from None
    out = requantize(acc, qlayer.mult, qlayer.shift, storage_format(n_bits), qlayer.relu)
    if pool:
        out = _pool_windows(out, pool, qlayer.w_int.ndim - 2).max(axis=-2)
    return out


def qdense_layer(x: np.ndarray, qlayer: QLayer, n_bits: int, where: str = "dense") -> np.ndarray:
    """Integer dense layer on x (*lead, C_in), then requantize. The input must
    lie in signed (n_bits + 1)-bit storage; it is not scanned."""
    qlayer.check_storage(n_bits, where)
    if x.shape[-1] != qlayer.w_int.shape[0]:
        raise ValueError(
            f"{where}: {x.shape[-1]} inputs vs weight rows {qlayer.w_int.shape[0]}"
        )
    return requantize((x @ qlayer.w_float).astype(np.int64), qlayer.mult, qlayer.shift,
                      storage_format(n_bits), qlayer.relu)


def _q_branch(spec: ModelSpec, branch: BranchSpec, qlayers: list[QLayer],
              x: np.ndarray, n_bits: int) -> np.ndarray:
    """Integer features (N, n) of a branch's quantized frames x (N, rows, C)."""
    h = _branch_input(spec, branch, x)
    for i, q in enumerate(qlayers):
        h = qconv_layer(h, q, n_bits, branch.layers[i].pool,
                        where=f"branch {branch.name!r} layer {i}")
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


def qinfer(qm: QuantizedModel, qframe: dict) -> int:
    """Integer inference on one quantized frame, the batch-of-one API: the
    comparator-argmax class (lowest index on ties), equal to qinfer_batch's
    for the same frame in any batch. Its cost is model_cycles(qm.spec, ...),
    made once per run; no schedule changes the numerics."""
    logits = _q_forward(qm, {k: np.asarray(v)[None] for k, v in qframe.items()})[0]
    return int(np.argmax(logits))


def qinfer_batch(qm: QuantizedModel, X: dict) -> np.ndarray:
    """Predicted classes for a batch of normalized float inputs {name: (N, ...)}:
    the batch is quantized once and runs through _q_forward once."""
    return np.argmax(_q_forward(qm, quantize_frame(X, qm.n_bits)), axis=1)


# ---------------------------------------------------------------------------
# Cycle cost model
# ---------------------------------------------------------------------------

def conv_layer_cycles(in_channels: int, positions: int, taps: int, kappa: int = 0) -> int:
    """Stepped conv cost: input channels are sequential, taps and output
    channels are parallel lanes."""
    return in_channels * positions * taps + kappa


def dense_layer_cycles(n_in: int, n_out: int, kappa: int = 0) -> int:
    """Dense cost: one MAC per weight, in sequence."""
    return n_in * n_out + kappa


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
    return schedule_latency(per_branch, dense, mode, clock_hz)


def schedule_latency(
    per_branch: dict[str, list[int]], dense_cycles: list[int], mode: str,
    clock_hz: float = 100e6,
) -> CycleReport:
    """Compose per-layer branch and dense cycle counts per schedule: serial
    totals sum the branches, parallel totals take their max; the dense
    layers follow either way."""
    if mode not in _SCHEDULES:
        raise ValueError(f"schedule must be one of {_SCHEDULES}, got {mode!r}")
    totals = [sum(v) for v in per_branch.values()]
    if not totals:
        raise ValueError("at least one branch is required")
    branch_part = sum(totals) if mode == "serial" else max(totals)
    return CycleReport(mode, clock_hz, per_branch, dense_cycles,
                       branch_part + sum(dense_cycles))


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
    spec: ModelSpec, input_rows: dict[str, int], schedule: str, stored_width: int
) -> ResourceReport:
    """Linear memory model (words x width) plus the MAC lane count, for a
    model at given per-branch window rows. Like model_cycles it reads the
    spec alone, no weights: the weight words are count_params(spec).

    Feature words cover the input frame and every layer's stored (post-pool)
    output. Output-channel lanes are shared across branches in serial mode
    and summed in parallel mode; each lane needs ceil(width / 9) embedded
    multipliers.
    """
    if schedule not in _SCHEDULES:
        raise ValueError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
    if stored_width < 2:
        raise ValueError(f"stored width must be >= 2, got {stored_width}")
    if spec.alpha_enabled:
        raise ValueError("the integer engine runs models without importance mixing")

    feature_words = spec.hidden + spec.classes
    for b in spec.branches:
        dims = spec.layer_dims(b, input_rows[b.name])
        feature_words += math.prod(dims[0][0]) * b.layer_in_channels(0)
        feature_words += sum(math.prod(out) * l.filters
                             for (_, _, out), l in zip(dims, b.layers))
    branch_lanes = [max(l.filters for l in b.layers) for b in spec.branches]
    lanes = sum(branch_lanes) if schedule == "parallel" else max(branch_lanes)
    return ResourceReport(schedule, stored_width, count_params(spec), feature_words, lanes)
