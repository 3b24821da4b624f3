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

One path runs every frame: _q_forward takes lead rows, and each layer runs
once over all the rows it is given. By default each lead row is one frame.
Given windows, frames that share rows read them from one lead row: its conv
stack runs once, and each frame's gmax head takes the max over its own
positions of the last layer's output (1D: rows - sum(K - 1) positions; 2D:
its rows' timesteps, each one its grid's max). Max is exact, so the logits
are the same bits either way. qinfer_batch quantizes a whole set once and
runs it through _q_forward once, as forward_batch runs the FP model; infer
and sweep run a split through it one frame per lead row, and simulate runs
its stream through it in runs of exact frames, which overlap or abut, and
stacks of the frames its DAQ fitted. qinfer is the batch-of-one API.

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

from . import model
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
    signed (n + 1)-bit storage; round_nearest consumes each tensor's one
    scaled float64 copy, keeping the exact fraction of its values there."""
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


def _shares_rows(spec: ModelSpec, branch: BranchSpec) -> bool:
    """Whether frames may share a lead row of this branch: whether a frame's
    features are the max of the outputs at its own positions wherever it
    starts. A flatten head, data fusion and a 1D kernel pool (its windows
    align to the frame's first row) break that; a 2D pool runs on the grid."""
    return (spec.fusion == "feature" and branch.head == "gmax"
            and (branch.conv_dim == 2 or not any(l.pool for l in branch.layers)))


def _run_rows(spec: ModelSpec, branch: BranchSpec, rows: int, frames: int) -> int:
    """The most input rows one lead row of this branch may hold for frames of
    rows rows that share it, so that it costs no more memory than frames such
    frames given a lead row each: frames windows of rows, and for a 1D
    branch, whose lead row is one block of im2col columns, no more rows than
    a block holds unless one window does. A branch that cannot share rows
    holds one window."""
    if not _shares_rows(spec, branch):
        return rows
    if branch.conv_dim == 2:  # its rows are lead rows of the block map
        return frames * rows
    cols = max(l.kernel * branch.layer_in_channels(i) for i, l in enumerate(branch.layers))
    return min(frames * rows, max(rows, model._COL_BLOCK_BYTES // (cols * 8)))  # float64 columns


def _window_max(h: np.ndarray, w: int) -> np.ndarray:
    """Max of every w consecutive positions along axis 1 of h (L, P, F), as
    (L, P - w + 1, F): spans of pairwise maxima double up to w."""
    k = 1
    while 2 * k <= w:
        h = np.maximum(h[:, :-k], h[:, k:])
        k *= 2
    return np.maximum(h[:, : h.shape[1] - (w - k)], h[:, w - k :])


def _q_branch(spec: ModelSpec, branch: BranchSpec, qlayers: list[QLayer],
              x: np.ndarray, n_bits: int, windows=None, rows: int | None = None) -> np.ndarray:
    """Integer features of a branch's quantized lead rows x (L, rows, C): (L, n),
    one frame per lead row, or the (N, n) of the frames of windows (see
    _q_forward), each rows rows long."""
    h = _branch_input(spec, branch, x)
    for i, q in enumerate(qlayers):
        h = qconv_layer(h, q, n_bits, branch.layers[i].pool,
                        where=f"branch {branch.name!r} layer {i}")
    if windows is None:
        return _head(branch, h)[0]
    return _window_head(spec, branch, h, windows[0], windows[1][branch.name], rows)


def _window_head(spec: ModelSpec, branch: BranchSpec, h: np.ndarray, lead, first,
                 rows: int) -> np.ndarray:
    """Integer features (N, n) of N frames from a branch's last layer output h
    over its lead rows: frame i spans rows input rows of lead row lead[i]
    from row first[i]."""
    lead, first = np.asarray(lead, np.intp), np.asarray(first, np.intp)
    if first.shape != lead.shape:
        raise ValueError(f"branch {branch.name!r}: {first.size} first rows for {lead.size} frames")
    if lead.size and (lead.min() < 0 or lead.max() >= len(h)):
        raise ValueError(f"window lead rows must lie in 0..{len(h) - 1}")
    if not _shares_rows(spec, branch):
        if first.any() or spec.layer_dims(branch, rows)[-1][2] != h.shape[1:-1]:
            raise ValueError(f"branch {branch.name!r} cannot share rows between frames: "
                             f"each frame needs a whole lead row of {rows} rows")
        return _head(branch, h)[0][lead]
    if branch.conv_dim == 2:
        h = h.max(axis=(2, 3))  # each timestep's grid max: (L, T, F)
    h = _window_max(h, spec.layer_dims(branch, rows)[-1][2][0])
    if first.size and (first.min() < 0 or first.max() >= h.shape[1]):
        raise ValueError(f"branch {branch.name!r}: a {rows}-row frame must start in rows "
                         f"0..{h.shape[1] - 1} of its lead row")
    return h[lead, first]


def _q_forward(qm: QuantizedModel, qX: dict, windows=None) -> np.ndarray:
    """Integer logits (N, classes) of quantized lead rows {name: (L, rows, C)},
    one qconv_layer/qdense_layer call per layer for all of them.

    By default each lead row is one frame (N = L). windows = (lead, first)
    instead gives N frames that may share rows: frame i spans
    qm.input_rows[name] rows of lead row lead[i] from row first[name][i] on.
    Each branch's conv stack still runs once over the lead rows, and its gmax
    head takes each frame's max over its own positions. MACs, requantization
    and max are exact, so a frame's logits are the same bits either way. A
    branch that cannot share rows (see _shares_rows) takes only windows of
    whole lead rows.

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
        rows = None if windows is None else qm.input_rows[branch.name]
        feats.append(_q_branch(qm.spec, branch, qlayers, x, qm.n_bits, windows, rows))
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


def qinfer_batch(qm: QuantizedModel, X: dict, windows=None) -> np.ndarray:
    """Predicted classes for normalized float lead rows {name: (L, ...)}: they
    are quantized once and run through _q_forward once, as one frame each or
    as the frames of windows (see _q_forward)."""
    return np.argmax(_q_forward(qm, quantize_frame(X, qm.n_bits), windows), axis=1)


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
