"""Bit-accurate integer inference mirroring the streaming micro-architecture,
plus analytic cycle-latency and hardware-resource models.

Numerics: every layer computes the exact integer MAC of the stepped hardware
schedule (input channels advance sequentially; the kernel taps of one channel
are summed as a parallel adder tree within the step), then requantizes with
one multiply, one rounding right-shift, a folded ReLU, and saturation. The MAC
takes one of two paths with bit-identical results. When taps x max|x| x max|w|
is below both 2^(acc_width-1) and 2^53, that product bounds every partial sum
in every order, so no partial sum can leave the register and every float64
product and sum is an exact integer: one float64 GEMM (the FP model's im2col
conv kernel for conv layers) followed by rint is the exact accumulator.
Otherwise the stepped schedule runs in int64 and checks every partial sum
against the register; it is the only path that can raise
AccumulatorOverflowError, and it raises exactly where the register would wrap.
Kernel or global max-pooling is a comparator pass over the requantized
stream, so it commutes with the monotone requantization.

Timing: serial schedules run feature branches one after another, parallel
schedules run them concurrently; both produce bit-identical values and
differ only in the cycle composition (sum versus max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fxp import AccumulatorOverflowError
from .model import BranchSpec, Frame, ModelSpec, _conv_batch
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

def _round_half_away(v: np.ndarray, shift: int) -> np.ndarray:
    if shift == 0:
        return v
    half = np.int64(1) << np.int64(shift - 1)
    mag = (np.abs(v) + half) >> np.int64(shift)
    return np.where(v >= 0, mag, -mag)


def _requant_array(acc: np.ndarray, q: QLayer, n_bits: int) -> np.ndarray:
    v = _round_half_away(acc * np.int64(q.mult), q.shift)
    if q.relu:
        v = np.maximum(v, 0)
    lim = np.int64(1) << np.int64(n_bits)
    return np.clip(v, -lim, lim - 1)


def quantize_frame(frame: Frame | dict, n_bits: int) -> dict[str, np.ndarray]:
    """Map normalized [-1, 1] tensors onto the integer grid round(x * 2^n)."""
    tensors = frame.tensors if isinstance(frame, Frame) else frame
    out = {}
    lim = np.int64(1) << np.int64(n_bits)
    for name, x in tensors.items():
        v = np.asarray(x, dtype=np.float64) * float(2**n_bits)
        q = np.sign(v) * np.floor(np.abs(v) + 0.5)
        out[name] = np.clip(q, -lim, lim - 1).astype(np.int64)
    return out


def _check_partial_sums(cum: np.ndarray, acc_width: int, where: str) -> None:
    lim = 1 << (acc_width - 1)  # Python ints: exact at any register width
    if cum.size and (int(cum.max()) > lim - 1 or int(cum.min()) < -lim):
        raise AccumulatorOverflowError(
            f"{where}: MAC partial sum exceeds the {acc_width}-bit accumulator"
        )


def _mac(x: np.ndarray, w: np.ndarray, acc_width: int, where: str) -> np.ndarray:
    """Exact integer MAC of x against w: dense x (C,) with w (C, F); conv x
    (L, C) or (T, H, W, C) with w (K, C, F) or (K, K, C, F), valid padding.

    One float64 GEMM when the bound in the module docstring proves it exact,
    else the stepped schedule.
    """
    taps = w.size // w.shape[-1]
    bound = taps * int(np.abs(x).max(initial=0)) * int(np.abs(w).max(initial=0))
    if bound >= 1 << min(acc_width - 1, 53):
        return _mac_stepped(x, w, acc_width, where)
    xf, wf = x.astype(np.float64), w.astype(np.float64)
    acc = xf @ wf if w.ndim == 2 else _conv_batch(xf[None], wf)[0]
    return np.rint(acc).astype(np.int64)


def _mac_stepped(x: np.ndarray, w: np.ndarray, acc_width: int, where: str) -> np.ndarray:
    """The hardware MAC order: one input channel (dense: one input feature)
    per step, its kernel taps summed as one adder-tree step, and every partial
    sum checked against the register."""
    nd = w.ndim - 2
    c, f = w.shape[-2], w.shape[-1]
    if nd == 0:
        cols, w3, out_shape = x[None, :, None], w[:, None, :], (f,)
    else:
        k = w.shape[0]
        spatial = tuple(range(x.ndim - 1 - nd, x.ndim - 1))
        win = sliding_window_view(x, (k,) * nd, axis=spatial)
        cols = win.reshape(-1, c, k**nd)
        w3 = np.moveaxis(w, -2, 0).reshape(c, k**nd, f)
        out_shape = (*win.shape[: -nd - 1], f)
    cum = np.cumsum(np.einsum("pct,ctf->pcf", cols, w3), axis=1)
    _check_partial_sums(cum, acc_width, where)
    return cum[:, -1, :].reshape(out_shape)


def _pool1d_int(z: np.ndarray, p: int) -> np.ndarray:
    lp = z.shape[0] // p
    return z[: lp * p].reshape(lp, p, z.shape[1]).max(axis=1)


def _pool2d_int(z: np.ndarray, p: int) -> np.ndarray:
    t, h, w, f = z.shape
    hp, wp = h // p, w // p
    return z[:, : hp * p, : wp * p, :].reshape(t, hp, p, wp, p, f).max(axis=(2, 4))


def qconv_layer(
    x: np.ndarray,
    qlayer: QLayer,
    n_bits: int,
    acc_width: int = 32,
    pool: str | int | None = None,
    where: str = "conv",
) -> np.ndarray:
    """Stepped integer convolution with folded requantization/ReLU and pooling.

    1D input is (L, C); 2D input is (T, H, W, C). pool is an integer kernel
    size, the string "global", or None.
    """
    _check_storage(x, n_bits, where + " input")
    _check_storage(qlayer.w_int, n_bits, where + " weights", weights=True)
    k = qlayer.w_int.shape[0]
    grid = x.shape[1:3] if qlayer.w_int.ndim == 4 else x.shape[:1]
    if min(grid) < k:
        raise ValueError(f"{where}: input {grid} < kernel {k}")
    out = _requant_array(_mac(x, qlayer.w_int, acc_width, where), qlayer, n_bits)
    if pool == "global":
        return out.reshape(-1, out.shape[-1]).max(axis=0)
    if pool:
        out = _pool1d_int(out, pool) if out.ndim == 2 else _pool2d_int(out, pool)
    return out


def qdense_layer(
    x: np.ndarray,
    qlayer: QLayer,
    n_bits: int,
    acc_width: int = 32,
    where: str = "dense",
) -> np.ndarray:
    """Integer dense layer: sequential MAC over input features, then requantize."""
    _check_storage(x, n_bits, where + " input")
    _check_storage(qlayer.w_int, n_bits, where + " weights", weights=True)
    if x.shape[0] != qlayer.w_int.shape[0]:
        raise ValueError(
            f"{where}: {x.shape[0]} inputs vs weight rows {qlayer.w_int.shape[0]}"
        )
    return _requant_array(_mac(x, qlayer.w_int, acc_width, where), qlayer, n_bits)


def _check_storage(a: np.ndarray, n_bits: int, where: str, weights: bool = False) -> None:
    # weights tolerate +2^n so a unit-gain kernel is expressible (|W_int| <= 2^n)
    lim = 1 << n_bits
    hi = lim if weights else lim - 1
    if a.size and (a.max() > hi or a.min() < -lim):
        raise ValueError(f"{where}: values exceed signed {n_bits + 1}-bit storage")


def _q_branch(
    spec: ModelSpec, branch: BranchSpec, qlayers: list[QLayer],
    x: np.ndarray, n_bits: int, acc_width: int,
) -> np.ndarray:
    if branch.conv_dim == 2:
        if spec.fusion == "data":
            h = x[None, :, :, None]
        else:
            r, c = branch.grid
            h = x.reshape(x.shape[0], r, c, 1)
    else:
        h = x
    for i, q in enumerate(qlayers):
        is_last = i == 2
        pool: str | int | None = q.pool
        if is_last and branch.head == "gmax":
            # the head's global max-pool folds into the last conv layer
            if pool:
                raise ValueError(f"branch {branch.name!r}: kernel pool under a gmax head")
            pool = "global"
        h = qconv_layer(h, q, n_bits, acc_width, pool,
                        where=f"branch {branch.name!r} layer {i}")
    return h.reshape(-1)


def _q_forward(qm: QuantizedModel, qframe: dict, acc_width: int) -> np.ndarray:
    feats = []
    for branch, qlayers in zip(qm.spec.branches, qm.branches):
        if branch.name not in qframe:
            raise ValueError(f"missing quantized tensor for branch {branch.name!r}")
        x = np.asarray(qframe[branch.name], dtype=np.int64)
        feats.append(_q_branch(qm.spec, branch, qlayers, x, qm.n_bits, acc_width))
    fused = np.concatenate(feats)
    hidden = qdense_layer(fused, qm.dense[0], qm.n_bits, acc_width, "dense hidden")
    return qdense_layer(hidden, qm.dense[1], qm.n_bits, acc_width, "dense output")


def qinfer(
    qm: QuantizedModel,
    qframe: dict,
    schedule: str = "serial",
    clock_hz: float = 100e6,
    kappa: int = 0,
) -> tuple[int, "CycleReport"]:
    """Integer inference on one quantized frame.

    Returns the comparator-argmax class (lowest index on ties) and the cycle
    report composed per schedule; the schedule never changes the numerics.
    """
    if schedule not in _SCHEDULES:
        raise ValueError(f"schedule must be one of {_SCHEDULES}, got {schedule!r}")
    _validate_headroom(qm)
    logits = _q_forward(qm, qframe, qm.acc_width)
    rows = {
        name: int(np.asarray(qframe[name]).shape[0]) for name in qframe
    }
    report = model_cycles(qm.spec, rows, schedule, clock_hz, kappa)
    return int(np.argmax(logits)), report


def qinfer_batch(qm: QuantizedModel, X: dict, acc_width: int | None = None) -> np.ndarray:
    """Predicted classes for a batch of normalized float inputs {name: (N, ...)}."""
    _validate_headroom(qm)
    width = acc_width if acc_width is not None else qm.acc_width
    n = next(iter(X.values())).shape[0]
    preds = np.empty(n, dtype=np.int64)
    for i in range(n):
        qframe = quantize_frame({k: v[i] for k, v in X.items()}, qm.n_bits)
        preds[i] = int(np.argmax(_q_forward(qm, qframe, width)))
    return preds


def _validate_headroom(qm: QuantizedModel) -> None:
    worst = max([l.mult for ls in qm.branches for l in ls] + [l.mult for l in qm.dense])
    if (qm.acc_width - 1) + worst.bit_length() > 62:
        raise ValueError("requant mult too large for exact int64 evaluation")


# ---------------------------------------------------------------------------
# Cycle cost model
# ---------------------------------------------------------------------------

def conv_layer_cycles(in_channels: int, positions: int, taps: int, kappa: int = 0) -> int:
    """Stepped conv cost: input channels are sequential, taps and output
    channels are parallel lanes."""
    return in_channels * positions * taps + kappa


def dense_layer_cycles(n_in: int, n_out: int, lanes: int = 1, kappa: int = 0) -> int:
    return -(-n_in * n_out // lanes) + kappa


def _branch_layer_dims(spec: ModelSpec, branch: BranchSpec, rows: int):
    """Yield (c_in, positions, taps, out_words) per layer, walking the shapes."""
    if branch.conv_dim == 1:
        length = rows
        for i, l in enumerate(branch.layers):
            positions = length - l.kernel + 1
            if positions < 1:
                raise ValueError(f"branch {branch.name!r}: window too short at layer {i}")
            out_len = positions // l.pool if l.pool else positions
            yield branch.layer_in_channels(i), positions, l.kernel, out_len * l.filters
            length = out_len
    else:
        t = 1 if spec.fusion == "data" else rows
        dims = list(branch.grid)
        for i, l in enumerate(branch.layers):
            od = [d - l.kernel + 1 for d in dims]
            if min(od) < 1:
                raise ValueError(f"branch {branch.name!r}: grid too small at layer {i}")
            positions = t * od[0] * od[1]
            if l.pool:
                od = [d // l.pool for d in od]
            yield (branch.layer_in_channels(i), positions, l.kernel**2,
                   t * od[0] * od[1] * l.filters)
            dims = od


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
    per_branch = {}
    for b in spec.branches:
        per_branch[b.name] = [
            conv_layer_cycles(c, p, t, kappa)
            for c, p, t, _ in _branch_layer_dims(spec, b, input_rows[b.name])
        ]
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
        feature_words += rows * b.channels if b.conv_dim == 1 else (
            (1 if qm.spec.fusion == "data" else rows) * b.channels
        )
        if rows:
            for _, _, _, out_words in _branch_layer_dims(qm.spec, b, rows):
                feature_words += out_words
        branch_lanes.append(max(l.filters for l in b.layers))
    feature_words += qm.spec.hidden + qm.spec.classes
    lanes = (sum(branch_lanes) if schedule == "parallel" else max(branch_lanes)) if branch_lanes else 0
    return ResourceReport(schedule, stored_width, qm.weight_words, feature_words, lanes)
