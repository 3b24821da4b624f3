"""Branch-aware symmetric post-training quantization.

Each conv depth l shares one rescale coefficient R_l across all branches
(the max of every branch's weight and activation magnitudes at that depth),
so integer features from different branches stay directly comparable at the
concatenation. Dense layers use ordinary per-layer max-abs scaling.

Scale bookkeeping: activations entering the network are in [-1, 1] and are
stored as round(x * 2^n). A layer whose weights are scaled by R_w, whose
inputs arrive on scale S_in and whose outputs are stored on scale S_out
needs its accumulator rescaled by (S_in * R_w / S_out) / 2^n. The real ratio
r = S_in * R_w / S_out is approximated by mult / 2^15 (error < 2^-15) and the
2^-n folds into the shift, so each layer carries one (mult, shift = n + 15)
pair. For conv layers S_out = R_l and R_w = R_l, leaving r = S_in = R_{l-1}.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .fxp import FxFormat, round_nearest, storage_format
from .model import ModelParams, ModelSpec, _spec_from_dict, _walk, validate_params
from .persist import check_array, check_value, labelled, read_json_checked, write_json_atomic

__all__ = [
    "CalibStats",
    "QLayer",
    "QuantizedModel",
    "calibrate",
    "compute_rescale",
    "quantize_weights",
    "quantize",
    "sweep_bits",
    "save_qmodel",
    "load_qmodel",
    "QMODEL_SCHEMA",
    "RATIO_SHIFT",
]

QMODEL_SCHEMA = "edgehar.qmodel/v1"
RATIO_SHIFT = 15  # fractional bits used to encode scale ratios in mult


@dataclass
class CalibStats:
    """Max absolute weights and layer outputs seen over a calibration set.

    conv_w[l][branch] / conv_o[l][branch] index conv depth l = 0..2;
    outputs are post-activation, pre-pool magnitudes from the FP32 net.
    """

    conv_w: list[dict[str, float]]
    conv_o: list[dict[str, float]]
    dense_w: list[float]
    dense_o: list[float]
    input_rows: dict[str, int]
    n_samples: int

    @classmethod
    def from_dict(cls, doc: dict, names: list[str]) -> CalibStats:
        """The stats asdict made doc of, for the branches names. Raises a
        ValueError, or a badly shaped doc's TypeError, AttributeError or
        KeyError, on a missing, mistyped, non-finite or misshapen stat."""
        conv = [check_array(k, [[d[n] for n in names] for d in doc[k]], float)
                for k in ("conv_w", "conv_o")]
        dense = [check_array(k, doc[k], float) for k in ("dense_w", "dense_o")]
        rows = check_array("input_rows", [doc["input_rows"][n] for n in names], int)
        check_value("n_samples", doc["n_samples"], int, 1)
        shapes = [a.shape for a in conv + dense]
        if shapes != [(3, len(names))] * 2 + [(2,)] * 2 or (rows < 1).any():
            raise ValueError(f"stats of shapes {shapes} and input_rows {rows.tolist()} "
                             f"for {len(names)} branches")
        return cls(*([dict(zip(names, r)) for r in a.tolist()] for a in conv),
                   *(a.tolist() for a in dense), dict(zip(names, rows.tolist())),
                   doc["n_samples"])


def _no_mixing(spec: ModelSpec) -> None:
    if spec.alpha_enabled:
        raise ValueError("the integer path runs models without importance mixing; "
                         "retrain without alpha first")


def calibrate(spec: ModelSpec, params: ModelParams, calib_X: dict) -> CalibStats:
    """Collect per-(layer, branch) weight and output magnitudes.

    One walk of the network over the whole set keeps only each layer's
    running maximum, so no activation outlives its layer.
    """
    _no_mixing(spec)
    n = next(iter(calib_X.values())).shape[0]
    if n == 0:
        raise ValueError("calibration set is empty")
    peak = {}

    def keep_max(key, x, a, win):
        peak[key] = float(a.max())

    logits = _walk(spec, params, calib_X, keep_max)
    names = [b.name for b in spec.branches]
    conv_o = [{name: peak[bi, l] for bi, name in enumerate(names)} for l in range(3)]
    conv_w = [{name: float(np.abs(ws[l]).max()) for name, ws in zip(names, params.branch_weights)}
              for l in range(3)]
    input_rows = {name: int(np.asarray(calib_X[name]).shape[1]) for name in names}
    dense_w = [float(np.abs(params.dense1).max()), float(np.abs(params.dense2).max())]
    dense_o = [peak["dense"], float(np.abs(logits).max())]
    return CalibStats(conv_w, conv_o, dense_w, dense_o, input_rows, n)


def compute_rescale(stats: CalibStats, layer: int) -> float:
    """Shared rescale coefficient for conv depth `layer` (1-indexed 1..3):
    the max over branches of both weight and output magnitudes."""
    if not 1 <= layer <= 3:
        raise ValueError(f"conv depth must be 1..3, got {layer}")
    l = layer - 1
    r = max(max(stats.conv_w[l].values()), max(stats.conv_o[l].values()))
    if r <= 0.0:
        raise ValueError(f"dead conv depth {layer}: all weights and outputs are zero")
    return r


@dataclass(frozen=True, eq=False)
class QLayer:
    """One integer layer: weights plus its requantization parameters. A conv
    layer's pool is its ModelSpec layer's, which the engine reads.

    The weight-side constants the engine uses on every call are made here,
    once: w_int is kept as a read-only int64 copy, so its range (w_min,
    w_max), its taps per output (every axis but the last) and its float64
    copy w_float, which the engine's exact GEMM multiplies, cannot go stale.
    """

    w_int: np.ndarray
    mult: int
    shift: int
    relu: bool = True
    w_min: int = field(init=False, repr=False)
    w_max: int = field(init=False, repr=False)
    taps: int = field(init=False, repr=False)
    w_float: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_value("mult", self.mult, int, 1)
        check_value("shift", self.shift, int, 0)
        check_value("relu", self.relu, bool)
        w = check_array("w", self.w_int, int)
        w_float = w.astype(np.float64)
        w.flags.writeable = w_float.flags.writeable = False
        lo, hi = (int(w.min()), int(w.max())) if w.size else (0, 0)
        derived = {"w_int": w, "w_min": lo, "w_max": hi, "taps": math.prod(w.shape[:-1]),
                   "w_float": w_float}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def check_storage(self, n_bits: int, where: str) -> None:
        """Reject weights outside signed (n_bits + 1)-bit storage. Weights
        tolerate +2^n, so a unit-gain kernel is expressible (|w| <= 2^n)."""
        lim = 1 << n_bits
        if self.w_max > lim or self.w_min < -lim:
            raise ValueError(f"{where} weights: values exceed signed {n_bits + 1}-bit storage")


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    """Integer weights, shared conv rescales, dense scales, and requant pairs.

    Building one checks n_bits (storage_format) first, each input_rows value
    (an int >= 1), every layer's weight shape against spec (one stored
    branch per spec branch, two dense layers), its weight storage and the
    requantization headroom, fixes acc_width and the storage format fmt, and
    proves each layer's accumulator range: every layer input lies in fmt
    (the engine checks the model input, and requantize saturates every later
    one), so acc_bounds[where] = taps * 2^n * max|w| bounds every partial sum
    of the layer in any order. A bound that reaches 2^(acc_width - 1), or 2^53
    where float64 stops being exact, is rejected here, naming the layer; the
    engine then runs every frame without a range check. spec is the one
    description of the network's structure and, through the engine's
    model_cycles, of its cost.
    """

    spec: ModelSpec
    n_bits: int
    rescales: list[float]
    dense_scales: list[tuple[float, float]]  # (weight scale, output scale)
    branches: list[list[QLayer]]
    dense: list[QLayer]
    input_rows: dict[str, int]
    acc_width: int = field(init=False)
    fmt: FxFormat = field(init=False, repr=False)
    acc_bounds: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fmt = storage_format(self.n_bits)
        for name, rows in self.input_rows.items():
            check_value(f"input_rows[{name!r}]", rows, int, 1)
        if len(self.dense) != 2:
            raise ValueError(f"{len(self.dense)} dense layers, expected 2")
        validate_params(self.spec, ModelParams([[l.w_int for l in ls] for ls in self.branches],
                                               *(l.w_int for l in self.dense)))
        layers = [(f"branch {b.name!r} layer {i}", l)
                  for b, ls in zip(self.spec.branches, self.branches) for i, l in enumerate(ls)]
        layers += list(zip(("dense hidden", "dense output"), self.dense))
        for where, l in layers:
            l.check_storage(self.n_bits, where)
        # Accumulator width guaranteed to hold any in-range MAC sequence: 32
        # bits covers the hardware target precision; wider experimental
        # precisions get a correspondingly wider modeled register.
        worst_taps = max([1] + [l.taps for _, l in layers])
        acc_width = max(32, 2 * self.n_bits + int(np.ceil(np.log2(worst_taps))) + 2)
        limit = 1 << min(acc_width - 1, 53)
        bounds = {}
        for where, l in layers:
            bounds[where] = (l.taps << self.n_bits) * max(-l.w_min, l.w_max)
            if bounds[where] >= limit:
                raise ValueError(
                    f"{where}: MAC bound {bounds[where]} reaches 2^{limit.bit_length() - 1}, "
                    f"beyond the {acc_width}-bit accumulator or exact float64"
                )
        derived = {"acc_width": acc_width, "fmt": fmt, "acc_bounds": bounds}
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # the engine multiplies int64 accumulators by mult; keep that exact
        worst = max([l.mult for ls in self.branches for l in ls] + [l.mult for l in self.dense])
        if (self.acc_width - 1) + worst.bit_length() > 62:
            raise ValueError(
                f"requant mult {worst} leaves no headroom at accumulator width "
                f"{self.acc_width}; rescale coefficients are implausibly large"
            )


def _quantize_tensor(w: np.ndarray, scale: float, n_bits: int) -> np.ndarray:
    """Symmetric conversion round(w / scale * 2^n), clipped to +/-(2^n - 1).

    The symmetric clip (rather than the two's-complement minimum -2^n) keeps
    quantization an odd function of the weights.
    """
    lim = (1 << n_bits) - 1
    scaled = np.asarray(w, dtype=np.float64) * (2.0**n_bits / scale)
    return np.clip(round_nearest(scaled), -lim, lim)


def quantize_weights(
    params: ModelParams, rescales: list[float], n_bits: int
) -> list[list[np.ndarray]]:
    """Integer conv weights for every branch from the shared per-depth rescales,
    for an n_bits width that storage_format accepts."""
    storage_format(n_bits)
    for r in rescales:
        if not r > 0:
            raise ValueError(f"rescale coefficients must be positive, got {r}")
    return [
        [_quantize_tensor(ws[l], rescales[l], n_bits) for l in range(3)]
        for ws in params.branch_weights
    ]


def _ratio_mult(r: float, n_bits: int) -> tuple[int, int]:
    """Encode a real scale ratio r as (mult, shift): r / 2^n ~= mult / 2^shift."""
    mult = int(round_nearest(np.array([r * (1 << RATIO_SHIFT)]))[0])
    if mult < 1:
        raise ValueError(f"scale ratio {r} too small to encode with {RATIO_SHIFT} bits")
    return mult, n_bits + RATIO_SHIFT


def quantize(
    spec: ModelSpec, params: ModelParams, stats: CalibStats, n_bits: int
) -> QuantizedModel:
    """Build the full integer model from calibration statistics."""
    _no_mixing(spec)
    rescales = [compute_rescale(stats, l) for l in (1, 2, 3)]
    w_ints = quantize_weights(params, rescales, n_bits)

    branches = []
    for ws in w_ints:
        layers = []
        scale_in = 1.0
        for l in range(3):
            mult, shift = _ratio_mult(scale_in, n_bits)
            layers.append(QLayer(ws[l], mult, shift, relu=True))
            scale_in = rescales[l]
        branches.append(layers)

    d_scales = []
    dense = []
    scale_in = rescales[2]
    for j, (w, relu) in enumerate([(params.dense1, True), (params.dense2, False)]):
        w_scale = stats.dense_w[j]
        out_scale = stats.dense_o[j]
        if not w_scale > 0:
            raise ValueError(f"dense layer {j}: all-zero weights cannot be scaled")
        if not out_scale > 0:
            raise ValueError(f"dense layer {j}: dead outputs over the calibration set")
        mult, shift = _ratio_mult(scale_in * w_scale / out_scale, n_bits)
        dense.append(QLayer(_quantize_tensor(w, w_scale, n_bits), mult, shift, relu))
        d_scales.append((w_scale, out_scale))
        scale_in = out_scale

    return QuantizedModel(spec, n_bits, rescales, d_scales, branches, dense,
                          dict(stats.input_rows))


# ---------------------------------------------------------------------------
# Accuracy-vs-precision metric
# ---------------------------------------------------------------------------

def sweep_bits(
    spec: ModelSpec,
    params: ModelParams,
    test_set: tuple[dict, np.ndarray],
    n_range,
    stats: CalibStats,
    fp_pred: np.ndarray,
) -> list[tuple[int, float]]:
    """One (n, ratio) point per precision, each model quantized from the
    calibration statistics stats, where ratio = (integer argmax accuracy) /
    (FP32 argmax accuracy) on the labeled test set (X, y), and fp_pred holds
    the FP32 argmax class of each test frame; every ratio is nan when FP32
    accuracy is zero (undefined). The caller computes stats (calibrate) and
    fp_pred (forward_batch), so a pipeline that also quantizes and runs FP
    inference on the same frames makes each of them once."""
    from .engine import qinfer_batch  # here: engine imports this module

    n_range = list(n_range)
    if not n_range:
        raise ValueError("n_range is empty")
    X, y = test_set[0], np.asarray(test_set[1])
    if y.size == 0:
        raise ValueError("test set is empty")
    fp_acc = float(np.mean(fp_pred == y))
    curve = []
    for n in n_range:
        q_acc = float(np.mean(qinfer_batch(quantize(spec, params, stats, n), X) == y))
        curve.append((n, q_acc / fp_acc if fp_acc else math.nan))
    return curve


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_qmodel(path, qm: QuantizedModel, meta: dict | None = None) -> None:
    doc = {
        "schema": QMODEL_SCHEMA,
        "n_bits": qm.n_bits,
        "rescales": [repr(r) for r in qm.rescales],
        "dense_scales": [[repr(a), repr(b)] for a, b in qm.dense_scales],
        "spec": asdict(qm.spec),
        "branches": [
            [
                {"w": l.w_int.tolist(), "mult": l.mult, "shift": l.shift,
                 "pool": c.pool}
                for c, l in zip(b.layers, ls)
            ]
            for b, ls in zip(qm.spec.branches, qm.branches)
        ],
        "dense": [
            {"w": l.w_int.tolist(), "mult": l.mult, "shift": l.shift,
             "relu": l.relu}
            for l in qm.dense
        ],
        "input_rows": qm.input_rows,
        "meta": meta or {},
    }
    write_json_atomic(path, doc)


def load_qmodel(path) -> tuple[QuantizedModel, dict]:
    """A saved QuantizedModel and its meta. A layer whose stored pool is not
    its spec's, a layer field QLayer rejects (its weight by check_array), a
    scale check_array rejects (each a repr string), a missing or extra branch,
    a weight whose shape is not its spec layer's and a badly shaped document
    are rejected, naming the file and, for a layer, the branch and the layer."""
    doc = read_json_checked(path, QMODEL_SCHEMA)

    def qlayer(l, where, relu=True):
        with labelled(where):
            return QLayer(l["w"], l["mult"], l["shift"], relu)

    with labelled(path):
        spec = _spec_from_dict(doc["spec"])
        for b, ls in zip(spec.branches, doc["branches"]):
            for i, (c, l) in enumerate(zip(b.layers, ls)):
                if l["pool"] != c.pool:
                    raise ValueError(f"branch {b.name!r} layer {i} stores pool "
                                     f"{l['pool']!r}, but its spec has pool {c.pool!r}")
        # a stored branch beyond the spec's is named by its index; QuantizedModel rejects it
        names = {j: repr(b.name) for j, b in enumerate(spec.branches)}
        branches = [[qlayer(l, f"branch {names.get(j, j)} layer {i}") for i, l in enumerate(ls)]
                    for j, ls in enumerate(doc["branches"])]
        dense = [qlayer(l, f"dense layer {j}", l["relu"]) for j, l in enumerate(doc["dense"])]
        qm = QuantizedModel(
            spec,
            doc["n_bits"],
            [float(r) for r in check_array("rescales", doc["rescales"], str)],
            [(float(a), float(b))
             for a, b in check_array("dense_scales", doc["dense_scales"], str)],
            branches,
            dense,
            doc["input_rows"],
        )
    return qm, doc.get("meta", {})
