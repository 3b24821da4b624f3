import dataclasses
import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgehar import model
from edgehar.engine import (
    CycleReport,
    _q_forward,
    _run_rows,
    ResourceReport,
    conv_layer_cycles,
    dense_layer_cycles,
    estimate_resources,
    model_cycles,
    qconv_layer,
    qdense_layer,
    qinfer,
    qinfer_batch,
    quantize_frame,
    schedule_latency,
)
from edgehar.daq import CATALOG
from edgehar.model import (
    BranchSpec, ConvSpec, ModelSpec, _head, _patch_view, feature_fusion_spec, forward_batch,
)
from edgehar.quantize import QLayer, QuantizedModel, calibrate, quantize
from edgehar.train import init_params

import oracles
from conftest import random_inputs, random_qmodel, rows_for, tiny_spec


class TestQConvLayer:
    def test_unit_scale_identity(self, rng):
        # single-tap kernel of weight 2^n with a 1/2^n requant passes ReLU(x)
        n = 10
        x = rng.integers(-(1 << n), 1 << n, size=(12, 1), dtype=np.int64)
        q = QLayer(np.full((1, 1, 1), 1 << n, dtype=np.int64), mult=1, shift=n)
        out = qconv_layer(x, q, n)
        np.testing.assert_array_equal(out[:, 0], np.maximum(x[:, 0], 0))

    def test_global_pool_constant_stream(self):
        n = 8
        c = 57
        x = np.full((9, 1), c, dtype=np.int64)
        q = QLayer(np.full((1, 1, 3), 1 << n, dtype=np.int64), mult=1, shift=n)
        gmax = BranchSpec("s", 1, (ConvSpec(3, 1),) * 3)
        out = _head(gmax, qconv_layer(x, q, n)[None])[0][0]
        np.testing.assert_array_equal(out, [c, c, c])

    def test_matches_fp32_within_one_grid_step(self, rng):
        # against the FP32 reference run on the dequantized weights, the only
        # divergence is the final rounding: at most one output grid ULP
        from edgehar.model import _conv_batch

        n = 12
        # keep the true outputs inside the representable range, as a
        # calibrated model would; saturation is tested separately
        x_int = rng.integers(-(1 << n) // 4, (1 << n) // 4, size=(15, 3),
                             dtype=np.int64)
        w_int = rng.integers(-(1 << n) // 16, (1 << n) // 16, size=(4, 3, 2),
                             dtype=np.int64)
        q = QLayer(w_int, mult=1 << 15, shift=n + 15)  # exact 1/2^n ratio
        got = qconv_layer(x_int, q, n)
        x_fp = x_int.astype(np.float64) / 2.0**n
        w_fp = w_int.astype(np.float64) / 2.0**n
        want = np.maximum(_conv_batch(x_fp[None], w_fp)[0], 0)
        err = np.abs(got.astype(np.float64) / 2.0**n - want)
        assert float(err.max()) <= 1.0 / 2.0**n + 1e-12

    def test_bare_layer_weight_storage_validation(self):
        n = 8
        x = np.ones((5, 1), dtype=np.int64)
        q = QLayer(np.full((1, 1, 1), (1 << n) + 1, dtype=np.int64), mult=1, shift=0)
        with pytest.raises(ValueError, match="weights: values exceed signed 9-bit"):
            qconv_layer(x, q, n)
        with pytest.raises(ValueError, match="weights: values exceed signed 9-bit"):
            qdense_layer(x[0], QLayer(q.w_int[0], mult=1, shift=0), n)


class TestQLayerConstants:
    def test_weights_read_only_and_constants_match(self, rng):
        w = rng.integers(-300, 301, size=(3, 2, 4))
        q = QLayer(w, mult=5, shift=10)
        assert q.w_int.dtype == np.int64
        assert not q.w_int.flags.writeable and not q.w_float.flags.writeable
        with pytest.raises(ValueError):
            q.w_int[0, 0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.w_int = w
        w[0, 0, 0] = 10**6  # the caller's array is not the layer's
        assert q.w_int.max() <= 300
        assert (q.w_min, q.w_max) == (int(q.w_int.min()), int(q.w_int.max()))
        assert q.taps == q.w_int.size // q.w_int.shape[-1] == 6
        assert q.w_float.dtype == np.float64
        np.testing.assert_array_equal(q.w_float, q.w_int)

    def test_model_rejects_out_of_storage_weights_on_build(self, rng):
        qm, _ = random_qmodel(rng, 8)
        bad = QLayer(np.full(qm.dense[1].w_int.shape, -(1 << 8) - 1), 1, 8, relu=False)
        with pytest.raises(ValueError, match="dense output weights"):
            QuantizedModel(qm.spec, qm.n_bits, qm.rescales, qm.dense_scales,
                           qm.branches, [qm.dense[0], bad], qm.input_rows)


def _layers(qm):
    """(name, layer) for every layer of qm, in walk order."""
    named = [(f"branch {b.name!r} layer {i}", l)
             for b, ls in zip(qm.spec.branches, qm.branches) for i, l in enumerate(ls)]
    return named + [("dense hidden", qm.dense[0]), ("dense output", qm.dense[1])]


def _unit_model(n, dense_out):
    """A one-branch model of unit 2-tap kernels whose output layer is dense_out."""
    spec = ModelSpec((BranchSpec("s", 1, (ConvSpec(1, 2),) * 3),), hidden=2, classes=2)
    conv = [QLayer(np.ones((2, 1, 1), dtype=np.int64), 1, n) for _ in range(3)]
    dense = [QLayer(np.ones((1, 2), dtype=np.int64), 1, n), dense_out]
    return QuantizedModel(spec, n, [1.0] * 3, [(1.0, 1.0)] * 2, [conv], dense, {"s": 12})


class TestAccBound:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 15))
    @settings(max_examples=60, deadline=None)
    def test_recorded_bounds_are_static_and_below_the_register(self, seed, n):
        qm, _ = random_qmodel(np.random.default_rng(seed), n)
        layers = _layers(qm)
        assert list(qm.acc_bounds) == [where for where, _ in layers]
        for where, l in layers:
            taps = l.w_int.size // l.w_int.shape[-1]
            bound = taps * 2**n * int(np.abs(l.w_int).max())
            assert qm.acc_bounds[where] == bound
            assert bound < 2 ** (qm.acc_width - 2)

    @pytest.mark.parametrize("taps,raises", [(1 << 23, True), ((1 << 23) - 1, False)])
    def test_build_rejects_a_bound_at_the_float64_limit(self, taps, raises):
        # at n = 15 and |w| = 2^15, 2^23 taps put the bound at exactly 2^53,
        # where float64 stops being exact (acc_width is 55 there). The layer
        # reports the taps without holding them.
        n = 15
        out = QLayer(np.full((2, 2), 1 << n, dtype=np.int64), 1, n, relu=False)
        object.__setattr__(out, "taps", taps)
        if raises:
            with pytest.raises(ValueError,
                               match=r"^dense output: MAC bound 9007199254740992 reaches 2\^53"):
                _unit_model(n, out)
        else:
            qm = _unit_model(n, out)
            assert qm.acc_width == 55
            assert qm.acc_bounds["dense output"] == 2**53 - 2**30




def _mac_case(data, n):
    """Draw a dense, 1D or 2D integer MAC case at n fractional bits, either
    random or at the extreme corner of signed (n+1)-bit storage."""
    kind = data.draw(st.sampled_from(["dense", "1d", "2d"]))
    c = data.draw(st.sampled_from([1, 2, 3, 8]))
    f = data.draw(st.integers(1, 3))
    if kind == "dense":
        x_shape, w_shape = (c,), (c, f)
    elif kind == "1d":
        k = data.draw(st.integers(1, 4))
        x_shape, w_shape = (k + data.draw(st.integers(0, 5)), c), (k, c, f)
    else:
        k = data.draw(st.integers(1, 3))
        h, w = (k + data.draw(st.integers(0, 3)) for _ in range(2))
        x_shape, w_shape = (data.draw(st.integers(1, 2)), h, w, c), (k, k, c, f)
    lim = 1 << n
    if data.draw(st.booleans()):
        x = np.full(x_shape, -lim, dtype=np.int64)
        return kind, x, np.full(w_shape, lim, dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-lim, lim, size=x_shape, dtype=np.int64)
    return kind, x, rng.integers(-lim, lim + 1, size=w_shape, dtype=np.int64)


def _stepped(x, w):
    """The hardware MAC order in exact int64: one input channel (dense: one
    input feature) per step, its kernel taps summed as one adder-tree step;
    returns the last partial sum."""
    nd = w.ndim - 2
    c, f = w.shape[-2], w.shape[-1]
    if nd == 0:
        cols, w3, out_shape = x.reshape(-1, c, 1), w[:, None, :], (*x.shape[:-1], f)
    else:
        patches = _patch_view(x, w.shape[0], nd)
        cols = patches.reshape(-1, w.shape[0] ** nd, c).swapaxes(1, 2)
        w3 = w.reshape(-1, c, f).swapaxes(0, 1)
        out_shape = (*x.shape[: -nd - 1], *patches.shape[1 : nd + 1], f)
    cum = np.cumsum(np.einsum("pct,ctf->pcf", cols, w3), axis=1)
    return cum[:, -1, :].reshape(out_shape)


def _gemm_mac(x, w):
    """The engine's MAC of int64 x against w: the float64 GEMM on the layer's
    weight copy, through the model's convolution for a conv layer."""
    w_float = QLayer(w, mult=1, shift=0).w_float
    return (x @ w_float).astype(np.int64) if w.ndim == 2 else model._conv_batch(x, w_float)


class TestMacPaths:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_gemm_path_equals_stepped_path(self, data):
        n = data.draw(st.integers(2, 15))
        _, x, w = _mac_case(data, n)
        assert w.size // w.shape[-1] << (2 * n) < 1 << 53  # the bound a model proves
        got = _gemm_mac(x, w)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _stepped(x, w))

    @pytest.mark.filterwarnings("error")
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_layers_match_oracle_at_the_model_width(self, data):
        # storage corners and random draws up to n = 15, through the full
        # multiply-shift with mults up to the model's headroom rule
        n = data.draw(st.integers(2, 15))
        kind, x, w = _mac_case(data, n)
        taps = w.size // w.shape[-1]
        width = max(32, 2 * n + (taps - 1).bit_length() + 2)  # QuantizedModel's rule
        mult = data.draw(st.integers(1, (1 << (63 - width)) - 1))
        shift = data.draw(st.integers(0, n + 16))
        relu = data.draw(st.booleans())
        q = QLayer(w, mult, shift, relu)
        if kind == "dense":
            got = qdense_layer(x, q, n)
            want = oracles.dense(x.tolist(), w.tolist(), mult, shift, n, width, relu)
        else:
            got = qconv_layer(x, q, n)
            conv = oracles.conv1d if kind == "1d" else oracles.conv2d
            want = conv(x.tolist(), w.tolist(), mult, shift, n, width, relu=relu)
        assert got.tolist() == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width", [64, 65])
    def test_wide_registers_match_oracle(self, rng, width):
        # the layers carry no register width: they agree with a register as
        # wide as int64 and wider, where the oracle never wraps
        n = 8
        x = rng.integers(-(1 << n), 1 << n, size=(3, 2), dtype=np.int64)
        w = rng.integers(-(1 << n), (1 << n) + 1, size=(2, 2, 3), dtype=np.int64)
        q = QLayer(w, mult=5, shift=n, relu=False)
        assert qconv_layer(x, q, n).tolist() == oracles.conv1d(
            x.tolist(), w.tolist(), 5, n, n, width, relu=False)
        qd = QLayer(w[0], mult=5, shift=n, relu=False)
        assert qdense_layer(x[0], qd, n).tolist() == oracles.dense(
            x[0].tolist(), w[0].tolist(), 5, n, n, width, False)


class TestQDenseLayer:
    def test_zero_input_zero_output(self, rng):
        n = 10
        w = rng.integers(-100, 100, size=(6, 4), dtype=np.int64)
        q = QLayer(w, mult=123, shift=n)
        out = qdense_layer(np.zeros(6, dtype=np.int64), q, n)
        np.testing.assert_array_equal(out, np.zeros(4, dtype=np.int64))

    def test_single_mac(self):
        n = 10
        q = QLayer(np.array([[7]], dtype=np.int64), mult=3, shift=2, relu=False)
        out = qdense_layer(np.array([5], dtype=np.int64), q, n)
        assert out[0] == round(5 * 7 * 3 / 4)

    def test_matches_naive_matmul_oracle(self, rng):
        n = 9
        x = rng.integers(-(1 << n), 1 << n, size=8, dtype=np.int64)
        w = rng.integers(-(1 << n) + 1, 1 << n, size=(8, 5), dtype=np.int64)
        q = QLayer(w, mult=77, shift=n + 4, relu=True)
        got = qdense_layer(x, q, n)
        ref = oracles.dense(x.tolist(), w.tolist(), 77, n + 4, n, 32, True)
        assert got.tolist() == ref

    def test_shape_mismatch(self):
        q = QLayer(np.ones((3, 2), dtype=np.int64), mult=1, shift=0)
        with pytest.raises(ValueError):
            qdense_layer(np.zeros(4, dtype=np.int64), q, 8)


def _one(qframe):
    """A quantized frame as a batch of one, the layout _q_forward takes."""
    return {k: v[None] for k, v in qframe.items()}


class TestQInfer:
    def _quantized_fixture(self, rng, n=11):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=4)
        X = random_inputs(spec, rng, batch=16)
        stats = calibrate(spec, params, X)
        qm = quantize(spec, params, stats, n)
        qframe = quantize_frame({k: v[0] for k, v in X.items()}, n)
        return spec, params, X, qm, qframe

    def test_schedule_neutral_numerics(self, rng):
        # the schedule is a cost choice only: qinfer takes none, and the
        # spec's serial count is at least its parallel one
        _, _, _, qm, qframe = self._quantized_fixture(rng)
        rows = {k: len(v) for k, v in qframe.items()}
        r1 = model_cycles(qm.spec, rows, "serial")
        r2 = model_cycles(qm.spec, rows, "parallel")
        assert r1.total_cycles >= r2.total_cycles

    def test_quantize_frame_names_non_finite_sensor(self):
        frame = {"acc": np.zeros((4, 2)), "gyro": np.array([[0.1, np.nan], [np.inf, -np.inf]])}
        with pytest.raises(ValueError, match=r"sensor 'gyro': cannot round 3 non-finite"):
            quantize_frame(frame, 8)

    def test_quantize_frame_leaves_its_input(self):
        x = np.array([[0.5, -0.25], [1.5, -2.0]])
        q = quantize_frame({"a": x}, 3)["a"]
        assert q.tolist() == [[4, -2], [7, -8]]
        assert x.tolist() == [[0.5, -0.25], [1.5, -2.0]]

    def test_zero_frame_class_zero(self, rng):
        _, _, X, qm, _ = self._quantized_fixture(rng)
        qframe = {k: np.zeros_like(quantize_frame({k: v[0]}, qm.n_bits)[k])
                  for k, v in X.items()}
        cls = qinfer(qm, qframe)
        assert cls == 0

    def test_argmax_agreement_high_precision(self, rng):
        spec, params, X, qm, _ = self._quantized_fixture(rng, n=14)
        fp = np.argmax(forward_batch(spec, params, X), axis=1)
        agree = float(np.mean(qinfer_batch(qm, X) == fp))
        assert agree >= 0.99

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 15))
            qm, qframe = random_qmodel(rng, n)
            got = _q_forward(qm, _one(qframe))[0]
            ref, ref_cls = oracles.qinfer(qm, qframe)
            assert got.tolist() == ref
            cls = qinfer(qm, qframe)
            assert cls == ref_cls

    def test_storage_validation(self, rng):
        # the model input is checked once per call, naming its branch; every
        # later layer input is a saturated requantize output
        qm, qframe = random_qmodel(rng, 8)
        name = qm.spec.branches[-1].name
        for bad in (1 << 8, -(1 << 8) - 1):
            frame = {k: v.copy() for k, v in qframe.items()}
            frame[name][-1, 0] = bad
            with pytest.raises(ValueError, match=f"^branch '{name}' input: values exceed "
                                                 "signed 9-bit storage"):
                qinfer(qm, frame)
        limits = {k: np.where(v < 0, -(1 << 8), (1 << 8) - 1) for k, v in qframe.items()}
        assert qinfer(qm, limits) == oracles.qinfer(qm, limits)[1]

    def test_model_freed_after_del(self, rng):
        qm, qframe = random_qmodel(rng, 10)
        qinfer(qm, qframe)
        model = weakref.ref(qm)
        del qm
        gc.collect()
        assert model() is None


def _per_frame(qm, qX):
    """Per-frame logits of a batch through the one-frame path."""
    return [_q_forward(qm, {k: v[i : i + 1] for k, v in qX.items()})[0]
            for i in range(len(next(iter(qX.values()))))]


class TestBatchedPath:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_per_frame_and_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(3, 15))
        qm, _ = random_qmodel(rng, n)
        frames = data.draw(st.integers(0, 4))
        spike = data.draw(st.integers(-1, frames - 1))  # one frame at full storage scale
        m = data.draw(st.sampled_from([1, 1 << (n // 2), 1 << n]))
        block = data.draw(st.sampled_from([1, 1 << 20]))  # one im2col lead row or all per block
        qX = {}
        for b in qm.spec.branches:
            x = rng.integers(-m, m, size=(frames, qm.input_rows[b.name], b.channels))
            if spike >= 0:
                x[spike] = rng.integers(-(1 << n), 1 << n, size=x.shape[1:])
            qX[b.name] = x
        X = {k: v / 2.0**n for k, v in qX.items()}  # quantize_frame gives qX back exactly
        oracle = [oracles.qinfer(qm, {k: v[i] for k, v in qX.items()})[0]
                  for i in range(frames)]
        with mock.patch.object(model, "_COL_BLOCK_BYTES", block):
            per_frame = _per_frame(qm, qX)
            logits = _q_forward(qm, qX)
            preds = qinfer_batch(qm, X)
        assert logits.tolist() == [r.tolist() for r in per_frame] == oracle
        assert preds.tolist() == [int(np.argmax(r)) for r in per_frame]
        assert preds.tolist() == [qinfer(qm, {k: v[i] for k, v in qX.items()})
                                  for i in range(frames)]

    @pytest.mark.parametrize("frames", [1, 4])
    def test_rig_frames_peak_near_forward_batch(self, frames):
        # a random model of the rig's shape, no dataset: the 768-channel
        # thermal grid plus five 1D sensors, one 1 s window each; qinfer_batch
        # runs the frames whole, as forward_batch does
        sensors = [CATALOG[s] for s in ("optical", "thermal", "baro", "motion", "magnetic", "tof")]
        spec = feature_fusion_spec(sensors, filters=8, kernel=5, hidden=32, classes=4)
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        X = {s.name: rng.uniform(-1, 1, size=(frames, int(s.rate_hz), s.channels))
             for s in sensors}
        qm = quantize(spec, params, calibrate(spec, params, X), 8)
        peaks = []
        for run in (lambda: forward_batch(spec, params, X), lambda: qinfer_batch(qm, X)):
            run()  # first-call allocations are not the path's
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], [p / 2**20 for p in peaks]


def _union_frames(rng, qm, n, starts, extra=0):
    """Quantized lead rows {name: (L, U, C)} holding frames at starts[name] =
    [[first row, ...] per lead row], each qm.input_rows[name] rows long, with
    extra rows past the last frame; and the frames' windows (lead, first)."""
    lead = [i for i, firsts in enumerate(next(iter(starts.values()))) for _ in firsts]
    qX, first = {}, {}
    for b in qm.spec.branches:
        rows = qm.input_rows[b.name]
        u = max(f + rows for firsts in starts[b.name] for f in firsts) + extra
        qX[b.name] = rng.integers(-(1 << n), 1 << n, size=(len(starts[b.name]), u, b.channels))
        first[b.name] = [f for firsts in starts[b.name] for f in firsts]
    return qX, (lead, first)


def _frame(qX, qm, windows, i):
    """Frame i of windows, cut out of its lead rows."""
    lead, first = windows
    return {k: v[lead[i], first[k][i] : first[k][i] + qm.input_rows[k]] for k, v in qX.items()}


def _assert_windows_equal_frames(qm, qX, windows):
    n = len(windows[0])
    frames = [_frame(qX, qm, windows, i) for i in range(n)]
    stacked = {k: np.stack([f[k] for f in frames]) for k in qX}
    logits = _q_forward(qm, qX, windows)
    assert logits.dtype == np.int64 and logits.shape == (n, qm.spec.classes)
    assert logits.tobytes() == _q_forward(qm, stacked).tobytes()
    scale = 2.0**qm.n_bits  # quantize_frame gives the integers back exactly
    X, Xs = ({k: v / scale for k, v in d.items()} for d in (qX, stacked))
    assert qinfer_batch(qm, X, windows).tolist() == qinfer_batch(qm, Xs).tolist()
    for i in {0, n - 1}:
        assert oracles.qinfer(qm, frames[i])[0] == logits[i].tolist()


class TestWindowedForward:
    """Frames that share the rows of one lead row give, byte for byte, the
    logits of the same frames given one lead row each."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_windows_equal_frames(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(3, 12))
        spec = tiny_spec(rng, with_2d=True, pools=data.draw(st.booleans()))
        # a 1D kernel pool cannot share rows; the 2D one pools the grid
        spec = dataclasses.replace(spec, branches=tuple(
            b if b.conv_dim == 2 else dataclasses.replace(
                b, layers=tuple(dataclasses.replace(l, pool=None) for l in b.layers))
            for b in spec.branches))
        qm, _ = random_qmodel(rng, n, spec)
        kind = data.draw(st.sampled_from(["overlap_one", "adjacent", "any"]))
        per_lead = [data.draw(st.integers(1, 4)) for _ in range(data.draw(st.integers(1, 2)))]
        starts = {}
        for b in spec.branches:
            rows = qm.input_rows[b.name]
            step = {"overlap_one": rows - 1, "adjacent": rows}.get(kind)
            starts[b.name] = [
                np.cumsum([0] + [data.draw(st.integers(0, rows)) if step is None else step
                                 for _ in range(k - 1)]).tolist()
                for k in per_lead]
        qX, windows = _union_frames(rng, qm, n, starts, extra=data.draw(st.integers(0, 2)))
        block = data.draw(st.sampled_from([1, 1 << 20]))
        with mock.patch.object(model, "_COL_BLOCK_BYTES", block):
            _assert_windows_equal_frames(qm, qX, windows)

    @pytest.mark.parametrize("step", [2, 3, None], ids=["overlap_one", "adjacent", "one_frame"])
    def test_thermal_grid_branch(self, step):
        sensors = [CATALOG["thermal"], CATALOG["tof"]]
        spec = feature_fusion_spec(sensors, filters=2, kernel=3, hidden=4, classes=3)
        rng = np.random.default_rng(11)
        qm, _ = random_qmodel(rng, 6, spec, {"thermal": 3, "tof": 8})
        # the tof frames step by the same share of their rows as the thermal ones
        starts = {"thermal": [[0] if step is None else [0, step, 2 * step, 3 * step]]}
        starts["tof"] = [[f * 8 // 3 for f in starts["thermal"][0]]]
        qX, windows = _union_frames(rng, qm, 6, starts)
        _assert_windows_equal_frames(qm, qX, windows)

    def test_run_rows(self):
        # the rows a lead row may hold for 16 frames: 16 windows in 1D and
        # 2D, and one window where a kernel pool cannot share rows
        spec = feature_fusion_spec([CATALOG["thermal"], CATALOG["motion"]], filters=8,
                                   kernel=5, hidden=4, classes=3)
        thermal, motion = spec.branches
        assert _run_rows(spec, thermal, 32, 16) == 512
        assert _run_rows(spec, motion, 119, 16) == 1904
        pooled = feature_fusion_spec([CATALOG["motion"]], pools=(None, 2, None))
        assert _run_rows(pooled, pooled.branches[0], 119, 16) == 119

    def test_pooled_branch_takes_no_offset(self, rng):
        sensors = [CATALOG["tof"], CATALOG["magnetic"]]
        spec = feature_fusion_spec(sensors, filters=2, kernel=3, hidden=4, classes=3,
                                   pools=(None, 2, None))
        qm, _ = random_qmodel(rng, 6, spec, {"tof": 14, "magnetic": 14})
        qX, windows = _union_frames(rng, qm, 6, {"tof": [[0], [0]], "magnetic": [[0], [0]]})
        _assert_windows_equal_frames(qm, qX, windows)  # whole lead rows
        qX, windows = _union_frames(rng, qm, 6, {"tof": [[0, 1]], "magnetic": [[0, 0]]})
        with pytest.raises(ValueError, match="^branch 'tof' cannot share rows"):
            _q_forward(qm, qX, windows)

    @pytest.mark.parametrize("firsts", [[0], [0, 2]], ids=["one_broadcast", "two_short"])
    def test_first_rows_match_lead(self, rng, firsts):
        # each branch names one first row per frame: one entry must not
        # broadcast to every frame, nor two fail deep inside numpy
        sensors = [CATALOG["tof"], CATALOG["magnetic"]]
        spec = feature_fusion_spec(sensors, filters=2, kernel=3, hidden=4, classes=3)
        qm, _ = random_qmodel(rng, 6, spec, {"tof": 8, "magnetic": 8})
        qX, (lead, first) = _union_frames(rng, qm, 6, {"tof": [[0, 2, 4]],
                                                       "magnetic": [[0, 2, 4]]})
        msg = f"branch 'magnetic': {len(firsts)} first rows for 3 frames"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            _q_forward(qm, qX, (lead, dict(first, magnetic=firsts)))


class TestCycleModel:
    def test_hand_counted_layer(self):
        assert conv_layer_cycles(2, 4, 3) == 24

    def test_doubling_channels_doubles_cycles(self):
        assert conv_layer_cycles(8, 10, 5) == 2 * conv_layer_cycles(4, 10, 5)

    def test_unit_kernel_single_channel(self):
        assert conv_layer_cycles(1, 17, 1) == 17

    def test_kappa_offsets(self):
        assert conv_layer_cycles(2, 4, 3, kappa=7) == 31

    def test_dense_lane_division(self):
        assert dense_layer_cycles(32, 10) == 320

    def test_model_cycles_walks_shapes(self, rng):
        spec = tiny_spec(rng)
        rows = {b.name: 20 for b in spec.branches}
        rep = model_cycles(spec, rows, "serial", 100e6)
        k = spec.branches[0].layers[0].kernel
        f = spec.branches[0].layers[0].filters
        c = spec.branches[0].channels
        assert rep.per_branch[spec.branches[0].name][0] == c * (20 - k + 1) * k


def _one_layer(totals):
    """Per-branch cycle lists, one layer per branch, from branch totals."""
    return {f"b{i}": [c] for i, c in enumerate(totals)}


class TestScheduleLatency:
    def test_worked_example(self):
        rep_s = schedule_latency(_one_layer([1200, 800, 1500, 1000]), [300], "serial", 100e6)
        rep_p = schedule_latency(_one_layer([1200, 800, 1500, 1000]), [300], "parallel", 100e6)
        assert rep_s.total_cycles == 4800
        assert rep_s.latency_s == pytest.approx(48e-6)
        assert rep_p.total_cycles == 1800
        assert rep_p.latency_s == pytest.approx(18e-6)

    def test_single_branch_modes_equal(self):
        s = schedule_latency(_one_layer([123]), [45], "serial")
        p = schedule_latency(_one_layer([123]), [45], "parallel")
        assert s.total_cycles == p.total_cycles

    def test_throughput_is_clock_over_cycles(self):
        rep = schedule_latency(_one_layer([100]), [0], "serial", clock_hz=1e6)
        assert rep.throughput_lps == pytest.approx(1e6 / 100)

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=8),
        st.integers(0, 10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition_against_sum_max_oracle(self, branches, dense):
        s = schedule_latency(_one_layer(branches), [dense], "serial")
        p = schedule_latency(_one_layer(branches), [dense], "parallel")
        assert s.total_cycles == sum(branches) + dense
        assert p.total_cycles == max(branches) + dense
        assert s.total_cycles >= p.total_cycles

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
        st.integers(1, 10**6),
        st.integers(0, 10**4),
    )
    @settings(max_examples=50, deadline=None)
    def test_adding_branch_is_monotone(self, branches, extra, dense):
        s0 = schedule_latency(_one_layer(branches), [dense], "serial").total_cycles
        p0 = schedule_latency(_one_layer(branches), [dense], "parallel").total_cycles
        s1 = schedule_latency(_one_layer(branches + [extra]), [dense], "serial").total_cycles
        p1 = schedule_latency(_one_layer(branches + [extra]), [dense], "parallel").total_cycles
        assert s1 >= s0
        assert p1 >= p0 or p1 == max(branches + [extra]) + dense

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            schedule_latency({}, [10], "serial")

    def test_unknown_schedule_rejected(self, rng):
        spec = tiny_spec(rng)
        with pytest.raises(ValueError, match="schedule must be one of"):
            model_cycles(spec, rows_for(spec, rng), "warp")
        with pytest.raises(ValueError, match="schedule must be one of"):
            schedule_latency(_one_layer([100]), [10], "warp")


class TestResources:
    def _spec_rows(self, rng):
        spec = tiny_spec(rng)
        return spec, rows_for(spec, rng)

    def test_multiplier_units_double_across_nine_bits(self, rng):
        spec, rows = self._spec_rows(rng)
        for mode in ("serial", "parallel"):
            r9 = estimate_resources(spec, rows, mode, 9)
            r11 = estimate_resources(spec, rows, mode, 11)
            assert r11.multiplier_units == 2 * r9.multiplier_units

    def test_multiplier_step_function(self, rng):
        spec, rows = self._spec_rows(rng)
        units = [estimate_resources(spec, rows, "serial", w).multiplier_units
                 for w in range(2, 28)]
        base = units[0]
        for w, u in zip(range(2, 28), units):
            assert u == base * -(-w // 9)

    def test_memory_ratio_exact(self, rng):
        spec, rows = self._spec_rows(rng)
        m9 = estimate_resources(spec, rows, "serial", 9).memory_bits
        m11 = estimate_resources(spec, rows, "serial", 11).memory_bits
        assert m11 * 9 == m9 * 11  # exactly 11/9

    def test_memory_linear_in_width(self, rng):
        spec, rows = self._spec_rows(rng)
        # the spec's weight count is every weight a quantized model stores
        params = init_params(spec, seed=1)
        X = random_inputs(spec, rng, batch=8, rows=rows)
        qm = quantize(spec, params, calibrate(spec, params, X), 10)
        weights = model.count_params(spec)
        stored = sum(l.w_int.size for ls in qm.branches for l in ls)
        assert weights == stored + sum(l.w_int.size for l in qm.dense)
        words = weights + estimate_resources(spec, rows, "serial", 9).feature_words
        for w in (2, 9, 11, 16):
            r = estimate_resources(spec, rows, "serial", w)
            assert r.memory_bits == words * w

    def test_parallel_lanes_sum_serial_lanes_max(self, rng):
        spec, rows = self._spec_rows(rng)
        rs = estimate_resources(spec, rows, "serial", 11)
        rp = estimate_resources(spec, rows, "parallel", 11)
        per_branch = [max(l.filters for l in b.layers) for b in spec.branches]
        assert rs.mac_lanes == max(per_branch)
        assert rp.mac_lanes == sum(per_branch)

    def test_report_serialization(self, rng):
        spec, rows = self._spec_rows(rng)
        r = estimate_resources(spec, rows, "parallel", 11)
        assert r.multiplier_units == r.mac_lanes * -(-r.stored_width // 9)
        rep = model_cycles(spec, rows, "serial", 100e6)
        rd = rep.to_dict()
        assert rd["total_cycles"] == rep.total_cycles
        assert rd["latency_s"] == pytest.approx(rep.total_cycles / 100e6)

    def test_importance_model_rejected(self, rng):
        # the integer engine has no importance weights to count
        spec = tiny_spec(rng, alpha=True)
        with pytest.raises(ValueError, match="importance mixing"):
            estimate_resources(spec, rows_for(spec, rng), "serial", 11)
