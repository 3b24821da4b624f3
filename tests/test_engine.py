import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from edgehar import engine
from edgehar.engine import (
    CycleReport,
    _check_partial_sums,
    _mac,
    _mac_stepped,
    _q_forward,
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
from edgehar.fxp import AccumulatorOverflowError
from edgehar.model import BranchSpec, ConvSpec, ModelSpec, _head, forward_batch
from edgehar.quantize import QLayer, QuantizedModel, calibrate, quantize
from edgehar.train import init_params

import oracles
from conftest import random_inputs, random_qmodel, tiny_spec


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
        got = qconv_layer(x_int, q, n, acc_width=48)
        x_fp = x_int.astype(np.float64) / 2.0**n
        w_fp = w_int.astype(np.float64) / 2.0**n
        want = np.maximum(_conv_batch(x_fp[None], w_fp)[0], 0)
        err = np.abs(got.astype(np.float64) / 2.0**n - want)
        assert float(err.max()) <= 1.0 / 2.0**n + 1e-12

    def test_overflow_raises(self):
        n = 10
        x = np.full((6, 4), (1 << n) - 1, dtype=np.int64)
        q = QLayer(np.full((3, 4, 1), 1 << n, dtype=np.int64), mult=1, shift=n)
        with pytest.raises(AccumulatorOverflowError):
            qconv_layer(x, q, n, acc_width=24)

    def test_storage_validation(self):
        n = 8
        x = np.full((5, 1), 5000, dtype=np.int64)  # exceeds 9-bit storage
        q = QLayer(np.ones((1, 1, 1), dtype=np.int64), mult=1, shift=0)
        with pytest.raises(ValueError, match="storage"):
            qconv_layer(x, q, n)

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


class TestMacPaths:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_gemm_path_equals_stepped_path(self, data):
        n = data.draw(st.integers(2, 15))
        _, x, w = _mac_case(data, n)
        assert w.size // w.shape[-1] << (2 * n) < 1 << 53  # _mac takes the GEMM path
        got = _mac(x, QLayer(w, mult=1, shift=0), int(np.abs(x).max()), 64, "t")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _mac_stepped(x, w, 64, "t"))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_narrow_register_raises_where_oracle_raises(self, data):
        n = data.draw(st.integers(2, 15))
        kind, x, w = _mac_case(data, n)
        need = (w.size // w.shape[-1] << (2 * n)).bit_length() + 1
        width = data.draw(st.integers(max(n + 2, 2 * n - 2), need + 1))
        q = QLayer(w, mult=3, shift=n, relu=False)
        if kind == "dense":
            run = lambda: qdense_layer(x, q, n, acc_width=width)
            ref = lambda: oracles.dense(x.tolist(), w.tolist(), 3, n, n, width, False)
        else:
            run = lambda: qconv_layer(x, q, n, acc_width=width)
            conv = oracles.conv1d if kind == "1d" else oracles.conv2d
            ref = lambda: conv(x.tolist(), w.tolist(), 3, n, n, width, relu=False)
        try:
            want = ref()
        except oracles.OracleOverflow:
            with pytest.raises(AccumulatorOverflowError):
                run()
        else:
            assert run().tolist() == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width", [64, 65])
    def test_wide_registers_match_oracle(self, rng, width):
        n = 8
        x = rng.integers(-(1 << n), 1 << n, size=(3, 2), dtype=np.int64)
        w = rng.integers(-(1 << n), (1 << n) + 1, size=(2, 2, 3), dtype=np.int64)
        q = QLayer(w, mult=5, shift=n, relu=False)
        assert qconv_layer(x, q, n, acc_width=width).tolist() == oracles.conv1d(
            x.tolist(), w.tolist(), 5, n, n, width, relu=False)
        qd = QLayer(w[0], mult=5, shift=n, relu=False)
        assert qdense_layer(x[0], qd, n, acc_width=width).tolist() == oracles.dense(
            x[0].tolist(), w[0].tolist(), 5, n, n, width, False)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width,raises", [(63, True), (64, False), (65, False)])
    def test_partial_sum_check_at_int64_limits(self, width, raises):
        info = np.iinfo(np.int64)
        cum = np.array([info.min, info.max], dtype=np.int64)
        if raises:
            with pytest.raises(AccumulatorOverflowError):
                _check_partial_sums(cum, width, "t")
        else:
            _check_partial_sums(cum, width, "t")


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
        got = qdense_layer(x, q, n, acc_width=40)
        ref = oracles.dense(x.tolist(), w.tolist(), 77, n + 4, n, 40, True)
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
        _, _, _, qm, qframe = self._quantized_fixture(rng)
        c1, r1 = qinfer(qm, qframe, schedule="serial")
        c2, r2 = qinfer(qm, qframe, schedule="parallel")
        assert c1 == c2
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
        cls, _ = qinfer(qm, qframe)
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
            got = _q_forward(qm, _one(qframe), qm.acc_width)[0]
            ref, ref_cls = oracles.qinfer(qm, qframe)
            assert got.tolist() == ref
            cls, _ = qinfer(qm, qframe)
            assert cls == ref_cls

    def test_overflow_equivalence_narrow_width(self, rng):
        hits = 0
        for _ in range(10):
            qm, qframe = random_qmodel(rng, 12)
            width = 14
            eng = ora = False
            try:
                got = _q_forward(qm, _one(qframe), width)[0]
            except AccumulatorOverflowError:
                eng = True
            try:
                ref, _ = oracles.qinfer(qm, qframe, acc_width=width)
            except oracles.OracleOverflow:
                ora = True
            assert eng == ora
            hits += eng
            if not eng:
                assert got.tolist() == ref
        assert hits > 0  # the narrow register actually bit

    def test_stream_shares_one_cycle_report(self, rng):
        qm, qframe = random_qmodel(rng, 10)
        rows = {k: len(v) for k, v in qframe.items()}
        with mock.patch.object(engine, "model_cycles", wraps=model_cycles) as spy:
            reports = [qinfer(qm, qframe, "parallel", 50e6, 2)[1] for _ in range(3)]
            assert spy.call_count == 1
            assert qinfer(qm, qframe, "serial", 50e6, 2)[1].mode == "serial"
            assert spy.call_count == 2
        assert reports[0] is reports[1] is reports[2]
        assert reports[0].to_dict() == model_cycles(qm.spec, rows, "parallel", 50e6, 2).to_dict()

    def test_unknown_schedule_rejected(self, rng):
        _, _, _, qm, qframe = self._quantized_fixture(rng)
        with pytest.raises(ValueError):
            qinfer(qm, qframe, schedule="warp")


_WALK_ORDER = re.compile(r"(branch '[^']+' layer \d|dense hidden|dense output):")


def _per_frame(qm, qX, width, stepped=None):
    """Per-frame logits of a batch through the one-frame path, or the
    AccumulatorOverflowError message of a frame that overflows. stepped, if
    given, collects the indices of the frames that took the stepped path."""
    out = []
    for i in range(len(next(iter(qX.values())))):
        with mock.patch.object(engine, "_mac_stepped", wraps=_mac_stepped) as spy:
            try:
                out.append(_q_forward(qm, {k: v[i : i + 1] for k, v in qX.items()}, width)[0])
            except AccumulatorOverflowError as ex:
                out.append(str(ex))
        if spy.called and stepped is not None:
            stepped.append(i)
    return out


def _walk_index(qm, msg):
    wheres = [f"branch {b.name!r} layer {i}" for b in qm.spec.branches for i in range(3)]
    return (wheres + ["dense hidden", "dense output"]).index(_WALK_ORDER.match(msg)[1])


class TestBatchedPath:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_per_frame_and_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(3, 15))
        qm, _ = random_qmodel(rng, n)
        frames = data.draw(st.integers(1, 4))
        spike = data.draw(st.integers(-1, frames - 1))
        if data.draw(st.booleans()):
            # a spike batch: tiny frames and one with a lone element at the
            # storage limit, through conv layers that scale by 2^-n, at widths
            # near the spike's bound taps * 2^2n. The spike's bound alone can
            # force the stepped path while its partial sums still fit.
            qm = dataclasses.replace(qm, branches=[
                [dataclasses.replace(l, mult=1 << 15, shift=n + 15) for l in ls]
                for ls in qm.branches])
            m, lone = 1, True
            width = data.draw(st.integers(2 * n, 2 * n + 4))
        else:
            m = data.draw(st.sampled_from([1, 1 << (n // 2), 1 << n]))
            lone = False
            width = data.draw(st.one_of(st.none(), st.integers(n + 2, qm.acc_width)))
        chunk = data.draw(st.sampled_from([1, 1 << 18]))  # one frame or all per chunk
        qX = {}
        for b in qm.spec.branches:
            x = rng.integers(-m, m, size=(frames, qm.input_rows[b.name], b.channels))
            if spike >= 0 and lone:
                x[spike] = 0
                x[spike].flat[rng.integers(x[spike].size)] = -(1 << n)
            elif spike >= 0:
                x[spike] = rng.integers(-(1 << n), 1 << n, size=x.shape[1:])
            qX[b.name] = x
        X = {k: v / 2.0**n for k, v in qX.items()}  # quantize_frame gives qX back exactly
        stepped = []
        per_frame = _per_frame(qm, qX, width or qm.acc_width, stepped)
        if frames > 1 and stepped == [spike]:
            event("one frame forces the stepped path")
        failed = [i for i, r in enumerate(per_frame) if isinstance(r, str)]
        oracle = []
        for i in range(frames):
            try:
                oracle.append(oracles.qinfer(qm, {k: v[i] for k, v in qX.items()}, width)[0])
            except oracles.OracleOverflow:
                oracle.append(None)
        assert [o is None for o in oracle] == [isinstance(r, str) for r in per_frame]
        with mock.patch.object(engine, "_BATCH_BYTES", chunk):
            if failed:
                event("narrow register raises")
                # chunks run in frame order, and within a chunk every frame runs
                # a layer before any runs the next: the batch raises in the
                # first failing chunk, at the first layer in walk order that
                # any of its frames fails
                c = max(1, chunk // engine._frame_bytes(qm.spec, X))
                in_chunk = [per_frame[i] for i in failed if i // c == failed[0] // c]
                first = min(in_chunk, key=lambda msg: _walk_index(qm, msg))
                with pytest.raises(AccumulatorOverflowError) as ex:
                    qinfer_batch(qm, X, width)
                assert str(ex.value) == first
                return
            preds = qinfer_batch(qm, X, width)
        logits = _q_forward(qm, qX, width or qm.acc_width)
        assert logits.tolist() == [r.tolist() for r in per_frame] == oracle
        assert preds.tolist() == [int(np.argmax(r)) for r in per_frame]
        if width is None:
            assert preds.tolist() == [qinfer(qm, {k: v[i] for k, v in qX.items()})[0]
                                      for i in range(frames)]

    def test_one_stepped_frame_sends_the_batch_stepped(self):
        # unit 2-tap kernels: the spike frame's bound 2(2^n - 1) reaches the
        # (n+1)-bit register while its lone spike sums to 2^n - 1 and fits;
        # the small frames stay far below it
        n = 10
        spec = ModelSpec((BranchSpec("s", 1, (ConvSpec(1, 2),) * 3),), hidden=2, classes=2)
        conv = [QLayer(np.ones((2, 1, 1), dtype=np.int64), 1 << 13, 15) for _ in range(3)]
        dense = [QLayer(np.ones((1, 2), dtype=np.int64), 1 << 15, 15),
                 QLayer(np.array([[1, -1], [1, 1]]), 1 << 15, 15, relu=False)]
        qm = QuantizedModel(spec, n, [1.0] * 3, [(1.0, 1.0)] * 2, [conv], dense, {"s": 12})
        qx = np.random.default_rng(0).integers(-3, 4, size=(4, 12, 1))
        qx[2] = 0
        qx[2, 5, 0] = (1 << n) - 1
        stepped = []
        per_frame = _per_frame(qm, {"s": qx}, n + 1, stepped)
        assert stepped == [2]  # the spike frame alone
        with mock.patch.object(engine, "_mac_stepped", wraps=_mac_stepped) as spy:
            batch = _q_forward(qm, {"s": qx}, n + 1)
        assert [(len(c.args[0]), c.args[3]) for c in spy.call_args_list] == [
            (4, "branch 's' layer 0")]  # the whole batch, at the spike's layer only
        assert batch.tolist() == [r.tolist() for r in per_frame] == [
            oracles.qinfer(qm, {"s": x}, n + 1)[0] for x in qx]


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
        assert dense_layer_cycles(32, 10, lanes=4) == 80
        assert dense_layer_cycles(33, 10, lanes=4) == 83  # ceil

    def test_model_cycles_walks_shapes(self, rng):
        spec = tiny_spec(rng)
        rows = {b.name: 20 for b in spec.branches}
        rep = model_cycles(spec, rows, "serial", 100e6)
        k = spec.branches[0].layers[0].kernel
        f = spec.branches[0].layers[0].filters
        c = spec.branches[0].channels
        assert rep.per_branch[spec.branches[0].name][0] == c * (20 - k + 1) * k


class TestScheduleLatency:
    def test_worked_example(self):
        rep_s = schedule_latency([1200, 800, 1500, 1000], 300, "serial", 100e6)
        rep_p = schedule_latency([1200, 800, 1500, 1000], 300, "parallel", 100e6)
        assert rep_s.total_cycles == 4800
        assert rep_s.latency_s == pytest.approx(48e-6)
        assert rep_p.total_cycles == 1800
        assert rep_p.latency_s == pytest.approx(18e-6)

    def test_single_branch_modes_equal(self):
        s = schedule_latency([123], 45, "serial")
        p = schedule_latency([123], 45, "parallel")
        assert s.total_cycles == p.total_cycles

    def test_throughput_is_clock_over_cycles(self):
        rep = schedule_latency([100], 0, "serial", clock_hz=1e6)
        assert rep.throughput_lps == pytest.approx(1e6 / 100)

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=8),
        st.integers(0, 10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition_against_sum_max_oracle(self, branches, dense):
        s = schedule_latency(branches, dense, "serial")
        p = schedule_latency(branches, dense, "parallel")
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
        s0 = schedule_latency(branches, dense, "serial").total_cycles
        p0 = schedule_latency(branches, dense, "parallel").total_cycles
        s1 = schedule_latency(branches + [extra], dense, "serial").total_cycles
        p1 = schedule_latency(branches + [extra], dense, "parallel").total_cycles
        assert s1 >= s0
        assert p1 >= p0 or p1 == max(branches + [extra]) + dense

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            schedule_latency([], 10, "serial")


class TestResources:
    def _qm(self, rng, n=10):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=1)
        X = random_inputs(spec, rng, batch=8)
        stats = calibrate(spec, params, X)
        return quantize(spec, params, stats, n)

    def test_multiplier_units_double_across_nine_bits(self, rng):
        qm = self._qm(rng)
        for mode in ("serial", "parallel"):
            r9 = estimate_resources(qm, mode, stored_width=9)
            r11 = estimate_resources(qm, mode, stored_width=11)
            assert r11.multiplier_units == 2 * r9.multiplier_units

    def test_multiplier_step_function(self, rng):
        qm = self._qm(rng)
        units = [estimate_resources(qm, "serial", stored_width=w).multiplier_units
                 for w in range(2, 28)]
        base = units[0]
        for w, u in zip(range(2, 28), units):
            assert u == base * -(-w // 9)

    def test_memory_ratio_exact(self, rng):
        qm = self._qm(rng)
        m9 = estimate_resources(qm, "serial", stored_width=9).memory_bits
        m11 = estimate_resources(qm, "serial", stored_width=11).memory_bits
        assert m11 * 9 == m9 * 11  # exactly 11/9

    def test_memory_linear_in_width(self, rng):
        qm = self._qm(rng)
        words = qm.weight_words + estimate_resources(qm, "serial", 9).feature_words
        for w in (2, 9, 11, 16):
            r = estimate_resources(qm, "serial", stored_width=w)
            assert r.memory_bits == words * w

    def test_parallel_lanes_sum_serial_lanes_max(self, rng):
        qm = self._qm(rng)
        rs = estimate_resources(qm, "serial")
        rp = estimate_resources(qm, "parallel")
        per_branch = [max(l.filters for l in b.layers) for b in qm.spec.branches]
        assert rs.mac_lanes == max(per_branch)
        assert rp.mac_lanes == sum(per_branch)

    def test_zero_parameter_model_zero_weight_bits(self, rng):
        qm = self._qm(rng)
        empty = QuantizedModel(
            qm.spec, qm.n_bits, qm.rescales, qm.dense_scales,
            [[QLayer(np.zeros((0,), dtype=np.int64), 1, 1)] * 3
             for _ in qm.branches],
            [QLayer(np.zeros((0, 1), dtype=np.int64), 1, 1)] * 2,
            {name: 0 for name in qm.input_rows},
        )
        r = estimate_resources(empty, "serial", stored_width=11)
        assert r.weight_bits == 0

    def test_report_serialization(self, rng):
        qm = self._qm(rng)
        d = estimate_resources(qm, "parallel").to_dict()
        assert d["multiplier_units"] == d["mac_lanes"] * -(-d["stored_width"] // 9)
        rep = model_cycles(qm.spec, qm.input_rows, "serial", 100e6)
        rd = rep.to_dict()
        assert rd["total_cycles"] == rep.total_cycles
        assert rd["latency_s"] == pytest.approx(rep.total_cycles / 100e6)
