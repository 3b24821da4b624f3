import copy
import math
import re

import numpy as np
import pytest

from edgehar.engine import quantize_frame
from edgehar.fxp import storage_format
from edgehar.model import BranchSpec, ConvSpec, ModelSpec, forward_batch
from edgehar.quantize import (
    CalibStats,
    QLayer,
    QuantizedModel,
    calibrate,
    compute_rescale,
    load_qmodel,
    quantize,
    quantize_weights,
    save_qmodel,
    sweep_bits,
)
from edgehar.train import init_params

from conftest import random_inputs, rows_for, tiny_spec


def _fixture_model(rng, seed=0):
    spec = tiny_spec(rng)
    params = init_params(spec, seed=seed)
    X = random_inputs(spec, rng, batch=24)
    return spec, params, X


class TestCalibrate:
    def test_records_max_abs(self, rng):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        for l in range(3):
            for b, ws in zip(spec.branches, params.branch_weights):
                assert stats.conv_w[l][b.name] == pytest.approx(
                    float(np.abs(ws[l]).max())
                )
                assert stats.conv_o[l][b.name] >= 0.0
        assert stats.n_samples == 24

    def test_weights_vs_outputs_example(self):
        # weights {0.5, -0.7} with outputs seen up to 0.9 -> (|W|, |O|) = (0.7, 0.9)
        layers = (ConvSpec(1, 1), ConvSpec(1, 1), ConvSpec(1, 1))
        spec = ModelSpec((BranchSpec("s", 2, layers),), hidden=2, classes=2)
        params = init_params(spec, seed=0)
        params.branch_weights[0][0][:] = np.array([[[0.5], [-0.7]]])
        params.branch_weights[0][1][:] = 1.0
        params.branch_weights[0][2][:] = 1.0
        X = {"s": np.array([[[0.9, 0.1] * 1]] ).reshape(1, 1, 2)}
        stats = calibrate(spec, params, X)
        assert stats.conv_w[0]["s"] == pytest.approx(0.7)
        # layer-1 output = 0.5*0.9 - 0.7*0.1 = 0.38
        assert stats.conv_o[0]["s"] == pytest.approx(0.38)

    def test_zero_everything_gives_zero_stats(self, rng):
        spec, params, X = _fixture_model(rng)
        for ws in params.branch_weights:
            for w in ws:
                w[:] = 0.0
        X0 = {k: np.zeros_like(v) for k, v in X.items()}
        stats = calibrate(spec, params, X0)
        assert all(v == 0.0 for d in stats.conv_w for v in d.values())
        assert all(v == 0.0 for d in stats.conv_o for v in d.values())

    def test_growing_calib_set_never_decreases_outputs(self, rng):
        spec, params, X = _fixture_model(rng)
        small = {k: v[:8] for k, v in X.items()}
        s1 = calibrate(spec, params, small)
        s2 = calibrate(spec, params, X)
        for l in range(3):
            for name in s1.conv_o[l]:
                assert s2.conv_o[l][name] >= s1.conv_o[l][name]

    def test_whole_set_is_max_of_its_halves(self, rng):
        spec, params, X = _fixture_model(rng)
        a = calibrate(spec, params, {k: v[:10] for k, v in X.items()})
        b = calibrate(spec, params, {k: v[10:] for k, v in X.items()})
        whole = calibrate(spec, params, X)
        for l in range(3):
            for name in whole.conv_o[l]:
                assert whole.conv_o[l][name] == max(a.conv_o[l][name], b.conv_o[l][name])
        assert whole.dense_o[0] == max(a.dense_o[0], b.dense_o[0])

    def test_empty_calibration_rejected(self, rng):
        spec, params, X = _fixture_model(rng)
        with pytest.raises(ValueError):
            calibrate(spec, params, {k: v[:0] for k, v in X.items()})


class TestComputeRescale:
    def _stats(self, pairs):
        conv_w = [{f"b{i}": w for i, (w, _) in enumerate(pairs)}, {}, {}]
        conv_o = [{f"b{i}": o for i, (_, o) in enumerate(pairs)}, {}, {}]
        return CalibStats(conv_w, conv_o, [1, 1], [1, 1], {}, 1)

    def test_max_over_branches(self):
        assert compute_rescale(self._stats([(0.5, 0.9), (0.3, 0.4)]), 1) == 0.9

    def test_single_branch_weight_dominates(self):
        assert compute_rescale(self._stats([(1.0, 0.2)]), 1) == 1.0

    def test_homogeneous_in_scale(self, rng):
        spec, params, X = _fixture_model(rng)
        s1 = calibrate(spec, params, X)
        k = 3.7
        scaled = copy.deepcopy(params)
        for ws in scaled.branch_weights:
            ws[0] *= k  # scaling layer-1 weights scales layer-1 W and O by k
        s2 = calibrate(spec, scaled, X)
        assert compute_rescale(s2, 1) == pytest.approx(k * compute_rescale(s1, 1))

    def test_dead_layer_rejected(self):
        with pytest.raises(ValueError, match="dead"):
            compute_rescale(self._stats([(0.0, 0.0)]), 1)


class TestQuantizeWeights:
    def _params_with(self, rng, value):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=1)
        params.branch_weights[0][0].flat[0] = value
        return spec, params

    def test_eq_midpoint(self, rng):
        _, params = self._params_with(rng, 0.4)
        w = quantize_weights(params, [0.8, 1.0, 1.0], 10)
        assert w[0][0].flat[0] == 512  # round(0.4 / 0.8 * 1024)

    def test_odd_symmetry(self, rng):
        spec, params = self._params_with(rng, 0.4)
        neg = copy.deepcopy(params)
        for ws in neg.branch_weights:
            for w in ws:
                w *= -1.0
        r = [0.8, 1.0, 1.0]
        wp = quantize_weights(params, r, 10)
        wn = quantize_weights(neg, r, 10)
        for a, b in zip(wp, wn):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, -y)

    def test_odd_symmetry_at_boundary(self, rng):
        # the element equal to R maps to +/-(2^n - 1) on both sides
        spec, params = self._params_with(rng, 0.8)
        w = quantize_weights(params, [0.8, 1.0, 1.0], 10)
        assert w[0][0].flat[0] == 1023
        neg = copy.deepcopy(params)
        for ws in neg.branch_weights:
            for wt in ws:
                wt *= -1.0
        wn = quantize_weights(neg, [0.8, 1.0, 1.0], 10)
        assert wn[0][0].flat[0] == -1023

    def test_zero_maps_to_zero(self, rng):
        _, params = self._params_with(rng, 0.0)
        w = quantize_weights(params, [0.5, 1.0, 1.0], 8)
        assert w[0][0].flat[0] == 0

    def test_bound_when_weights_within_rescale(self, rng):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        rs = [compute_rescale(stats, l) for l in (1, 2, 3)]
        for n in (4, 8, 12):
            for ws in quantize_weights(params, rs, n):
                for w in ws:
                    assert int(np.abs(w).max()) <= 2**n

    def test_positive_rescale_required(self, rng):
        _, params = self._params_with(rng, 0.4)
        with pytest.raises(ValueError):
            quantize_weights(params, [0.0, 1.0, 1.0], 10)


class TestQuantizedModel:
    def test_determinism(self, rng):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        q1 = quantize(spec, params, stats, 10)
        q2 = quantize(spec, params, stats, 10)
        for a, b in zip(q1.branches, q2.branches):
            for la, lb in zip(a, b):
                np.testing.assert_array_equal(la.w_int, lb.w_int)
                assert (la.mult, la.shift) == (lb.mult, lb.shift)
        assert q1.rescales == q2.rescales

    def test_storage_and_acc_width(self, rng):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        qm = quantize(spec, params, stats, 10)
        assert qm.fmt.n_bits == 11
        assert qm.acc_width >= 32

    def test_bit_cap_enforced(self, rng):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        with pytest.raises(ValueError, match="16-bit"):
            quantize(spec, params, stats, 16)

    @pytest.mark.parametrize("n", [0, 16])
    def test_width_rule_holds_everywhere(self, rng, n):
        # storage_format is the one width rule; each caller raises its message
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        msg = re.escape(f"n_bits must be 1 to 15 magnitude bits, a sign and magnitude "
                        f"within the 16-bit storage cap, got {n}")
        rescales = [compute_rescale(stats, l) for l in (1, 2, 3)]
        frame = {k: v[0] for k, v in X.items()}
        for call in (lambda: storage_format(n), lambda: quantize(spec, params, stats, n),
                     lambda: quantize_weights(params, rescales, n),
                     lambda: quantize_frame(frame, n)):
            with pytest.raises(ValueError, match=f"^{msg}$"):
                call()

    @pytest.mark.parametrize("n", [1, 15])
    def test_width_rule_accepts_its_ends(self, rng, n):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        assert storage_format(n).n_bits == n + 1
        assert quantize(spec, params, stats, n).fmt == storage_format(n)
        rescales = [compute_rescale(stats, l) for l in (1, 2, 3)]
        assert all(np.abs(w).max() <= (1 << n) - 1
                   for ws in quantize_weights(params, rescales, n) for w in ws)
        qframe = quantize_frame({k: v[0] for k, v in X.items()}, n)
        assert all(np.abs(v).max() <= 1 << n for v in qframe.values())

    def test_alpha_model_rejected(self, rng):
        spec = tiny_spec(rng, alpha=True)
        params = init_params(spec, seed=0)
        X = random_inputs(spec, rng, batch=4)
        with pytest.raises(ValueError, match="alpha"):
            calibrate(spec, params, X)

    def test_round_trip_json(self, tmp_path, rng):
        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        qm = quantize(spec, params, stats, 9)
        p = tmp_path / "q.json"
        save_qmodel(p, qm, meta={"seed": 1})
        qm2, meta = load_qmodel(p)
        assert meta == {"seed": 1}
        assert qm2.n_bits == 9
        assert qm2.rescales == qm.rescales  # decimal-string exact
        for a, b in zip(qm.branches, qm2.branches):
            for la, lb in zip(a, b):
                np.testing.assert_array_equal(la.w_int, lb.w_int)
        save_qmodel(tmp_path / "q2.json", qm2, meta=meta)
        assert (tmp_path / "q.json").read_bytes() == (tmp_path / "q2.json").read_bytes()

    def test_oversized_mult_rejected_on_build_and_load(self, tmp_path, rng):
        import json

        spec, params, X = _fixture_model(rng)
        qm = quantize(spec, params, calibrate(spec, params, X), 10)
        with pytest.raises(ValueError, match="headroom"):
            QuantizedModel(qm.spec, qm.n_bits, qm.rescales, qm.dense_scales, qm.branches,
                           [qm.dense[0], QLayer(qm.dense[1].w_int, 1 << 40, qm.dense[1].shift)],
                           qm.input_rows)
        p = tmp_path / "q.json"
        save_qmodel(p, qm)
        doc = json.loads(p.read_text())
        doc["branches"][0][1]["mult"] = 1 << 40
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="headroom"):
            load_qmodel(p)

    def test_pool_differs_from_spec_rejected_on_load(self, tmp_path, rng):
        import json

        spec = tiny_spec(rng, pools=True)
        params = init_params(spec, seed=0)
        X = random_inputs(spec, rng, batch=4)
        p = tmp_path / "q.json"
        save_qmodel(p, quantize(spec, params, calibrate(spec, params, X), 8))
        doc = json.loads(p.read_text())
        # the file's pools are its spec's; one layer's pool then differs from it
        assert [[l["pool"] for l in ls] for ls in doc["branches"]] == \
            [[l.pool for l in b.layers] for b in spec.branches]
        b = spec.branches[-1]
        stored = None if b.layers[1].pool else 2
        doc["branches"][-1][1]["pool"] = stored
        p.write_text(json.dumps(doc))
        msg = (f"{p}: branch '{b.name}' layer 1 stores pool {stored!r}, but its spec has "
               f"pool {b.layers[1].pool!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            load_qmodel(p)

    def test_layout_differs_from_spec_rejected_on_build(self, rng):
        spec, params, X = _fixture_model(rng)
        qm = quantize(spec, params, calibrate(spec, params, X), 8)
        names = [b.name for b in spec.branches]
        last = qm.branches[-1]
        short = QLayer(last[2].w_int[..., :-1], last[2].mult, last[2].shift)
        d0, d1 = qm.dense
        cases = [
            (qm.branches[:-1], qm.dense,
             f"weights for {len(names) - 1} branches, but the spec has {len(names)}: "
             f"none for branch {names[-1]!r}"),
            (qm.branches + qm.branches[-1:], qm.dense,
             f"1 beyond its last branch {names[-1]!r}"),
            ([*qm.branches[:-1], [*last[:2], short]], qm.dense,
             f"branch {names[-1]!r} layer 2: weight shape {short.w_int.shape}"),
            (qm.branches, [QLayer(d0.w_int[:-1], d0.mult, d0.shift), d1], "dense1 shape"),
            (qm.branches, [d0], "1 dense layers, expected 2"),
        ]
        for branches, dense, msg in cases:
            with pytest.raises(ValueError, match=re.escape(msg)):
                QuantizedModel(spec, qm.n_bits, qm.rescales, qm.dense_scales, branches,
                               dense, qm.input_rows)

    def test_dequantized_features_recover_fp32(self, rng):
        # branch features share R_3, so int features dequantize comparably
        from edgehar.engine import quantize_frame, _q_branch

        spec, params, X = _fixture_model(rng)
        stats = calibrate(spec, params, X)
        n = 12
        qm = quantize(spec, params, stats, n)
        from edgehar.model import _walk

        one = {k: v[:1] for k, v in X.items()}
        feats = {}
        _walk(spec, params, one, lambda key, x, a, win: feats.setdefault(key, a))
        qframe = quantize_frame({k: v[0] for k, v in one.items()}, n)
        for bi, branch in enumerate(spec.branches):
            got = _q_branch(spec, branch, qm.branches[bi], qframe[branch.name][None], n)[0]
            fp = feats[bi, 3][0]
            deq = got.astype(np.float64) * qm.rescales[2] / 2.0**n
            # error budget: one grid step per layer, amplified by layer gains
            gain = 1.0
            budget = qm.rescales[2] / 2.0**n
            for l in range(3):
                taps = float(np.abs(params.branch_weights[bi][l]).sum(
                    axis=tuple(range(params.branch_weights[bi][l].ndim - 1))).max())
                gain = gain * taps + 1.0
            tol = budget * (1.0 + gain)
            assert float(np.abs(deq - fp).max()) <= tol


def _sweep(spec, params, X, y, n_range):
    """sweep_bits on the labeled set (X, y), calibrated on X."""
    fp_pred = np.argmax(forward_batch(spec, params, X), axis=1)
    return sweep_bits(spec, params, (X, y), n_range, calibrate(spec, params, X), fp_pred)


class TestAccuracyRatio:
    def test_identical_model_ratio_one(self, rng):
        spec, params, X = _fixture_model(rng)
        y = np.argmax(forward_batch(spec, params, X), axis=1)  # labels = fp32 preds
        [(n, ratio)] = _sweep(spec, params, X, y, [15])
        assert n == 15 and ratio == pytest.approx(1.0)

    def test_high_precision_preserves_argmax(self, rng):
        spec, params, X = _fixture_model(rng)
        y = np.argmax(forward_batch(spec, params, X), axis=1)
        stats = calibrate(spec, params, X)
        qm = quantize(spec, params, stats, 15)
        from edgehar.engine import qinfer_batch

        assert np.mean(qinfer_batch(qm, X) == y) >= 0.995

    def test_zero_fp32_accuracy_gives_nan(self, rng):
        spec, params, X = _fixture_model(rng)
        pred = np.argmax(forward_batch(spec, params, X), axis=1)
        wrong = (pred + 1) % spec.classes
        curve = _sweep(spec, params, X, wrong, [4, 10, 15])
        assert [n for n, _ in curve] == [4, 10, 15]
        assert all(math.isnan(r) for _, r in curve)

    def test_sweep_singleton_matches_direct(self, rng):
        spec, params, X = _fixture_model(rng)
        y = np.argmax(forward_batch(spec, params, X), axis=1)
        from edgehar.engine import qinfer_batch

        stats = calibrate(spec, params, X)
        qm = quantize(spec, params, stats, 10)
        fp_acc = np.mean(np.argmax(forward_batch(spec, params, X), axis=1) == y)
        direct = float(np.mean(qinfer_batch(qm, X) == y)) / float(fp_acc)
        curve = _sweep(spec, params, X, y, [10])
        assert curve == [(10, direct)]

    def test_sweep_row_count_and_trend(self, rng):
        spec, params, X = _fixture_model(rng)
        y = np.argmax(forward_batch(spec, params, X), axis=1)
        curve = _sweep(spec, params, X, y, [4, 8, 15])
        assert len(curve) == 3
        assert curve[2][1] >= curve[0][1]  # 15-bit at least as accurate as 4-bit

    def test_empty_range_rejected(self, rng):
        spec, params, X = _fixture_model(rng)
        with pytest.raises(ValueError):
            _sweep(spec, params, X, np.zeros(24, dtype=int), [])
