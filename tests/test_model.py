import numpy as np
import pytest

from edgehar import model
from edgehar.model import (
    BranchSpec,
    ConvSpec,
    Frame,
    ModelSpec,
    conv_forward,
    count_params,
    data_fusion_spec,
    feature_fusion_spec,
    forward,
    forward_batch,
    global_max_pool,
    load_model,
    mix_features,
    normalize_inputs,
    save_model,
)
from edgehar.persist import SchemaError
from edgehar.train import init_params

import oracles
from conftest import random_inputs, rows_for, tiny_spec


class TestConvForward:
    def test_valid_padding_length(self, rng):
        x = rng.normal(size=(20, 3))
        w = rng.normal(size=(5, 3, 4))
        assert conv_forward(x, w).shape == (16, 4)

    def test_zero_input_zero_output(self, rng):
        w = rng.normal(size=(5, 3, 4))
        out = conv_forward(np.zeros((20, 3)), w)
        assert np.all(out == 0.0)

    def test_hand_convolution(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = np.array([[[2.0]]])
        assert conv_forward(x, w, relu=True).ravel().tolist() == [2.0, 4.0, 6.0]

    def test_kernel_pool_divides_length(self, rng):
        x = rng.normal(size=(21, 2))
        w = rng.normal(size=(2, 2, 3))
        assert conv_forward(x, w, pool=2).shape == (10, 3)  # (21-2+1)//2

    def test_too_short_input_rejected(self, rng):
        with pytest.raises(ValueError):
            conv_forward(rng.normal(size=(3, 2)), rng.normal(size=(5, 2, 1)))

    def test_2d_shapes(self, rng):
        x = rng.normal(size=(4, 8, 8, 1))
        w = rng.normal(size=(3, 3, 1, 5))
        assert conv_forward(x, w).shape == (4, 6, 6, 5)


class TestConvKernel:
    @pytest.mark.parametrize("c", [1, 8])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_matches_per_tap_over_several_blocks(self, rng, monkeypatch, nd, c):
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 512)
        k = 3
        lead_sp = (7, 12) if nd == 1 else (3, 4, 7, 6)
        x = rng.normal(size=(*lead_sp, c))
        w = rng.normal(size=(*(k,) * nd, c, 5))
        assert len(list(model._conv_blocks(x, k, nd))) > 1
        # float64 sums of at most 72 unit-scale products, reordered
        np.testing.assert_allclose(model._conv_batch(x, w), oracles.conv_per_tap(x, w),
                                   rtol=1e-12, atol=1e-12)


class TestGlobalMaxPool:
    def test_columnwise_max(self):
        assert global_max_pool(np.array([[1.0, 5.0], [3.0, 2.0]])).tolist() == [3.0, 5.0]

    def test_constant_tensor(self):
        assert global_max_pool(np.full((7, 3), 2.5)).tolist() == [2.5, 2.5, 2.5]

    def test_single_timestep_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert global_max_pool(x).tolist() == [1.0, -2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_max_pool(np.zeros((0, 3)))


class TestMixFeatures:
    def test_uniform_alpha_is_mean(self):
        a, b, c = (np.arange(3.0), np.ones(3), np.array([2.0, 0.0, 1.0]))
        out = mix_features([a, b, c], np.zeros(3))
        np.testing.assert_allclose(out, (a + b + c) / 3)

    def test_log2_weighting(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        out = mix_features([a, b], np.array([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out, (2 * a + b) / 3)

    def test_singleton(self, rng):
        f = rng.normal(size=4)
        np.testing.assert_allclose(mix_features([f], np.array([17.0])), f)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix_features([np.zeros(3), np.zeros(4)], np.zeros(2))

    def test_convex_combination(self, rng):
        feats = [rng.normal(size=5) for _ in range(4)]
        out = mix_features(feats, rng.normal(size=4))
        lo = np.min(feats, axis=0)
        hi = np.max(feats, axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def _simple_spec(**kw):
    layers = (ConvSpec(2, 2), ConvSpec(2, 2), ConvSpec(2, 2))
    return ModelSpec(
        (BranchSpec("a", 1, layers), BranchSpec("b", 2, layers)),
        hidden=3, classes=2, **kw,
    )


class TestForward:
    def test_zero_frame_zero_logits_class0(self, rng):
        spec = _simple_spec()
        params = init_params(spec, seed=int(rng.integers(1e6)))
        frame = Frame({"a": np.zeros((8, 1)), "b": np.zeros((8, 2))})
        logits, cls = forward(spec, params, frame)
        assert np.all(logits == 0.0)
        assert cls == 0  # lowest-index tie rule

    def test_identity_dense_argmax(self):
        # two features x > y through an identity output layer -> class 0
        layers = (ConvSpec(1, 1), ConvSpec(1, 1), ConvSpec(1, 1))
        spec = ModelSpec((BranchSpec("a", 1, layers), BranchSpec("b", 1, layers)),
                         hidden=2, classes=2)
        params = init_params(spec, seed=0)
        for ws in params.branch_weights:
            for w in ws:
                w[:] = 1.0
        params.dense1[:] = np.eye(2)
        params.dense2[:] = np.eye(2)
        frame = Frame({"a": np.array([[0.9]]), "b": np.array([[0.4]])})
        logits, cls = forward(spec, params, frame)
        assert cls == 0 and logits[0] > logits[1]

    def test_positive_scaling_preserves_class(self, rng):
        spec = _simple_spec()
        params = init_params(spec, seed=7)
        frame = Frame({"a": rng.normal(size=(9, 1)), "b": rng.normal(size=(9, 2))})
        _, cls = forward(spec, params, frame)
        params.dense2 *= 13.7
        _, cls2 = forward(spec, params, frame)
        assert cls == cls2

    def test_branch_permutation_invariance(self, rng):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=5)
        X = random_inputs(spec, rng, batch=3)
        base = forward_batch(spec, params, X)

        order = list(rng.permutation(len(spec.branches)))
        spec_p = ModelSpec(tuple(spec.branches[i] for i in order), spec.hidden,
                           spec.classes)
        sizes = [spec.head_size(b) for b in spec.branches]
        offs = np.cumsum([0] + sizes)
        blocks = [params.dense1[offs[i] : offs[i + 1]] for i in range(len(sizes))]
        params_p = params.copy()
        params_p.branch_weights = [params.branch_weights[i] for i in order]
        params_p.dense1 = np.concatenate([blocks[i] for i in order], axis=0)
        out = forward_batch(spec_p, params_p, X)
        np.testing.assert_allclose(out, base, rtol=1e-12, atol=1e-12)

    def test_bias_free_linearity_many_seeds(self, rng):
        for seed in range(5):
            spec = tiny_spec(rng, with_2d=True, pools=True)
            params = init_params(spec, seed=seed)
            rows = rows_for(spec, rng)
            X = {b.name: np.zeros((2, rows[b.name], b.channels)) for b in spec.branches}
            assert np.all(forward_batch(spec, params, X) == 0.0)

    def test_missing_branch_rejected(self, rng):
        spec = _simple_spec()
        params = init_params(spec, seed=1)
        with pytest.raises(ValueError):
            forward(spec, params, Frame({"a": np.zeros((8, 1))}))


class TestCountParams:
    def test_single_conv_layer(self):
        layers = (ConvSpec(8, 5), ConvSpec(8, 5), ConvSpec(8, 5))
        b = BranchSpec("a", 3, layers)
        spec = ModelSpec((b,), hidden=1, classes=2)
        # layer 1 alone: 3 in-channels * 8 filters * 5 taps
        assert 3 * 8 * 5 == 120
        hand = 120 + 2 * (8 * 8 * 5) + 8 * 1 + 1 * 2
        assert count_params(spec) == hand

    def test_dense_sizes(self):
        layers = (ConvSpec(28, 1), ConvSpec(28, 1), ConvSpec(28, 1))
        spec = ModelSpec((BranchSpec("a", 1, layers),), hidden=10, classes=2)
        # dense 28 -> 10 contributes 280
        assert spec.dense_in == 28
        assert count_params(spec) - (28 + 2 * 28 * 28 + 10 * 2) == 280

    def test_alpha_model_hand_count(self, rng):
        # alpha mixing collapses the dense input to one F-wide vector and
        # adds one scalar per branch
        spec = tiny_spec(rng, alpha=True)
        conv = sum(
            l.kernel ** b.conv_dim * b.layer_in_channels(i) * l.filters
            for b in spec.branches
            for i, l in enumerate(b.layers)
        )
        f = spec.branches[0].out_features
        hand = conv + f * spec.hidden + spec.hidden * spec.classes + len(spec.branches)
        assert count_params(spec) == hand

    def test_fusion_contrast_on_wide_branch(self):
        class S:
            def __init__(self, name, channels, conv_dim=1, grid=None):
                self.name, self.channels = name, channels
                self.conv_dim, self.grid = conv_dim, grid

        sensors = [S("thermal", 768, 2, (24, 32)), S("x", 10), S("y", 6), S("z", 1)]
        ff = feature_fusion_spec(sensors, filters=8, kernel=5, hidden=32, classes=10)
        df = data_fusion_spec(768 + 17, window_rows=20, filters=8, kernel=5,
                              hidden=32, classes=10)
        assert count_params(df) / count_params(ff) > 5.0

    def test_matches_hand_computation(self, rng):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=0)
        total = sum(w.size for ws in params.branch_weights for w in ws)
        total += params.dense1.size + params.dense2.size
        assert count_params(spec) == total


class TestNormalizeInputs:
    def test_endpoints_and_midpoint(self):
        raw = {"s": np.array([[0.0], [5.0], [10.0]])}
        f = normalize_inputs(raw, {"s": (0.0, 10.0)})
        np.testing.assert_allclose(f.tensors["s"].ravel(), [-1.0, 0.0, 1.0])

    def test_clipping_beyond_max(self):
        f = normalize_inputs({"s": np.array([[99.0]])}, {"s": (0.0, 10.0)})
        assert f.tensors["s"][0, 0] == 1.0

    def test_degenerate_stats_named(self):
        with pytest.raises(ValueError, match="gas"):
            normalize_inputs({"gas": np.zeros((2, 1))}, {"gas": (3.0, 3.0)})


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        spec = tiny_spec(rng, with_2d=True)
        params = init_params(spec, seed=11)
        p = tmp_path / "m.json"
        save_model(p, spec, params, meta={"note": "x"})
        spec2, params2, meta = load_model(p)
        assert spec2 == spec
        assert meta == {"note": "x"}
        for a, b in zip(params.branch_weights, params2.branch_weights):
            for w, w2 in zip(a, b):
                np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(params.dense1, params2.dense1)
        # a second save of the loaded model is byte-identical
        p2 = tmp_path / "m2.json"
        save_model(p2, spec2, params2, meta=meta)
        assert p.read_bytes() == p2.read_bytes()

    def test_schema_mismatch_named(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"schema": "other/v9"}')
        with pytest.raises(SchemaError, match="other/v9"):
            load_model(tmp_path / "bad.json")


class TestSpecValidation:
    def test_three_layers_required(self):
        with pytest.raises(ValueError):
            BranchSpec("a", 1, (ConvSpec(1, 1), ConvSpec(1, 1)))

    def test_classes_lower_bound(self):
        layers = (ConvSpec(1, 1),) * 3
        with pytest.raises(ValueError):
            ModelSpec((BranchSpec("a", 1, layers),), hidden=2, classes=1)

    def test_data_fusion_single_branch(self):
        layers = (ConvSpec(1, 1),) * 3
        b = BranchSpec("a", 1, layers)
        with pytest.raises(ValueError):
            ModelSpec((b, BranchSpec("b", 1, layers)), 2, 2, fusion="data")

    def test_2d_needs_matching_grid(self):
        layers = (ConvSpec(1, 1),) * 3
        with pytest.raises(ValueError):
            BranchSpec("a", 10, layers, conv_dim=2, grid=(3, 3))
