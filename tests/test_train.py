import math

import numpy as np
import pytest

from edgehar import model, train as train_mod
from edgehar.daq import SensorSpec, bundle_arrays, gen_dataset
from edgehar.model import BranchSpec, ConvSpec, ModelSpec, feature_fusion_spec
from edgehar.train import (
    ImportanceReport,
    TrainConfig,
    TrainingDiverged,
    backward,
    evaluate,
    history_to_csv,
    init_params,
    loss_ce,
    select_modalities,
    train,
    train_importance,
    _conv_bwd,
    _iter_tensors,
)

import oracles
from conftest import random_inputs, rows_for, tiny_spec


class TestLossCE:
    def test_uniform_logits(self):
        assert loss_ce(np.zeros(10), 3) == pytest.approx(math.log(10), abs=1e-9)

    def test_saturated_correct(self):
        logits = np.zeros(4)
        logits[2] = 1e6
        assert loss_ce(logits, 2) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form(self):
        assert loss_ce(np.array([1.0, 0.0]), 1) == pytest.approx(
            math.log(1 + math.e), abs=1e-6
        )

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_ce(np.zeros(3), 3)


class TestGradients:
    def _check(self, spec, X, y, seed):
        params = init_params(spec, seed=seed)
        _, grads = backward(spec, params, X, y)

        def loss_fn():
            return backward(spec, params, X, y)[0]

        numeric = oracles.finite_diff_grads(loss_fn, list(_iter_tensors(params)))
        return oracles.max_rel_error(list(_iter_tensors(grads)), numeric)

    def test_alpha_model_with_pools(self, rng):
        spec = tiny_spec(rng, alpha=True, pools=True)
        X = random_inputs(spec, rng, batch=3)
        y = rng.integers(0, spec.classes, size=3)
        assert self._check(spec, X, y, seed=1) < 1e-4

    def test_2d_branch(self, rng):
        spec = tiny_spec(rng, with_2d=True)
        X = random_inputs(spec, rng, batch=2)
        y = rng.integers(0, spec.classes, size=2)
        assert self._check(spec, X, y, seed=2) < 1e-4

    def test_suppressed_branch_gradient_vanishes(self, rng):
        layers = (ConvSpec(2, 2), ConvSpec(2, 2), ConvSpec(2, 2))
        spec = ModelSpec(
            (BranchSpec("a", 1, layers), BranchSpec("b", 1, layers)),
            hidden=3, classes=2, alpha_enabled=True,
        )
        params = init_params(spec, seed=3)
        params.alpha[:] = [30.0, -30.0]  # softmax weight of branch b ~ 0
        X = {"a": rng.normal(size=(4, 9, 1)), "b": rng.normal(size=(4, 9, 1))}
        y = rng.integers(0, 2, size=4)
        _, grads = backward(spec, params, X, y)
        b_norm = max(float(np.abs(g).max()) for g in grads.branch_weights[1])
        a_norm = max(float(np.abs(g).max()) for g in grads.branch_weights[0])
        assert b_norm < 1e-10 and a_norm > 1e-6

    def test_zero_frame_zero_conv_gradients(self, rng):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=4)
        rows = rows_for(spec, rng)
        X = {b.name: np.zeros((3, rows[b.name], b.channels)) for b in spec.branches}
        y = rng.integers(0, spec.classes, size=3)
        _, grads = backward(spec, params, X, y)
        for gws in grads.branch_weights:
            for g in gws:
                assert np.all(g == 0.0)

    def test_empty_batch_rejected(self, rng):
        spec = tiny_spec(rng)
        params = init_params(spec, seed=0)
        X = {b.name: np.zeros((0, 9, b.channels)) for b in spec.branches}
        with pytest.raises(ValueError):
            backward(spec, params, X, np.zeros(0, dtype=int))


class TestConvBackward:
    @pytest.mark.parametrize("nd", [1, 2])
    def test_matches_per_tap_over_several_blocks(self, rng, monkeypatch, nd):
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 512)
        k, c = 3, 4
        x = rng.normal(size=((7, 12) if nd == 1 else (3, 4, 7, 6)) + (c,))
        w = rng.normal(size=(*(k,) * nd, c, 5))
        dz = rng.normal(size=model._conv_batch(x, w).shape)
        dx, dw = _conv_bwd(dz, x, w, need_dx=True)
        ref_dx, ref_dw = oracles.conv_bwd_per_tap(dz, x, w)
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
        # the first layer's path: the same dW and no input gradient
        dx0, dw0 = _conv_bwd(dz, x, w, need_dx=False)
        assert dx0 is None
        np.testing.assert_array_equal(dw0, dw)

    @pytest.mark.parametrize("nd", [1, 2])
    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    @pytest.mark.parametrize("k", [1, 5])
    def test_dx_equals_padded_formulation(self, rng, nd, lead, k):
        c, f = 3, 4
        x = rng.normal(size=(*lead, *(9, 7)[:nd], c))
        w = rng.normal(size=(*(k,) * nd, c, f))
        dz = rng.normal(size=model._conv_batch(x, w).shape)
        dx, _ = _conv_bwd(dz, x, w, need_dx=True)
        pad = [(0, 0)] * len(lead) + [(k - 1, k - 1)] * nd + [(0, 0)]
        w_flip = np.flip(w, axis=tuple(range(nd))).swapaxes(-1, -2)
        np.testing.assert_array_equal(dx, model._conv_batch(np.pad(dz, pad), w_flip))

    def test_short_1d_window_names_the_kernel(self, rng):
        layers = (ConvSpec(2, 4), ConvSpec(2, 4), ConvSpec(2, 4))
        spec = ModelSpec((BranchSpec("s", 2, layers),), hidden=3, classes=2)
        X = {"s": rng.normal(size=(2, 8, 2))}  # 8 -> 5 -> 2 rows, third layer starves
        with pytest.raises(ValueError, match="shorter than kernel"):
            backward(spec, init_params(spec, seed=0), X, np.array([0, 1]))


def _two_class_separable(rng, n=40, t=16):
    """Two zero-mean tones at distinct frequencies; linearly separable by
    construction (a perceptron on flattened frames must converge). Zero-mean
    matters: a bias-free ReLU net cannot represent constant-offset classes."""
    X = {"s": np.zeros((n, t, 1))}
    y = np.zeros(n, dtype=np.int64)
    k = np.arange(t)
    for i in range(n):
        cls = i % 2
        f = 2.0 if cls == 0 else 5.0
        X["s"][i, :, 0] = 0.8 * np.sin(2 * np.pi * f * k / t + 0.3)
        X["s"][i, :, 0] += 0.1 * rng.normal(size=t)
        y[i] = cls
    return X, y


def _perceptron_separable(X, y, epochs=200):
    flat = X["s"].reshape(X["s"].shape[0], -1)
    flat = np.hstack([flat, np.ones((flat.shape[0], 1))])
    w = np.zeros(flat.shape[1])
    t = np.where(y == 1, 1.0, -1.0)
    for _ in range(epochs):
        errs = 0
        for xi, ti in zip(flat, t):
            if ti * (xi @ w) <= 0:
                w += ti * xi
                errs += 1
        if errs == 0:
            return True
    return False


class TestTrain:
    def _spec(self):
        layers = (ConvSpec(3, 3), ConvSpec(3, 3), ConvSpec(3, 3))
        return ModelSpec((BranchSpec("s", 1, layers),), hidden=8, classes=2)

    def test_separable_set_reaches_95(self, rng):
        X, y = _two_class_separable(rng)
        assert _perceptron_separable(X, y), "oracle says the set is not separable"
        spec = self._spec()
        params, _ = train(spec, (X, y), TrainConfig(epochs=50, batch_size=8,
                                                    lr=3e-3, seed=0))
        _, acc = evaluate(spec, params, X, y)
        assert acc >= 0.95

    def test_zero_epochs_leaves_params_unchanged(self, rng):
        X, y = _two_class_separable(rng)
        spec = self._spec()
        p0 = init_params(spec, seed=9)
        p1, hist = train(spec, (X, y), TrainConfig(epochs=0, seed=9), params=p0)
        assert hist == []
        for a, b in zip(_iter_tensors(p0), _iter_tensors(p1)):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_bit_identical_history(self, rng):
        X, y = _two_class_separable(rng)
        spec = self._spec()
        cfg = TrainConfig(epochs=5, batch_size=8, lr=1e-3, seed=5, val_fraction=0.25)
        _, h1 = train(spec, (X, y), cfg)
        _, h2 = train(spec, (X, y), cfg)
        assert h1 == h2

    def test_full_batch_gd_loss_non_increasing(self, rng):
        # five plain gradient-descent steps at lr 1e-4 on a smooth region
        X, y = _two_class_separable(rng)
        spec = self._spec()
        params = init_params(spec, seed=2)
        losses = []
        for _ in range(6):
            loss, grads = backward(spec, params, X, y)
            losses.append(loss)
            for w, g in zip(_iter_tensors(params), _iter_tensors(grads)):
                w -= 1e-4 * g
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_reports_epoch(self, rng):
        X = {"s": rng.normal(size=(12, 16, 1)) * 1e120}
        y = (np.arange(12) % 2).astype(np.int64)
        spec = self._spec()
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(spec, (X, y), TrainConfig(epochs=5, lr=1e100, seed=0))

    def test_history_is_the_epochs_batch_means(self, rng, monkeypatch):
        X, y = _two_class_separable(rng)
        spec = self._spec()
        cfg = TrainConfig(epochs=2, batch_size=8, lr=3e-3, seed=4, val_fraction=0.25)
        calls = []

        def recording(spec_, params, Xb, yb, **kw):
            calls.append((params.copy(), Xb, yb))
            return backward(spec_, params, Xb, yb, **kw)

        monkeypatch.setattr(train_mod, "backward", recording)
        _, hist = train(spec, (X, y), cfg)
        n_tr = y.size - cfg.n_val(y.size)
        per_epoch = -(-n_tr // cfg.batch_size)
        assert len(hist) == 2 and len(calls) == 2 * per_epoch
        for epoch, row in enumerate(hist):
            loss_sum, correct = 0.0, []
            for params, Xb, yb in calls[epoch * per_epoch : (epoch + 1) * per_epoch]:
                loss, _ = backward(spec, params, Xb, yb, correct=correct)
                loss_sum += loss * yb.size
                hits = np.argmax(model.forward_batch(spec, params, Xb), axis=1) == yb
                assert correct[-1] == int(np.count_nonzero(hits))
            assert row["batch_loss"] == loss_sum / n_tr
            assert row["batch_acc"] == sum(correct) / n_tr

    def test_one_training_split_pass_per_run(self, rng, monkeypatch):
        X, y = _two_class_separable(rng)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=2, val_fraction=0.25)
        frames = []

        def counting(spec_, params, Xe, ye):
            frames.append(len(ye))
            return evaluate(spec_, params, Xe, ye)

        monkeypatch.setattr(train_mod, "evaluate", counting)
        train(self._spec(), (X, y), cfg)
        n_val = cfg.n_val(y.size)
        assert frames == [n_val] * cfg.epochs + [y.size - n_val]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_final_weights_checked(self, rng, monkeypatch):
        # one batch, one epoch: the only batch loss is finite, and the step
        # it takes makes weights whose training loss is not
        X = {"s": rng.normal(size=(12, 16, 1)) * 1e120}
        y = (np.arange(12) % 2).astype(np.int64)
        losses = []

        def recording(*args, **kw):
            loss, grads = backward(*args, **kw)
            losses.append(loss)
            return loss, grads

        monkeypatch.setattr(train_mod, "backward", recording)
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(self._spec(), (X, y), TrainConfig(epochs=1, batch_size=16, lr=1e100,
                                                    seed=0, val_fraction=0.0))
        assert len(losses) == 1 and np.isfinite(losses[0])

    def test_label_range_checked(self, rng):
        X, y = _two_class_separable(rng)
        with pytest.raises(ValueError):
            train(self._spec(), (X, y + 5), TrainConfig(epochs=1))

    def test_history_csv(self, tmp_path, rng):
        X, y = _two_class_separable(rng)
        _, hist = train(self._spec(), (X, y), TrainConfig(epochs=2, seed=1))
        out = tmp_path / "h.csv"
        history_to_csv(hist, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "epoch,batch_loss,batch_acc,val_loss,val_acc"
        assert len(lines) == 3


class TestImportance:
    def test_softmax_sums_to_one(self):
        rep = ImportanceReport(["a", "b", "c"], [0.3, -1.2, 4.0])
        assert sum(rep.softmax) == pytest.approx(1.0, abs=1e-9)

    def test_ranking_shift_invariant(self):
        rep1 = ImportanceReport(["a", "b", "c"], [0.3, -1.2, 4.0])
        rep2 = ImportanceReport(["a", "b", "c"], [10.3, 8.8, 14.0])
        assert rep1.ranking == rep2.ranking

    def test_single_modality_softmax_is_one(self):
        rep = ImportanceReport(["only"], [3.7])
        assert rep.softmax == [1.0]

    def test_select_top_k(self):
        # ranking mirrors the reference rig's published importance ordering
        rep = ImportanceReport(
            ["optical", "magnetic", "motion", "tof", "thermal", "gas", "baro"],
            [0.240, 0.231, 0.180, 0.175, 0.098, 0.061, 0.012],
        )
        assert select_modalities(rep, 4) == ["optical", "magnetic", "motion", "tof"]
        assert select_modalities(rep, len(rep.sensors)) == rep.ranking
        assert select_modalities(rep, 1) == ["optical"]

    def test_select_bounds(self):
        rep = ImportanceReport(["a", "b"], [1.0, 0.0])
        with pytest.raises(ValueError):
            select_modalities(rep, 0)
        with pytest.raises(ValueError):
            select_modalities(rep, 3)

    def test_select_is_pure_in_ranking(self):
        rep = ImportanceReport(["a", "b", "c"], [1.0, 3.0, 2.0])
        perm = ImportanceReport(["c", "a", "b"], [2.0, 1.0, 3.0])
        assert select_modalities(rep, 2) == select_modalities(perm, 2)

    def test_identical_copies_near_uniform_alpha(self):
        # two branches fed the same data should split the softmax evenly
        sensors = [SensorSpec("u", 2, 20), SensorSpec("v", 2, 20)]
        bundle = gen_dataset(sensors, classes=3, n_per_class=16, noise_level=0.0,
                             seed=5, window_s=1.0)
        X, y = bundle_arrays(bundle, ["u", "v"])
        X["v"] = X["u"].copy()
        spec = feature_fusion_spec(sensors, filters=3, kernel=3, hidden=8,
                                   classes=3, alpha_enabled=True)
        devs = []
        for seed in range(4):
            _, _, rep = train_importance(spec, (X, y),
                                         TrainConfig(epochs=15, lr=3e-3, seed=seed))
            devs.append(abs(rep.softmax[0] - 0.5))
        assert float(np.mean(devs)) <= 0.15

    def test_noise_modality_ranks_last(self):
        sensors = [SensorSpec("sig", 3, 32), SensorSpec("junk", 2, 25)]
        bundle = gen_dataset(sensors, classes=3, n_per_class=20,
                             informative={"sig": True, "junk": False},
                             noise_level=0.2, seed=8, window_s=1.0)
        X, y = bundle_arrays(bundle, ["sig", "junk"])
        spec = feature_fusion_spec(sensors, filters=4, kernel=3, hidden=12,
                                   classes=3, alpha_enabled=True)
        for seed in (0, 1):
            _, _, rep = train_importance(spec, (X, y),
                                         TrainConfig(epochs=25, lr=3e-3, seed=seed))
            assert rep.ranking[-1] == "junk"

    def test_requires_alpha_spec(self, rng):
        spec = tiny_spec(rng)
        X = random_inputs(spec, rng, batch=4)
        y = rng.integers(0, spec.classes, size=4)
        with pytest.raises(ValueError):
            train_importance(spec, (X, y), TrainConfig(epochs=1))
