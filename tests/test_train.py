import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgehar import model, train as train_mod
from edgehar.daq import SensorSpec, bundle_arrays, gen_dataset
from edgehar.model import (BranchSpec, ConvSpec, ModelSpec, data_fusion_spec,
                           feature_fusion_spec)
from edgehar.seeding import substream
from edgehar.train import (
    ImportanceReport,
    TrainConfig,
    TrainingDiverged,
    backward,
    evaluate,
    history_to_csv,
    init_params,
    select_modalities,
    train,
    train_importance,
    _ce_loss_grad,
    _conv_bwd,
    _iter_tensors,
)

import oracles
from conftest import random_inputs, rows_for, tiny_spec


class TestLossCE:
    def test_uniform_logits(self):
        loss, _ = _ce_loss_grad(np.zeros((1, 10)), np.array([3]))
        assert loss == pytest.approx(math.log(10), abs=1e-9)

    def test_saturated_correct(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        assert _ce_loss_grad(logits, np.array([2]))[0] == pytest.approx(0.0, abs=1e-9)

    def test_closed_form(self):
        assert _ce_loss_grad(np.array([[1.0, 0.0]]), np.array([1]))[0] == pytest.approx(
            math.log(1 + math.e), abs=1e-6
        )

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            _ce_loss_grad(np.zeros((1, 3)), np.array([3]))


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


class TestBlasThreads:
    # OpenBLAS reads its thread count once, when numpy loads, so each count
    # runs in a process of its own: a thermal-shaped backward, 4 frames of 32
    # timesteps of the 24 x 32 grid at K 5 and 8 filters, prints one digest
    # per gradient tensor
    SCRIPT = """
import hashlib
import numpy as np
from edgehar.daq import CATALOG
from edgehar.model import feature_fusion_spec
from edgehar.train import _iter_tensors, backward, init_params
spec = feature_fusion_spec([CATALOG["thermal"]], filters=8, kernel=5, hidden=16, classes=3)
X = {"thermal": np.random.default_rng(0).uniform(-1, 1, size=(4, 32, 768))}
_, grads = backward(spec, init_params(spec, seed=0), X, np.array([0, 1, 2, 0]))
for g in _iter_tensors(grads):
    print(hashlib.sha256(g.tobytes()).hexdigest())
"""

    def test_thermal_gradients_same_bytes_at_1_and_2_threads(self):
        # every im2col block is at most model._BLOCK_ROWS patch rows, which
        # OpenBLAS sums in one order at either thread count
        src = str(Path(model.__file__).resolve().parents[1])
        digests = [subprocess.run(
            [sys.executable, "-c", self.SCRIPT], capture_output=True, text=True, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src),
        ).stdout.split() for threads in (1, 2)]
        assert len(digests[0]) == 5 and digests[0] == digests[1]


class TestRowPath:
    """Backward through a 2D gmax branch's lead-row mask: the masked backward
    gives the unmasked one's gradients byte for byte, wherever the block map
    runs."""

    @staticmethod
    def _masks(monkeypatch):
        """Spy on _conv_bwd: (mask or None, input shape, need_dx, nonzero dZ
        rows) per call."""
        calls = []

        def spy(dz, x, w, need_dx, need=None):
            live = np.count_nonzero(dz.reshape(-1, dz.shape[-1]).any(axis=1))
            calls.append((None if need is None else need.copy(), x.shape, need_dx, live))
            return _conv_bwd(dz, x, w, need_dx, need)

        monkeypatch.setattr(train_mod, "_conv_bwd", spy)
        return calls

    @staticmethod
    def _both_paths(monkeypatch, spec, params, X, y, block_bytes=1):
        """(masked, unmasked) gradients, by default at one patch row per block
        (one grid row of positions in 2D), so that the mask skips every block
        it can, and the masked run's _conv_bwd calls (see _masks)."""
        if block_bytes:
            monkeypatch.setattr(model, "_COL_BLOCK_BYTES", block_bytes)
        with monkeypatch.context() as dense:
            dense.setattr(train_mod, "_held_rows", lambda h, idx: None)
            want = backward(spec, params, X, y)[1]
        calls = TestRowPath._masks(monkeypatch)
        got = backward(spec, params, X, y)[1]
        return got, want, calls

    @staticmethod
    def _blocks_run(monkeypatch, *modules):
        """Spy on the block map these modules call: (blocks run, blocks) per
        call with a mask."""
        counts, real = [], model._map_blocks

        def spy(x, k, nd, dtype, fn, need=None):
            results = real(x, k, nd, dtype, fn, need)
            if need is not None:
                counts.append((len(results), len(real(x, k, nd, dtype, lambda r, c: None))))
            return results

        for module in modules:
            monkeypatch.setattr(module, "_map_blocks", spy)
        return counts

    @staticmethod
    def _assert_same_bytes(got, want):
        for g, w in zip(_iter_tensors(got), _iter_tensors(want)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("block_bytes", [1, 6000])
    @pytest.mark.parametrize("lone", [False, True])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_layer_equals_dense(self, rng, monkeypatch, workers, nd, lone, block_bytes):
        # dZ is nonzero in the masked lead rows alone: one interior row, or the
        # first, the last and two drawn between, some entries zero and one row
        # with only two filters. Blocks hold one patch row (one grid row of
        # positions in 2D), or several lead rows, so that a block is held by
        # one row only
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", block_bytes)
        k, c, f = 3, 2, 9
        x = rng.normal(size=((6, 13) if nd == 1 else (3, 2, 7, 6)) + (c,))
        w = rng.normal(size=(*(k,) * nd, c, f))
        out = model._conv_batch(x, w).shape
        lead = out[: -nd - 1]
        need = np.zeros(math.prod(lead), bool)
        need[[need.size // 2] if lone else [0, need.size - 1, *rng.choice(need.size, 2)]] = True
        live = need.reshape(*lead, *(1,) * (nd + 1)) & (rng.random(out) < 0.7)
        dz = np.where(live, rng.normal(size=out), 0.0)
        dz.reshape(need.size, -1, f)[need.argmax(), 0] = [1.5, -2.0, *(0.0,) * (f - 2)]
        want_dx, want_dw = _conv_bwd(dz, x, w, need_dx=True)
        dx, dw = _conv_bwd(dz, x, w, need_dx=True, need=need)
        assert dw.tobytes() == want_dw.tobytes()
        assert dx.dtype == want_dx.dtype and dx.tobytes() == want_dx.tobytes()
        # at one patch row (2D: one grid row of positions) per block the mask
        # skips blocks, whose rows of dX are zero without being computed
        kept = model._map_blocks(x, k, nd, x.dtype, lambda rows, cols: None, need)
        every = model._map_blocks(x, k, nd, x.dtype, lambda rows, cols: None)
        assert 0 < len(kept) < len(every) if block_bytes == 1 else 0 < len(kept)
        # layer 0: the same dW and no dX
        dx0, dw0 = _conv_bwd(dz, x, w, need_dx=False, need=need)
        assert dx0 is None and dw0.tobytes() == want_dw.tobytes()

    @staticmethod
    def _hot_spots(spec, rng, rows):
        """Frames zero but for one sample at the first position of frame 0 and
        one at the last of the last frame, and positive noise between; every
        weight positive and the last layer's two filters equal, so the two
        share their maximum and zero regions leave ReLU-dead rows."""
        (branch,) = spec.branches
        X = rng.uniform(0.1, 1.0, size=(6, rows, branch.channels))
        X[0], X[-1] = 0.0, 0.0
        X[0, 0, 0], X[-1, -1, -1] = 1.0, 1.0
        params = init_params(spec, seed=5)
        params.branch_weights[0] = [np.abs(w) for w in params.branch_weights[0]]
        params.branch_weights[0][2][..., 1] = params.branch_weights[0][2][..., 0]
        return params, {branch.name: X}

    @pytest.mark.parametrize("nd", [1, 2])
    def test_backward_equals_dense_and_central_differences(self, rng, monkeypatch, workers,
                                                           nd):
        layers = (ConvSpec(2, 3),) * 3
        grid = (7, 8) if nd == 2 else None
        branch = BranchSpec("s", 56 if nd == 2 else 1, layers, conv_dim=nd, grid=grid)
        spec = ModelSpec((branch,), hidden=4, classes=3)
        rows = 2 if nd == 2 else 14
        params, X = self._hot_spots(spec, rng, rows)
        y = np.array([0, 1, 2, 0, 1, 2])
        got, want, calls = self._both_paths(monkeypatch, spec, params, X, y)
        self._assert_same_bytes(got, want)
        assert [need_dx for _, _, need_dx, _ in calls] == [True, True, False]
        masks = [need for need, _, _, _ in calls]
        if nd == 1:
            assert masks == [None] * 3
        else:
            # one mask for all three layers, over 6 frames of 2 timesteps: frame
            # 0's maxima lie in its first timestep and frame 5's in its last
            assert all(m.tobytes() == masks[0].tobytes() for m in masks)
            assert masks[0][[0, 11]].all() and not masks[0][[1, 10]].any()
        assert (model._POOL is not None) == (workers > 1)

        def loss_fn():
            return backward(spec, params, X, y)[0]

        numeric = oracles.finite_diff_grads(loss_fn, list(_iter_tensors(params)))
        assert oracles.max_rel_error(list(_iter_tensors(got)), numeric) < 1e-4

    def test_zero_frame_leaves_an_empty_row_list(self, rng, monkeypatch):
        # all-zero frames: every maximum is 0, at each frame's first position,
        # so the mask holds each frame's first timestep, and no layer's dZ has
        # a nonzero row
        spec = ModelSpec((BranchSpec("s", 56, (ConvSpec(2, 3),) * 3, conv_dim=2,
                                     grid=(7, 8)),), hidden=3, classes=2)
        X = {"s": np.zeros((3, 4, 56))}
        got, want, calls = self._both_paths(monkeypatch, spec, init_params(spec, seed=4),
                                            X, np.array([0, 1, 1]))
        self._assert_same_bytes(got, want)
        assert all(np.all(g == 0.0) for g in got.branch_weights[0])
        first = (np.arange(12) % 4 == 0).tobytes()
        assert [(need.tobytes(), need_dx, live) for need, _, need_dx, live in calls] == [
            (first, True, 0), (first, True, 0), (first, False, 0)]

    @pytest.mark.parametrize("pools", [(None, None, 2), (None, 2, None), (2, None, None)])
    def test_pooled_layers_take_the_mask(self, rng, monkeypatch, pools):
        # a 2D pool runs on each timestep's grid, so the head's mask holds the
        # gradient of every layer, above a pool and below it
        layers = tuple(ConvSpec(2, 3, p) for p in pools)
        spec = ModelSpec((BranchSpec("s", 156, layers, conv_dim=2, grid=(12, 13)),),
                         hidden=3, classes=2)
        X = random_inputs(spec, rng, batch=3, rows={"s": 2})
        got, want, calls = self._both_paths(monkeypatch, spec, init_params(spec, seed=6),
                                            X, np.array([0, 1, 1]))
        self._assert_same_bytes(got, want)
        masks = [need for need, _, _, _ in calls]
        assert len(masks) == 3 and all(m is not None and m.size == 6 for m in masks)
        assert all(m.tobytes() == masks[0].tobytes() for m in masks)

    @pytest.mark.parametrize("block_bytes, taken", [(None, []), (1, [True, True, False])])
    def test_lone_block_layers_stay_dense(self, rng, monkeypatch, block_bytes, taken):
        # every layer's patch matrix fits one block of model._COL_BLOCK_BYTES,
        # which its mask holds, so every block runs; at one grid row of
        # positions per block the mask skips some blocks of each layer's dW
        # and dX
        if block_bytes:
            monkeypatch.setattr(model, "_COL_BLOCK_BYTES", block_bytes)
        spec = ModelSpec((BranchSpec("s", 56, (ConvSpec(2, 3),) * 3, conv_dim=2,
                                     grid=(7, 8)),), hidden=3, classes=2)
        X = random_inputs(spec, rng, batch=3, rows={"s": 4})
        counts = self._blocks_run(monkeypatch, train_mod, model)  # dW's map, and dX's
        masks = self._masks(monkeypatch)
        backward(spec, init_params(spec, seed=6), X, np.array([0, 1, 1]))
        assert all(need is not None and not need.all() for need, _, _, _ in masks)
        # dW and dX of layers 2 and 1, then layer 0's dW
        skips = [run < n for run, n in counts]
        assert len(skips) == 5 and skips[1::2] == [bool(taken)] * 2
        assert [need_dx for (_, _, need_dx, _), s in zip(masks, skips[0::2]) if s] == taken

    def test_flatten_head_stays_dense(self, rng, monkeypatch):
        spec = model.data_fusion_spec(8, 12, filters=2, kernel=3, hidden=3, classes=2)
        X = {"fused": rng.uniform(-1, 1, size=(3, 12, 8))}
        got, want, calls = self._both_paths(monkeypatch, spec, init_params(spec, seed=6),
                                            X, np.array([0, 1, 1]))
        self._assert_same_bytes(got, want)
        assert [need for need, _, _, _ in calls] == [None] * 3

    def test_rig_thermal_takes_rows_and_smoke_stays_dense(self, tmp_path, monkeypatch):
        # the shipped block size: the rig's thermal layers pass the mask, its
        # 1D branches and every smoke layer none
        from edgehar import cli

        root = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
        cfg = cli.parse_config(json.loads((root / "rig.json").read_text()))
        rng = np.random.default_rng(0)
        b = cfg.train.batch_size
        X = {s.name: rng.uniform(-1, 1, size=(b, cfg.rows[s.name], s.channels))
             for s in cfg.sensors}
        calls = self._masks(monkeypatch)
        counts = self._blocks_run(monkeypatch, train_mod)  # dW's block map
        y = np.arange(b) % cfg.spec.classes
        backward(cfg.spec, init_params(cfg.spec, cfg.train.seed), X, y)
        thermal = cfg.rows["thermal"]
        assert [x[:2] for need, x, _, _ in calls if need is not None] == [(b, thermal)] * 3
        assert len(calls) == 3 * len(cfg.sensors)
        # thermal layers 2 and 1 run under half of their dW blocks
        assert len(counts) == 3 and all(1 < n and run < n / 2 for run, n in counts[:2])

        del calls[:]
        smoke = json.loads((root / "smoke.json").read_text())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(smoke, out=str(tmp_path / "out"))))
        for stage in ("gen-data", "train", "select"):
            assert cli.main([stage, "--config", str(path)]) == 0, stage
        assert len(calls) > 0 and all(need is None for need, _, _, _ in calls)

    def test_thermal_shape_same_bytes(self, monkeypatch):
        # the thermal grid's own block sizes: layer 0's blocks are 5,040 rows
        from edgehar.daq import CATALOG

        thermal = CATALOG["thermal"]
        spec = feature_fusion_spec([thermal], filters=8, kernel=5, hidden=32, classes=4)
        params = init_params(spec, seed=0)
        X = {"thermal": np.random.default_rng(0).uniform(
            -1, 1, size=(4, int(thermal.rate_hz), thermal.channels))}
        got, want, calls = self._both_paths(monkeypatch, spec, params, X, np.arange(4),
                                            block_bytes=None)
        self._assert_same_bytes(got, want)
        assert [need is not None for need, _, _, _ in calls] == [True] * 3


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
        p1, hist = train(spec, (X, y), TrainConfig(epochs=0, seed=9))
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
            calls.append((copy.deepcopy(params), Xb, yb))
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
        frames = _evaluated_frames(monkeypatch)
        first, _ = train(self._spec(), (X, y), cfg)
        n_val = cfg.n_val(y.size)
        # the bound walk proves these weights' loss finite: no training-split pass
        assert frames == [n_val] * cfg.epochs
        # with nothing provable, one pass over the training split checks it
        frames.clear()
        monkeypatch.setattr(train_mod, "_BOUND_LIMIT", 0.0)
        second, _ = train(self._spec(), (X, y), cfg)
        assert frames == [n_val] * cfg.epochs + [y.size - n_val]
        assert all(np.array_equal(a, b) for a, b in
                   zip(_iter_tensors(first), _iter_tensors(second)))

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

    @pytest.mark.parametrize("frames", [10, 14])
    def test_frames_must_match_labels(self, rng, frames):
        # 10 frames for 12 labels once failed deep in numpy, and 14 trained
        # without reading the last 2
        X = {"s": rng.normal(size=(frames, 16, 1))}
        y = (np.arange(12) % 2).astype(np.int64)
        msg = f"sensor 's' holds {frames} frames for 12 labels"
        with pytest.raises(ValueError, match=msg):
            train(self._spec(), (X, y), TrainConfig(epochs=1))
        with pytest.raises(ValueError, match=msg):
            evaluate(self._spec(), init_params(self._spec()), X, y)

    def test_history_csv(self, tmp_path, rng):
        X, y = _two_class_separable(rng)
        _, hist = train(self._spec(), (X, y), TrainConfig(epochs=2, seed=1))
        out = tmp_path / "h.csv"
        history_to_csv(hist, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "epoch,batch_loss,batch_acc,val_loss,val_acc"
        assert len(lines) == 3


class TestTrainConfig:
    @pytest.mark.parametrize("name, value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf), ("lr", -math.inf),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan), ("eps", math.inf),
    ])
    def test_nonpositive_or_non_finite_lr_and_eps_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a number > 0, got {value!r}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("epochs", 1.5), ("epochs", True), ("batch_size", 2.5), ("batch_size", True),
        ("seed", 1.5), ("seed", False), ("seed", "1"),
    ])
    def test_non_int_counts_and_seed_rejected(self, name, value):
        # a float reached range() deep in train, and a bool ran as 1 or 0
        least = {"batch_size": 1}.get(name, 0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got {value!r}$"):
            TrainConfig(**{name: value})

    def test_smallest_positive_lr_and_eps_accepted(self):
        tiny = math.ulp(0.0)
        assert TrainConfig(lr=tiny, eps=tiny).eps == tiny


class TestFlatAdam:
    """The flat Adam update gives the bytes of the update tensor by tensor
    (oracles.AdamPerTensor), and train's tensors are views into its vector."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_per_tensor(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spec = tiny_spec(rng, with_2d=data.draw(st.booleans(), label="2d"),
                         alpha=data.draw(st.booleans(), label="alpha"))
        params = init_params(spec, seed=int(rng.integers(100)))
        cfg = TrainConfig(lr=data.draw(st.sampled_from([1e-3, 3e-3, 0.5]), label="lr"),
                          beta1=data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="beta1"),
                          beta2=data.draw(st.sampled_from([0.0, 0.9, 0.999]), label="beta2"),
                          eps=data.draw(st.sampled_from([1e-8, 1e-300, 1.0]), label="eps"))
        want = [w.copy() for w in _iter_tensors(params)]
        opt, oracle = train_mod._Adam(params, cfg), oracles.AdamPerTensor(want, cfg)
        got = list(_iter_tensors(opt.params))
        assert [w.shape for w in got] == [w.shape for w in want]
        assert all(np.shares_memory(w, opt.w) for w in got)
        for _ in range(data.draw(st.integers(1, 5), label="steps")):
            kind = data.draw(st.sampled_from(["dense", "zero", "some zero"]), label="grads")
            grads = [rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 4) for w in want]
            for g in grads:
                if kind == "zero" or (kind == "some zero" and rng.random() < 0.5):
                    g[...] = 0.0
            it = iter(grads)
            packed = model.ModelParams([[next(it) for _ in ws] for ws in params.branch_weights],
                                       next(it), next(it),
                                       None if params.alpha is None else next(it))
            opt.step(packed)
            oracle.step(want, grads)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert opt.m.tobytes() == np.concatenate(oracle.m, axis=None).tobytes()
        assert opt.v.tobytes() == np.concatenate(oracle.v, axis=None).tobytes()

    def test_trained_views_save_and_load_the_same_bytes(self, rng, tmp_path):
        spec = tiny_spec(rng, with_2d=True, alpha=True)
        X = random_inputs(spec, rng, batch=12)
        y = np.arange(12) % spec.classes
        params, _ = train(spec, (X, y), TrainConfig(epochs=2, batch_size=4, seed=3))
        tensors = list(_iter_tensors(params))
        base = tensors[0].base
        assert base is not None and all(w.base is base for w in tensors)
        copies = model.ModelParams([[w.copy() for w in ws] for ws in params.branch_weights],
                                   params.dense1.copy(), params.dense2.copy(),
                                   params.alpha.copy())
        model.save_model(tmp_path / "views.json", spec, params)
        model.save_model(tmp_path / "copies.json", spec, copies)
        saved = (tmp_path / "views.json").read_bytes()
        assert saved == (tmp_path / "copies.json").read_bytes()
        spec2, loaded, _ = model.load_model(tmp_path / "views.json")
        model.save_model(tmp_path / "again.json", spec2, loaded)
        assert (tmp_path / "again.json").read_bytes() == saved


class TestUnmax:
    """_unmax and _held_rows give the bytes of their np.put_along_axis forms
    (oracles.unmax_along_axis, oracles.held_rows_along_axis)."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_put_along_axis(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["gmax 1d", "gmax 2d", "pool 1d", "pool 2d"]),
                         label="windows")
        nd = int(kind[-2])
        batch, f = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lead = (batch,) if nd == 1 else (batch, int(rng.integers(1, 4)))
        spatial = tuple(int(d) for d in rng.integers(1, 9, size=nd))
        # ties, so that each window's first maximal element is the one chosen
        h = rng.integers(-2, 3, size=(*lead, *spatial, f)).astype(np.float64)
        if kind.startswith("gmax"):
            win = model._head(_GMAX_1D if nd == 1 else _GMAX_2D, h)[1]
        else:
            p = data.draw(st.integers(1, min(spatial)), label="pool")
            win = model._pool_windows(h, p, nd)
        idx = win.argmax(axis=-2)
        dout = rng.normal(size=idx.shape)
        got = train_mod._unmax(dout, idx, win.shape[-2])
        want = oracles.unmax_along_axis(dout, idx, win.shape[-2])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if kind == "gmax 2d":
            held = train_mod._held_rows(h, idx)
            assert held.tobytes() == oracles.held_rows_along_axis(h, idx).tobytes()


_GMAX_1D = BranchSpec("g", 1, (ConvSpec(1, 1),) * 3)
_GMAX_2D = BranchSpec("g", 1, (ConvSpec(1, 1),) * 3, conv_dim=2, grid=(1, 1))


def _evaluated_frames(monkeypatch) -> list[int]:
    """The frame count of each evaluate call train makes from now on."""
    frames = []

    def counting(spec_, params, Xe, ye):
        frames.append(len(ye))
        return evaluate(spec_, params, Xe, ye)

    monkeypatch.setattr(train_mod, "evaluate", counting)
    return frames


class TestLossBound:
    """The bound walk that lets train skip its final training-split pass."""

    @staticmethod
    def _observed(walk, spec, params, X):
        seen = {}

        def keep(key, x, a, win):
            seen[key] = (x, a)

        return seen, walk(spec, params, X, keep)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_walk_bounds_every_value(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        batch = data.draw(st.integers(1, 5), label="batch")
        if data.draw(st.booleans(), label="data fusion"):
            rows, cols = int(rng.integers(5, 9)), int(rng.integers(5, 9))
            spec = data_fusion_spec(cols, rows, filters=3, kernel=2, hidden=4, classes=3)
            X = {"fused": rng.normal(size=(batch, rows, cols))}
        else:
            spec = tiny_spec(rng, with_2d=data.draw(st.booleans(), label="2d"),
                             alpha=data.draw(st.booleans(), label="alpha"),
                             pools=data.draw(st.booleans(), label="pools"))
            X = random_inputs(spec, rng, batch)
        params = init_params(spec, seed=int(rng.integers(100)))
        for ws in params.branch_weights:
            for w in ws:
                w *= 10.0 ** data.draw(st.integers(-3, 3), label="weight decade")
        params.dense1 *= 10.0 ** data.draw(st.integers(-3, 3), label="dense1 decade")
        params.dense2 *= 10.0 ** data.draw(st.integers(-3, 3), label="dense2 decade")
        if spec.alpha_enabled:
            params.alpha[:] = rng.normal(scale=2.0, size=params.alpha.shape)
        for x in X.values():  # frames decades apart: the largest |x| is far above the mean
            x *= 10.0 ** rng.uniform(-3, 3, size=(batch, 1, 1))

        real, logits = self._observed(model._walk, spec, params, X)
        bound, bound_logits = self._observed(train_mod._bound_walk, spec, params, X)
        assert bound_logits.shape == (1, spec.classes) and real.keys() == bound.keys()
        # a GEMM may sum a 1-frame batch in another order: allow its rounding
        tol = 1 + 1e-9
        for key in real:
            for r, b in zip(real[key], bound[key]):
                assert np.all(np.abs(r) <= b * tol), key
        assert np.all(np.abs(logits) <= bound_logits * tol)
        assert train_mod._loss_proven_finite(spec, params, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_never_proven(self, rng, bad):
        spec = tiny_spec(rng, with_2d=True, alpha=True, pools=True)
        X = random_inputs(spec, rng, batch=3)
        params = init_params(spec, seed=5)
        params.alpha[:] = rng.normal(size=params.alpha.shape)
        assert train_mod._loss_proven_finite(spec, params, X)
        for t in [*_iter_tensors(params), *X.values()]:
            at = tuple(int(rng.integers(d)) for d in t.shape)
            kept, t[at] = t[at], bad
            assert not train_mod._loss_proven_finite(spec, params, X), (t.shape, bad)
            t[at] = kept

    @pytest.mark.parametrize("alpha", [False, True])
    def test_2d_gmax_branch_walks_one_timestep(self, rng, alpha):
        # the walk over every timestep of the constant frame, as it ran before
        spec = tiny_spec(rng, with_2d=True, alpha=alpha, pools=True)
        grid = spec.branches[-1]
        rows = rows_for(spec, rng) | {grid.name: 6}
        X = random_inputs(spec, rng, batch=3, rows=rows)
        X[grid.name][1, -1] *= 50.0  # the largest |x| is in no frame's first timestep
        params = init_params(spec, seed=4)
        if alpha:
            params.alpha[:] = rng.normal(size=params.alpha.shape)
        absolute = model.ModelParams([[np.abs(w) for w in ws] for ws in params.branch_weights],
                                     np.abs(params.dense1), np.abs(params.dense2), params.alpha)
        full = {k: np.full((1, *x.shape[1:]), np.abs(x).max()) for k, x in X.items()}
        walks = []
        for walk, args in ((model._walk, (spec, absolute, full)),
                           (train_mod._bound_walk, (spec, params, X))):
            peaks, lead = [], {}

            def keep(key, x, a, win):
                peaks.append((key, a.max()))
                lead.setdefault(key, x.shape[1])

            walks.append((walk(*args, keep), peaks, lead))
        (logits, peaks, lead), (one_logits, one_peaks, one_lead) = walks
        bi = len(spec.branches) - 1
        assert lead[(bi, 0)] == 6 and one_lead[(bi, 0)] == 1
        assert np.array_equal(one_logits, logits)
        assert one_peaks == peaks

    def test_nan_in_a_held_out_frame_falls_back(self, rng, monkeypatch):
        X, y = _two_class_separable(rng)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=2, val_fraction=0.25)
        n_val = cfg.n_val(y.size)
        X["s"][substream(cfg.seed, "split").permutation(y.size)[0], 3, 0] = np.nan
        layers = (ConvSpec(3, 3), ConvSpec(3, 3), ConvSpec(3, 3))
        spec = ModelSpec((BranchSpec("s", 1, layers),), hidden=8, classes=2)
        frames = _evaluated_frames(monkeypatch)
        _, hist = train(spec, (X, y), cfg)
        assert frames == [n_val] * cfg.epochs + [y.size - n_val]
        assert all(np.isnan(row["val_loss"]) for row in hist)

    def test_minus_inf_alpha_falls_back(self, rng, monkeypatch):
        # softmax gives a -inf alpha the weight 0, so training runs on, but the
        # bound walk alone would not see it
        layers = (ConvSpec(3, 3), ConvSpec(3, 3), ConvSpec(3, 3))
        spec = ModelSpec((BranchSpec("s", 1, layers), BranchSpec("t", 1, layers)),
                         hidden=8, classes=2, alpha_enabled=True)
        X, y = _two_class_separable(rng)
        X["t"] = X["s"][:, ::-1].copy()
        real_init = train_mod.init_params

        def minus_inf_alpha(spec_, seed=0):
            params = real_init(spec_, seed)
            params.alpha[0] = -np.inf
            return params

        monkeypatch.setattr(train_mod, "init_params", minus_inf_alpha)
        frames = _evaluated_frames(monkeypatch)
        params, _ = train(spec, (X, y), TrainConfig(epochs=2, batch_size=8, seed=3))
        assert params.alpha[0] == -np.inf
        assert frames == [y.size]


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
