import copy
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgehar import model
from edgehar.model import (
    BranchSpec,
    ConvSpec,
    ModelSpec,
    ShapeError,
    count_params,
    data_fusion_spec,
    feature_fusion_spec,
    forward_batch,
    load_model,
    normalize_inputs,
    save_model,
)
from edgehar.persist import SchemaError
from edgehar.train import init_params

import oracles
from conftest import random_inputs, rows_for, tiny_spec


def _conv(x, w, relu=False, pool=None):
    """One unbatched conv layer through the shared kernel and pool."""
    out = model._conv_batch(x[None], w)
    if relu:
        out = np.maximum(out, 0)
    if pool:
        out = model._pool_windows(out, pool, w.ndim - 2).max(axis=-2)
    return out[0]


class TestConvForward:
    def test_valid_padding_length(self, rng):
        x = rng.normal(size=(20, 3))
        w = rng.normal(size=(5, 3, 4))
        assert _conv(x, w).shape == (16, 4)

    def test_zero_input_zero_output(self, rng):
        w = rng.normal(size=(5, 3, 4))
        out = _conv(np.zeros((20, 3)), w)
        assert np.all(out == 0.0)

    def test_hand_convolution(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = np.array([[[2.0]]])
        assert _conv(x, w, relu=True).ravel().tolist() == [2.0, 4.0, 6.0]

    def test_kernel_pool_divides_length(self, rng):
        x = rng.normal(size=(21, 2))
        w = rng.normal(size=(2, 2, 3))
        assert _conv(x, w, pool=2).shape == (10, 3)  # (21-2+1)//2

    def test_too_short_input_rejected(self, rng):
        with pytest.raises(ValueError):
            _conv(rng.normal(size=(3, 2)), rng.normal(size=(5, 2, 1)))

    def test_2d_shapes(self, rng):
        x = rng.normal(size=(4, 8, 8, 1))
        w = rng.normal(size=(3, 3, 1, 5))
        assert _conv(x, w).shape == (4, 6, 6, 5)

    def test_2d_pool_takes_window_max(self, rng):
        x = rng.normal(size=(2, 7, 9, 3))
        got = model._pool_windows(x[None], 2, 2).max(axis=-2)[0]
        want = np.array([[[[x[t, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, f].max()
                            for f in range(3)] for j in range(4)] for i in range(3)]
                         for t in range(2)])
        np.testing.assert_array_equal(got, want)


class TestConvKernel:
    @pytest.mark.parametrize("c", [1, 8])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_matches_per_tap_over_several_blocks(self, rng, monkeypatch, nd, c):
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 512)
        k = 3
        lead_sp = (7, 12) if nd == 1 else (3, 4, 7, 6)
        x = rng.normal(size=(*lead_sp, c))
        w = rng.normal(size=(*(k,) * nd, c, 5))
        assert len(model._map_blocks(x, k, nd, x.dtype, lambda rows, cols: None)) > 1
        # float64 sums of at most 72 unit-scale products, reordered
        np.testing.assert_allclose(model._conv_batch(x, w), oracles.conv_per_tap(x, w),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lead", [(7,), (3, 4)])
    @pytest.mark.parametrize("c", [1, 8])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_integer_input_exact_over_several_blocks(self, rng, monkeypatch, nd, c, lead):
        # the engine's MAC: int64 x in signed 16-bit storage (n = 15) against
        # the float64 copy of weights |w| <= 2^15 is the exact int64 sum
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 512)
        n, k = 15, 3
        x = rng.integers(-(1 << n), 1 << n, size=(*lead, *((12,) if nd == 1 else (7, 6)), c))
        w = rng.integers(-(1 << n), (1 << n) + 1, size=(*(k,) * nd, c, 5))
        x.reshape(-1, c)[: x.size // c // 2] = -(1 << n)  # storage corner: every
        w[..., 0] = 1 << n  # product of filter 0 over half the input is -2^30
        assert len(model._map_blocks(x, k, nd, np.dtype(np.float64), lambda rows, cols: None)) > 1
        got = model._conv_batch(x, w.astype(np.float64))
        want = oracles.conv_per_tap(x, w)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestBlockMap:
    """On several workers the block map gives one worker's results bit for
    bit: the FP forward pass, the integer MAC and training's dW and dX."""

    # input shape (*lead, *spatial, C), spatial axes, block bytes and blocks
    # at K = 3: 13 lead rows of 960 patch bytes make 7 blocks of 2 rows and a
    # last one of 1; 9 lead rows of 2880 make 5 blocks, the last also of 1.
    # Neither count divides by 2 or 3.
    CASES = {"1d": ((13, 12, 4), 1, 2000, 7), "2d": ((3, 3, 7, 6, 2), 2, 6000, 5)}

    @staticmethod
    def _convs(x, w, dz):
        from edgehar.train import _conv_bwd

        dx, dw = _conv_bwd(dz, x, w, need_dx=True)
        q = np.rint(x * 2**12).astype(np.int64)
        return {"forward": model._conv_batch(x, w), "dx": dx, "dw": dw,
                "mac": model._conv_batch(q, np.rint(w * 2**12))}

    @pytest.mark.parametrize("case", CASES)
    def test_equals_one_worker(self, rng, monkeypatch, workers, case):
        shape, nd, block_bytes, blocks = self.CASES[case]
        k = 3
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", block_bytes)
        x = rng.uniform(-1, 1, size=shape)
        w = rng.uniform(-1, 1, size=(*(k,) * nd, shape[-1], 5))
        dz = rng.normal(size=model._conv_batch(x, w).shape)
        with monkeypatch.context() as one:
            one.setattr(model, "_WORKERS", 1)
            want = self._convs(x, w, dz)
        runs, real = [], model._run_blocks
        x_patches = (math.prod(shape[: -nd - 1]), *[d - k + 1 for d in shape[-nd - 1 : -1]],
                     *(k,) * nd, shape[-1])

        def spy(patches, blocks, *args):
            if patches.shape == x_patches:  # a pass over x, not over dX's padded dz
                runs.append((blocks[0][1].start, blocks[-1][1].stop,
                             threading.current_thread() is threading.main_thread()))
            return real(patches, blocks, *args)

        monkeypatch.setattr(model, "_run_blocks", spy)
        got = self._convs(x, w, dz)
        assert want["mac"].dtype == np.int64
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
            assert got[name].tobytes() == want[name].tobytes(), name
        # forward, dW and the MAC each split x's blocks into contiguous runs
        # of patch rows, the first on the caller's thread and the rest on the
        # pool's
        n = min(workers, blocks // 2)
        assert len(runs) == 3 * n
        for call in range(3):
            mine = sorted(runs[call * n : (call + 1) * n])
            assert [lo for lo, _, _ in mine[1:]] == [hi for _, hi, _ in mine[:-1]]
            assert mine[0][0] == 0 and mine[-1][1] == dz.size // dz.shape[-1]
            assert [main for _, _, main in mine] == [True] + [False] * (n - 1)

    def test_need_mask_skips_blocks_and_splits_the_rest(self, rng, monkeypatch, workers):
        # 13 lead rows in blocks of 2 (the 1d case); the mask needs lead rows
        # 0, 5, 6, 9 and 12, so blocks 0, 2, 3, 4 and 6 run and 1 and 5 do not
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 2000)
        x = rng.uniform(-1, 1, size=(13, 12, 4))
        need = np.zeros(13, bool)
        need[[0, 5, 6, 9, 12]] = True
        every = model._map_blocks(x, 3, 1, x.dtype, lambda rows, cols: (rows, cols.copy()))
        runs, real = [], model._run_blocks

        def spy(patches, blocks, *args):
            runs.append((blocks[0][1].start, blocks[-1][1].stop,
                         threading.current_thread() is threading.main_thread()))
            return real(patches, blocks, *args)

        monkeypatch.setattr(model, "_run_blocks", spy)
        got = model._map_blocks(x, 3, 1, x.dtype, lambda rows, cols: (rows, cols.copy()), need)
        assert [rows for rows, _ in got] == [every[b][0] for b in (0, 2, 3, 4, 6)]
        for (_, cols), b in zip(got, (0, 2, 3, 4, 6)):
            assert cols.tobytes() == every[b][1].tobytes()
        # five needed blocks: two runs on two or three workers, cut at the
        # third needed block (lead row 6, patch row 60), the first on the
        # caller's thread; a run spans its first block's first patch row to
        # its last block's end
        want = [(0, 130, True)] if workers == 1 else [(0, 60, True), (60, 130, False)]
        assert sorted(runs) == want

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_conv_need_mask_zeroes_skipped_rows(self, rng, monkeypatch, workers, nd, integer):
        # one patch row per block in 1D, one grid row of positions in 2D, so no
        # block spans two of the 9 lead rows, of which the mask needs 4: the
        # skipped rows are the bytes of np.zeros, the kept ones those of the
        # unmasked call, for the FP conv and the integer MAC
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 1)
        x = rng.uniform(-1, 1, size=((9, 12) if nd == 1 else (3, 3, 7, 6)) + (2,))
        w = rng.uniform(-1, 1, size=(*(3,) * nd, 2, 4))
        if integer:
            x, w = np.rint(x * 2**12).astype(np.int64), np.rint(w * 2**12)
        need = np.zeros(9, bool)
        need[[0, 4, 5, 8]] = True
        want = model._conv_batch(x, w)
        got = model._conv_batch(x, w, need)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.dtype == (np.int64 if integer else np.float64)
        got, want = got.reshape(9, -1), want.reshape(9, -1)
        assert got[need].tobytes() == want[need].tobytes()
        assert got[~need].tobytes() == np.zeros((5, got.shape[1]), got.dtype).tobytes()

    def test_more_workers_than_cores_under_fast_switching(self, rng, monkeypatch):
        # runs on more threads than cores, switched every microsecond, write
        # disjoint output rows and their own result lists: nothing is lost
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 2000)
        x = rng.uniform(-1, 1, size=(64, 12, 4))  # 32 blocks of 2 lead rows
        w = rng.uniform(-1, 1, size=(3, 4, 5))
        dz = rng.normal(size=(64, 10, 5))
        with monkeypatch.context() as one:
            one.setattr(model, "_WORKERS", 1)
            want = self._convs(x, w, dz)
        monkeypatch.setattr(model, "_WORKERS", 2 * (os.cpu_count() or 1) + 1)
        monkeypatch.setattr(model, "_POOL", None)
        same, errors = [], []

        def hammer():
            try:
                for _ in range(20):
                    got = self._convs(x, w, dz)
                    same.append(all(got[k].tobytes() == want[k].tobytes() for k in want))
            except Exception as e:  # reported below, from the test's thread
                errors.append(e)

        t = threading.Thread(target=hammer, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t.start()
            t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            if model._POOL is not None:
                model._POOL.shutdown(wait=False)
        assert not t.is_alive() and errors == [] and same == [True] * 20

    def test_worker_exception_reaches_caller(self, rng, monkeypatch):
        monkeypatch.setattr(model, "_WORKERS", 2)
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 2000)
        x = rng.uniform(-1, 1, size=(13, 12, 4))
        w = rng.uniform(-1, 1, size=(3, 4, 5))
        want = model._conv_batch(x, w)
        err, raised_on = ValueError("block failed"), []

        def fn(rows, cols):
            if rows.stop == 130:  # the last block, in the pool's run
                raised_on.append(threading.current_thread())
                raise err

        with pytest.raises(ValueError) as info:
            model._map_blocks(x, 3, 1, x.dtype, fn)
        assert info.value is err and raised_on[0] is not threading.main_thread()
        # the pool serves the next call
        got = model._conv_batch(x, w)
        assert got.tobytes() == want.tobytes()

    def test_caller_exception_waits_for_the_pool(self, rng, monkeypatch):
        monkeypatch.setattr(model, "_WORKERS", 2)
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 2000)
        x = rng.uniform(-1, 1, size=(13, 12, 4))
        done = []

        def fn(rows, cols):
            if rows.start == 0:
                raise KeyError("first block")
            time.sleep(0.01)
            done.append(rows.start)

        with pytest.raises(KeyError):
            model._map_blocks(x, 3, 1, x.dtype, fn)
        # blocks 3 to 6 (rows 60 to 120) are the pool's run; none outlives the call
        assert done[-4:] == [60, 80, 100, 120]


class TestBlockPlan:
    """_map_blocks plans each input shape once (_block_plan), keyed on both
    block caps as well as the shape."""

    def test_each_cap_gets_its_own_blocks(self, rng, monkeypatch):
        # 13 lead rows of 10 patch rows at K = 3, each row 96 bytes: the same
        # shape, planned under the default caps first, is cut at each cap
        x = rng.uniform(-1, 1, size=(13, 12, 4))

        def cuts():
            return model._map_blocks(x, 3, 1, x.dtype, lambda rows, cols: (rows.start, rows.stop))

        assert cuts() == [(0, 130)]
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 2000)  # 20 rows: 2 lead rows
        assert cuts() == [(a, min(a + 20, 130)) for a in range(0, 130, 20)]
        monkeypatch.setattr(model, "_BLOCK_ROWS", 4)  # 4 positions of one lead row
        assert cuts() == [(10 * i + p, 10 * i + q) for i in range(13)
                          for p, q in ((0, 4), (4, 8), (8, 10))]
        monkeypatch.setattr(model, "_COL_BLOCK_BYTES", 1 << 20)
        monkeypatch.setattr(model, "_BLOCK_ROWS", 30)  # 3 lead rows
        assert cuts() == [(a, min(a + 30, 130)) for a in range(0, 130, 30)]
        monkeypatch.undo()
        assert cuts() == [(0, 130)]

    def test_cache_is_bounded(self):
        info = model._block_plan.cache_info()
        assert info.maxsize == model._PLAN_SHAPES
        w = np.ones((3, 1, 1))
        for length in range(3, 3 + model._PLAN_SHAPES + 10):
            model._conv_batch(np.ones((1, length, 1)), w)
        assert model._block_plan.cache_info().currsize == model._PLAN_SHAPES

    @pytest.mark.parametrize("nd", [1, 2])
    def test_planned_view_holds_each_patch(self, rng, nd):
        # the view planned from the shape alone, over x's buffer (a copy of
        # a non-contiguous x), holds numpy's sliding windows, tap-major
        x = rng.uniform(-1, 1, size=(3, 2, 9, 8, 10) if nd == 2 else (4, 11, 12))[..., ::2]
        axes = tuple(range(x.ndim - nd - 1, x.ndim - 1))
        windows = np.lib.stride_tricks.sliding_window_view(x, (3,) * nd, axis=axes)
        want = np.moveaxis(windows, x.ndim - 1, -1).reshape(-1, 3**nd * x.shape[-1])
        got = model._map_blocks(x, 3, nd, x.dtype, lambda rows, cols: cols.copy())
        assert len(got) == 1 and got[0].tobytes() == want.tobytes()


class TestSplitLeads:
    """A lead index of more than model._BLOCK_ROWS patch rows is split along
    its first position axis. On integer-valued data every sum is exact, so
    the FP forward pass, the integer MAC and training's dW and dX give the
    bytes of the same call on blocks that split no lead index."""

    # input shape (*lead, *spatial, C) and spatial axes: at K = 3 a 1D lead
    # index holds 2,298 patch rows and a 2D one 48 x 48 = 2,304, and dX's
    # padded passes 2,300 and 2,500, each two blocks at the 2,240-row cap
    CASES = {"1d": ((4, 2300, 2), 1), "2d": ((2, 2, 50, 50, 1), 2)}

    @staticmethod
    def _convs(x, w, dz, need):
        from edgehar.train import _conv_bwd

        dx, dw = _conv_bwd(dz, x, w, need_dx=True, need=need)
        return {"forward": model._conv_batch(x, w, need), "dx": dx, "dw": dw,
                "mac": model._conv_batch(x.astype(np.int64), w, need)}

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_split_equals_whole(self, rng, monkeypatch, workers, case, masked):
        shape, nd = self.CASES[case]
        k = 3
        x = rng.integers(-8, 9, size=shape).astype(np.float64)
        w = rng.integers(-8, 9, size=(*(k,) * nd, shape[-1], 4)).astype(np.float64)
        dz = rng.integers(-8, 9, size=model._conv_batch(x, w).shape).astype(np.float64)
        need = None
        if masked:  # dZ is nonzero in the needed lead indices alone
            need = np.array([True, False, True, True])
            dz.reshape(4, -1)[~need] = 0.0
        rows = model._map_blocks(x, k, nd, x.dtype, lambda rows, cols: len(cols), need)
        assert len(rows) == 2 * (3 if masked else 4) and max(rows) <= model._BLOCK_ROWS
        got = self._convs(x, w, dz, need)
        with monkeypatch.context() as whole:  # one whole lead index per block
            whole.setattr(model, "_BLOCK_ROWS", 2500)
            assert len(model._map_blocks(x, k, nd, x.dtype, lambda rows, cols: None)) == 4
            want = self._convs(x, w, dz, need)
        assert want["mac"].dtype == np.int64
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), name


_GMAX = BranchSpec("g", 1, (ConvSpec(1, 1),) * 3)


def _gmax(x):
    """The gmax branch head on one unbatched (positions, F) tensor."""
    return model._head(_GMAX, x[None])[0][0]


class TestGlobalMaxPool:
    def test_columnwise_max(self):
        assert _gmax(np.array([[1.0, 5.0], [3.0, 2.0]])).tolist() == [3.0, 5.0]

    def test_constant_tensor(self):
        assert _gmax(np.full((7, 3), 2.5)).tolist() == [2.5, 2.5, 2.5]

    def test_single_timestep_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert _gmax(x).tolist() == [1.0, -2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _gmax(np.zeros((0, 3)))


class TestMixFeatures:
    def test_uniform_alpha_is_mean(self):
        a, b, c = (np.arange(3.0), np.ones(3), np.array([2.0, 0.0, 1.0]))
        out = model._mix([a, b, c], np.zeros(3))
        np.testing.assert_allclose(out, (a + b + c) / 3)

    def test_log2_weighting(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        out = model._mix([a, b], np.array([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out, (2 * a + b) / 3)

    def test_singleton(self, rng):
        f = rng.normal(size=4)
        np.testing.assert_allclose(model._mix([f], np.array([17.0])), f)

    def test_length_mismatch_rejected(self):
        # branch features of unequal width cannot be mixed: the spec refuses them
        branches = (BranchSpec("a", 1, (ConvSpec(3, 1),) * 3),
                    BranchSpec("b", 1, (ConvSpec(4, 1),) * 3))
        with pytest.raises(ValueError, match="equal feature width"):
            ModelSpec(branches, hidden=2, classes=2, alpha_enabled=True)

    def test_convex_combination(self, rng):
        feats = [rng.normal(size=5) for _ in range(4)]
        out = model._mix(feats, rng.normal(size=4))
        lo = np.min(feats, axis=0)
        hi = np.max(feats, axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def _simple_spec(**kw):
    layers = (ConvSpec(2, 2), ConvSpec(2, 2), ConvSpec(2, 2))
    return ModelSpec(
        (BranchSpec("a", 1, layers), BranchSpec("b", 2, layers)),
        hidden=3, classes=2, **kw,
    )


def _forward(spec, params, tensors):
    """Logits and argmax class of one frame's tensors, run as a batch of one."""
    logits = forward_batch(spec, params, {k: v[None] for k, v in tensors.items()})[0]
    return logits, int(np.argmax(logits))


class TestForward:
    def test_zero_frame_zero_logits_class0(self, rng):
        spec = _simple_spec()
        params = init_params(spec, seed=int(rng.integers(1e6)))
        frame = {"a": np.zeros((8, 1)), "b": np.zeros((8, 2))}
        logits, cls = _forward(spec, params, frame)
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
        frame = {"a": np.array([[0.9]]), "b": np.array([[0.4]])}
        logits, cls = _forward(spec, params, frame)
        assert cls == 0 and logits[0] > logits[1]

    def test_positive_scaling_preserves_class(self, rng):
        spec = _simple_spec()
        params = init_params(spec, seed=7)
        frame = {"a": rng.normal(size=(9, 1)), "b": rng.normal(size=(9, 2))}
        _, cls = _forward(spec, params, frame)
        params.dense2 *= 13.7
        _, cls2 = _forward(spec, params, frame)
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
        params_p = copy.deepcopy(params)
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
            _forward(spec, params, {"a": np.zeros((8, 1))})


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
        np.testing.assert_allclose(f["s"].ravel(), [-1.0, 0.0, 1.0])

    def test_clipping_beyond_max(self):
        f = normalize_inputs({"s": np.array([[99.0]])}, {"s": (0.0, 10.0)})
        assert f["s"][0, 0] == 1.0

    def test_degenerate_stats_named(self):
        with pytest.raises(ValueError, match="gas"):
            normalize_inputs({"gas": np.zeros((2, 1))}, {"gas": (3.0, 3.0)})

    def test_equal_stats_named_once(self):
        with pytest.raises(ValueError, match="^degenerate stats for sensor 'gas': "
                                             "min == max == 3.0$"):
            normalize_inputs({"gas": np.zeros((2, 1))}, {"gas": (3.0, 3.0)})

    def test_inverted_stats_name_both_values(self):
        # lo > hi read "min == max == 1.0"
        with pytest.raises(ValueError, match="^degenerate stats for sensor 'gas': "
                                             "min 1.0 > max 0.0$"):
            normalize_inputs({"gas": np.zeros((2, 1))}, {"gas": (1.0, 0.0)})


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


def _need(layers):
    """Smallest input length that survives the layers: an independent
    receptive-field count, walked backwards from one output row."""
    r = 1
    for l in reversed(layers):
        r = r * (l.pool or 1) + l.kernel - 1
    return r


def _spec_and_rows(data):
    """Draw a small spec and a window per branch around its receptive field.

    Returns (build, rows, fits): build() makes the spec and checks it against
    the window; fits says whether the receptive-field count lets it run.
    """
    near = lambda need, lo: max(lo, need + data.draw(st.integers(-2, 2)))
    classes = data.draw(st.integers(2, 3))
    if data.draw(st.integers(0, 3)) == 0:
        k = data.draw(st.integers(1, 3))
        need = 3 * k - 2
        rows, total = near(need, 1), near(need, 1)
        build = lambda: data_fusion_spec(total, rows, filters=2, kernel=k,
                                         hidden=3, classes=classes)
        return build, {"fused": rows}, min(rows, total) >= need
    branches, rows, fits = [], {}, True
    for i in range(data.draw(st.integers(1, 3))):
        layers = tuple(
            ConvSpec(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                     data.draw(st.sampled_from([None, None, 2, 3])))
            for _ in range(3)
        )
        need = _need(layers)
        if data.draw(st.booleans()):
            grid = (near(need, 1), near(need, 1))
            branches.append(BranchSpec(f"s{i}", grid[0] * grid[1], layers, 2, grid))
            rows[f"s{i}"] = data.draw(st.integers(0, 2))
            fits = fits and min(grid) >= need and rows[f"s{i}"] >= 1
        else:
            branches.append(BranchSpec(f"s{i}", data.draw(st.integers(1, 3)), layers))
            rows[f"s{i}"] = near(need, 0)
            fits = fits and rows[f"s{i}"] >= need
    spec = ModelSpec(tuple(branches), hidden=3, classes=classes)

    def build():
        for b in spec.branches:
            spec.layer_dims(b, rows[b.name])
        return spec

    return build, rows, fits


class TestShapeWalker:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_accepted_windows_run_every_stage(self, data):
        from edgehar.engine import qinfer, quantize_frame
        from edgehar.quantize import calibrate, quantize
        from edgehar.train import backward

        build, rows, fits = _spec_and_rows(data)
        if not fits:
            with pytest.raises(ShapeError, match="layer"):
                build()
            return
        spec = build()
        params = init_params(spec, seed=data.draw(st.integers(0, 99)))
        for ws in params.branch_weights:  # positive nets: no dead layer to refuse
            for w in ws:
                np.abs(w, out=w)
        np.abs(params.dense1, out=params.dense1)
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        X = {b.name: rng.uniform(0.1, 1.0, size=(2, *b.grid) if spec.fusion == "data"
                                 else (2, rows[b.name], b.channels))
             for b in spec.branches}
        assert forward_batch(spec, params, X).shape == (2, spec.classes)
        backward(spec, params, X, np.array([0, 1]))
        qm = quantize(spec, params, calibrate(spec, params, X), 8)
        qinfer(qm, quantize_frame({k: v[0] for k, v in X.items()}, 8))

    def test_rejected_window_is_typed_in_forward_too(self, rng):
        spec = ModelSpec((BranchSpec("a", 2, (ConvSpec(2, 3),) * 3),), hidden=3, classes=2)
        with pytest.raises(ShapeError, match="'a' layer 2"):
            spec.layer_dims(spec.branches[0], 6)  # 6 -> 4 -> 2 rows
        with pytest.raises(ShapeError, match="'a' layer 2"):
            forward_batch(spec, init_params(spec), {"a": rng.normal(size=(1, 6, 2))})

    def test_data_fusion_window_checked_when_built(self):
        with pytest.raises(ShapeError, match="'fused' layer 2"):
            data_fusion_spec(8, window_rows=5, kernel=3)  # 5 -> 3 -> 1 rows
