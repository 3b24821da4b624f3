"""Desk-scale training: hand-derived backprop for the fixed layer vocabulary,
sparse categorical cross-entropy, Adam, importance-weight training, and the
two-phase modality selection procedure.

Gradients are exact (max-pool uses the subgradient at the first maximal
element); every path is checked against central finite differences in the
test suite. A fixed seed fully determines initialization, the train/val
split, and batch order.

Conv layers share the model's im2col kernel: the cached forward pass calls
it, dW is the patch columns transposed times dZ, and dX is the same kernel run
on dZ padded by K-1 against the spatially flipped kernel with C and F swapped.
The first layer's input gradient is never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BranchSpec,
    Frame,
    ModelParams,
    ModelSpec,
    _conv_batch,
    _conv_blocks,
    softmax,
    validate_params,
)
from .seeding import substream

__all__ = [
    "TrainConfig",
    "ImportanceReport",
    "TrainingDiverged",
    "init_params",
    "loss_ce",
    "backward",
    "train",
    "train_importance",
    "select_modalities",
    "frames_to_arrays",
    "evaluate",
    "history_to_csv",
]


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    val_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


@dataclass
class ImportanceReport:
    """Per-sensor importance weights and the ranking derived from them."""

    sensors: list[str]
    alpha: list[float]

    @property
    def softmax(self) -> list[float]:
        return softmax(np.asarray(self.alpha)).tolist()

    @property
    def ranking(self) -> list[str]:
        order = np.argsort(-np.asarray(self.alpha), kind="stable")
        return [self.sensors[i] for i in order]

    def to_dict(self) -> dict:
        return {
            "sensors": self.sensors,
            "alpha": self.alpha,
            "softmax": self.softmax,
            "ranking": self.ranking,
        }


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _uniform_init(rng, fan_in: int, fan_out: int, shape, dtype) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape).astype(dtype)


def init_params(spec: ModelSpec, seed: int = 0, dtype=np.float64) -> ModelParams:
    """Bias-free uniform init, fully determined by the seed."""
    rng = substream(seed, "init")
    branch_weights = []
    for b in spec.branches:
        ws = []
        for i, l in enumerate(b.layers):
            c_in = b.layer_in_channels(i)
            taps = l.kernel ** b.conv_dim
            shape = (
                (l.kernel, l.kernel, c_in, l.filters)
                if b.conv_dim == 2
                else (l.kernel, c_in, l.filters)
            )
            ws.append(_uniform_init(rng, taps * c_in, taps * l.filters, shape, dtype))
        branch_weights.append(ws)
    d1 = _uniform_init(rng, spec.dense_in, spec.hidden,
                       (spec.dense_in, spec.hidden), dtype)
    d2 = _uniform_init(rng, spec.hidden, spec.classes,
                       (spec.hidden, spec.classes), dtype)
    alpha = np.zeros(len(spec.branches), dtype=dtype) if spec.alpha_enabled else None
    return ModelParams(branch_weights, d1, d2, alpha)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def loss_ce(logits: np.ndarray, label: int) -> float:
    """Sparse categorical cross-entropy: -log softmax(logits)[label]."""
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    return float(lse - logits[label])


def _ce_loss_grad(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    b, c = logits.shape
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"labels outside [0, {c})")
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    p = e / e.sum(axis=1, keepdims=True)
    idx = (np.arange(b), y)
    loss = float(np.mean(-(logits[idx] - m[:, 0] - np.log(e.sum(axis=1)))))
    dlogits = p.copy()
    dlogits[idx] -= 1.0
    return loss, dlogits / b


# ---------------------------------------------------------------------------
# Layer forward/backward pairs
# ---------------------------------------------------------------------------

def _conv_bwd(dz, x, w, need_dx: bool):
    """Conv gradients through the forward kernel's im2col rule.

    dW is the patch columns of x, transposed, times dZ. dX, when needed, is
    the forward conv of dZ zero-padded by K-1 on each spatial side against
    the kernel flipped in space with C and F swapped.
    """
    nd = w.ndim - 2
    k, f = w.shape[0], w.shape[-1]
    dz_rows = dz.reshape(math.prod(dz.shape[: -nd - 1]), -1)
    dw = np.zeros((w.size // f, f), dtype=w.dtype)
    for rows, cols in _conv_blocks(x, k, nd):
        dw += cols.T @ dz_rows[rows].reshape(-1, f)
    dx = None
    if need_dx:
        pad = [(0, 0)] * (dz.ndim - nd - 1) + [(k - 1, k - 1)] * nd + [(0, 0)]
        w_flip = np.flip(w, axis=tuple(range(nd))).swapaxes(-1, -2)
        dx = _conv_batch(np.pad(dz, pad), w_flip)
    return dx, dw.reshape(w.shape)


def _pool1d_fwd(a, p):
    b, l, f = a.shape
    lp = l // p
    win = a[:, : lp * p, :].reshape(b, lp, p, f)
    amax = win.argmax(axis=2)  # first maximal element on ties
    out = np.take_along_axis(win, amax[:, :, None, :], axis=2)[:, :, 0, :]
    return out, (amax, a.shape, p)


def _pool1d_bwd(dout, cache):
    amax, shape, p = cache
    b, l, f = shape
    lp = l // p
    dwin = np.zeros((b, lp, p, f), dtype=dout.dtype)
    np.put_along_axis(dwin, amax[:, :, None, :], dout[:, :, None, :], axis=2)
    da = np.zeros(shape, dtype=dout.dtype)
    da[:, : lp * p, :] = dwin.reshape(b, lp * p, f)
    return da


def _pool2d_fwd(a, p):
    b, t, h, w, f = a.shape
    hp, wp = h // p, w // p
    win = (
        a[:, :, : hp * p, : wp * p, :]
        .reshape(b, t, hp, p, wp, p, f)
        .transpose(0, 1, 2, 4, 3, 5, 6)
        .reshape(b, t, hp, wp, p * p, f)
    )
    amax = win.argmax(axis=4)
    out = np.take_along_axis(win, amax[:, :, :, :, None, :], axis=4)[:, :, :, :, 0, :]
    return out, (amax, a.shape, p)


def _pool2d_bwd(dout, cache):
    amax, shape, p = cache
    b, t, h, w, f = shape
    hp, wp = h // p, w // p
    dwin = np.zeros((b, t, hp, wp, p * p, f), dtype=dout.dtype)
    np.put_along_axis(dwin, amax[:, :, :, :, None, :], dout[:, :, :, :, None, :], axis=4)
    da = np.zeros(shape, dtype=dout.dtype)
    da[:, :, : hp * p, : wp * p, :] = (
        dwin.reshape(b, t, hp, wp, p, p, f)
        .transpose(0, 1, 2, 4, 3, 5, 6)
        .reshape(b, t, hp * p, wp * p, f)
    )
    return da


def _gmax_fwd(h):
    b, f = h.shape[0], h.shape[-1]
    flat = h.reshape(b, -1, f)
    amax = flat.argmax(axis=1)
    feat = np.take_along_axis(flat, amax[:, None, :], axis=1)[:, 0, :]
    return feat, (amax, h.shape)


def _gmax_bwd(dfeat, cache):
    amax, shape = cache
    b, f = dfeat.shape
    dflat = np.zeros((b, int(np.prod(shape[1:-1])), f), dtype=dfeat.dtype)
    np.put_along_axis(dflat, amax[:, None, :], dfeat[:, None, :], axis=1)
    return dflat.reshape(shape)


# ---------------------------------------------------------------------------
# Whole-model forward with caches, and the matching backward
# ---------------------------------------------------------------------------

def _branch_fwd(spec: ModelSpec, branch: BranchSpec, ws, x):
    from .model import _branch_input

    h = _branch_input(spec, branch, x)
    layers = []
    for lspec, w in zip(branch.layers, ws):
        z = _conv_batch(h, w)
        a = np.maximum(z, 0)
        if lspec.pool:
            pf = _pool1d_fwd if branch.conv_dim == 1 else _pool2d_fwd
            out, pcache = pf(a, lspec.pool)
        else:
            out, pcache = a, None
        layers.append({"x": h, "w": w, "z": z, "pool": pcache})
        h = out
    if branch.head == "gmax":
        feat, hcache = _gmax_fwd(h)
    else:
        feat, hcache = h.reshape(h.shape[0], -1), h.shape
    return feat, {"layers": layers, "head": hcache, "branch": branch}


def _branch_bwd(spec: ModelSpec, cache, dfeat):
    branch: BranchSpec = cache["branch"]
    if branch.head == "gmax":
        dh = _gmax_bwd(dfeat, cache["head"])
    else:
        dh = dfeat.reshape(cache["head"])
    dws = []
    for depth in reversed(range(len(cache["layers"]))):
        lc = cache["layers"][depth]
        if lc["pool"] is not None:
            pb = _pool1d_bwd if branch.conv_dim == 1 else _pool2d_bwd
            dh = pb(dh, lc["pool"])
        dz = dh * (lc["z"] > 0)
        # the branch input's own gradient is never used
        dh, dw = _conv_bwd(dz, lc["x"], lc["w"], need_dx=depth > 0)
        dws.append(dw)
    dws.reverse()
    return dws


def _forward_caches(spec: ModelSpec, params: ModelParams, X: dict):
    feats, caches = [], []
    for branch, ws in zip(spec.branches, params.branch_weights):
        feat, cache = _branch_fwd(spec, branch, ws, np.asarray(X[branch.name]))
        feats.append(feat)
        caches.append(cache)
    if spec.alpha_enabled:
        s = softmax(params.alpha.astype(feats[0].dtype))
        fused = sum(s[i] * feats[i] for i in range(len(feats)))
        mix = (s, feats)
    else:
        fused = np.concatenate(feats, axis=1)
        mix = None
    z1 = fused @ params.dense1
    h1 = np.maximum(z1, 0)
    logits = h1 @ params.dense2
    return logits, {"caches": caches, "mix": mix, "fused": fused, "z1": z1,
                    "h1": h1, "feats": feats}


def backward(
    spec: ModelSpec, params: ModelParams, X: dict, y: np.ndarray
) -> tuple[float, ModelParams]:
    """Mean loss over the batch and exact gradients, packed like ModelParams."""
    validate_params(spec, params)
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("batch must be nonempty")
    logits, ctx = _forward_caches(spec, params, X)
    loss, dlogits = _ce_loss_grad(logits, y)

    ddense2 = ctx["h1"].T @ dlogits
    dh1 = dlogits @ params.dense2.T
    dz1 = dh1 * (ctx["z1"] > 0)
    ddense1 = ctx["fused"].T @ dz1
    dfused = dz1 @ params.dense1.T

    dalpha = None
    if spec.alpha_enabled:
        s, feats = ctx["mix"]
        ds = np.array([float(np.sum(f * dfused)) for f in feats])
        dalpha = s * (ds - float(np.dot(s, ds)))
        dfeats = [s[i] * dfused for i in range(len(feats))]
    else:
        dfeats, off = [], 0
        for b in spec.branches:
            n = spec.head_size(b)
            dfeats.append(dfused[:, off : off + n])
            off += n

    dbranches = [
        _branch_bwd(spec, cache, dfeat)
        for cache, dfeat in zip(ctx["caches"], dfeats)
    ]
    grads = ModelParams(dbranches, ddense1, ddense2,
                        None if dalpha is None else dalpha.astype(params.dense1.dtype))
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------

def _iter_tensors(p: ModelParams):
    for ws in p.branch_weights:
        yield from ws
    yield p.dense1
    yield p.dense2
    if p.alpha is not None:
        yield p.alpha


class _Adam:
    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(w) for w in _iter_tensors(params)]
        self.v = [np.zeros_like(w) for w in _iter_tensors(params)]

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for i, (w, g) in enumerate(zip(_iter_tensors(params), _iter_tensors(grads))):
            self.m[i] = c.beta1 * self.m[i] + (1 - c.beta1) * g
            self.v[i] = c.beta2 * self.v[i] + (1 - c.beta2) * g * g
            w -= c.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + c.eps)


def _take(X: dict, idx: np.ndarray) -> dict:
    return {k: v[idx] for k, v in X.items()}


def evaluate(spec: ModelSpec, params: ModelParams, X: dict, y: np.ndarray
             ) -> tuple[float, float]:
    """(mean loss, accuracy) over a dataset."""
    from .model import forward_batch

    logits = forward_batch(spec, params, X)
    loss, _ = _ce_loss_grad(logits, np.asarray(y))
    acc = float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))
    return loss, acc


def train(
    spec: ModelSpec,
    dataset: tuple[dict, np.ndarray],
    config: TrainConfig,
    params: ModelParams | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Adam training, deterministic for a fixed seed.

    Returns the trained parameters and a per-epoch history with train/val
    loss and accuracy. Raises TrainingDiverged (with the epoch index) if the
    loss goes non-finite.
    """
    X, y = dataset
    y = np.asarray(y)
    n = y.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if y.min() < 0 or y.max() >= spec.classes:
        raise ValueError(f"labels outside [0, {spec.classes})")
    if params is None:
        params = init_params(spec, config.seed)
    else:
        params = params.copy()

    n_val = int(round(n * config.val_fraction))
    perm = substream(config.seed, "split").permutation(n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    if tr_idx.size == 0:
        raise ValueError("val_fraction leaves no training samples")

    opt = _Adam(params, config)
    batch_rng = substream(config.seed, "batch")
    history = []
    for epoch in range(config.epochs):
        order = batch_rng.permutation(tr_idx.size)
        for start in range(0, tr_idx.size, config.batch_size):
            idx = tr_idx[order[start : start + config.batch_size]]
            loss, grads = backward(spec, params, _take(X, idx), y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            opt.step(params, grads)
        tr_loss, tr_acc = evaluate(spec, params, _take(X, tr_idx), y[tr_idx])
        if not np.isfinite(tr_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        row = {"epoch": epoch, "train_loss": tr_loss, "train_acc": tr_acc}
        if n_val:
            row["val_loss"], row["val_acc"] = evaluate(
                spec, params, _take(X, val_idx), y[val_idx]
            )
        else:
            row["val_loss"], row["val_acc"] = float("nan"), float("nan")
        history.append(row)
    return params, history


def train_importance(
    spec: ModelSpec,
    dataset: tuple[dict, np.ndarray],
    config: TrainConfig,
) -> tuple[ModelParams, list[dict], ImportanceReport]:
    """Joint training of all weights plus the per-branch importance vector."""
    if not spec.alpha_enabled:
        raise ValueError("train_importance requires a spec with alpha_enabled")
    params, history = train(spec, dataset, config)
    report = ImportanceReport(
        [b.name for b in spec.branches], [float(a) for a in params.alpha]
    )
    return params, history, report


def select_modalities(report: ImportanceReport, keep: int) -> list[str]:
    """Top `keep` sensors by importance ranking; caller rebuilds and retrains."""
    n = len(report.sensors)
    if not 1 <= keep <= n:
        raise ValueError(f"keep must be in [1, {n}], got {keep}")
    return report.ranking[:keep]


# ---------------------------------------------------------------------------
# Dataset helpers
# ---------------------------------------------------------------------------

def frames_to_arrays(
    spec: ModelSpec, frames: list[Frame], labels
) -> tuple[dict, np.ndarray]:
    """Stack per-frame branch tensors into {name: (N, ...)} arrays."""
    if len(frames) == 0:
        raise ValueError("no frames")
    X = {}
    for b in spec.branches:
        mats = [f.tensors[b.name] for f in frames]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise ValueError(f"branch {b.name!r}: inconsistent frame shapes {shapes}")
        X[b.name] = np.stack(mats).astype(np.float64)
    return X, np.asarray(labels, dtype=np.int64)


def history_to_csv(history: list[dict], path) -> None:
    from .persist import write_csv_atomic

    cols = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
    write_csv_atomic(path, cols, ([row[c] for c in cols] for row in history))
