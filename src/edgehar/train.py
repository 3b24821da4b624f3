"""Desk-scale training: hand-derived backprop for the fixed layer vocabulary,
sparse categorical cross-entropy, Adam, importance-weight training, and the
two-phase modality selection procedure.

Gradients are exact (max-pool uses the subgradient at the first maximal
element); every path is checked against central finite differences in the
test suite. A fixed seed fully determines initialization, the train/val
split, and batch order.

The forward half of backprop is the model's own network walk (model._walk),
run with an observer that keeps each layer's input, post-ReLU output and
pool indices; there is no second copy of the network here. Conv gradients
reuse the model's im2col block map: dW is the patch columns transposed times
dZ, one partial per block, which the map may compute on several cores and
which are added into a zeroed dW in block order, the sum a serial loop
makes. dX is the model's convolution run on dZ zero-bordered by K-1 against
the spatially flipped kernel with C and F swapped. The first layer's input
gradient is never computed.

Below a global max-pool head the gradient is nonzero at one position per
frame and filter, and then only within those positions' receptive fields.
A 2D branch convolves and pools each timestep's grid on its own, so its
gradient stays, through every layer, in the lead rows (frame, timestep)
that hold a filter's maximum (_held_rows). Its backward applies the ReLU
to those rows alone and passes them to the block map as a mask: dW and dX
run only the blocks that hold one, each exactly as without the mask, and
dX's skipped rows stay zero, so the gradients are the same bits. 1D
branches and flatten heads pass no mask.

Adam keeps the weights, m and v as one flat vector each. The tensors that
train returns are reshaped views into the weight vector, and each step runs
the update once over the whole vector, every element by the expressions, in
the order, of an update tensor by tensor, so the weights are the same bits.

Training never runs a forward pass only to keep its history: an epoch's
batch_loss and batch_acc are the batch-size-weighted means of what its
backward calls computed, each at the weights before that batch's step.
Validation, when a split is held out, runs at the end of every epoch. Nor
does a pass over the training split check the final weights' loss when one
walk of the absolute weights proves it finite (_bound_walk: interval bound
propagation, Gowal et al. 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    BranchSpec,
    ModelParams,
    ModelSpec,
    _conv_batch,
    _map_blocks,
    _walk,
    forward_batch,
    softmax,
)
from .persist import check_value, write_csv_atomic
from .seeding import substream

__all__ = [
    "TrainConfig",
    "ImportanceReport",
    "TrainingDiverged",
    "init_params",
    "backward",
    "train",
    "train_importance",
    "select_modalities",
    "evaluate",
    "history_to_csv",
]


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


# Each TrainConfig field's persist.check_value rule (eps 0 makes a zero
# gradient's update 0/0); val_fraction, beta1 and beta2 are also < 1
_RULES = {"epochs": (int, 0), "batch_size": (int, 1), "lr": (float, 0, ">"), "beta1": (float, 0),
          "beta2": (float, 0), "eps": (float, 0, ">"), "seed": (int, 0), "val_fraction": (float, 0)}


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
        for f in fields(self):
            check_value(f.name, getattr(self, f.name), *_RULES[f.name])
        for name in ("val_fraction", "beta1", "beta2"):
            if getattr(self, name) >= 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")

    def n_val(self, n: int) -> int:
        """Validation samples held out of a set of n, at least one left to train on."""
        held = int(round(n * self.val_fraction))
        if held >= n:
            raise ValueError(f"val_fraction {self.val_fraction!r} leaves none of {n} "
                             f"recordings to train on")
        return held


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

def _uniform_init(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_params(spec: ModelSpec, seed: int = 0) -> ModelParams:
    """Bias-free float64 uniform init, fully determined by the seed."""
    rng = substream(seed, "init")
    branch_weights = []
    for b in spec.branches:
        ws = []
        for i in range(3):
            shape = b.weight_shape(i)
            taps = math.prod(shape[:-2])
            ws.append(_uniform_init(rng, taps * shape[-2], taps * shape[-1], shape))
        branch_weights.append(ws)
    d1 = _uniform_init(rng, spec.dense_in, spec.hidden, (spec.dense_in, spec.hidden))
    d2 = _uniform_init(rng, spec.hidden, spec.classes, (spec.hidden, spec.classes))
    alpha = np.zeros(len(spec.branches)) if spec.alpha_enabled else None
    return ModelParams(branch_weights, d1, d2, alpha)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

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
# Layer gradients
# ---------------------------------------------------------------------------

def _conv_bwd(dz, x, w, need_dx: bool, need=None):
    """Conv gradients through the forward kernel's im2col rule.

    dW is the patch columns of x, transposed, times dZ: each block's partial,
    added in block order. dX, when needed, is the forward conv of dZ
    zero-padded by K-1 on each spatial side against the kernel flipped in
    space with C and F swapped. need, when given, marks the lead rows that
    hold dZ's nonzero rows: both run only the blocks that hold one, each as
    without the mask. A skipped dW partial is exactly +0, and a skipped dX
    row stays the +0 that the GEMM over its zero patches gives, so the
    gradients are the same bits.
    """
    nd = w.ndim - 2
    k, f = w.shape[0], w.shape[-1]
    dz_rows = dz.reshape(-1, f)
    dw = np.zeros((w.size // f, f), dtype=w.dtype)
    for part in _map_blocks(x, k, nd, x.dtype, lambda rows, cols: cols.T @ dz_rows[rows],
                            need):
        dw += part
    dx = None
    if need_dx:
        space = dz.shape[-nd - 1 : -1]
        padded = np.zeros((*dz.shape[: -nd - 1], *(s + 2 * (k - 1) for s in space),
                           f), dtype=dz.dtype)
        padded[(..., *(slice(k - 1, k - 1 + s) for s in space), slice(None))] = dz
        w_flip = w[(slice(None, None, -1),) * nd].swapaxes(-1, -2)
        dx = _conv_batch(padded, w_flip, need)
    return dx, dw.reshape(w.shape)


def _unmax(dout, idx, n):
    """Gradient of a max over axis -2 of n-element windows: each window's
    gradient goes to its first maximal element, the subgradient the tests
    check against finite differences."""
    lead, f = math.prod(idx.shape[:-1]), idx.shape[-1]
    dwin = np.zeros((*idx.shape[:-1], n, f), dtype=dout.dtype)
    dwin.reshape(lead, n, f)[np.arange(lead)[:, None], idx.reshape(lead, f),
                             np.arange(f)] = dout.reshape(lead, f)
    return dwin


def _unwindow(dwin, shape, p: int, nd: int):
    """Adjoint of model._pool_windows: scatter window-form dwin back onto a
    zero tensor of the pooled input's shape."""
    k = len(shape) - nd - 1
    out = dwin.shape[k : k + nd]
    split = dwin.reshape(*dwin.shape[:k], *out, *(p,) * nd, shape[-1])
    order = (*range(k), *(i for j in range(nd) for i in (k + j, k + nd + j)), k + 2 * nd)
    da = np.zeros(shape, dtype=dwin.dtype)
    da[(..., *(slice(o * p) for o in out), slice(None))] = split.transpose(order).reshape(
        *shape[:k], *(o * p for o in out), shape[-1])
    return da


# ---------------------------------------------------------------------------
# Backward pass over the model's walk
# ---------------------------------------------------------------------------

def _branch_bwd(branch: BranchSpec, ws, tape: dict, bi: int, dfeat):
    h, _, idx = tape[bi, 3]
    nd, positions = branch.conv_dim, math.prod(h.shape[1:-1])
    held = None
    if idx is None:  # a flatten head
        dh = dfeat.reshape(h.shape)
    else:
        dh = _unmax(dfeat, idx, positions).reshape(h.shape)
        if nd == 2:
            held = _held_rows(h, idx)
    need = None if held is None else held.reshape(-1)
    dws = []
    for depth in reversed(range(3)):
        x, a, idx = tape[bi, depth]
        p = branch.layers[depth].pool
        if p:
            dh = _unwindow(_unmax(dh, idx, p**nd), a.shape, p, nd)
        if held is None:
            dh = dh * (a > 0)
        else:  # dh is zero outside the held lead rows, and stays so through the ReLU
            dh[held] *= a[held] > 0
        # the branch input's own gradient is never used
        dh, dw = _conv_bwd(dh, x, ws[depth], need_dx=depth > 0, need=need)
        dws.append(dw)
    dws.reverse()
    return dws


def _held_rows(h, idx):
    """The lead rows (frame, timestep) of a 2D branch's last output h that
    hold a filter's maximum, from its gmax head's indices idx: the only rows
    in which any of the branch's layers has a nonzero gradient, as a 2D conv
    and a 2D pool keep each timestep's gradient in that timestep."""
    held = np.zeros(h.shape[:2], bool)
    held[np.arange(len(h))[:, None], idx // math.prod(h.shape[2:-1])] = True
    return held


def backward(
    spec: ModelSpec, params: ModelParams, X: dict, y: np.ndarray,
    *, correct: list[int] | None = None,
) -> tuple[float, ModelParams]:
    """Mean loss over the batch and exact gradients, packed like ModelParams.

    When correct is given, the number of frames whose largest logit is at
    their label is appended to it, from the same forward pass.
    """
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("batch must be nonempty")
    tape = {}

    def keep(key, x, a, win):
        tape[key] = (x, a, None if win is None else win.argmax(axis=-2))

    logits = _walk(spec, params, X, keep)
    loss, dlogits = _ce_loss_grad(logits, y)
    if correct is not None:
        correct.append(int(np.count_nonzero(np.argmax(logits, axis=1) == y)))

    fused, hidden, _ = tape["dense"]
    ddense2 = hidden.T @ dlogits
    dh1 = dlogits @ params.dense2.T
    dz1 = dh1 * (hidden > 0)
    ddense1 = fused.T @ dz1
    dfused = dz1 @ params.dense1.T

    feats = [tape[bi, 3][1] for bi in range(len(spec.branches))]
    dalpha = None
    if spec.alpha_enabled:
        s = softmax(params.alpha.astype(feats[0].dtype))
        ds = np.array([float(np.sum(f * dfused)) for f in feats])
        dalpha = s * (ds - float(np.dot(s, ds)))
        dfeats = [s[i] * dfused for i in range(len(feats))]
    else:
        dfeats = np.split(dfused, np.cumsum([f.shape[1] for f in feats])[:-1], axis=1)

    dbranches = [
        _branch_bwd(branch, ws, tape, bi, dfeat)
        for bi, (branch, ws, dfeat) in enumerate(
            zip(spec.branches, params.branch_weights, dfeats))
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
    """Adam (Kingma & Ba 2015) over one flat vector.

    The weights, m and v are one contiguous vector each, the weights laid out
    in _iter_tensors order. params is a ModelParams of the given parameters'
    values whose tensors are reshaped views into the weight vector, so each
    step updates them in place. A step concatenates the gradients once and
    runs the per-element update on the whole vector: every element gets the
    expressions, in the order, of an update tensor by tensor.
    """

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        tensors = list(_iter_tensors(params))
        self.w = np.concatenate(tensors, axis=None)
        parts = np.split(self.w, np.cumsum([t.size for t in tensors])[:-1])
        views = iter([part.reshape(t.shape) for t, part in zip(tensors, parts)])
        self.params = ModelParams([[next(views) for _ in ws] for ws in params.branch_weights],
                                  next(views), next(views),
                                  None if params.alpha is None else next(views))
        self.m = np.zeros_like(self.w)
        self.v = np.zeros_like(self.w)

    def step(self, grads: ModelParams) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        g = np.concatenate(tuple(_iter_tensors(grads)), axis=None)
        self.m = c.beta1 * self.m + (1 - c.beta1) * g
        self.v = c.beta2 * self.v + (1 - c.beta2) * g * g
        self.w -= c.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + c.eps)


def _take(X: dict, idx: np.ndarray) -> dict:
    return {k: v[idx] for k, v in X.items()}


def _check_frames(X: dict, y: np.ndarray) -> None:
    """Reject a dataset whose sensor arrays do not hold one frame per label."""
    for name, x in X.items():
        if len(x) != len(y):
            raise ValueError(f"sensor {name!r} holds {len(x)} frames for {len(y)} labels")


# The final training-split pass is skipped when every value of the bound walk
# is below this. Every |value| of the real forward pass, each partial sum of
# its GEMMs included, is then below it too, give or take a relative rounding
# of about 1e-12 (a GEMM may sum in another order): far below float64's
# largest finite value, just under 2^1024. Each frame's loss, a log-sum-exp
# less a logit, is then at most 2^901 + log(classes) in magnitude, and their
# mean over fewer than 2^100 frames cannot overflow either.
_BOUND_LIMIT = 2.0**900


def _bound_walk(spec: ModelSpec, params: ModelParams, X: dict, observe=None) -> np.ndarray:
    """The bound walk's logits (1, classes): model._walk, with observe, run once
    with every conv and dense weight replaced by its absolute value and alpha
    as it is, on one frame per sensor filled with the sensor's largest |x|
    over X.

    The walk's values are nonnegative, and the conv and dense sums, ReLU,
    max-pools, heads and the softmax-weighted mix are monotone in them, so
    each value of the walk bounds the |value| at the same place of every
    frame of X in the real forward pass.

    A 2D branch with a gmax head, under feature fusion, gets one timestep of
    its frame: its convolutions and pools act on each timestep alone and its
    head maxes over them, so every timestep of the constant frame gives the
    same values and features. The fill is still the largest |x| over all of X.
    """
    bound = ModelParams([[np.abs(w) for w in ws] for ws in params.branch_weights],
                        np.abs(params.dense1), np.abs(params.dense2), params.alpha)
    one = {b.name for b in spec.branches
           if spec.fusion == "feature" and b.conv_dim == 2 and b.head == "gmax"}
    frames = {k: np.full((1, 1 if k in one else x.shape[1], *x.shape[2:]),
                         np.maximum(x.max(), -x.min()))
              for k, x in X.items()}
    return _walk(spec, bound, frames, observe)


def _loss_proven_finite(spec: ModelSpec, params: ModelParams, X: dict) -> bool:
    """Whether the bound walk proves the loss at params finite on every frame
    of X: every value it reaches is below _BOUND_LIMIT.

    A NaN or inf in a weight or an input reaches the walk's values (where it
    meets a zero, 0 * inf is NaN), and a NaN is never below the limit. Alpha
    must be finite, as a -inf entry gives a finite softmax.
    """
    if spec.alpha_enabled and not np.isfinite(params.alpha).all():
        return False
    peaks = []

    def keep(key, x, a, win):
        peaks.append(a.max())

    # huge weights overflow here; they must fall through to the real check
    with np.errstate(over="ignore", invalid="ignore"):
        peaks.append(_bound_walk(spec, params, X, keep).max())
    return all(p < _BOUND_LIMIT for p in peaks)


def evaluate(spec: ModelSpec, params: ModelParams, X: dict, y: np.ndarray
             ) -> tuple[float, float]:
    """(mean loss, accuracy) over a dataset."""
    y = np.asarray(y)
    _check_frames(X, y)
    logits = forward_batch(spec, params, X)
    loss, _ = _ce_loss_grad(logits, y)
    acc = float(np.mean(np.argmax(logits, axis=1) == y))
    return loss, acc


def train(
    spec: ModelSpec,
    dataset: tuple[dict, np.ndarray],
    config: TrainConfig,
) -> tuple[ModelParams, list[dict]]:
    """Adam training from init_params(spec, config.seed), deterministic for a
    fixed seed.

    Returns the trained parameters and one history row per epoch:
    batch_loss and batch_acc, the batch-size-weighted means over the epoch
    of each batch's loss and accuracy at the weights before its step, and
    val_loss and val_acc over the held-out split at the end of the epoch
    (nan when none is held out).

    Raises TrainingDiverged if a batch loss goes non-finite, naming the
    epoch whose updates made the weights that batch saw: the first batch of
    epoch e > 0 sees epoch e - 1's last step, and the first batch of epoch 0
    names epoch 0. The final weights are checked the same way, naming the
    last epoch, so the returned weights never give a non-finite training
    loss: by one pass over the training split, unless the bound walk proves
    the loss finite (_loss_proven_finite).

    Raises ValueError if a sensor's array does not hold one frame per label.
    """
    X, y = dataset
    y = np.asarray(y)
    n = y.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    _check_frames(X, y)
    if y.min() < 0 or y.max() >= spec.classes:
        raise ValueError(f"labels outside [0, {spec.classes})")
    n_val = config.n_val(n)
    perm = substream(config.seed, "split").permutation(n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]

    opt = _Adam(init_params(spec, config.seed), config)
    params = opt.params
    X_val, y_val = _take(X, val_idx), y[val_idx]
    batch_rng = substream(config.seed, "batch")
    history = []
    made_by = 0  # the epoch whose steps made the current weights
    for epoch in range(config.epochs):
        order = batch_rng.permutation(tr_idx.size)
        loss_sum, correct = 0.0, []
        for start in range(0, tr_idx.size, config.batch_size):
            idx = tr_idx[order[start : start + config.batch_size]]
            loss, grads = backward(spec, params, _take(X, idx), y[idx], correct=correct)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {made_by}")
            loss_sum += loss * idx.size
            opt.step(grads)
            made_by = epoch
        row = {"epoch": epoch, "batch_loss": loss_sum / tr_idx.size,
               "batch_acc": sum(correct) / tr_idx.size}
        if n_val:
            row["val_loss"], row["val_acc"] = evaluate(spec, params, X_val, y_val)
        else:
            row["val_loss"], row["val_acc"] = float("nan"), float("nan")
        history.append(row)
    if history and not _loss_proven_finite(spec, params, X):
        final_loss, _ = evaluate(spec, params, _take(X, tr_idx), y[tr_idx])
        if not np.isfinite(final_loss):
            raise TrainingDiverged(f"non-finite loss at epoch {made_by}")
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
# History export
# ---------------------------------------------------------------------------

def history_to_csv(history: list[dict], path) -> None:
    cols = ["epoch", "batch_loss", "batch_acc", "val_loss", "val_acc"]
    write_csv_atomic(path, cols, ([row[c] for c in cols] for row in history))
