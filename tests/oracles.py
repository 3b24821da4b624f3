"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way: plain Python
loops over plain Python integers for the integer inference oracle, direct
central differences for gradients, and a nearest-centroid classifier for the
synthetic data generator. None of it shares code with the vectorized paths
it checks (only the documented rounding rules are the same).
"""

from __future__ import annotations

import numpy as np


class OracleOverflow(Exception):
    """The reference accumulator exceeded its register width."""


def _requant(acc: int, mult: int, shift: int, n_bits: int, relu: bool) -> int:
    v = acc * mult
    if shift > 0:
        half = 1 << (shift - 1)
        v = (abs(v) + half) >> shift
        if acc * mult < 0:
            v = -v
    if relu and v < 0:
        v = 0
    lo, hi = -(1 << n_bits), (1 << n_bits) - 1
    return min(max(v, lo), hi)


def _check(acc: int, acc_width: int) -> None:
    lim = 1 << (acc_width - 1)
    if not -lim <= acc <= lim - 1:
        raise OracleOverflow(f"partial sum {acc} exceeds {acc_width}-bit register")


def conv1d(x, w, mult, shift, n_bits, acc_width, relu=True):
    """x: (L, C) ints, w: (K, C, F) ints. Channel-major accumulation with the
    kernel taps of one channel summed as a single step."""
    k, c, f = len(w), len(w[0]), len(w[0][0])
    lo = len(x) - k + 1
    out = []
    for t in range(lo):
        row = []
        for fi in range(f):
            acc = 0
            for ci in range(c):
                step = 0
                for ki in range(k):
                    step += int(x[t + ki][ci]) * int(w[ki][ci][fi])
                acc += step
                _check(acc, acc_width)
            row.append(_requant(acc, mult, shift, n_bits, relu))
        out.append(row)
    return out


def conv2d(x, w, mult, shift, n_bits, acc_width, relu=True):
    """x: (T, H, W, C) ints, w: (K, K, C, F) ints."""
    k = len(w)
    c, f = len(w[0][0]), len(w[0][0][0])
    t_n, h_n, w_n = len(x), len(x[0]), len(x[0][0])
    ho, wo = h_n - k + 1, w_n - k + 1
    out = []
    for t in range(t_n):
        plane = []
        for i in range(ho):
            row = []
            for j in range(wo):
                cell = []
                for fi in range(f):
                    acc = 0
                    for ci in range(c):
                        step = 0
                        for ki in range(k):
                            for kj in range(k):
                                step += int(x[t][i + ki][j + kj][ci]) * int(
                                    w[ki][kj][ci][fi]
                                )
                        acc += step
                        _check(acc, acc_width)
                    cell.append(_requant(acc, mult, shift, n_bits, relu))
                row.append(cell)
            plane.append(row)
        out.append(plane)
    return out


def pool1d(z, p):
    lp = len(z) // p
    f = len(z[0])
    return [
        [max(z[i * p + j][fi] for j in range(p)) for fi in range(f)]
        for i in range(lp)
    ]


def pool2d(z, p):
    t_n, h_n, w_n, f = len(z), len(z[0]), len(z[0][0]), len(z[0][0][0])
    hp, wp = h_n // p, w_n // p
    out = []
    for t in range(t_n):
        plane = []
        for i in range(hp):
            row = []
            for j in range(wp):
                cell = []
                for fi in range(f):
                    cell.append(
                        max(
                            z[t][i * p + a][j * p + b][fi]
                            for a in range(p)
                            for b in range(p)
                        )
                    )
                row.append(cell)
            plane.append(row)
        out.append(plane)
    return out


def gmax(z):
    """Max over every position, per trailing feature index."""
    arr = np.asarray(z, dtype=np.int64)
    flat = arr.reshape(-1, arr.shape[-1])
    return [max(int(v) for v in flat[:, fi]) for fi in range(flat.shape[1])]


def dense(x, w, mult, shift, n_bits, acc_width, relu):
    n_in, n_out = len(w), len(w[0])
    out = []
    for o in range(n_out):
        acc = 0
        for i in range(n_in):
            acc += int(x[i]) * int(w[i][o])
            _check(acc, acc_width)
        out.append(_requant(acc, mult, shift, n_bits, relu))
    return out


def qinfer(qm, qframe, acc_width=None):
    """Reference integer inference over a QuantizedModel-shaped object.

    Returns (logits list, class). Raises OracleOverflow exactly where a
    narrow accumulator would overflow.
    """
    width = acc_width if acc_width is not None else qm.acc_width
    feats = []
    for branch, qlayers in zip(qm.spec.branches, qm.branches):
        x = np.asarray(qframe[branch.name], dtype=np.int64)
        if branch.conv_dim == 2:
            if qm.spec.fusion == "data":
                h = x[None, :, :, None].tolist()
            else:
                r, c = branch.grid
                h = x.reshape(x.shape[0], r, c, 1).tolist()
        else:
            h = x.tolist()
        for li, q in enumerate(qlayers):
            w = q.w_int.tolist()
            if branch.conv_dim == 1:
                h = conv1d(h, w, q.mult, q.shift, qm.n_bits, width)
                if q.pool:
                    h = pool1d(h, q.pool)
            else:
                h = conv2d(h, w, q.mult, q.shift, qm.n_bits, width)
                if q.pool:
                    h = pool2d(h, q.pool)
            if li == 2 and branch.head == "gmax":
                h = gmax(h)
        if branch.head == "gmax":
            feats.extend(h)
        else:
            feats.extend(int(v) for v in np.asarray(h, dtype=np.int64).reshape(-1))
    h = feats
    for q in qm.dense:
        h = dense(h, q.w_int.tolist(), q.mult, q.shift, qm.n_bits, width, q.relu)
    cls = max(range(len(h)), key=lambda i: (h[i], -i))  # first max wins
    return h, cls


# ---------------------------------------------------------------------------
# FP convolution oracle
# ---------------------------------------------------------------------------

def conv_per_tap(x, w):
    """Valid stride-1 conv as a sum of one shifted channel matmul per kernel
    tap. x (*lead, *spatial, C), w (K, [K,] C, F) with w.ndim - 2 spatial axes."""
    nd = w.ndim - 2
    k = w.shape[0]
    out_sp = [d - k + 1 for d in x.shape[-nd - 1 : -1]]
    out = 0.0
    for tap in np.ndindex(*(k,) * nd):
        win = (Ellipsis, *(slice(t, t + o) for t, o in zip(tap, out_sp)), slice(None))
        out = out + x[win] @ w[tap]
    return out


def conv_bwd_per_tap(dz, x, w):
    """(dX, dW) of conv_per_tap for the upstream gradient dz, tap by tap."""
    nd = w.ndim - 2
    k, f = w.shape[0], w.shape[-1]
    out_sp = dz.shape[-nd - 1 : -1]
    dx = np.zeros_like(x)
    dw = np.empty_like(w)
    for tap in np.ndindex(*(k,) * nd):
        win = (Ellipsis, *(slice(t, t + o) for t, o in zip(tap, out_sp)), slice(None))
        xs = x[win]
        dw[tap] = xs.reshape(-1, xs.shape[-1]).T @ dz.reshape(-1, f)
        dx[win] += dz @ w[tap].T
    return dx, dw


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------

def finite_diff_grads(loss_fn, params_tensors, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. each tensor, in place."""
    grads = []
    for w in params_tensors:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = w[idx]
            w[idx] = old + h
            lp = loss_fn()
            w[idx] = old - h
            lm = loss_fn()
            w[idx] = old
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# ---------------------------------------------------------------------------
# Classifier oracle for synthetic datasets
# ---------------------------------------------------------------------------

def nearest_centroid(train_X, train_y, test_X):
    """Per-class mean templates on flattened frames; predict by L2 distance."""
    def flatten(X):
        parts = [np.asarray(v) for v in X.values()]
        return np.concatenate([p.reshape(p.shape[0], -1) for p in parts], axis=1)

    ftr, fte = flatten(train_X), flatten(test_X)
    train_y = np.asarray(train_y)
    classes = np.unique(train_y)
    cents = np.stack([ftr[train_y == c].mean(axis=0) for c in classes])
    d = ((fte[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(d, axis=1)]
