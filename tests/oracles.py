"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way: plain Python
loops over plain Python integers for the integer inference oracle, direct
central differences for gradients, and a nearest-centroid classifier for the
synthetic data generator. None of it shares code with the vectorized paths
it checks (only the documented rounding rules are the same).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np


class OracleOverflow(Exception):
    """The reference accumulator exceeded its register width."""


def round_exact(x: float) -> int:
    """Nearest integer to x, ties away from zero, in exact rational arithmetic."""
    q = Fraction(x)
    mag = math.floor(abs(q) + Fraction(1, 2))
    return mag if q >= 0 else -mag


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
            pool = branch.layers[li].pool
            if branch.conv_dim == 1:
                h = conv1d(h, w, q.mult, q.shift, qm.n_bits, width)
                if pool:
                    h = pool1d(h, pool)
            else:
                h = conv2d(h, w, q.mult, q.shift, qm.n_bits, width)
                if pool:
                    h = pool2d(h, pool)
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
    tap. x (*lead, *spatial, C), w (K, [K,] C, F) with w.ndim - 2 spatial axes.
    Integer arrays give the exact int64 sum."""
    nd = w.ndim - 2
    k = w.shape[0]
    out_sp = [d - k + 1 for d in x.shape[-nd - 1 : -1]]
    out = 0
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
# Optimizer and max-gradient oracles
# ---------------------------------------------------------------------------

class AdamPerTensor:
    """Adam (Kingma & Ba 2015) tensor by tensor, in place: m and v hold one
    array per weight tensor, and a step runs the update on each in turn."""

    def __init__(self, tensors, cfg):
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(w) for w in tensors]
        self.v = [np.zeros_like(w) for w in tensors]

    def step(self, tensors, grads) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for i, (w, g) in enumerate(zip(tensors, grads)):
            self.m[i] = c.beta1 * self.m[i] + (1 - c.beta1) * g
            self.v[i] = c.beta2 * self.v[i] + (1 - c.beta2) * g * g
            w -= c.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + c.eps)


def unmax_along_axis(dout, idx, n):
    """The max-over-axis -2 gradient by np.put_along_axis: dout at each
    window's index idx, zero elsewhere, in n-element windows."""
    dwin = np.zeros((*idx.shape[:-1], n, idx.shape[-1]), dtype=dout.dtype)
    np.put_along_axis(dwin, idx[..., None, :], dout[..., None, :], axis=-2)
    return dwin


def held_rows_along_axis(h, idx):
    """The lead rows (frame, timestep) of h holding a gmax index, by
    np.put_along_axis."""
    held = np.zeros(h.shape[:2], bool)
    np.put_along_axis(held, idx // math.prod(h.shape[2:-1]), True, axis=1)
    return held


# ---------------------------------------------------------------------------
# Acquisition oracle
# ---------------------------------------------------------------------------

class DequeStream:
    """Sliding-window framing the per-sample way. Each FIFO is a deque of
    (stamp, row, track index) triples: before each frame, samples are pushed
    one at a time (a full FIFO counts the sample as overflowed), the window
    is a filter over the whole deque, old samples are popped from the front,
    and each window's list of rows is forced to its row count with list
    operations. first_rows lists each frame's first track index per sensor
    when every window holds exactly its rows at consecutive indices, else None.

    tracks maps a sensor name to (stamps, values, duration_ns); rows and
    depth map it to its rows per window and its FIFO depth.
    """

    def __init__(self, tracks, rows, depth):
        self.tracks, self.rows, self.depth = tracks, rows, depth
        self.buf = {name: deque() for name in tracks}
        self.next = dict.fromkeys(tracks, 0)
        self.counts = {name: {"produced": 0, "consumed": 0, "overflowed": 0}
                       for name in tracks}
        self.underfill_events: list[tuple[str, int]] = []
        self.overfill_events: list[tuple[str, int]] = []
        self.first_rows: list[dict[str, int] | None] = []

    def _run_until(self, t_ns):
        for name, (t, v, duration_ns) in self.tracks.items():
            buf, c, k = self.buf[name], self.counts[name], self.next[name]
            while k < len(t) and int(t[k]) < duration_ns and int(t[k]) < t_ns:
                c["produced"] += 1
                if len(buf) >= self.depth[name]:
                    c["overflowed"] += 1
                else:
                    buf.append((int(t[k]), v[k], k))
                k += 1
            self.next[name] = k

    def _fit(self, name, samples, t_emit):
        want = self.rows[name]
        if len(samples) == want:
            return samples
        if len(samples) > want:
            self.overfill_events.append((name, t_emit))
            return samples[-want:]
        if not samples:
            raise RuntimeError(f"sensor {name!r}: no samples in window at t={t_emit}")
        self.underfill_events.append((name, t_emit))
        return samples + [samples[-1]] * (want - len(samples))

    def frames(self, window_ns, step_ns):
        """Yield (tensors, t_start_ns, t_end_ns) for each frame."""
        end_ns = min(duration_ns for _, _, duration_ns in self.tracks.values())
        k = 0
        while k * step_ns + window_ns <= end_ns:
            a = k * step_ns
            b = a + window_ns
            self._run_until(b)
            tensors, first = {}, {}
            for name, buf in self.buf.items():
                window = [s for s in buf if a <= s[0] < b]
                idx = [k for _, _, k in window]
                if idx and idx == list(range(idx[0], idx[0] + self.rows[name])):
                    first[name] = idx[0]
                samples = self._fit(name, window, b)
                tensors[name] = np.array([row for _, row, _ in samples])
            self.first_rows.append(first if len(first) == len(tensors) else None)
            yield tensors, a, b
            k += 1
            for name, buf in self.buf.items():
                while buf and buf[0][0] < k * step_ns:
                    buf.popleft()
                    self.counts[name]["consumed"] += 1

    def conservation(self):
        out = {}
        for name, c in self.counts.items():
            occupancy = len(self.buf[name])
            out[name] = {**c, "occupancy": occupancy,
                         "ok": c["produced"] == c["consumed"] + occupancy + c["overflowed"]}
        return out


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
