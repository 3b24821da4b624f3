"""Fixed-point numeric primitives: rounding, saturation and multiply-shift
requantization.

This module is the single definition of the arithmetic semantics: the
quantizer and the integer engine call these functions instead of restating
any rule. storage_format is the one signed (n + 1)-bit storage format of an
n-bit model and holds the one width rule: an integer (persist.check_value)
of 1 to 15 magnitude bits, so that a word fits 16 bits. round_nearest and
requantize take numpy arrays only and work in their argument's own buffer;
the exact scalar references that tests compare them against live in
tests/oracles.py. Requantization is the integer multiply and rounding
right-shift of Jacob et al. 2018 (arXiv:1712.05877).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .persist import check_value

__all__ = [
    "FxFormat",
    "storage_format",
    "round_nearest",
    "requantize",
]


@dataclass(frozen=True)
class FxFormat:
    """Signed fixed-point storage format; n_bits counts the full word
    including the sign bit."""

    n_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in [2, 16], got {self.n_bits}")

    @property
    def min_int(self) -> int:
        return -(1 << (self.n_bits - 1))

    @property
    def max_int(self) -> int:
        return (1 << (self.n_bits - 1)) - 1


@functools.lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 are not 1's key
def storage_format(n_bits: int) -> FxFormat:
    """Signed (n_bits + 1)-bit storage with n_bits fractional bits: the format
    of every activation of an n_bits model. Made once per width. It holds
    the one width rule: n_bits is an integer count of magnitude bits, 1 to
    15, so that a word with its sign fits 16 bits."""
    check_value("n_bits", n_bits, int)
    if not 1 <= n_bits <= 15:
        raise ValueError(f"n_bits must be 1 to 15 magnitude bits, a sign and magnitude "
                         f"within the 16-bit storage cap, got {n_bits}")
    return FxFormat(n_bits + 1)


def round_nearest(x: np.ndarray, fmt: FxFormat | None = None) -> np.ndarray:
    """Round a float64 array to the nearest integers, ties away from zero, and
    saturate into fmt if given; the result is int64. Non-finite input is
    rejected. x is consumed: it is clipped in its own buffer before the cast,
    so an out-of-range value saturates instead of wrapping. The result is
    trunc(x) + trunc(2 * (x - trunc(x))): the fraction and its double are
    exact at every magnitude, where trunc(x + 0.5) would round in the add.
    """
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise ValueError(f"cannot round {bad} non-finite value(s)")
    if fmt is not None:  # bounds are integers: clipping commutes with rounding
        np.maximum(x, fmt.min_int, out=x)
        np.minimum(x, fmt.max_int, out=x)
    r = x.astype(np.int64)  # truncates toward zero
    x -= r  # the fraction
    x += x
    return np.add(r, x, out=r, dtype=np.int64, casting="unsafe")  # x truncates to -1, 0 or 1


def requantize(
    acc: np.ndarray, mult: int, shift: int, fmt: FxFormat, relu: bool = False
) -> np.ndarray:
    """Rescale an int64 accumulator array to the output format:
    saturate(round(acc*mult/2^shift)), ties away from zero; with relu on,
    negative results clamp to 0.

    acc is consumed: the result is its own buffer. For v = acc*mult and
    h = 2^(shift-1) the shift is (v + h - (v < 0)) >> shift, the floor form of
    -((-v + h) >> shift) for v < 0. With relu on, a negative v rounds to at
    most 0, so the lower clip at 0 is the whole ReLU. The caller keeps
    |acc*mult| < 2^62 (QuantizedModel's headroom rule), so no step wraps.
    """
    if mult < 1:
        raise ValueError(f"mult must be >= 1, got {mult}")
    acc *= mult
    if shift and not relu:
        acc -= acc < 0
    acc += (1 << shift) >> 1
    acc >>= shift
    np.maximum(acc, 0 if relu else fmt.min_int, out=acc)  # np.clip costs more per call
    np.minimum(acc, fmt.max_int, out=acc)
    return acc
