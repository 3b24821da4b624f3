"""Fixed-point numeric primitives: rounding, saturation and multiply-shift
requantization.

This module is the single definition of the arithmetic semantics: the
quantizer and the integer engine call these functions instead of restating
any rule, and storage_format is the one signed (n + 1)-bit storage format
of an n-bit model. rounding_rshift and saturate take Python ints, exact at
any width; round_nearest and requantize also take numpy arrays and work in
their argument's own buffer. Requantization is the integer multiply and
rounding right-shift of Jacob et al. 2018 (arXiv:1712.05877).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FxFormat",
    "storage_format",
    "round_nearest",
    "rounding_rshift",
    "saturate",
    "requantize",
]


@dataclass(frozen=True)
class FxFormat:
    """Signed fixed-point storage format.

    n_bits counts the full word including the sign bit; frac_bits is how many
    of them are fractional (weights in [-1, 1) use n_bits - 1).
    """

    n_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in [2, 16], got {self.n_bits}")
        if not 0 <= self.frac_bits < self.n_bits:
            raise ValueError(
                f"frac_bits must be in [0, n_bits), got {self.frac_bits}"
            )

    @property
    def min_int(self) -> int:
        return -(1 << (self.n_bits - 1))

    @property
    def max_int(self) -> int:
        return (1 << (self.n_bits - 1)) - 1


@functools.cache
def storage_format(n_bits: int) -> FxFormat:
    """Signed (n_bits + 1)-bit storage with n_bits fractional bits: the format
    of every activation of an n_bits model. Made once per width."""
    return FxFormat(n_bits + 1, n_bits)


def round_nearest(x, fmt: FxFormat | None = None):
    """Round to the nearest integer, ties away from zero, and saturate into
    fmt if given. A float gives an int. A float array is consumed: rounded
    and clipped in its own buffer before the int64 cast, so an out-of-range
    value saturates instead of wrapping. Non-finite input is rejected."""
    if not isinstance(x, np.ndarray):
        if not np.isfinite(x):
            raise ValueError(f"cannot round non-finite value {x!r}")
        r = int(np.sign(x) * np.floor(np.abs(x) + 0.5))
        return r if fmt is None else saturate(r, fmt)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"cannot round {x.size - np.count_nonzero(finite)} non-finite value(s)")
    x += np.copysign(0.5, x)  # exactly sign(x) * (|x| + 0.5): trunc gives the scalar rule
    np.trunc(x, out=x)
    if fmt is not None:
        np.maximum(x, fmt.min_int, out=x)
        np.minimum(x, fmt.max_int, out=x)
    return x.astype(np.int64)


def rounding_rshift(v: int, shift: int) -> int:
    """Divide v by 2**shift, rounding to nearest with ties away from zero.

    Exact integer arithmetic; equal to round_nearest(v / 2**shift) at any
    magnitude.
    """
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if shift == 0:
        return v
    mag = (abs(v) + (1 << (shift - 1))) >> shift
    return mag if v >= 0 else -mag


def saturate(v: int, fmt: FxFormat) -> int:
    """Clamp v into the signed n_bits range of fmt."""
    return min(max(int(v), fmt.min_int), fmt.max_int)


def requantize(acc, mult: int, shift: int, fmt: FxFormat, relu: bool = False):
    """Rescale an accumulator to the output format: saturate(round(acc*mult/2^shift)),
    ties away from zero; with relu on, negative results clamp to 0.

    An int64 array acc is consumed: the result is its own buffer. For v =
    acc*mult and h = 2^(shift-1) the shift is (v + h - (v < 0)) >> shift, the
    floor form of -((-v + h) >> shift) for v < 0. With relu on, a negative v
    rounds to at most 0, so the lower clip at 0 is the whole ReLU. The caller
    keeps |acc*mult| < 2^62 (QuantizedModel's headroom rule), so no step wraps.
    """
    if mult < 1:
        raise ValueError(f"mult must be >= 1, got {mult}")
    if not isinstance(acc, np.ndarray):
        v = rounding_rshift(acc * mult, shift)
        return saturate(max(v, 0) if relu else v, fmt)
    acc *= mult
    if shift and not relu:
        acc -= acc < 0
    acc += (1 << shift) >> 1
    acc >>= shift
    np.maximum(acc, 0 if relu else fmt.min_int, out=acc)  # np.clip costs more per call
    np.minimum(acc, fmt.max_int, out=acc)
    return acc
