"""Fixed-point numeric primitives: rounding, saturation, register range and
multiply-shift requantization.

This module is the single definition of the arithmetic semantics: the
quantizer and the integer engine call these functions instead of restating
any rule. The one MAC is the engine's (engine._mac), whose register check
is fits. Every function takes plain Python numbers, on which integer
results are exact at any width, or numpy arrays, to which it applies the
same rule elementwise (integer arrays are int64; callers keep their values
inside that range). Requantization is the integer multiply and rounding
right-shift of Jacob et al. 2018 (arXiv:1712.05877).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FxFormat",
    "AccumulatorOverflowError",
    "round_nearest",
    "rounding_rshift",
    "saturate",
    "fits",
    "requantize",
]


class AccumulatorOverflowError(ArithmeticError):
    """A MAC accumulation exceeded the accumulator register width."""


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


def round_nearest(x):
    """Round to the nearest integer, ties away from zero.

    A float gives an int; an array gives an int64 array. Non-finite input
    is rejected.
    """
    a = np.asarray(x, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"cannot round non-finite value {x!r}")
    r = np.sign(a) * np.floor(np.abs(a) + 0.5)
    return r.astype(np.int64) if isinstance(x, np.ndarray) else int(r)


def rounding_rshift(v, shift: int):
    """Divide v by 2**shift, rounding to nearest with ties away from zero.

    Exact integer arithmetic; equal to round_nearest(v / 2**shift) at any
    magnitude of a Python int.
    """
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if shift == 0:
        return v
    mag = (abs(v) + (1 << (shift - 1))) >> shift
    if isinstance(v, np.ndarray):
        return np.where(v >= 0, mag, -mag)
    return mag if v >= 0 else -mag


def saturate(v, fmt: FxFormat):
    """Clamp v into the signed n_bits range of fmt."""
    if isinstance(v, np.ndarray):
        return np.minimum(np.maximum(v, fmt.min_int), fmt.max_int)  # np.clip costs more per call
    return min(max(int(v), fmt.min_int), fmt.max_int)


def fits(v, width: int) -> bool:
    """Whether v (an int, or every element of an integer array) fits a signed
    width-bit register. Bounds compare as Python ints, exact at any width."""
    lim = 1 << (width - 1)
    if isinstance(v, np.ndarray):
        return v.size == 0 or (-lim <= int(v.min()) and int(v.max()) <= lim - 1)
    return -lim <= v <= lim - 1


def requantize(acc, mult: int, shift: int, fmt: FxFormat, relu: bool = False):
    """Rescale an accumulator to the output format: saturate(round(acc*mult/2^shift)).

    acc is an int or an int64 array. With relu on, negative results clamp to
    0 before saturation, folding the activation into the requantization stage.
    """
    if mult < 1:
        raise ValueError(f"mult must be >= 1, got {mult}")
    v = rounding_rshift(acc * mult, shift)
    if relu:
        v = np.maximum(v, 0) if isinstance(v, np.ndarray) else max(v, 0)
    return saturate(v, fmt)
