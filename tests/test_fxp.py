import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgehar.fxp import (
    FxFormat,
    requantize,
    round_nearest,
    rounding_rshift,
    saturate,
)

F11 = FxFormat(11, 10)


class TestRoundNearest:
    def test_ties_away_from_zero(self):
        assert round_nearest(2.5) == 3
        assert round_nearest(-2.5) == -3

    def test_zero(self):
        assert round_nearest(0.0) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            round_nearest(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_within_half(self, x):
        assert abs(round_nearest(x) - x) <= 0.5


class TestSaturate:
    def test_clamps_high(self):
        assert saturate(5000, F11) == 1023

    def test_clamps_low(self):
        assert saturate(-5000, F11) == -1024

    def test_in_range_identity(self):
        assert saturate(7, F11) == 7

    @given(st.integers(-(10**9), 10**9))
    def test_idempotent(self, v):
        assert saturate(saturate(v, F11), F11) == saturate(v, F11)

    def test_format_bounds_enforced(self):
        with pytest.raises(ValueError):
            FxFormat(1, 0)
        with pytest.raises(ValueError):
            FxFormat(17, 10)
        with pytest.raises(ValueError):
            FxFormat(8, 8)


class TestRequantize:
    def test_passthrough(self):
        assert requantize(1000, 1, 0, F11) == 1000

    def test_relu_clamps_negative(self):
        assert requantize(-300, 1, 0, F11, relu=True) == 0

    def test_shift_then_saturate(self):
        assert requantize(3000, 1, 1, F11) == 1023

    def test_accepts_accumulator(self):
        assert requantize(1000, 1, 0, F11) == 1000

    def test_mult_must_be_positive(self):
        with pytest.raises(ValueError):
            requantize(10, 0, 0, F11)

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(1, 2**16), st.integers(0, 30))
    def test_relu_output_range(self, acc, mult, shift):
        out = requantize(acc, mult, shift, F11, relu=True)
        assert 0 <= out <= F11.max_int

    @given(st.integers(-(2**40), 2**40), st.integers(0, 20))
    def test_rounding_rshift_matches_real_rounding(self, v, shift):
        got = rounding_rshift(v, shift)
        want = math.floor(v / 2**shift + 0.5)
        # ties away from zero differ from floor(x+0.5) only for negative ties
        frac = v - (v >> shift << shift) if shift else 0
        if v < 0 and shift and frac == (1 << (shift - 1)):
            want = -math.floor(-v / 2**shift + 0.5)
        assert got == want


# |acc * mult| < 2^62 is the headroom QuantizedModel guarantees.
HEADROOM = (1 << 62) - 1


@st.composite
def _accumulators(draw):
    """(acc list, mult, shift): products up to the 2^62 headroom edge and
    exact ties of the shift, both signs, edges included."""
    mult = draw(st.sampled_from([1, 3]) | st.integers(1, 2**31))
    shift = draw(st.integers(0, 62))
    lim = HEADROOM // mult
    edge = st.sampled_from([lim, -lim, lim - 1, -lim + 1, 0, 1, -1])
    if shift and mult == 1:  # v = k * 2^shift +- 2^(shift - 1) is a tie
        k = st.integers(-(lim >> shift), lim >> shift)
        edge |= st.builds(lambda k, s: (k << shift) + s * (1 << (shift - 1)),
                          k, st.sampled_from([1, -1]))
    acc = draw(st.lists(st.integers(-lim, lim) | edge, min_size=1, max_size=32))
    return acc, mult, shift


class TestRequantizeInPlace:
    @given(_accumulators(), st.booleans(), st.integers(2, 16))
    def test_array_equals_scalar_rule(self, acc_mult_shift, relu, n_bits):
        acc, mult, shift = acc_mult_shift
        fmt = FxFormat(n_bits, n_bits - 1)
        got = requantize(np.array(acc, dtype=np.int64), mult, shift, fmt, relu)
        want = [requantize(a, mult, shift, fmt, relu) for a in acc]
        assert got.tolist() == want

    @given(_accumulators())
    def test_scalar_rule_is_real_rounding(self, acc_mult_shift):
        acc, mult, shift = acc_mult_shift
        for a in acc:
            v = a * mult
            q, r = divmod(abs(v), 1 << shift)  # ties away from zero on |v|
            mag = q + (2 * r >= 1 << shift)
            want = saturate(mag if v >= 0 else -mag, F11)
            assert requantize(a, mult, shift, F11) == want

    @pytest.mark.parametrize("relu", [False, True])
    def test_result_is_the_accumulator_buffer(self, relu):
        acc = np.arange(-50, 50, dtype=np.int64)
        assert requantize(acc, 3, 2, F11, relu) is acc

    @pytest.mark.parametrize("relu", [False, True])
    def test_allocates_a_fraction_of_the_accumulator(self, relu):
        acc = np.arange(-(1 << 19), 1 << 19, dtype=np.int64) * 977
        tracemalloc.start()
        try:
            requantize(acc, 12345, 20, F11, relu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * acc.nbytes


class TestRoundNearestArray:
    EDGES = [-2.5, -0.5, 0.5, 2.5, -0.0, 0.49999999999999994, -(2.0**53) - 1, 2.0**60]

    @given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from(EDGES), min_size=1, max_size=32))
    def test_array_equals_scalar_rule(self, xs):
        for fmt in (None, F11):
            got = round_nearest(np.array(xs, dtype=np.float64), fmt)
            assert got.dtype == np.int64
            assert got.tolist() == [round_nearest(x, fmt) for x in xs]

    def test_saturates_before_the_cast(self):
        got = round_nearest(np.array([1e30, -1e30, 1023.4, -1024.6]), F11)
        assert got.tolist() == [1023, -1024, 1023, -1024]

    def test_non_finite_counted(self):
        with pytest.raises(ValueError, match="cannot round 2 non-finite"):
            round_nearest(np.array([0.0, np.nan, np.inf, 1.0]))
