import math

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
