import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from edgehar.fxp import FxFormat, requantize, round_nearest

import oracles

F11 = FxFormat(11)


def _round(xs, fmt=None):
    return round_nearest(np.array(xs, dtype=np.float64), fmt).tolist()


def _requantize(accs, mult, shift, fmt, relu=False):
    return requantize(np.array(accs, dtype=np.int64), mult, shift, fmt, relu).tolist()


class TestRoundNearest:
    def test_ties_away_from_zero(self):
        assert _round([2.5, -2.5, 0.5, -0.5]) == [3, -3, 1, -1]

    def test_zero(self):
        assert _round([0.0, -0.0]) == [0, 0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            _round([bad])

    # x + 0.5 rounds up to 1.0 in float64 below the first edge, and to an
    # even neighbour at odd integers in [2^52, 2^53). Past 2^63 no int64 holds
    # the result.
    @given(st.floats(-(2.0**62), 2.0**62, allow_nan=False, allow_infinity=False))
    @example(0.49999999999999994)
    @example(-0.49999999999999994)
    @example(2.0**52 + 1)
    @example(-(2.0**52) - 1)
    def test_exact_at_full_width(self, x):
        assert _round([x]) == [oracles.round_exact(x)]

    @pytest.mark.parametrize("fmt", [None, F11], ids=["no_format", "F11"])
    def test_allocates_at_most_half_again_its_input(self, fmt):
        x = np.random.default_rng(0).uniform(-2000.0, 2000.0, 1 << 20)
        tracemalloc.start()
        try:
            round_nearest(x, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.nbytes


class TestSaturate:
    def test_clamps_high(self):
        assert _round([5000.0], F11) == [1023]
        assert _requantize([5000], 1, 0, F11) == [1023]

    def test_clamps_low(self):
        assert _round([-5000.0], F11) == [-1024]
        assert _requantize([-5000], 1, 0, F11) == [-1024]

    def test_in_range_identity(self):
        assert _round([7.0], F11) == [7]
        assert _requantize([7], 1, 0, F11) == [7]

    @given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=16))
    def test_idempotent(self, vs):
        once = _requantize(vs, 1, 0, F11)
        assert _requantize(once, 1, 0, F11) == once
        assert _round(once, F11) == once

    def test_format_bounds_enforced(self):
        with pytest.raises(ValueError):
            FxFormat(1)
        with pytest.raises(ValueError):
            FxFormat(17)


class TestRequantize:
    def test_passthrough(self):
        assert _requantize([1000], 1, 0, F11) == [1000]

    def test_relu_clamps_negative(self):
        assert _requantize([-300], 1, 0, F11, relu=True) == [0]

    def test_shift_then_saturate(self):
        assert _requantize([3000], 1, 1, F11) == [1023]

    def test_accepts_accumulator(self):
        acc = np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * 100
        got = requantize(acc, 1, 1, F11)
        assert got.dtype == np.int64
        assert got.tolist() == [[-300, -250, -200, -150], [-100, -50, 0, 50],
                                [100, 150, 200, 250]]

    def test_mult_must_be_positive(self):
        with pytest.raises(ValueError):
            _requantize([10], 0, 0, F11)

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=16),
           st.integers(1, 2**16), st.integers(0, 30))
    def test_relu_output_range(self, acc, mult, shift):
        out = requantize(np.array(acc, dtype=np.int64), mult, shift, F11, relu=True)
        assert ((0 <= out) & (out <= F11.max_int)).all()


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
        """Against the integer inference oracle's plain-Python rule."""
        acc, mult, shift = acc_mult_shift
        got = _requantize(acc, mult, shift, FxFormat(n_bits), relu)
        assert got == [oracles._requant(a, mult, shift, n_bits - 1, relu) for a in acc]

    @given(_accumulators())
    def test_array_rule_is_real_rounding(self, acc_mult_shift):
        acc, mult, shift = acc_mult_shift
        want = []
        for a in acc:
            v = a * mult
            q, r = divmod(abs(v), 1 << shift)  # ties away from zero on |v|
            mag = q + (2 * r >= 1 << shift)
            want.append(min(max(mag if v >= 0 else -mag, F11.min_int), F11.max_int))
        assert _requantize(acc, mult, shift, F11) == want

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
        """Elementwise against the exact rule, saturated into the format."""
        assert _round(xs) == [oracles.round_exact(x) for x in xs]
        assert _round(xs, F11) == [min(max(oracles.round_exact(x), -1024), 1023) for x in xs]

    def test_saturates_before_the_cast(self):
        assert _round([1e30, -1e30, 1023.4, -1024.6], F11) == [1023, -1024, 1023, -1024]

    def test_non_finite_counted(self):
        with pytest.raises(ValueError, match="cannot round 2 non-finite"):
            round_nearest(np.array([0.0, np.nan, np.inf, 1.0]))
