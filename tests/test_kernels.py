import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collidersim import kernels, rng

W = kernels._LANES
TOP = (1 << 64) - 1


def pair(x):
    return x.numerator, x.denominator


def count(seed, stream, zeta, z, epsilon, mu, eta):
    """kernels.count_outcomes at the protocol-timing cutoffs mu -/+ eta."""
    return kernels.count_outcomes(seed, stream, zeta, z, epsilon,
                                  pair(mu - eta), pair(mu + eta))


def brute_force(seed, stream, zeta, z, epsilon, mu, eta):
    n_less = n_great = 0
    for k in range(zeta):
        r = rng.raw64(seed, stream, 2 * k)
        m = z - epsilon + 2 * epsilon * Fraction(r, 1 << 64)
        if m < mu - eta:
            n_less += 1
        elif m > mu + eta:
            n_great += 1
    return n_less, n_great


class TestThresholds:
    def test_frozen_symmetric_case(self):
        # window [0, 1] split at exact quarter points
        r_lo, r_hi = kernels.thresholds(Fraction(1, 2), Fraction(1, 2),
                                        Fraction(1, 2), Fraction(1, 4))
        assert (r_lo, r_hi) == (1 << 62, 3 * (1 << 62) + 1)

    def test_boundary_draws_are_timeouts(self):
        # a draw exactly on a cutoff realizes |m* - mu| == eta, which is
        # not an answer; the integer rounding must keep it out of both bins
        r_lo, r_hi = kernels.thresholds(Fraction(1, 2), Fraction(1, 2),
                                        Fraction(1, 2), Fraction(1, 4))
        r = 1 << 62  # m* = 1/4 = mu - eta exactly
        assert not r < r_lo
        r = 3 * (1 << 62)  # m* = 3/4 = mu + eta exactly
        assert not r >= r_hi

    def test_rejects_nonpositive_widths(self):
        half = Fraction(1, 2)
        with pytest.raises(ValueError):
            kernels.thresholds(half, Fraction(0), half, Fraction(1, 8))
        with pytest.raises(ValueError):
            kernels.thresholds(half, Fraction(1, 8), half, Fraction(0))


class TestCounting:
    def test_matches_fraction_arithmetic(self):
        gen = random.Random(20260814)
        for trial in range(40):
            z = Fraction(gen.randrange(1, 64), 64)
            epsilon = Fraction(1, gen.choice([16, 32, 64, 128]))
            mu = z + Fraction(gen.randrange(-8, 9), 512)
            eta = Fraction(1, gen.choice([256, 1024, 4096]))
            seed = gen.randrange(1 << 32)
            got = count(seed, trial, 300, z, epsilon, mu, eta)
            want = brute_force(seed, trial, 300, z, epsilon, mu, eta)
            assert got == want

    def test_degenerate_all_lesser(self):
        counts = count(5, 0, 128, Fraction(1, 4), Fraction(1, 8),
                       Fraction(3, 4), Fraction(1, 100))
        assert counts == (128, 0)

    def test_degenerate_all_greater(self):
        counts = count(5, 0, 128, Fraction(3, 4), Fraction(1, 8),
                       Fraction(1, 4), Fraction(1, 100))
        assert counts == (0, 128)

    def test_degenerate_all_timeouts(self):
        # eta swamps the whole draw window
        counts = count(5, 0, 128, Fraction(1, 2), Fraction(1, 64),
                       Fraction(1, 2), Fraction(1, 4))
        assert counts == (0, 0)


class TestEngines:
    def test_registry_names(self):
        assert kernels.engines() == {"thresholds-py": kernels.count_thresholds}
        assert kernels.engine_name() == "thresholds-py"

    # zeta straddles the lane-block edges of the packed kernel; the
    # thresholds take the extreme words, and r_lo > r_hi1 + 1 leaves draws
    # that are both below r_lo and above r_hi1, which count as lesser only
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, TOP), stream=st.integers(0, 1 << 20),
           zeta=st.sampled_from([1, W - 1, W, W + 1, 2 * W + 3])
           | st.integers(0, 3 * W),
           r_lo=st.sampled_from([0, 1, 1 << 63, TOP]) | st.integers(0, TOP),
           r_hi1=st.sampled_from([0, TOP]) | st.integers(0, TOP))
    @example(seed=99, stream=3, zeta=500, r_lo=1 << 63, r_hi1=(1 << 63) + (1 << 60))
    @example(seed=5, stream=0, zeta=2 * W + 3, r_lo=3 << 62, r_hi1=1 << 62)
    @example(seed=5, stream=1, zeta=W + 1, r_lo=TOP, r_hi1=0)
    @example(seed=TOP, stream=0, zeta=W - 1, r_lo=0, r_hi1=TOP)
    def test_engines_match_raw64_recount(self, seed, stream, zeta, r_lo, r_hi1):
        n_less = n_great = 0
        for k in range(zeta):
            r = rng.raw64(seed, stream, 2 * k)
            if r < r_lo:
                n_less += 1
            elif r > r_hi1:
                n_great += 1
        assert kernels.count_thresholds(seed, stream, zeta, r_lo, r_hi1) == (n_less, n_great)
