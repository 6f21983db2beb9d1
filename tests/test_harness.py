import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collidersim.advice import PrefixFunction, encoded_mass, read_bound
from collidersim.harness import (AdviceLanguage, MeasurementIncomplete,
                                 cost_slope, decide_membership,
                                 embed_parameter, estimate_digits,
                                 estimator_zeta, hidden_bit_language,
                                 membership_schedule, trinomial_probabilities)
from collidersim.oracle import (CollisionOracle, ConfigError, OracleConfig,
                                PrecisionMode, WaitPolicy)
from collidersim.sources import from_dyadic, from_rational


class TestTrinomial:
    def test_probabilities_at_quarter_inset(self):
        p, q, r = trinomial_probabilities(Fraction(1, 7), Fraction(1, 4))
        assert (p, q, r) == (Fraction(11, 56), Fraction(31, 56), Fraction(1, 4))
        assert p + q + r == 1

    def test_statistic_mean_cancels_inset(self):
        for s in (Fraction(0), Fraction(1, 7), Fraction(2, 7), Fraction(1)):
            p, q, r = trinomial_probabilities(s, Fraction(1, 4))
            assert 2 * p + r == s + Fraction(1, 2)

    def test_variance_closed_form_at_quarter_inset(self):
        for s in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
            p, _, r = trinomial_probabilities(s, Fraction(1, 4))
            got = 4 * p + r - (2 * p + r) ** 2
            assert got == Fraction(1, 2) + s * (1 - s)
            assert got <= Fraction(3, 4)

    def test_variance_matches_first_principles(self):
        # X is 2 on lesser, 0 on greater and 1 on timeout
        s, h = Fraction(2, 7), Fraction(1, 8)
        probs = trinomial_probabilities(s, h)
        mean = sum(x * pr for x, pr in zip((2, 0, 1), probs))
        second = sum(x * x * pr for x, pr in zip((2, 0, 1), probs))
        assert second - mean * mean == s * (1 - s) + Fraction(3, 4) - h

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            trinomial_probabilities(Fraction(3, 2), Fraction(1, 4))
        with pytest.raises(ValueError):
            trinomial_probabilities(Fraction(1, 2), Fraction(2, 3))


class TestEstimatorSizing:
    def test_digit_accuracy(self):
        # zeta is the least trial count at which Chebyshev, with the
        # variance cap 3/4, holds the accuracy 2**-(k+5) at confidence delta
        delta = Fraction(1, 4)
        for k in (1, 2, 3):
            zeta = estimator_zeta(k, delta)
            accuracy = Fraction(1, 1 << (k + 5))
            assert Fraction(3, 4) / (zeta * accuracy ** 2) < delta
            assert Fraction(3, 4) / ((zeta - 1) * accuracy ** 2) >= delta

    def test_zeta_frozen(self):
        quarter = Fraction(1, 4)
        assert estimator_zeta(1, quarter) == 12289
        assert estimator_zeta(2, quarter) == 49153
        assert estimator_zeta(3, quarter) == 196609
        # exact 1/10; the float 0.1 is a little above it and gave 122880
        assert estimator_zeta(2, "1/10") == 122881

    def test_zeta_scales_with_confidence(self):
        assert estimator_zeta(1, Fraction(1, 8)) > estimator_zeta(1, Fraction(1, 4))


def _fixed_oracle():
    cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=Fraction(1, 64),
                       wait_policy=WaitPolicy.FULL_BUDGET)
    return CollisionOracle(from_rational(1, 2), cfg)


@pytest.mark.parametrize("call", [
    lambda: embed_parameter(from_rational(1, 7), 0.1),
    lambda: trinomial_probabilities(0.1, Fraction(1, 4)),
    lambda: trinomial_probabilities(Fraction(1, 3), 0.1),
    lambda: estimator_zeta(2, 0.1),
    lambda: estimate_digits(_fixed_oracle(), 1, delta=0.1),
    lambda: PrefixFunction(lambda n: "", 0.1, 1),
    lambda: PrefixFunction(lambda n: "", 1, 0.1),
    lambda: read_bound(4, 0.1, 1),
    lambda: read_bound(4, 1, 0.1),
], ids=["embed_parameter", "trinomial-s", "trinomial-h", "estimator_zeta",
        "estimate_digits", "PrefixFunction-a", "PrefixFunction-b",
        "read_bound-a", "read_bound-b"])
def test_floats_are_refused(call):
    # a float would enter as its binary value, not the rational meant
    with pytest.raises(TypeError, match="0.1"):
        call()


class TestEmbedding:
    def test_affine_image(self):
        src = embed_parameter(from_rational(1, 7), Fraction(1, 64))
        assert src.exact_value == Fraction(443, 896)

    def test_endpoints_stay_interior(self):
        lo = embed_parameter(from_rational(0, 1), Fraction(1, 16))
        hi = embed_parameter(from_rational(1, 1), Fraction(1, 16))
        assert lo.exact_value == Fraction(1, 2) - Fraction(1, 32)
        assert hi.exact_value == Fraction(1, 2) + Fraction(1, 32)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            embed_parameter(from_rational(1, 7), Fraction(2, 3))


class TestEstimateDigits:
    def estimator_oracle(self, s, epsilon, seed):
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=epsilon,
                           wait_policy=WaitPolicy.FULL_BUDGET, seed=seed)
        return CollisionOracle(embed_parameter(s, epsilon), cfg)

    def test_first_digit_of_one_seventh(self):
        oracle = self.estimator_oracle(from_rational(1, 7), Fraction(1, 64), 5)
        est = estimate_digits(oracle, 1)
        assert est.zeta == 12289
        assert est.digits == "0"
        assert est.n_lesser + est.n_greater + est.n_timeout == est.zeta
        assert abs(est.s_hat - Fraction(1, 7)) < Fraction(1, 64)

    def test_two_digits_of_four_sevenths(self):
        oracle = self.estimator_oracle(from_rational(4, 7), Fraction(1, 64), 8)
        est = estimate_digits(oracle, 2)
        assert est.digits == "10"
        assert est.zeta == 49153

    def test_costs_are_full_budget(self):
        eps = Fraction(1, 64)
        oracle = self.estimator_oracle(from_rational(2, 7), eps, 2)
        est = estimate_digits(oracle, 1)
        assert est.elapsed_total == est.zeta * (4 / eps)
        assert est.setup_total == est.zeta * 2

    def test_requires_fixed_full_budget(self):
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=Fraction(1, 64),
                           wait_policy=WaitPolicy.INTERRUPT)
        with pytest.raises(ConfigError):
            estimate_digits(CollisionOracle(from_rational(1, 2), cfg), 1)
        with pytest.raises(ConfigError):
            estimate_digits(CollisionOracle(from_rational(1, 2)), 1)

    def test_serialization(self):
        oracle = self.estimator_oracle(from_rational(1, 7), Fraction(1, 64), 5)
        est = estimate_digits(oracle, 1)
        d = est.to_dict()
        assert d["digits"] == "0"
        assert d["counts"] == {"lesser": est.n_lesser,
                               "greater": est.n_greater,
                               "timeout": est.n_timeout}
        assert d["s_hat"].count("/") == 1


class TestHiddenBitLanguage:
    def test_truth_table(self):
        lang = hidden_bit_language("1011")
        assert lang.contains("0")          # bit 1 of the hidden string
        assert not lang.contains("00")     # bit 2
        assert lang.contains("0000")       # bit 3
        assert lang.contains("00000000")   # bit 4
        assert not lang.contains("000")    # length 3 still reads bit 2
        assert lang.contains("00000")      # length 5 reads bit 3

    def test_advice_growth(self):
        lang = hidden_bit_language("1011")
        assert lang.f(1) == "1"
        assert lang.f(2) == "10"
        assert lang.f(8) == "1011"
        assert lang.f(64) == "1011"  # capped once the string is exhausted
        assert (lang.f.a, lang.f.b) == (1, 1)


class TestDecideMembership:
    def test_agrees_with_ground_truth(self):
        lang = hidden_bit_language("101")
        # a 3-bit hidden string covers word lengths up to 2**3 - 1
        for word in ("0", "00", "000", "0000", "0000000"):
            oracle = CollisionOracle(encoded_mass(lang.f))
            result = decide_membership(oracle, word, lang)
            assert result.accepted == lang.contains(word)
            assert result.advice_bits == lang.f(2 ** (len(word) - 1).bit_length())

    def test_time_grows_polynomially(self):
        lang = hidden_bit_language("10110100")
        times = []
        lengths = [8, 16, 32, 64, 128]
        for n in lengths:
            oracle = CollisionOracle(encoded_mass(lang.f))
            result = decide_membership(oracle, "0" * n, lang)
            times.append(result.total_time)
        slope = cost_slope(lengths, times)
        assert slope <= 7.0

    def test_slow_schedule_raises_incomplete(self):
        # a dyadic target is no encoded mass: the first midpoint 1/2 ties
        # with it, and no budget of the membership schedule resolves a tie
        lang = hidden_bit_language("10")
        oracle = CollisionOracle(from_dyadic(Fraction(1, 2)))
        with pytest.raises(MeasurementIncomplete,
                           match="^measurement stopped: timed-out-at-digit:1$"):
            decide_membership(oracle, "0000", lang)


class TestCostSlope:
    def test_recovers_power_law(self):
        lengths = [4, 8, 16, 32, 64]
        times = [Fraction(3) * n ** 6 for n in lengths]
        assert math.isclose(cost_slope(lengths, times), 6.0, abs_tol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(
        st.tuples(st.integers(1, 1 << 40),
                  st.fractions(min_value=Fraction(1, 1 << 30), max_value=1 << 60)),
        min_size=2, max_size=12))
    def test_matches_statistics_linear_regression(self, samples):
        lengths, times = zip(*samples)
        xs = [math.log2(n) for n in lengths]
        assume(len(set(xs)) > 1)
        ys = [math.log2(float(t)) for t in times]
        assert cost_slope(lengths, times) == statistics.linear_regression(xs, ys).slope

    def test_constant_lengths_are_refused(self):
        with pytest.raises(ValueError, match="x is constant"):
            cost_slope([8, 8, 8], [1, 2, 3])
