import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collidersim.dyadic import (Dyadic, ONE, ZERO, bits_above, dyadic_to_word,
                                fraction_text, midpoint, to_fraction,
                                validate_word, word_length, word_to_dyadic)


class TestCanonicalForm:
    def test_reduces_even_numerators(self):
        d = Dyadic(6, 3)
        assert (d.num, d.exp) == (3, 2)

    def test_zero_normalizes_exponent(self):
        assert (Dyadic(0, 7).num, Dyadic(0, 7).exp) == (0, 0)

    def test_negative_exponent_scales_up(self):
        assert Dyadic(3, -2) == Dyadic(12, 0)

    @given(num=st.integers(-(1 << 80), 1 << 80), exp=st.integers(-20, 600),
           k=st.integers(0, 600))
    @example(num=1 << 400, exp=500, k=0)
    @example(num=-12, exp=1, k=3)
    def test_trailing_zero_bits_are_stripped(self, num, exp, k):
        d = Dyadic(num, exp)
        wide = Dyadic(num << k, exp + k)
        assert (wide.num, wide.exp) == (d.num, d.exp)
        assert Fraction(d.num, 1 << d.exp) == num * Fraction(2) ** -exp
        assert d.exp >= 0 and (d.exp == 0 or d.num % 2 == 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Dyadic(1, 1).num = 5

    def test_from_fraction_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            Dyadic.from_fraction(Fraction(1, 3))

    def test_round_trip_fraction(self):
        rnd = random.Random(11)
        for _ in range(200):
            exp = rnd.randrange(0, 40)
            num = rnd.randrange(0, (1 << exp) + 1)
            d = Dyadic(num, exp)
            assert Dyadic.from_fraction(d.as_fraction()) == d


class TestArithmetic:
    def test_exact_ops_match_fractions(self):
        rnd = random.Random(23)
        for _ in range(300):
            a = Dyadic(rnd.randrange(-64, 64), rnd.randrange(0, 8))
            b = Dyadic(rnd.randrange(-64, 64), rnd.randrange(0, 8))
            assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
            assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
            assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()

    def test_comparisons_against_fractions(self):
        assert Dyadic(1, 2) < Fraction(1, 3)
        assert Dyadic(3, 2) > Fraction(2, 3)
        assert Dyadic(1, 1) == Fraction(1, 2)

    @given(num=st.integers(-(1 << 70), 1 << 70), exp=st.integers(0, 70),
           other=st.integers(-(1 << 70), 1 << 70) | st.booleans())
    @example(num=3, exp=0, other=3)
    def test_comparisons_against_ints(self, num, exp, other):
        d, f = Dyadic(num, exp), Fraction(num, 1 << exp)
        assert (d == other, d < other, d <= other, d > other, d >= other) == \
            (f == other, f < other, f <= other, f > other, f >= other)

    def test_midpoint(self):
        assert midpoint(ZERO, ONE) == Dyadic(1, 1)
        assert midpoint(Dyadic(1, 2), Dyadic(1, 1)) == Dyadic(3, 3)


class TestFractionalBits:
    def test_digits_of_three_quarters(self):
        d = Dyadic(3, 2)
        assert [d.fractional_bit(i) for i in range(1, 5)] == [1, 1, 0, 0]

    def test_terminating_expansion_for_one(self):
        # canonical streams terminate: 1 = 1.000..., never 0.111...
        assert [ONE.fractional_bit(i) for i in range(1, 4)] == [0, 0, 0]

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            Dyadic(5, 1).fractional_bit(1)


class TestWords:
    def test_word_values(self):
        assert word_to_dyadic("1") == ONE
        assert word_to_dyadic("0") == ZERO
        assert word_to_dyadic("011") == Dyadic(3, 2)
        assert word_to_dyadic("0101") == Dyadic(5, 3)

    def test_one_must_stand_alone(self):
        with pytest.raises(ValueError):
            validate_word("10")
        with pytest.raises(ValueError):
            validate_word("11")

    def test_rejects_garbage(self):
        for bad in ("", "02", "0a1"):
            with pytest.raises(ValueError):
                validate_word(bad)

    @given(st.text(st.sampled_from("01 2a\n\uff10\uff11\u0661"), max_size=12)
           | st.text(max_size=6))
    @example("")
    @example("10")
    @example("0 1")
    @example("02")
    @example("0\uff11")  # a fullwidth digit one, which int(_, 2) would accept
    def test_accepts_exactly_the_word_language(self, word):
        if re.fullmatch(r"0[01]*|1", word):
            validate_word(word)
        else:
            with pytest.raises(ValueError):
                validate_word(word)

    def test_padding_preserves_value(self):
        w = dyadic_to_word(Dyadic(1, 1), min_length=5)
        assert w == "01000"
        assert word_to_dyadic(w) == Dyadic(1, 1)
        assert word_length(w) == 5

    def test_mass_one_cannot_pad(self):
        assert dyadic_to_word(ONE) == "1"
        with pytest.raises(ValueError):
            dyadic_to_word(ONE, min_length=2)

    def test_round_trip_random_words(self):
        rnd = random.Random(7)
        for _ in range(200):
            exp = rnd.randrange(1, 20)
            num = rnd.randrange(0, 1 << exp)
            d = Dyadic(num, exp)
            assert word_to_dyadic(dyadic_to_word(d)) == d

    def test_natural_length_is_exponent_plus_one(self):
        # bisection stage i fires an odd numerator over 2**i: length i+1
        for i in range(1, 12):
            d = Dyadic(2 * (i % 3) + 1, i) if (2 * (i % 3) + 1) < (1 << i) else Dyadic(1, i)
            assert len(dyadic_to_word(d)) == i + 1


class TestNumericHelpers:
    @given(st.fractions() | st.integers())
    @example(Fraction(1, 4))
    @example(Fraction(1))
    @example(Fraction(-1, 2))
    @example(1 << 70)
    def test_bits_above_is_least_exceeding_power(self, x):
        t = bits_above(x)
        assert t >= 0
        assert (1 << t) > x
        assert t == 0 or (1 << (t - 1)) <= x

    def test_to_fraction_and_text(self):
        assert to_fraction(Dyadic(3, 2)) == Fraction(3, 4)
        assert to_fraction("5/10") == Fraction(1, 2)
        assert fraction_text(Fraction(6, 4)) == "3/2"
        assert fraction_text(Fraction(4, 2)) == "2"
        assert fraction_text(Dyadic(1, 3)) == "1/8"
        assert fraction_text(0) == "0"
