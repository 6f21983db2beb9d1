import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collidersim.dyadic import (Dyadic, bits_above, fraction_text, to_fraction,
                                validate_word, word_to_dyadic)
from collidersim.sources import from_dyadic


def value(word: str) -> Fraction:
    """The value a word spells."""
    return word_to_dyadic(word).as_fraction()


class TestCanonicalForm:
    """The record's one normal form is exp >= 0; otherwise it keeps the
    pair it is given, and only its value is compared."""

    def test_keeps_the_pair_it_is_given(self):
        d = Dyadic(6, 3)
        assert (d.num, d.exp) == (6, 3)

    def test_reduces_even_numerators(self):
        assert Dyadic(6, 3).as_fraction() == Fraction(3, 4)
        assert value("0110") == Fraction(3, 4)

    def test_zero_normalizes_exponent(self):
        assert Dyadic(0, 7).as_fraction() == Dyadic(0, 0).as_fraction() == 0
        assert value("0000000") == 0

    def test_negative_exponent_scales_up(self):
        d = Dyadic(3, -2)
        assert (d.num, d.exp) == (12, 0)

    @given(num=st.integers(-(1 << 80), 1 << 80), exp=st.integers(-20, 600),
           k=st.integers(0, 600))
    @example(num=1 << 400, exp=500, k=0)
    @example(num=-12, exp=1, k=3)
    def test_trailing_zero_bits_keep_the_value(self, num, exp, k):
        d = Dyadic(num, exp)
        wide = Dyadic(num << k, exp + k)
        assert wide.as_fraction() == d.as_fraction() == num * Fraction(2) ** -exp
        assert d.exp >= 0

    def test_round_trip_fraction(self):
        rnd = random.Random(11)
        for _ in range(200):
            exp = rnd.randrange(0, 40)
            num = rnd.randrange(0, (1 << exp) + 1)
            d = Dyadic(num, exp)
            assert from_dyadic(d.as_fraction()).exact_value == d.as_fraction()
            assert from_dyadic(d).exact_value == d.as_fraction()


class TestWords:
    def test_word_values(self):
        assert value("1") == 1
        assert value("0") == 0
        assert value("011") == Fraction(3, 4)
        assert value("0101") == Fraction(5, 8)

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

    def test_mass_one_cannot_pad(self):
        # "1" is the only word of mass 1; a padded "10" is not a word
        assert value("1") == 1
        with pytest.raises(ValueError):
            word_to_dyadic("10")

    def test_padding_preserves_value(self):
        # trailing zeros lengthen a word without moving its mass
        assert value("01000") == value("01") == Fraction(1, 2)

    # words of the language 0[01]*|1, 1 to 600 bits long
    @given(st.builds(lambda n, bits: "0" + (format(bits % (1 << n), f"0{n}b") if n else ""),
                     st.integers(0, 599), st.integers(0, 1 << 599)) | st.just("1"))
    @example("1")
    @example("0")
    @example("0" * 600)
    @example("0" + "1" * 599)
    @example("01" + "0" * 598)
    def test_word_value_is_weighted_bit_sum(self, word):
        assert re.fullmatch(r"0[01]*|1", word) and 1 <= len(word) <= 600
        d = word_to_dyadic(word)
        assert d.as_fraction() == sum(
            (Fraction(int(b), 2 ** (i - 1)) for i, b in enumerate(word, 1)), Fraction(0))
        assert (d.num, d.exp) == (int(word, 2), len(word) - 1)

    def test_natural_length_is_exponent_plus_one(self):
        # bisection stage i fires "0" + (i - 1 digits) + "1": an odd
        # numerator over 2**i, whose word has length i + 1
        rnd = random.Random(5)
        for i in range(1, 12):
            word = "0" + "".join(rnd.choice("01") for _ in range(i - 1)) + "1"
            assert len(word) == i + 1
            assert word_to_dyadic(word).exp == i


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
        assert to_fraction(3) == Fraction(3)
        assert to_fraction("5/10") == Fraction(1, 2)
        half = Fraction(1, 2)
        assert to_fraction(half) is half
        assert fraction_text(Fraction(6, 4)) == "3/2"
        assert fraction_text(Fraction(4, 2)) == "2"
        assert fraction_text(Fraction(1, 8)) == "1/8"
        assert fraction_text(0) == "0"

    def test_to_fraction_reads_text(self):
        assert to_fraction("1/3") == Fraction(1, 3)
        assert to_fraction(" -2/-6 ") == Fraction(1, 3)
        assert to_fraction("0.25") == Fraction(1, 4)
        assert to_fraction("1e-3") == Fraction(1, 1000)
        assert to_fraction("7") == 7
        for text in ["x/y", "1/0", "", "1/2/3", "inf"]:
            with pytest.raises(ValueError, match=re.escape(f"cannot parse rational {text!r}")):
                to_fraction(text)

    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, float("inf")])
    def test_to_fraction_refuses_floats(self, value):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            to_fraction(value)
        with pytest.raises(TypeError):
            fraction_text(value)
