"""Query words, their dyadic values, and exact numeric helpers.

Test masses are set by finite binary words.  A word is either the single
bit "1" (denoting mass 1) or starts with "0", in which case the remaining
bits are a plain binary fraction: bit i of the word carries weight
2**(1-i), so "011" denotes 1/2 + 1/4 = 3/4.  Trailing zeros change the
length of a word but not its value; length is what timing budgets are
keyed on, so the two are carried separately everywhere.

A `Dyadic` is a value record, num / 2**exp as a word spells it; exact
arithmetic on values is done in `Fraction` or in plain integers.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """num / 2**exp with exp >= 0, unreduced: 4/8 stays (4, 3)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:  # a mass file's exp= may be negative
            num, exp = num << -exp, 0
        self.num, self.exp = num, exp

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)


def to_fraction(value) -> Fraction:
    """Any exact rational, text ("1/3", "0.25", "1e-3", "7") too, as a Fraction; never a float."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; give an exact rational "
                        "(int, Fraction or text such as '1/10')")
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                p, q = text.split("/")
                return Fraction(int(p), int(q))
            if "." in text or "e" in text or "E" in text:
                return Fraction(text)
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational {text!r}: {exc}") from None
    return Fraction(value)


def fraction_text(value) -> str:
    """Text of an exact rational in result files: "p/q", or "p" for an integer."""
    f = value if type(value) is Fraction else to_fraction(value)
    d = f.denominator
    return f"{f.numerator}/{d}" if d != 1 else str(f.numerator)


def bits_above(x) -> int:
    """Least t >= 0 with 2**t > x, i.e. the bit length of floor(x)."""
    return max(x.numerator // x.denominator, 0).bit_length()


def validate_word(word: str) -> None:
    if not word:
        raise ValueError("empty query word")
    # strip("01") leaves text iff some character is not an ASCII 0 or 1
    if word.strip("01"):
        raise ValueError(f"query word must be over 0/1, got {word!r}")
    if word[0] == "1" and len(word) > 1:
        raise ValueError(f"a word starting with 1 must be exactly '1', got {word!r}")


def word_to_dyadic(word: str) -> Dyadic:
    """Value of a query word: bit i weighs 2**(1-i), so int(word, 2) / 2**(len-1)."""
    validate_word(word)
    return Dyadic(int(word, 2), len(word) - 1)
