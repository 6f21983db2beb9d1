"""Exact dyadic rationals and the query-word encoding.

Test masses are set by finite binary words.  A word is either the single
bit "1" (denoting mass 1) or starts with "0", in which case the remaining
bits are a plain binary fraction: bit i of the word carries weight
2**(1-i), so "011" denotes 1/2 + 1/4 = 3/4.  Trailing zeros change the
length of a word but not its value; length is what timing budgets are
keyed on, so the two are carried separately everywhere.

All arithmetic here is exact.  Python integers are arbitrary size, which
is load-bearing: measurement procedures routinely produce numerators with
hundreds of bits and nothing may round.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, "Dyadic"]


class Dyadic:
    """num / 2**exp in canonical form: exp >= 0 and num odd unless zero."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        else:
            # strip trailing zero bits, at most exp of them
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, value: RationalLike) -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        f = Fraction(value)
        den = f.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{f} is not dyadic (denominator {den})")
        return cls(f.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def fractional_bit(self, i: int) -> int:
        """i-th binary digit after the point (i >= 1) of a value in [0, 1]."""
        if i < 1:
            raise ValueError("digit positions are 1-indexed")
        if not 0 <= self.num <= (1 << self.exp):
            raise ValueError("fractional_bit requires a value in [0, 1]")
        if i <= self.exp:
            return (self.num >> (self.exp - i)) & 1
        return 0

    # arithmetic: results stay exact dyadics

    def _coerce(self, other) -> "Dyadic":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other, 0)
        return Dyadic.from_fraction(other)

    def __add__(self, other) -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other) -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other) -> "Dyadic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Dyadic":
        o = self._coerce(other)
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    # total order against anything Fraction understands

    def _cmp_key(self, other):
        if isinstance(other, Dyadic):
            e = max(self.exp, other.exp)
            return self.num << (e - self.exp), other.num << (e - other.exp)
        if isinstance(other, int):
            return self.num, other << self.exp
        f = Fraction(other)
        return self.num * f.denominator, f.numerator * (1 << self.exp)

    def __eq__(self, other):
        if isinstance(other, Dyadic):
            return self.num == other.num and self.exp == other.exp
        try:
            a, b = self._cmp_key(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a == b

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other):
        a, b = self._cmp_key(other)
        return a >= b

    def __hash__(self):
        return hash(self.as_fraction())

    def __float__(self):
        return self.num / (1 << self.exp)

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self):
        return f"{self.num}/2^{self.exp}" if self.exp else str(self.num)


ZERO = Dyadic(0)
ONE = Dyadic(1)


def to_fraction(value: RationalLike) -> Fraction:
    """Any exact rational (int, Fraction, Dyadic, decimal text) as a Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Dyadic):
        return value.as_fraction()
    return Fraction(value)


def fraction_text(value: RationalLike) -> str:
    """Text of an exact rational in result files: "p/q", or "p" for an integer."""
    f = to_fraction(value)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def bits_above(x) -> int:
    """Least t >= 0 with 2**t > x, i.e. the bit length of floor(x)."""
    return max(x.numerator // x.denominator, 0).bit_length()


def midpoint(a: Dyadic, b: Dyadic) -> Dyadic:
    """Exact midpoint; the workhorse of interval bisection."""
    return (a + b).half()


def validate_word(word: str) -> None:
    if not word:
        raise ValueError("empty query word")
    # strip("01") leaves text iff some character is not an ASCII 0 or 1
    if word.strip("01"):
        raise ValueError(f"query word must be over 0/1, got {word!r}")
    if word[0] == "1" and len(word) > 1:
        raise ValueError(f"a word starting with 1 must be exactly '1', got {word!r}")


def word_to_dyadic(word: str) -> Dyadic:
    """Value of a query word: bit i weighs 2**(1-i)."""
    validate_word(word)
    if word == "1":
        return ONE
    frac_bits = word[1:]
    if not frac_bits:
        return ZERO
    return Dyadic(int(frac_bits, 2), len(frac_bits))


def word_length(word: str) -> int:
    validate_word(word)
    return len(word)


def dyadic_to_word(value: Dyadic, min_length: int = 1) -> str:
    """Shortest word for value, zero-padded on the right up to min_length.

    Padding buys waiting time under length-keyed budgets without moving
    the mass.  The value 1 has the unique word "1" and cannot be padded.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    if value < 0 or value > 1:
        raise ValueError(f"query words denote masses in [0, 1], got {value}")
    if value == ONE:
        if min_length > 1:
            raise ValueError("the word for mass 1 has length 1 and cannot be padded")
        return "1"
    bits = format(value.num, "b").zfill(value.exp) if value.num else ""
    word = "0" + bits
    if len(word) < min_length:
        word = word + "0" * (min_length - len(word))
    return word
