"""Advice sequences folded into a single mass.

A prefix function assigns every input length n a bit string f(n), with
f(n) a prefix of f(n+1).  The whole function is packed into one number
by coding bits as triples (0 -> 100, 1 -> 010), appending each step's
new bits, and dropping a 001 separator after the step into every power
of two.  Content triples never look like a separator, so a reader who
knows only an input length can recover exactly the advice it needs:
scan to the (m+1)-st separator, where 2**(m-1) < length <= 2**m, strip
separators, invert the triple code.

Two consequences carry the weight downstream.  The digit stream has no
zero run longer than 4 and no one run longer than 2, which keeps the
value provably far from every dyadic rational (a mass a finite-budget
experiment can still resolve).  And digits up to any depth d depend on
f at logarithmically many arguments, so deep probes stay cheap.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .dyadic import to_fraction
from .sources import MassSource, _key_values, read_input

TRIPLE_OF_BIT = {"0": "100", "1": "010"}
BIT_OF_TRIPLE = {"100": "0", "010": "1"}
SEPARATOR = "001"


class AdviceCorruptionError(ValueError):
    """The digit stream is not a well-formed advice encoding."""


class GrowthBoundError(ValueError):
    """A prefix function exceeded its declared length bound."""


def code_binary(bits: str) -> str:
    """Triple code of a bit string: 0 -> 100, 1 -> 010."""
    try:
        return "".join(TRIPLE_OF_BIT[b] for b in bits)
    except KeyError:
        raise ValueError(f"not a bit string: {bits!r}") from None


def binarize_8bit(text: str) -> str:
    """Fixed-width byte expansion for advice over non-binary alphabets.

    Byte alignment preserves the prefix property: if one string starts
    another, so do their expansions.
    """
    return "".join(format(byte, "08b") for byte in text.encode("utf-8"))


class PrefixFunction:
    """Advice map n -> f(n) with declared growth |f(2**j)| <= a*j + b.

    The growth pair (a, b) is part of the interface: a decoder that
    knows only the input length uses it to bound how many digits it
    must read, so encoding raises GrowthBoundError rather than silently
    producing a stream the decoder would refuse.
    """

    def __init__(self, fn: Callable[[int], str], a, b,
                 stable_from: Optional[int] = None, descriptor: str = "callable"):
        self.a = to_fraction(a)
        self.b = to_fraction(b)
        if self.a < 0 or self.b < 0:
            raise ValueError("growth parameters must be nonnegative")
        self.stable_from = stable_from
        self.descriptor = descriptor
        self._fn = fn

    def __call__(self, n: int) -> str:
        if n < 0:
            raise ValueError("advice arguments are nonnegative lengths")
        v = self._fn(n)
        if set(v) - {"0", "1"}:
            raise ValueError(f"advice value at {n} is not binary: {v!r}")
        return v

    @classmethod
    def from_table(cls, pairs, a=0, b=None, binarize: Optional[bool] = None,
                   descriptor: str = "table") -> "PrefixFunction":
        """Step function from (n, value) pairs or an n -> value dict, constant
        past the last key.  A key may appear once.

        f(n) is the value at the largest key <= n (empty before the first
        key).  Values with characters outside 0/1 are byte-expanded, all
        of them, so mixed tables stay consistent.
        """
        items = sorted(pairs.items() if isinstance(pairs, dict) else pairs, key=lambda kv: kv[0])
        keys = [n for n, _ in items]
        repeated = [n for n, k in zip(keys, keys[1:]) if n == k]
        if repeated:
            raise ValueError(f"key {repeated[0]} repeats")
        if keys and keys[0] < 0:
            raise ValueError("table keys must be nonnegative")
        values = [str(v) for _, v in items]
        if binarize is None:
            binarize = any(set(v) - {"0", "1"} for v in values)
        if binarize:
            values = [binarize_8bit(v) for v in values]
        for prev, cur in zip(values, values[1:]):
            if not cur.startswith(prev):
                raise ValueError("table values must extend one another in key order")

        def fn(n: int) -> str:
            i = bisect.bisect_right(keys, n)
            return values[i - 1] if i else ""

        if b is None:
            b = max((len(v) for v in values), default=0)
        return cls(fn, a, b, stable_from=(keys[-1] if keys else 0),
                   descriptor=descriptor)

    @classmethod
    def from_table_file(cls, path: str) -> "PrefixFunction":
        """Tab-separated "n<TAB>value" lines.  A # line with = in it holds
        key=value directives: a= and b= override the inferred growth pair,
        alphabet=text|binary the inferred binarization, each on one line at
        most.  Other # lines are comments.  Every error names its path:line."""
        table = {}          # key n, or directive a, b or alphabet -> (line, value)
        for lineno, line in enumerate(read_input(path).split("\n"), 1):
            hash_line = line.lstrip().startswith("#")
            if not line.strip() or hash_line and "=" not in line:
                continue    # a blank line or a comment
            try:
                if hash_line:
                    tokens = _key_values(line.lstrip().lstrip("# ").split(), ("a", "b", "alphabet"))
                    alphabet = tokens.get("alphabet", "text")
                    if alphabet not in ("text", "binary"):
                        raise ValueError(f"alphabet must be text or binary, got {alphabet!r}")
                    entries = [(key, val == "text" if key == "alphabet" else to_fraction(val))
                               for key, val in tokens.items()]
                else:
                    n_str, sep, value = line.partition("\t")
                    if not sep:
                        raise ValueError("expected n<TAB>value")
                    n = int(n_str)
                    if n < 0:
                        raise ValueError("table keys must be nonnegative")
                    entries = [(n, value)]
                for key, value in entries:
                    if key in table:
                        raise ValueError(f"key {key!r} repeats line {table[key][0]}")
                    table[key] = lineno, value
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        directives = {key: table.pop(key)[1] for key in ("a", "b", "alphabet") if key in table}
        return cls.from_table([(n, v) for n, (_, v) in table.items()], descriptor=path,
                              binarize=directives.pop("alphabet", None), **directives)


def advice_chunks(f: PrefixFunction) -> Iterator[str]:
    """Digit stream of the encoded advice, one chunk per separator epoch.

    Yields code(f(0)), then for j = 0, 1, 2, ... the coded new bits
    accumulated through argument 2**j followed by a separator.  The
    concatenation equals coding every single step n -> n+1 in order,
    because intermediate values telescope.
    """
    prev = f(0)
    if Fraction(len(prev)) > f.b:
        raise GrowthBoundError(f"|f(0)| = {len(prev)} exceeds b = {f.b}")
    yield code_binary(prev)
    j = 0
    while True:
        cur = f(1 << j)
        if not cur.startswith(prev):
            raise ValueError(f"f({1 << j}) does not extend f({1 << (j - 1) if j else 0})")
        if Fraction(len(cur)) > f.a * j + f.b:
            raise GrowthBoundError(
                f"|f(2**{j})| = {len(cur)} exceeds a*{j}+b = {f.a * j + f.b}")
        yield code_binary(cur[len(prev):]) + SEPARATOR
        prev = cur
        j += 1


def encode_advice(f: PrefixFunction, m_max: int) -> str:
    """Finite encoding prefix through the separator for 2**m_max."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    gen = advice_chunks(f)
    return "".join(next(gen) for _ in range(m_max + 2))


class _AdviceSource(MassSource):
    kind = "advice"

    def __init__(self, f: PrefixFunction):
        exact = None
        if f.stable_from is not None:
            # Once f stops changing, every later chunk is a bare separator,
            # so the tail is (001) repeating, worth 1/7 at its alignment.
            # jstar is the least j with 2**j >= stable_from
            jstar = max(f.stable_from - 1, 0).bit_length()
            # encode_advice checks growth and prefix extension through
            # 2**jstar; past it f is constant and a >= 0, so they hold.
            head = encode_advice(f, jstar)
            exact = Fraction(7 * int(head, 2) + 1, 7 << len(head))
        super().__init__(exact_value=exact)
        self._f = f
        self._gen = advice_chunks(f)

    def _block(self, start: int, depth: int) -> str:
        # only without stable_from: an exact value reads in closed form
        chunk = next(self._gen)
        while not chunk:
            chunk = next(self._gen)
        return chunk

    def describe(self) -> dict:
        d = super().describe()
        d["advice"] = self._f.descriptor
        d["growth"] = f"a={self._f.a},b={self._f.b}"
        return d


def encoded_mass(f: PrefixFunction) -> MassSource:
    """The mass whose digit stream encodes the whole advice function."""
    return _AdviceSource(f)


def read_bound(word_length: int, a, b) -> int:
    """Digits a decoder may need for inputs of this length: 3a*m + (3b+3) + 3m.

    Content contributes 3*|f(2**m)| <= 3*(a*m + b) digits and the m+1
    separators contribute 3m + 3.
    """
    if word_length < 1:
        raise ValueError("word_length must be >= 1")
    m = (word_length - 1).bit_length()
    a = to_fraction(a)
    b = to_fraction(b)
    content = (a * m + b).__floor__()
    return 3 * content + 3 * (m + 1)


def decode_advice(stream: str, word_length: int, a, b) -> tuple[str, int]:
    """Recover f(2**m) for 2**(m-1) < word_length <= 2**m from a 0/1 string.

    Reads aligned triples until the (m+1)-st separator, refusing streams
    that are not triple-coded, that end before it or that run past the
    read bound implied by the growth pair (a, b): the first
    read_bound(word_length, a, b) digits are all it ever reads.  Returns
    the advice bits and the number of digits consumed.
    """
    if word_length < 1:
        raise ValueError("word_length must be >= 1")
    m = (word_length - 1).bit_length()
    max_triples = read_bound(word_length, a, b) // 3
    content, separators = [], 0
    for pos in range(0, 3 * max_triples, 3):
        t = stream[pos:pos + 3]
        if t == SEPARATOR:
            separators += 1
            if separators > m:
                return "".join(content), pos + 3
        elif t in BIT_OF_TRIPLE:
            content.append(BIT_OF_TRIPLE[t])
        elif len(t) < 3:
            raise AdviceCorruptionError("stream ended before the last separator")
        else:
            raise AdviceCorruptionError(f"invalid triple {t!r} at digit {pos + 1}")
    raise AdviceCorruptionError(f"no separator {m + 1} within {max_triples} triples; "
                                "stream violates the declared growth bound")


def dyadic_gap_bound(n: int) -> Fraction:
    """Guaranteed separation of any encoded advice mass from every k/2**n.

    Triple-coded streams have zero runs of at most 4 and one runs of at
    most 2 (worst cases 100|001 and 001|100), so the tail after any cut
    is strictly between 2**-5 and 1 - 2**-3.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(1, 1 << (n + 5))
