"""Unknown masses as lazy binary digit streams.

The simulator never holds "the real number mu"; it holds a source that
can produce any requested digit of the canonical binary expansion of a
value in [0, 1] (canonical: dyadic values take the terminating form, so
no stream has an eventually-all-ones tail).  Everything downstream that
needs to compare a test mass against mu does so through certified
prefix brackets: after reading d digits the source's value is pinned to
[p/2^d, (p+1)/2^d), and distances derived from that interval are exact
rationals that are sound no matter what the unread tail does.

That discipline is what makes timing questions decidable: a timeout
verdict is issued only once the examined prefix proves the distance is
too small, never from a floating-point shortcut.

`refine` is the one deepening rule: every certified verdict (a proven
gap, an oracle answer or timeout, a clock reading, a digit of an affine
image) reads a prefix, and doubles its depth until the prefix settles
the question or a digit horizon is reached.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Callable, Optional, Sequence, TypeVar

from .dyadic import Dyadic, bits_above, to_fraction

T = TypeVar("T")


class RunLengths:
    """Alternating run lengths u_1, u_2, ... of a 0.1^u1 0^u2 1^u3 ... mass.

    u_1 >= 0 counts the leading ones, every later u_k >= 1.  a_k is the
    cumulative digit position where block k ends.  The sequence may be
    given as a finite list plus a named tail generator, or as a function
    of the (1-indexed) block number.
    """

    def __init__(self, u_func: Callable[[int], int], descriptor: str = "function"):
        self._u_func = u_func
        self._u: list[int] = []
        self._a: list[int] = []
        self.descriptor = descriptor

    @classmethod
    def from_function(cls, u_func: Callable[[int], int], descriptor: str = "function") -> "RunLengths":
        return cls(u_func, descriptor)

    @classmethod
    def from_list(cls, values: Sequence[int], tail: str = "repeat-last") -> "RunLengths":
        values = list(values)
        if not values:
            raise ValueError("run-length list is empty")
        if tail == "repeat-last":
            tail_fn = lambda k: values[-1]
        elif tail == "cycle":
            tail_fn = lambda k: values[(k - 1) % len(values)]
        elif tail.startswith("constant:"):
            c = int(tail.split(":", 1)[1])
            tail_fn = lambda k: c
        else:
            raise ValueError(f"unknown tail generator {tail!r}")

        def u_func(k: int) -> int:
            return values[k - 1] if k <= len(values) else tail_fn(k)

        return cls(u_func, descriptor=f"list={','.join(map(str, values))} tail={tail}")

    def u(self, k: int) -> int:
        if k < 1:
            raise ValueError("block numbers are 1-indexed")
        self._extend(k)
        return self._u[k - 1]

    def a(self, k: int) -> int:
        if k < 0:
            raise ValueError("a(k) defined for k >= 0")
        if k == 0:
            return 0
        self._extend(k)
        return self._a[k - 1]

    def _extend(self, k: int) -> None:
        while len(self._u) < k:
            i = len(self._u) + 1
            u = int(self._u_func(i))
            if i == 1:
                if u < 0:
                    raise ValueError("u_1 must be >= 0")
            elif u < 1:
                raise ValueError(f"u_{i} must be >= 1, got {u}")
            self._u.append(u)
            self._a.append((self._a[-1] if self._a else 0) + u)

    def blocks_covering(self, depth: int) -> int:
        """Smallest k with a_k >= depth."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        k = max(1, len(self._u))
        while self.a(k) < depth:
            k += 1
        # the cache may extend past the answer already, so search it
        # rather than trusting the frontier
        return bisect.bisect_left(self._a, depth, 0, k) + 1


class MassSource:
    """Base digit stream.  Subclasses implement _digit(n) for n >= 1."""

    kind = "abstract"

    def __init__(self, exact_value: Optional[Fraction] = None,
                 non_dyadic: Optional[bool] = None,
                 run_lengths: Optional[RunLengths] = None):
        self.exact_value = exact_value
        self.non_dyadic = non_dyadic
        self.run_lengths = run_lengths
        self._bits: list[int] = []
        self._prefix = 0

    def _digit(self, n: int) -> int:
        raise NotImplementedError

    def digit_at(self, n: int) -> int:
        if n < 1:
            raise ValueError("digit positions are 1-indexed")
        self._materialize(n)
        return self._bits[n - 1]

    def prefix_int(self, depth: int) -> int:
        """First `depth` digits as an integer: value is in [p, p+1) / 2**depth."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth == 0:
            return 0
        self._materialize(depth)
        return self._prefix >> (len(self._bits) - depth)

    def _materialize(self, depth: int) -> None:
        while len(self._bits) < depth:
            b = int(self._digit(len(self._bits) + 1))
            if b not in (0, 1):
                raise ValueError(f"digit stream produced {b!r}")
            self._bits.append(b)
            self._prefix = (self._prefix << 1) | b

    def interval(self, depth: int) -> tuple[Fraction, Fraction]:
        """Half-open [lo, hi) of width 2**-depth containing the value."""
        p = self.prefix_int(depth)
        lo = Fraction(p, 1 << depth)
        return lo, lo + Fraction(1, 1 << depth)

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.exact_value is not None:
            d["value"] = f"{self.exact_value.numerator}/{self.exact_value.denominator}"
        if self.run_lengths is not None:
            d["runs"] = self.run_lengths.descriptor
        return d


class _DyadicSource(MassSource):
    kind = "dyadic"

    def __init__(self, value: Dyadic):
        if value < 0 or value > 1:
            raise ValueError("mass must lie in [0, 1]")
        super().__init__(exact_value=value.as_fraction(), non_dyadic=False)
        self._value = value

    def _digit(self, n: int) -> int:
        return self._value.fractional_bit(n)

    def prefix_int(self, depth: int) -> int:
        v = self._value
        return (v.num << depth) >> v.exp if depth else 0


class _RationalSource(MassSource):
    kind = "rational"

    def __init__(self, p: int, q: int):
        if q <= 0:
            raise ValueError("denominator must be positive")
        f = Fraction(p, q)
        if not 0 <= f <= 1:
            raise ValueError("mass must lie in [0, 1]")
        den = f.denominator
        super().__init__(exact_value=f, non_dyadic=(den & (den - 1) != 0))
        self._p, self._q = f.numerator, f.denominator

    def _digit(self, n: int) -> int:
        return ((self._p << n) // self._q) & 1

    def prefix_int(self, depth: int) -> int:
        return (self._p << depth) // self._q


class _PatternSource(MassSource):
    kind = "pattern"

    def __init__(self, runs: RunLengths):
        # Blocks alternate starting with ones; every later block is nonempty,
        # so the stream is never eventually constant: the value is irrational
        # or at least non-dyadic by construction.
        super().__init__(non_dyadic=True, run_lengths=runs)

    def _digit(self, n: int) -> int:
        k = self.run_lengths.blocks_covering(n)
        return 1 if k % 2 == 1 else 0


class _CustomSource(MassSource):
    kind = "custom"

    def __init__(self, digit_fn: Callable[[int], int], non_dyadic: Optional[bool] = None,
                 kind: str = "custom", audit: bool = False):
        super().__init__(non_dyadic=non_dyadic)
        self.kind = kind
        self._fn = digit_fn
        self._audit = audit

    def _digit(self, n: int) -> int:
        b = self._fn(n)
        if self._audit:
            again = self._fn(n)
            if again != b:
                raise RuntimeError(f"digit rule is not pure: digit {n} gave {b} then {again}")
        return b


def from_dyadic(value) -> MassSource:
    return _DyadicSource(value if isinstance(value, Dyadic) else Dyadic.from_fraction(value))


def from_rational(p: int, q: int) -> MassSource:
    return _RationalSource(p, q)


def from_run_lengths(runs) -> MassSource:
    if not isinstance(runs, RunLengths):
        runs = RunLengths.from_list(list(runs))
    return _PatternSource(runs)


def custom(digit_fn: Callable[[int], int], non_dyadic: Optional[bool] = None,
           kind: str = "custom", audit: bool = False) -> MassSource:
    return _CustomSource(digit_fn, non_dyadic=non_dyadic, kind=kind, audit=audit)


def run_length_blocks(bits: str) -> list[int]:
    """Run lengths of a digit prefix.  The final block is truncated by the
    prefix horizon, so a continuation may always extend it."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError("need a nonempty 0/1 prefix")
    blocks = []
    current = "1"
    count = 0
    for b in bits:
        if b == current:
            count += 1
        else:
            blocks.append(count)
            current = b
            count = 1
    blocks.append(count)
    return blocks


def run_lengths_from_digits(src: MassSource, depth: int) -> list[int]:
    """Extract the leading run-length blocks visible in the first `depth` digits.

    The final block is truncated by the horizon, so only blocks that end
    strictly inside the prefix are reported.
    """
    if depth < 1:
        return []
    bits = "".join(str(src.digit_at(n)) for n in range(1, depth + 1))
    return run_length_blocks(bits)[:-1]


def refine(depth: int, cap: int,
           settle: Callable[[int], Optional[T]]) -> tuple[Optional[T], int]:
    """Deepen a prefix read until it settles a question.

    Calls settle(d) for d = depth, 2*depth, 4*depth, ... clamped to cap
    and returns the first non-None verdict with the depth that gave it,
    or (None, cap) when even the cap leaves the question open.
    """
    d = min(depth, cap)
    while True:
        verdict = settle(d)
        if verdict is not None:
            return verdict, d
        if d >= cap:
            return None, cap
        d = min(2 * d, cap)


class GapProbe:
    """Certificate from a finite prefix comparison of a test mass against a source.

    proven=True:  |m - mu| >= gap is guaranteed (gap an exact rational > 0).
    proven=False: the prefix to `depth` digits could not separate them, which
    itself certifies |m - mu| < 2**-depth.
    """

    __slots__ = ("proven", "gap", "depth", "side")

    def __init__(self, proven: bool, gap: Optional[Fraction], depth: int, side: int):
        self.proven = proven
        self.gap = gap
        self.depth = depth
        self.side = side  # -1: m < mu, +1: m > mu, 0: unknown

    def __repr__(self):
        if self.proven:
            return f"ProvenGap({self.gap}, depth={self.depth}, side={self.side:+d})"
        return f"Unresolved(depth={self.depth})"


def distance_bracket(src: MassSource, m, depth: int) -> tuple[Fraction, Fraction, int]:
    """Certified closed bracket A <= |m - mu| <= B from a depth-d prefix.

    side is the sign of m - mu when the prefix already separates them,
    else 0 (in which case A == 0 and B <= 2**-depth).
    """
    mf = to_fraction(m)
    lo, hi = src.interval(depth)
    if mf < lo:
        return lo - mf, hi - mf, -1
    if mf >= hi:
        return mf - hi, mf - lo, +1
    return Fraction(0), max(mf - lo, hi - mf, Fraction(1, 1 << depth)), 0


def gap_probe(src: MassSource, m, max_depth: int, target: Optional[Fraction] = None) -> GapProbe:
    """Probe successively deeper prefixes for a proven separation.

    Stops as soon as the certified gap reaches `target` (when given) or the
    depth budget runs out.  An Unresolved result at depth d means the two
    values agree on d digits, i.e. |m - mu| < 2**-d; in particular m == mu
    can never be resolved, matching the physics where equal masses produce
    no flag crossing, ever.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if target is not None and target <= 0:
        raise ValueError("target gap must be positive")
    best: Optional[GapProbe] = None
    side = 0

    def settle(d: int) -> Optional[GapProbe]:
        nonlocal best, side
        a, _, side = distance_bracket(src, m, d)
        if side != 0 and a > 0:
            best = GapProbe(True, a, d, side)
            if target is None or a >= target:
                return best
        return None

    start = 8 if target is None else max(8, bits_above(1 / target))
    refine(start, max_depth, settle)
    if best is not None:
        return best
    # The boundary corner (m equal to the exclusive upper prefix endpoint)
    # separates only with one more digit, so report one level shallower to
    # keep the Unresolved bound |m - mu| < 2**-d literally true.  `side`
    # is from the last read, which was at max_depth.
    d = max_depth if side == 0 else max_depth - 1
    return GapProbe(False, None, max(d, 1), 0)


def diagonal_run_lengths(budget_fn: Callable[[int], Fraction], K,
                         initial_runs: Optional[Sequence[int]] = None,
                         extend_last: bool = False, u1: int = 4,
                         descriptor: str = "schedule") -> RunLengths:
    """Run lengths that outgrow a waiting-time schedule block by block.

    After the seeded blocks, block k+1 is the least length making the
    experiment that pins digit a_k (duration at least K * 2**a_{k+1})
    overrun both the budget at word length a_k and at a_k + 1, so a
    bisection run under budget_fn times out at or before digit a_{k+1},
    for every k past the seed.  The construction is computable from the
    schedule; it replaces uncomputable worst cases with an explicit one.

    initial_runs pins a digit prefix the stream must reproduce; with
    extend_last the final seed block came from a truncated prefix and
    may stretch (never shrink) to satisfy its inequality.
    """
    Kf = to_fraction(K)
    if Kf <= 0:
        raise ValueError("K must be positive")
    if initial_runs is None:
        if u1 < 1:
            # u_1 = 0 would put the wall before the first digit; keep at
            # least one honest digit so runs visibly start before stalling.
            raise ValueError("u1 must be >= 1")
        initial = [u1]
        extend_last = False
    else:
        initial = [int(v) for v in initial_runs]
        if not initial:
            raise ValueError("need at least one seed block")
        if initial[0] < 0 or any(v < 1 for v in initial[1:]):
            raise ValueError("invalid seed run lengths")

    j = len(initial)
    cache = dict(enumerate(initial, start=1))
    # Blocks before the last seed block are pinned; the last is pinned too
    # unless extend_last says it may stretch, and a lone first block is
    # always kept verbatim (it is the free seed, nothing to diagonalize).
    first_free = j if (extend_last and j >= 2) else j + 1
    state = {"a": sum(initial[:first_free - 1]), "k": first_free}

    def u_func(k: int) -> int:
        while state["k"] <= k:
            i = state["k"]
            a_prev = state["a"]
            base = max(a_prev, 1)
            bound = max(to_fraction(budget_fn(base)),
                        to_fraction(budget_fn(base + 1))) / Kf
            floor_u = initial[-1] if (extend_last and i == j) else 1
            # least u with 2**(a_prev + u) > bound
            u = max(floor_u, 1, bits_above(bound) - a_prev)
            cache[i] = u
            state["a"] = a_prev + u
            state["k"] = i + 1
        return cache[k]

    return RunLengths.from_function(u_func, descriptor=f"adversarial:{descriptor}")


def adversarial_mass(budget_fn: Callable[[int], Fraction], K,
                     u1: int = 4, descriptor: str = "schedule") -> MassSource:
    """Mass whose run lengths diagonalize against a waiting-time schedule."""
    return _PatternSource(diagonal_run_lengths(budget_fn, K, u1=u1,
                                               descriptor=descriptor))


def affine_of_source(offset, scale, src: MassSource, kind: str = "affine") -> MassSource:
    """Digits of offset + scale * mu: read from the exact image when mu is
    known exactly, otherwise refined from the digits of mu.

    offset and scale must be dyadic and the image must stay inside [0, 1].
    Used to place an encoded parameter inside a fixed-precision window.
    """
    off = to_fraction(offset)
    sc = to_fraction(scale)
    if sc <= 0:
        raise ValueError("scale must be positive")
    if src.exact_value is not None:
        # a dyadic image of a non-dyadic source sits on a cell boundary
        # that no finite prefix of the source settles
        image = off + sc * src.exact_value
        if not 0 <= image <= 1:
            raise ValueError("affine image leaves [0, 1]")
        out = _RationalSource(image.numerator, image.denominator)
        out.kind, out.non_dyadic = kind, src.non_dyadic
        return out

    def digit_fn(n: int) -> int:
        def settle(depth: int) -> Optional[int]:
            lo, hi = src.interval(depth)
            a = off + sc * lo
            b = off + sc * hi
            if not (0 <= a and b <= 1):
                raise ValueError("affine image leaves [0, 1]")
            bit_a = (a.numerator << n) // a.denominator
            # strict upper endpoint: subtract nothing, compare floor cells
            bit_b = ((b.numerator << n) - 1) // b.denominator if b > a else bit_a
            return bit_a & 1 if bit_a == bit_b else None

        bit, _ = refine(n + 2, max(n + 2, 1 << 20), settle)
        if bit is None:
            raise RuntimeError("affine digit did not settle within 2**20 source "
                               "digits; the image may be dyadic")
        return bit

    return _CustomSource(digit_fn, non_dyadic=src.non_dyadic, kind=kind)


# ---------------------------------------------------------------------------
# mass specification parsing (inline CLI syntax and key=value files)

def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/")
            return Fraction(int(p), int(q))
        if "." in text or "e" in text or "E" in text:
            return Fraction(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def parse_mass_spec(spec: str, schedule_budget=None, K=None):
    """Inline mass syntax: kind:args.

    rational:1/3             exact rational
    dyadic:5/16              exact dyadic
    pattern:3,2,4;tail=cycle run-length blocks with a named infinite tail
    advice:PATH              mass encoding the advice table in PATH
    adversarial:u1=4         diagonalized against the run's schedule
    file:PATH                key=value specification file
    """
    if ":" not in spec:
        raise ValueError(f"mass spec {spec!r} needs the form kind:args")
    kind, args = spec.split(":", 1)
    kind = kind.strip()
    if kind == "rational":
        f = parse_fraction(args)
        return from_rational(f.numerator, f.denominator)
    if kind == "dyadic":
        return from_dyadic(Dyadic.from_fraction(parse_fraction(args)))
    if kind == "pattern":
        body, _, tailpart = args.partition(";")
        tail = "repeat-last"
        if tailpart:
            key, _, val = tailpart.partition("=")
            if key.strip() != "tail":
                raise ValueError(f"unknown pattern option {tailpart!r}")
            tail = val.strip()
        values = [int(v) for v in body.split(",") if v.strip()]
        return from_run_lengths(RunLengths.from_list(values, tail=tail))
    if kind == "advice":
        from . import advice
        return advice.encoded_mass(advice.PrefixFunction.from_table_file(args.strip()))
    if kind == "adversarial":
        if schedule_budget is None or K is None:
            raise ValueError("adversarial mass needs the run's schedule and K")
        u1 = 4
        for part in args.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            if key.strip() == "u1":
                u1 = int(val)
            else:
                raise ValueError(f"unknown adversarial option {part!r}")
        return adversarial_mass(schedule_budget, K, u1=u1)
    if kind == "file":
        return load_mass_file(args.strip(), schedule_budget=schedule_budget, K=K)
    raise ValueError(f"unknown mass kind {kind!r}")


def load_mass_file(path: str, schedule_budget=None, K=None):
    """Specification file: one kind=... line of key=value tokens, # comments."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = {}
        for tok in line.split():
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"{path}:{lineno}: token {tok!r} is not key=value")
            tokens[key] = val
        kind = tokens.pop("kind", None)
        if kind is None:
            raise ValueError(f"{path}:{lineno}: missing kind=")
        try:
            return _mass_from_tokens(kind, tokens, schedule_budget, K)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    raise ValueError(f"{path}: no mass specification found")


def _mass_from_tokens(kind: str, tokens: dict, schedule_budget, K):
    if kind == "rational":
        src = from_rational(int(tokens.pop("p")), int(tokens.pop("q")))
    elif kind == "dyadic":
        if "value" in tokens:
            src = from_dyadic(Dyadic.from_fraction(parse_fraction(tokens.pop("value"))))
        else:
            src = from_dyadic(Dyadic(int(tokens.pop("num")), int(tokens.pop("exp"))))
    elif kind == "pattern":
        values = [int(v) for v in tokens.pop("u").split(",") if v]
        tail = tokens.pop("tail", "repeat-last")
        src = from_run_lengths(RunLengths.from_list(values, tail=tail))
    elif kind == "advice":
        from . import advice
        src = advice.encoded_mass(advice.PrefixFunction.from_table_file(tokens.pop("file")))
    elif kind == "adversarial":
        if schedule_budget is None or K is None:
            raise ValueError("adversarial mass needs the run's schedule and K")
        u1 = int(tokens.pop("u1", 4))
        src = adversarial_mass(schedule_budget, K, u1=u1)
    else:
        raise ValueError(f"unknown mass kind {kind!r}")
    return _checked_tokens(src, tokens)


def _checked_tokens(src, tokens):
    if tokens:
        raise ValueError(f"unused tokens {sorted(tokens)}")
    return src
