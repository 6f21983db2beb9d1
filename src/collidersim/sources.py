"""Unknown masses as lazy binary digit streams.

The simulator never holds "the real number mu"; it holds a source that
can produce any requested digit of the canonical binary expansion of a
value in [0, 1] (canonical: dyadic values take the terminating form, so
no stream has an eventually-all-ones tail).  Everything downstream that
needs to compare a test mass against mu does so through certified
prefix brackets: after reading d digits the source's value is pinned to
[p/2^d, (p+1)/2^d), and distances derived from that interval are exact
rationals that are sound no matter what the unread tail does.  Exact
values read every prefix in closed form, and periodic patterns do past
their first period; other sources build a prefix from its digits.

That discipline is what makes timing questions decidable: a timeout
verdict is issued only once the examined prefix proves the distance is
too small, never from a floating-point shortcut.

`refine` is the one deepening rule: every certified verdict (an oracle
answer or timeout, a clock reading, a digit of an affine image) reads a
prefix, and doubles its depth until the prefix settles the question or
a digit horizon is reached.
"""

from __future__ import annotations

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
        # (P, L) when the digits repeat: P before the period, L in it
        self.period: Optional[tuple[int, int]] = None

    @classmethod
    def from_list(cls, values: Sequence[int], tail: str = "repeat-last") -> "RunLengths":
        values = list(values)
        if not values:
            raise ValueError("run-length list is empty")
        if tail == "cycle":
            pre, cycle = [], values
        elif tail == "repeat-last":
            pre, cycle = values, values[-1:]
        elif tail.startswith("constant:"):
            pre, cycle = values, [int(tail.split(":", 1)[1])]
        else:
            raise ValueError(f"unknown tail generator {tail!r}")

        def u_func(k: int) -> int:
            return pre[k - 1] if k <= len(pre) else cycle[(k - len(pre) - 1) % len(cycle)]

        runs = cls(u_func, descriptor=f"list={','.join(map(str, values))} tail={tail}")
        if values[0] >= 0 and min(values[1:] + cycle) >= 1:
            # the symbols alternate, so an odd cycle of runs spells its digits twice
            runs.period = sum(pre), sum(cycle) << (len(cycle) & 1)
        return runs

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


class MassSource:
    """Base digit stream.

    A source holds the digits read so far as one prefix int that _read
    extends, by default a block at a time through _block, which
    subclasses implement.  A source whose value is known exactly
    (rational, dyadic, stable advice, an affine image of these) reads
    every prefix in closed form instead, and a periodic pattern does past
    its first period.
    """

    kind = "abstract"

    def __init__(self, exact_value: Optional[Fraction] = None,
                 run_lengths: Optional[RunLengths] = None):
        self.exact_value = exact_value
        self.run_lengths = run_lengths
        self._prefix = 0  # the first _depth digits
        self._depth = 0

    def _block(self, start: int, depth: int) -> str:
        """The next one or more digits after digit `start`, as a 0/1
        string, in a read towards `depth`."""
        raise NotImplementedError

    def digit_at(self, n: int) -> int:
        if n < 1:
            raise ValueError("digit positions are 1-indexed")
        return self.prefix_int(n) & 1

    def prefix_int(self, depth: int) -> int:
        """First `depth` digits as an integer: value is in [p, p+1) / 2**depth."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if self.exact_value is not None:
            v = self.exact_value
            return (v.numerator << depth) // v.denominator
        if self._depth < depth:
            self._prefix, self._depth = self._read(depth)
        return self._prefix >> (self._depth - depth)

    def _read(self, depth: int) -> tuple[int, int]:
        """A prefix of `depth` or more digits, with its length."""
        # one shift of the prefix per read, not per block: blocks can be
        # a few digits long, and a shift per block is quadratic in depth
        blocks = []
        n = self._depth
        while n < depth:
            blocks.append(self._block(n, depth))
            n += len(blocks[-1])
        return (self._prefix << (n - self._depth)) | int("".join(blocks), 2), n

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


class _ExactSource(MassSource):
    def __init__(self, value: Fraction, kind: str):
        if not 0 <= value <= 1:
            raise ValueError("mass must lie in [0, 1]")
        super().__init__(exact_value=value)
        self.kind = kind


class _PatternSource(MassSource):
    kind = "pattern"

    def __init__(self, runs: RunLengths):
        super().__init__(run_lengths=runs)
        self._run = 0   # the run the last block came from
        self._left = 0  # its digits not read yet
        self._pq: Optional[tuple[int, int]] = None   # a periodic value, once read

    def _read(self, depth: int) -> tuple[int, int]:
        period = self.run_lengths.period
        if period is None or depth <= sum(period):
            return super()._read(depth)
        if self._pq is None:
            # P digits A, then L period digits B: the value p/q is
            # (A (2^L - 1) + B) / (2^P (2^L - 1)), and A (2^L - 1) + B = x - A
            P, L = period
            x = super().prefix_int(P + L)   # block reads, as depth <= P + L
            self._pq = x - (x >> L), ((1 << L) - 1) << P
        p, q = self._pq
        return (p << depth) // q, depth

    def _block(self, start: int, depth: int) -> str:
        while not self._left:
            self._run += 1
            self._left = self.run_lengths.u(self._run)
        # runs may grow geometrically: never allocate past the request
        n = min(self._left, depth - start)
        self._left -= n
        return "01"[self._run & 1] * n


class _CustomSource(MassSource):
    def __init__(self, digit_fn: Callable[[int], int], kind: str):
        super().__init__()
        self.kind = kind
        self._fn = digit_fn

    def _block(self, start: int, depth: int) -> str:
        # the rule is opaque: one digit per block
        b = int(self._fn(start + 1))
        if b not in (0, 1):
            raise ValueError(f"digit stream produced {b!r}")
        return "01"[b]


def from_dyadic(value) -> MassSource:
    f = value.as_fraction() if isinstance(value, Dyadic) else Fraction(value)
    if f.denominator & (f.denominator - 1):  # not a power of two
        raise ValueError(f"{f} is not dyadic (denominator {f.denominator})")
    return _ExactSource(f, "dyadic")


def from_rational(p: int, q: int) -> MassSource:
    if q <= 0:
        raise ValueError("denominator must be positive")
    return _ExactSource(Fraction(p, q), "rational")


def from_run_lengths(runs) -> MassSource:
    if not isinstance(runs, RunLengths):
        runs = RunLengths.from_list(list(runs))
    return _PatternSource(runs)


def custom(digit_fn: Callable[[int], int]) -> MassSource:
    return _CustomSource(digit_fn, "custom")


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


def prefix_bracket(p: int, mn: int, md: int, depth: int) -> tuple[int, int, int]:
    """(side, a, b) with a <= D |m - mu| <= b, for m = mn/md and mu in
    [p, p+1) / 2**depth, in integers over D = md * 2**depth.

    side is the sign of m - mu when the prefix already separates them,
    else 0 (in which case a == 0 and b == md, that is 2**-depth).
    """
    lo = p * md
    hi = lo + md
    m = mn << depth
    if m < lo:
        return -1, lo - m, hi - m
    if m >= hi:
        return +1, m - hi, m - lo
    return 0, 0, md


def distance_bracket(src: MassSource, m, depth: int) -> tuple[Fraction, Fraction, int]:
    """Certified closed bracket A <= |m - mu| <= B from a depth-d prefix,
    with side as in prefix_bracket."""
    mf = to_fraction(m)
    side, a, b = prefix_bracket(src.prefix_int(depth), mf.numerator, mf.denominator, depth)
    D = mf.denominator << depth
    return Fraction(a, D), Fraction(b, D), side


def diagonal_run_lengths(budget_fn: Callable[[int], Fraction], K,
                         initial_runs: Sequence[int]) -> RunLengths:
    """Run lengths that outgrow a waiting-time schedule block by block.

    After the seeded blocks, block k+1 is the least length making the
    experiment that pins digit a_k (duration at least K * 2**a_{k+1})
    overrun both the budget at word length a_k and at a_k + 1, so a
    bisection run under budget_fn times out at or before digit a_{k+1},
    for every k past the seed.  The construction is computable from the
    schedule; it replaces uncomputable worst cases with an explicit one.

    initial_runs pins a digit prefix the stream must reproduce.  Its
    last block may have been cut by the prefix's end, so it may stretch
    (never shrink) to satisfy its inequality, unless it is the only
    block: a lone first block is the free seed, kept verbatim.
    """
    Kf = to_fraction(K)
    if Kf <= 0:
        raise ValueError("K must be positive")
    initial = [int(v) for v in initial_runs]
    if not initial:
        raise ValueError("need at least one seed block")
    if initial[0] < 0 or any(v < 1 for v in initial[1:]):
        raise ValueError("invalid seed run lengths")

    j = len(initial)
    first_free = max(j, 2)   # blocks before it are pinned
    a = sum(initial[:first_free - 1])  # digits before the next free block

    def u_func(k: int) -> int:
        # RunLengths asks for each block once, in order
        nonlocal a
        if k < first_free:
            return initial[k - 1]
        base = max(a, 1)
        bound = max(to_fraction(budget_fn(base)),
                    to_fraction(budget_fn(base + 1))) / Kf
        floor_u = initial[-1] if k == j else 1
        # least u with 2**(a + u) > bound
        u = max(floor_u, 1, bits_above(bound) - a)
        a += u
        return u

    return RunLengths(u_func, descriptor="adversarial:schedule")


def adversarial_mass(budget_fn: Callable[[int], Fraction], K,
                     u1: int = 4) -> MassSource:
    """Mass whose run lengths diagonalize against a waiting-time schedule,
    from a first block of u1 leading ones."""
    if u1 < 1:   # keep one honest digit: runs visibly start before stalling
        raise ValueError("u1 must be >= 1")
    return _PatternSource(diagonal_run_lengths(budget_fn, K, [u1]))


def affine_of_source(offset, scale, src: MassSource) -> MassSource:
    """Digits of offset + scale * mu: read from the exact image when mu is
    known exactly, otherwise refined from the digits of mu.

    offset and scale must be dyadic and the image must stay inside [0, 1]:
    a source cell whose image straddles 0 or 1 is read deeper, and one whose
    image lies wholly outside [0, 1] is refused.  Used to place an encoded
    parameter inside a fixed-precision window.
    """
    off = to_fraction(offset)
    sc = to_fraction(scale)
    if sc <= 0:
        raise ValueError("scale must be positive")
    if src.exact_value is not None:
        # a dyadic image of a non-dyadic source sits on a cell boundary
        # that no finite prefix of the source settles
        return _ExactSource(off + sc * src.exact_value, "affine")

    def digit_fn(n: int) -> int:
        def settle(depth: int) -> Optional[int]:
            lo, hi = src.interval(depth)
            a = off + sc * lo
            b = off + sc * hi
            if b < 0 or a > 1:
                raise ValueError("affine image leaves [0, 1]")
            if a < 0 or b > 1:
                return None
            bit_a = (a.numerator << n) // a.denominator
            # strict upper endpoint: subtract nothing, compare floor cells;
            # b > a, as sc > 0 and the cell has width 2**-depth
            bit_b = ((b.numerator << n) - 1) // b.denominator
            return bit_a & 1 if bit_a == bit_b else None

        bit, _ = refine(n + 2, max(n + 2, 1 << 20), settle)
        if bit is None:
            raise RuntimeError("affine digit did not settle within 2**20 source "
                               "digits; the image may be dyadic")
        return bit

    return _CustomSource(digit_fn, "affine")


# ---------------------------------------------------------------------------
# input files and mass specification parsing (inline CLI syntax and key=value files)

def read_input(path: str) -> str:
    """Text of a mass file, an advice table or a --config file: the one file read."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_mass_spec(spec: str, schedule_budget=None, K=None):
    """Inline mass syntax: kind:args, shorthand for one mass-file line.

    rational:1/3             kind=rational p=1 q=3
    dyadic:5/16              kind=dyadic value=5/16   (or num=5 exp=4)
    pattern:3,2,4;tail=cycle kind=pattern u=3,2,4 tail=cycle
    advice:PATH              kind=advice file=PATH
    adversarial:u1=4         kind=adversarial u1=4    (needs the run's schedule and K)
    file:PATH                the first such line of the file at PATH
    """
    if ":" not in spec:
        raise ValueError(f"mass spec {spec!r} needs the form kind:args")
    kind, args = spec.split(":", 1)
    kind = kind.strip()
    if kind == "file":
        return load_mass_file(args.strip(), schedule_budget=schedule_budget, K=K)
    tokens = {}   # an unknown kind has none, and _mass_from_tokens refuses it
    if kind == "rational":
        f = to_fraction(args)
        tokens = {"p": f.numerator, "q": f.denominator}
    elif kind == "dyadic":
        tokens = {"value": args}
    elif kind == "pattern":
        body, _, option = args.partition(";")
        tokens = _key_values([option], ("u", "tail"))
        if "u" in tokens:   # the runs are the part before ';'
            raise ValueError(f"token {option.strip()!r} repeats the run list")
        tokens["u"] = body
    elif kind == "advice":
        tokens = {"file": args.strip()}
    elif kind == "adversarial":
        tokens = _key_values(args.split(","), ("u1",))
    return _mass_from_tokens(kind, tokens, schedule_budget, K)


def load_mass_file(path: str, schedule_budget=None, K=None):
    """Specification file: one kind=... line of key=value tokens, # comments."""
    for lineno, raw in enumerate(read_input(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = _key_values(line.split(), "kind p q value num exp u tail file u1".split())
            return _mass_from_tokens(tokens.pop("kind"), tokens, schedule_budget, K)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc.args[0]!r}") from None
    raise ValueError(f"{path}: no mass specification found")


def _key_values(parts, keys) -> dict:
    """Stripped key=value parts as a dict, refusing a key not in keys and a
    repeated key: blank parts are skipped."""
    tokens = {}
    for part in parts:
        part = part.strip()
        if part:
            key, eq, val = (side.strip() for side in part.partition("="))
            if not eq:
                raise ValueError(f"token {part!r} is not key=value")
            if key in tokens:
                raise ValueError(f"key {key!r} repeats")
            tokens[key] = val
    unused = sorted(set(tokens).difference(keys))
    if unused:
        raise ValueError(f"unused tokens {unused}")
    return tokens


def _mass_from_tokens(kind: str, tokens: dict, schedule_budget, K):
    """The one place a mass spec reaches a source constructor.  Every
    token the kind does not read is an error."""
    if kind == "rational":
        src = from_rational(int(tokens.pop("p")), int(tokens.pop("q")))
    elif kind == "dyadic":
        if "value" in tokens:
            src = from_dyadic(to_fraction(tokens.pop("value")))
        else:
            src = from_dyadic(Dyadic(int(tokens.pop("num")), int(tokens.pop("exp"))))
    elif kind == "pattern":
        values = [int(v) for v in tokens.pop("u").split(",") if v.strip()]
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
    if tokens:
        raise ValueError(f"unused tokens {sorted(tokens)}")
    return src
