"""The scattering oracle: one mass comparison per query, under a clock.

A query submits a binary word naming a dyadic test mass z, plus a
waiting budget.  The apparatus manufactures a projectile of mass m*
(equal to z, or within a manufacturing tolerance of it, depending on
the precision mode), fires it at the hidden target mass, and waits.
If a detector flag fires strictly before the budget runs out the query
answers "lesser" or "greater"; otherwise it times out.  Equal masses
never answer at any budget.

Everything observable is collected into transcript records.  The hidden
mass never appears in a record; it only shapes answer/timeout patterns
and arrival times, which is exactly the information channel under
study.

Decisions are certified, never guessed, by one rule: m* against the
`cutoffs` of a target cell.  An exactly-known target is the zero-width
cell, which always settles, and its arrival is computed in closed form;
the batch kernel and the grid sweep read the same cutoffs.  A target
known only as a digit stream is the cell of a depth-d prefix, deepened
until it settles; the convention that a deadline-exact arrival counts
as a timeout is what makes this provable from a finite prefix of a
non-dyadic target.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Optional

from . import kernels, rng
from .collision import Outcome
# validate_word runs inside word_to_dyadic, which only text words reach
# (bisection hands `query` its word's value), and the clock reads its gap from
# prefix_bracket, not distance_bracket; all stay importable here because
# perfbench/spans.py traces them at the oracle's lookup names
from .dyadic import (fraction_text, to_fraction, validate_word,  # noqa: F401
                     word_to_dyadic)
from .sources import (MassSource, distance_bracket,  # noqa: F401
                      prefix_bracket, refine)

_ZERO = Fraction(0)
# members read on the per-query path, where a read through the Enum class
# costs about ten times a read of a module name
_LESSER, _GREATER, _TIMEOUT = Outcome.LESSER, Outcome.GREATER, Outcome.TIMEOUT


class PrecisionMode(enum.Enum):
    ERROR_FREE = "error-free"    # m* == z exactly
    ARBITRARY = "arbitrary"      # per-query tolerance, m* uniform in [z-eps, z+eps]
    FIXED = "fixed"              # one global tolerance for every query


class WaitPolicy(enum.Enum):
    INTERRUPT = "interrupt"      # an answer stops the clock at arrival time
    FULL_BUDGET = "full-budget"  # the clock always runs the whole budget


_ERROR_FREE, _ARBITRARY, _FIXED = (PrecisionMode.ERROR_FREE, PrecisionMode.ARBITRARY,
                                   PrecisionMode.FIXED)
_FULL_BUDGET = WaitPolicy.FULL_BUDGET


class ConfigError(ValueError):
    pass


@dataclass
class OracleConfig:
    """Apparatus parameters shared by every query of a run.

    K, timing, launch_speed, flag_distance: an answered query arrives at
       (alpha + beta (m* + target)) / |m* - target|, with (alpha, beta) =
       (K, 0) under "protocol" timing and (0, r/u) under "kinematic" timing,
       which reads r = flag_distance and u = launch_speed off the geometry.
    N: jitter amplitude; each arrival is shifted by a uniform draw from
       [-N, N].  N = 0 switches jitter off entirely.
    mode/epsilon: manufacturing precision.  FIXED mode requires epsilon
       here; ARBITRARY mode takes a tolerance per query.  Error-prone
       draws are clipped into [0, 1]; the clip can only trigger when the
       tolerance window pokes outside the unit interval, and the
       endpoints themselves carry probability zero.
    wait_policy: accounting, above.
    c_setup: preparation cost per word digit (longer words take longer
       to set up), billed separately from the waiting time so budget
       arithmetic stays exact.
    probe_depth_cap: digit horizon when certifying against a digit
       stream; a comparison that cannot be settled within the horizon is
       reported as a timeout, mirroring a detector of finite resolution.
    """

    K: Fraction = Fraction(1)
    N: Fraction = Fraction(0)
    mode: PrecisionMode = PrecisionMode.ERROR_FREE
    epsilon: Optional[Fraction] = None
    wait_policy: WaitPolicy = WaitPolicy.INTERRUPT
    c_setup: Fraction = Fraction(1)
    timing: str = "protocol"
    launch_speed: Fraction = Fraction(1)
    flag_distance: Fraction = Fraction(1)
    seed: int = 0
    probe_depth_cap: int = 4096
    record_hidden: bool = False

    # each rational field, and whether it must be positive or only >= 0
    _RATIONALS = (("K", True), ("N", False), ("c_setup", False),
                  ("launch_speed", True), ("flag_distance", True))

    def __post_init__(self):
        for name, _ in self._RATIONALS:
            setattr(self, name, to_fraction(getattr(self, name)))
        if self.epsilon is not None:
            self.epsilon = to_fraction(self.epsilon)
        for name, positive in self._RATIONALS:
            # "<field> must be ...": the command line puts its own key in its place
            if (value := getattr(self, name)) < 0 or positive and value == 0:
                raise ConfigError(f"{name} must be {'positive' if positive else '>= 0'}")
        if self.timing not in ("protocol", "kinematic"):
            raise ConfigError(f"unknown timing {self.timing!r}")
        if self.mode is PrecisionMode.FIXED:
            if self.epsilon is None or self.epsilon <= 0:
                raise ConfigError("FIXED mode needs a positive epsilon")
        if self.probe_depth_cap < 8:
            raise ConfigError("probe_depth_cap must be >= 8")


@dataclass
class QueryRecord:
    index: int
    word: str
    budget: Fraction
    outcome: Outcome
    elapsed: Fraction
    setup: Fraction
    epsilon: Optional[Fraction] = None
    probe_depth: Optional[int] = None
    # not a field: one shared read-only empty mapping, so a record that
    # hides nothing builds no dict; under record_hidden the oracle gives
    # each record its own dict of m_star and jitter
    hidden = MappingProxyType({})

    @property
    def total_time(self) -> Fraction:
        return self.elapsed + self.setup

    def to_dict(self) -> dict:
        d = {
            "index": self.index,
            "z": self.word,
            "z_length": len(self.word),
            "budget": fraction_text(self.budget),
            "answer": str(self.outcome),
            "elapsed": fraction_text(self.elapsed),
            "setup": fraction_text(self.setup),
        }
        if self.epsilon is not None:
            d["epsilon"] = fraction_text(self.epsilon)
        return d

    def json_line(self) -> str:
        """`to_dict` as a sort_keys JSONEncoder writes it, from text: no value
        needs escaping.  An elapsed that is the budget reuses its text."""
        budget = fraction_text(self.budget)
        elapsed = budget if self.elapsed is self.budget else fraction_text(self.elapsed)
        eps = "" if self.epsilon is None else f'"epsilon": "{fraction_text(self.epsilon)}", '
        return (f'{{"answer": "{self.outcome.value}", "budget": "{budget}", '
                f'"elapsed": "{elapsed}", {eps}"index": {self.index}, '
                f'"setup": "{fraction_text(self.setup)}", "z": "{self.word}", '
                f'"z_length": {len(self.word)}}}')


@dataclass
class BatchRecord:
    """Aggregate of zeta repetitions of one query at one budget."""

    index: int
    word: str
    budget: Fraction
    zeta: int
    n_lesser: int
    n_greater: int
    n_timeout: int
    elapsed_total: Fraction
    setup_total: Fraction
    epsilon: Optional[Fraction]
    engine: str

    @property
    def total_time(self) -> Fraction:
        return self.elapsed_total + self.setup_total

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "z": self.word,
            "z_length": len(self.word),
            "budget": fraction_text(self.budget),
            "zeta": self.zeta,
            "answer": {
                "lesser": self.n_lesser,
                "greater": self.n_greater,
                "timeout": self.n_timeout,
            },
            "elapsed": fraction_text(self.elapsed_total),
            "setup": fraction_text(self.setup_total),
            "epsilon": fraction_text(self.epsilon) if self.epsilon is not None else None,
            "engine": self.engine,
        }


@functools.lru_cache(maxsize=1)    # a sweep repeats its level; keep the last one
def _grid_words(r: int) -> tuple:
    """The words of p/2**r for 0 <= p <= 2**r, in order."""
    words = ["0"]
    for _ in range(r):
        words = [w + c for w in words for c in "01"]
    return (*words, "1")


def _product_less(xs: tuple, ys: tuple) -> bool:
    """x1 x2 x3 < y1 y2 y3 for non-negative integer triples xs and ys,
    read from bit lengths outside their 2-bit band (`_reported_arrival`)."""
    x1, x2, x3 = xs
    y1, y2, y3 = ys
    if x1 and x2 and x3 and y1 and y2 and y3:
        excess = (x1.bit_length() + x2.bit_length() + x3.bit_length()
                  - y1.bit_length() - y2.bit_length() - y3.bit_length())
        if excess < -2:
            return True
        if excess > 2:
            return False
    return x1 * x2 * x3 < y1 * y2 * y3


class CollisionOracle:
    """Stateful query interface around one hidden mass source."""

    def __init__(self, source: MassSource, config: Optional[OracleConfig] = None):
        self.source = source
        self.config = cfg = config or OracleConfig()
        self.transcript: list = []
        # the one place the timing is read: alpha + beta (m* + mu) = (an + bn (m* + mu))/ld
        alpha, beta = ((cfg.K, _ZERO) if cfg.timing == "protocol"
                       else (_ZERO, cfg.flag_distance / cfg.launch_speed))
        self._law_terms = (alpha.numerator * beta.denominator, beta.numerator * alpha.denominator,
                           alpha.denominator * beta.denominator)

    # -- draws ------------------------------------------------------------

    def _draw_mass(self, z: tuple, epsilon: Optional[Fraction], stream: int,
                   trial: int = 0) -> tuple:
        """m* as an unreduced (n, d) pair, d > 0, for z = (zn, zd)."""
        cfg = self.config
        if cfg.mode is _ERROR_FREE:
            return z
        r = rng.raw64(cfg.seed, stream, 2 * trial)
        # z - eps + 2 eps r / 2**64 over lcm(zd, ed) 2**64; bisection's zd
        # divides its ed, so the product zd ed would carry spare bits
        (zn, zd), en, ed = z, epsilon.numerator, epsilon.denominator
        den = lcm(zd, ed)
        en *= den // ed
        num = ((zn * (den // zd) - en) << 64) + 2 * en * r
        den <<= 64
        # clip at the domain boundary; only reachable when the tolerance
        # window leaves [0, 1], and boundary hits have probability zero
        if num < 0:
            return 0, 1
        if num > den:
            return 1, 1
        return num, den

    def _draw_jitter(self, stream: int, trial: int = 0) -> Fraction:
        cfg = self.config
        if cfg.N == 0:
            return _ZERO
        r = rng.raw64(cfg.seed, stream, 2 * trial + 1)
        return -cfg.N + 2 * cfg.N * Fraction(r, 1 << 64)

    # -- single query -------------------------------------------------------

    def query(self, word: str, budget, epsilon=None, *, _z=None):
        """Run one experiment; append and return its QueryRecord.

        A timeout is an answer like the other two: its record comes back.
        Inside the package a caller that built the word itself may pass its
        value as _z, a pair (num, 2**exp) of the value `_resolve` would parse
        from it, reduced or not; the budget and epsilon are checked all the
        same.
        """
        cfg = self.config
        z, budget, epsilon = self._resolve(word, budget, epsilon, _z)
        index = len(self.transcript)
        m_star = z if epsilon is None else self._draw_mass(z, epsilon, index)
        jitter = self._draw_jitter(index) if cfg.N else _ZERO
        full = cfg.wait_policy is _FULL_BUDGET
        outcome, arrival, depth = self._decide(m_star, jitter, budget, not full)
        elapsed = budget if full or outcome is _TIMEOUT else arrival
        record = QueryRecord(index, word, budget, outcome, elapsed,
                             self._setup_cost(len(word)), epsilon, depth)
        if cfg.record_hidden:
            record.hidden = {"m_star": Fraction(*m_star), "jitter": jitter}
        self.transcript.append(record)
        return record

    def _setup_cost(self, length: int) -> Fraction:
        """c_setup * length, built with no gcd when c_setup is an integer."""
        c = self.config.c_setup
        return Fraction(c.numerator * length) if c.denominator == 1 else c * length

    def fire_grid(self, r: int, budget: Fraction) -> list:
        """Fire p/2**r for 0 <= p <= 2**r, in order, at one budget; return
        the records.

        On an exact target with no jitter, error-free and full-budget
        billed, the mass cutoffs [lo, hi] of the budget decide every
        word: one ceiling and one floor division find the run
        first <= p < end of grid points inside them.  The words from
        first - 1 to end go through `query`, so the division results need
        only be right to within one word; the rest, a grid step or more
        clear of the window, get the records `query` would append, written
        in two runs: lesser below the window, greater above it.
        A process builds a level's words once and keeps the last level's.
        """
        n, cfg, exact = 1 << r, self.config, self.source.exact_value
        a, b = 0, n + 1
        if (exact is not None and cfg.N == 0
                and cfg.mode is _ERROR_FREE and cfg.wait_policy is _FULL_BUDGET):
            (lo, lo_d), hi = self._exact_cutoffs(budget)
            first = min(max(-((-lo << r) // lo_d), 0), n + 1)
            end = n + 1 if hi is None else min(max((hi[0] << r) // hi[1] + 1, 0), n + 1)
            a, b = max(first - 1, 0), min(end, n) + 1
        words = _grid_words(r)
        transcript, setup = self.transcript, self._setup_cost(r + 1)
        start = len(transcript)
        transcript.extend([QueryRecord(i, word, budget, _LESSER, budget, setup)
                           for i, word in enumerate(words[:a], start)])
        for word in words[a:b]:
            self.query(word, budget)
        above = [QueryRecord(i, word, budget, _GREATER, budget, setup)
                 for i, word in enumerate(words[b:], start + b)]
        if above:    # the word "1" bills one digit of setup
            above[-1].setup = self._setup_cost(1)
        transcript.extend(above)
        if cfg.record_hidden:
            for p in [*range(a), *range(b, n + 1)]:
                transcript[start + p].hidden = {"m_star": Fraction(p, n), "jitter": _ZERO}
        return transcript[start:]

    def _exact_cutoffs(self, budget: Fraction) -> tuple:
        """Cutoffs (lo, hi) of the exact target's zero-width cell at deadline
        budget, as (n, d) pairs, d > 0; hi is None if no mass answers greater."""
        un, ud = self.source.exact_value.as_integer_ratio()
        s_lo, s_hi, rule = self.cutoffs(budget.numerator, budget.denominator)
        lo, _, _, hi = rule(un, un, 0, ud)
        return (lo, s_lo * ud), None if hi is None else (hi, s_hi * ud)

    def _resolve(self, word: str, budget, epsilon, z=None):
        """Checked (z, budget, epsilon) of a query, shared by both query kinds.

        z is the unreduced integer pair (num, 2**exp) the word spells,
        parsed from it unless the caller gives it.  The returned
        epsilon is the tolerance the draws use.  FIXED mode pins the
        global one; ARBITRARY mode needs a positive per-query one;
        ERROR_FREE refuses a given epsilon <= 0 and otherwise returns None.
        """
        cfg = self.config
        if z is None:
            d = word_to_dyadic(word)
            z = d.num, 1 << d.exp
        budget = to_fraction(budget)
        if budget.numerator <= 0:
            raise ConfigError("budget must be positive")
        mode = cfg.mode
        if mode is _FIXED:
            if epsilon is not None and to_fraction(epsilon) != cfg.epsilon:
                raise ConfigError("FIXED mode pins every query to the global epsilon")
            return z, budget, cfg.epsilon
        if epsilon is None:
            if mode is _ARBITRARY:
                raise ConfigError("ARBITRARY mode needs a per-query epsilon")
            return z, budget, None
        epsilon = to_fraction(epsilon)
        if epsilon.numerator <= 0:
            raise ConfigError("epsilon must be positive")
        return z, budget, epsilon if mode is _ARBITRARY else None

    # -- decision core ------------------------------------------------------

    def _decide(self, m_star: tuple, jitter: Fraction, budget: Fraction,
                need_arrival: bool = True):
        """Outcome, arrival time (None on timeout), probe depth used, for
        m* = mn/md given as the pair (mn, md).

        An answer requires arrival strictly before the deadline; an
        arrival exactly at the deadline is a timeout.  That strictness
        matches the threshold counting used by the batched engine, and
        it is the reason equality never has to be decided from an
        infinite digit tail.  A digit stream's cell [p, p + 1]/2**d deepens
        from the depth that sees the smallest gap that could still answer,
        from arrival >= law(m*, 0) / gap, to the probe cap.
        """
        deadline = budget if jitter is _ZERO else budget - jitter
        tn, td = deadline.numerator, deadline.denominator
        if tn <= 0:
            return _TIMEOUT, None, None
        mn, md = m_star
        rule = self.cutoffs(tn, td)[2]
        exact = self.source.exact_value
        if exact is not None:
            # the zero-width cell and m* over d = ud md: lo_t = lo and hi_t = hi
            un, ud = exact.numerator, exact.denominator
            m, u, d = mn * ud, un * md, md * ud
            lo, _, _, hi = rule(u, u, m, d)
            side = _LESSER if lo > 0 else _GREATER if hi is not None and hi < 0 else _TIMEOUT
            if side is _TIMEOUT or not need_arrival:
                return side, None, None
            # law / gap, with gap = |m* - mu| = |m - u| / d
            ln, ld = self._law(m, u, d)
            return side, Fraction(ln * d, ld * abs(m - u)) + jitter, None
        prefix_int = self.source.prefix_int
        fn, fd = self._law(mn, 0, md)
        start = max(8, (tn * fd // (td * fn)).bit_length() + 2) if fn else 8

        def probe(depth: int):
            # the cell [p, p + 1]/2**depth and m* over md 2**depth
            pn = prefix_int(depth) * md
            lo, lo_t, hi_t, hi = rule(pn, pn + md, mn << depth, md << depth)
            if lo > 0:
                return _LESSER
            if hi is not None and hi < 0:
                return _GREATER
            if lo_t <= 0 and (hi_t is None or hi_t >= 0):
                return _TIMEOUT
            return None

        outcome, depth = refine(start, self.config.probe_depth_cap, probe)
        if outcome is None or outcome is _TIMEOUT:
            return _TIMEOUT, None, depth
        arrival = self._reported_arrival(m_star, depth, jitter) if need_arrival else None
        return outcome, arrival, depth

    def cutoffs(self, tn: int, td: int):
        """The mass-cutoff rule at a positive deadline T = tn/td, as
        (s_lo, s_hi, rule): rule(pn, qn, m, d) gives the cutoffs
        (lo, lo_t, hi_t, hi) of the target cell [pn, qn]/d (0 <= pn <= qn)
        less the mass m/d, lo and lo_t as numerators over s_lo d, hi_t and
        hi over s_hi d; m = 0 gives the cutoffs.  For every target in the
        cell a mass below lo answers lesser, one above hi greater, and one
        in [lo_t, hi_t] times out; any other needs a narrower cell.  An
        exact mu = un/ud is the zero-width cell (un, un, ud).

        A mass answers when the law alpha + beta (m* + mu) is below
        T |m* - mu|.  Read at the cell's far end, with u = beta (qn + m) +
        alpha d and v = beta (pn + m) + alpha d, the cutoffs are T (pn - m) - u
        and T (qn - m) - v over s_lo = T + beta, then T (pn - m) + v and
        T (qn - m) + u over s_hi = T - beta, or None when T <= beta."""
        an, bn, ld = self._law_terms
        t, a, b = tn * ld, an * td, bn * td    # T, alpha and beta over td ld

        def rule(pn: int, qn: int, m: int, d: int):
            # pn - m and qn - m are small when the cell is near the mass
            x, y, w = t * (pn - m), t * (qn - m), a * d
            u, v = b * (qn + m) + w, b * (pn + m) + w
            return x - u, y - v, x + v, y + u
        if t <= b:
            return t + b, None, lambda pn, qn, m, d: (*rule(pn, qn, m, d)[:2], None, None)
        return t + b, t - b, rule

    def _law(self, mn: int, un: int, d: int) -> tuple[int, int]:
        """Arrival time times |m* - mu|, the law alpha + beta (m* + mu), for
        m* = mn/d and mu = un/d, as the unreduced pair (n, ld d)."""
        an, bn, ld = self._law_terms
        return an * d + bn * (mn + un), ld * d

    _CLOCK_BITS = 48

    def _reported_arrival(self, m_star, depth_hint, jitter) -> Fraction:
        """Arrival time for the transcript when the target is a digit stream.

        The true arrival is irrational in general, so the clock reading
        is certified to 2**-48: the enclosure from deeper digit reads is
        narrowed until it fits inside one clock tick, then snapped to
        the tick grid.  Deterministic, so replays reproduce it exactly.

        At depth d the prefix bracket gives integers a <= D |m* - mu| <= b
        over D = md 2**d, and with L = D law(m*, lo) at the cell's low end
        lo every arrival lies in [L / b, (L + beta md) / a].  The cells
        nest, so past depth_hint the gap bounds a/D and b/D only close in
        and law(m*, lo) only grows.  The enclosure is at most
        4 law(m*, 1) 2**-d (D/a)**2 wide and at least L 2**-d D / b**2, so
        with a, b, L and D read at depth_hint every
        d >= need = bits_above(4 law(m*, 1) 2**48 (D/a)**2) fits it inside a
        tick, and no d < bits_above(L 2**48 D / b**2) does.  The clock
        reads from the first doubling of depth_hint that can fit a tick to
        the first that reaches need, where a settle cannot fail, so it needs
        no digit horizon of its own; a settle read is one integer bracket,
        and no gap becomes a Fraction.

        Both ends are read from bit lengths, with fn/fd = law(m*, 1).  The
        last doubling is the first that reaches ub = bl(fn) + 2 bl(D) + 53 -
        bl(fd) - 2 bl(a), an upper bound on need, so need is never divided
        out: the reads settle at or before the doubling that reaches need,
        which is at or before the one that reaches ub.  The start is the first
        doubling that reaches skip = bl(ld L) + bl(D) - 1 + 48 - bl(ld) -
        2 bl(b), a lower bound at most 4 under the quotient's bit length:
        as depth_hint >= 8, that is the same doubling or the one before,
        where a settle provably fails.

        A settle's test md (L + beta b) 2**48 < a b, scaled by ld to
        integers, is read from bit lengths: for positive x and y, bl(x y) is
        bl(x) + bl(y) - 1 or bl(x) + bl(y), so a product of three positive
        factors has a bit length from the sum of theirs less 2 to that sum,
        and `_product_less` forms the two products only when those sums lie
        within 2 of each other, or a factor is 0.  At the depths the clock
        reads, the sums lie hundreds of bits apart.
        """
        bits = self._CLOCK_BITS
        tick = 1 << bits
        mn, md = m_star
        an, bn, ld = self._law_terms
        prefix_int = self.source.prefix_int

        def low_law(side: int, a: int, b: int, depth: int) -> int:
            # ld D law(m*, lo): alpha D under protocol timing, beta D (m* + lo)
            # under kinematic, with D lo = m + a when m* is below the cell
            # and m - b when it is above
            if not bn:
                return an * (md << depth)
            m = mn << depth
            return bn * (m + (m + a if side < 0 else m - b))

        def settle(depth: int):
            # past the deciding depth the nested cells keep m* and mu apart;
            # latest - earliest = md (L + beta b) / (a b) with L = ln/ld
            side, a, b = prefix_bracket(prefix_int(depth), mn, md, depth)
            ln = low_law(side, a, b, depth)
            if _product_less((md, ln + bn * b, tick), (ld, a, b)):
                return (ln << bits) // (ld * b)
            return None

        side, a, b = prefix_bracket(prefix_int(depth_hint), mn, md, depth_hint)
        D = md << depth_hint
        fn, fd = self._law(mn, md, md)
        bl_d = D.bit_length()
        ub = fn.bit_length() + 2 * bl_d + bits + 5 - fd.bit_length() - 2 * a.bit_length()
        skip = (low_law(side, a, b, depth_hint).bit_length() + bl_d - 1 + bits
                - ld.bit_length() - 2 * b.bit_length())
        start = depth_hint << ((max(skip, 1) - 1) // depth_hint).bit_length()
        cap = depth_hint << ((ub - 1) // depth_hint).bit_length()
        ticks, _ = refine(start, cap, settle)
        arrival = Fraction(ticks, 1 << bits)
        return arrival + jitter if jitter else arrival

    # -- batched queries ------------------------------------------------------

    def batch_query(self, word: str, budget, zeta: int) -> BatchRecord:
        """zeta independent repetitions of one query, reported as counts.

        Requires FULL_BUDGET accounting (each repetition bills the whole
        budget) and zero jitter with an exactly-known target for the
        threshold engine; anything else falls back to running the
        trials one-by-one through the certified decision path.  Trials
        draw at the config's tolerance (FIXED) or none (error-free); ARBITRARY
        mode has no per-query tolerance here and is refused, with no record.
        """
        cfg = self.config
        if zeta < 1:
            raise ConfigError("zeta must be >= 1")
        if cfg.wait_policy is not WaitPolicy.FULL_BUDGET:
            raise ConfigError("batched queries require WaitPolicy.FULL_BUDGET")
        z, budget, epsilon = self._resolve(word, budget, None)
        zf, index = Fraction(*z), len(self.transcript)
        usable_kernel = (
            epsilon is not None
            and cfg.N == 0
            and self.source.exact_value is not None
            and zf - epsilon >= 0
            and zf + epsilon <= 1
        )
        if usable_kernel:
            n_less, n_great = kernels.count_outcomes(
                cfg.seed, index, zeta, zf, epsilon, *self._exact_cutoffs(budget))
            engine = kernels.engine_name()
        else:
            n_less = n_great = 0
            for trial in range(zeta):
                m_star = self._draw_mass(z, epsilon, index, trial)
                jitter = self._draw_jitter(index, trial)
                outcome, _, _ = self._decide(m_star, jitter, budget, need_arrival=False)
                if outcome is _LESSER:
                    n_less += 1
                elif outcome is _GREATER:
                    n_great += 1
            engine = "per-trial"

        setup_total = cfg.c_setup * len(word) * zeta
        record = BatchRecord(
            index=index, word=word, budget=budget,
            zeta=zeta, n_lesser=n_less, n_greater=n_great,
            n_timeout=zeta - n_less - n_great,
            elapsed_total=budget * zeta, setup_total=setup_total,
            epsilon=epsilon, engine=engine,
        )
        self.transcript.append(record)
        return record

    # -- bookkeeping ------------------------------------------------------

    @property
    def total_elapsed(self) -> Fraction:
        return sum((r.total_time for r in self.transcript), Fraction(0))

