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

Decisions are certified, never guessed.  For an exactly-known target
the decision is one inequality between cross-multiplied integers, and
the arrival time is computed in closed form.  For a target known only
as a digit stream, the query reads just enough digits to prove the
arrival falls strictly before the deadline or at-or-after it; the
convention that a deadline-exact arrival counts as a timeout is what
makes this provable from a finite prefix of a non-dyadic target.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import rng
from .collision import Outcome
# validate_word runs inside word_to_dyadic; the name stays importable here
# because perfbench/spans.py traces it at the oracle's lookup name
from .dyadic import (bits_above, fraction_text, to_fraction, validate_word,  # noqa: F401
                     word_to_dyadic)
from .sources import MassSource, distance_bracket, refine

_ZERO = Fraction(0)


class PrecisionMode(enum.Enum):
    ERROR_FREE = "error-free"    # m* == z exactly
    ARBITRARY = "arbitrary"      # per-query tolerance, m* uniform in [z-eps, z+eps]
    FIXED = "fixed"              # one global tolerance for every query

    def __str__(self):
        return self.value


class WaitPolicy(enum.Enum):
    INTERRUPT = "interrupt"      # an answer stops the clock at arrival time
    FULL_BUDGET = "full-budget"  # the clock always runs the whole budget

    def __str__(self):
        return self.value


class TimeoutReaction(enum.Enum):
    RETURN = "return"            # timeouts come back as Outcome.TIMEOUT
    ABORT = "abort"              # timeouts raise TimeoutExceeded

    def __str__(self):
        return self.value


class ConfigError(ValueError):
    pass


class TimeoutExceeded(RuntimeError):
    """Raised under TimeoutReaction.ABORT; carries the offending record."""

    def __init__(self, record):
        super().__init__(f"query {record.index} ({record.word!r}) timed out")
        self.record = record


@dataclass
class OracleConfig:
    """Apparatus parameters shared by every query of a run.

    K: arrival-time constant; an answered query arrives at K/|m*-target|.
    N: jitter amplitude; each arrival is shifted by a uniform draw from
       [-N, N].  N = 0 switches jitter off entirely.
    mode/epsilon: manufacturing precision.  FIXED mode requires epsilon
       here; ARBITRARY mode takes a tolerance per query.  Error-prone
       draws are clipped into [0, 1]; the clip can only trigger when the
       tolerance window pokes outside the unit interval, and the
       endpoints themselves carry probability zero.
    wait_policy/timeout_reaction: accounting and control flow, above.
    c_setup: preparation cost per word digit (longer words take longer
       to set up), billed separately from the waiting time so budget
       arithmetic stays exact.
    timing: "protocol" uses the K/gap law; "kinematic" derives arrival
       times from the actual collision geometry (launch_speed,
       flag_distance), where the constant in front of 1/gap becomes the
       mass-dependent (m* + target) * flag_distance / launch_speed.
    probe_depth_cap: digit horizon when certifying against a digit
       stream; a comparison that cannot be settled within the horizon is
       reported as a timeout, mirroring a detector of finite resolution.
    """

    K: Fraction = Fraction(1)
    N: Fraction = Fraction(0)
    mode: PrecisionMode = PrecisionMode.ERROR_FREE
    epsilon: Optional[Fraction] = None
    wait_policy: WaitPolicy = WaitPolicy.INTERRUPT
    timeout_reaction: TimeoutReaction = TimeoutReaction.RETURN
    c_setup: Fraction = Fraction(1)
    timing: str = "protocol"
    launch_speed: Fraction = Fraction(1)
    flag_distance: Fraction = Fraction(1)
    seed: int = 0
    probe_depth_cap: int = 4096
    record_hidden: bool = False

    def __post_init__(self):
        self.K = to_fraction(self.K)
        self.N = to_fraction(self.N)
        self.c_setup = to_fraction(self.c_setup)
        self.launch_speed = to_fraction(self.launch_speed)
        self.flag_distance = to_fraction(self.flag_distance)
        if self.epsilon is not None:
            self.epsilon = to_fraction(self.epsilon)
        if self.K <= 0:
            raise ConfigError("K must be positive")
        if self.N < 0:
            raise ConfigError("N must be >= 0")
        if self.c_setup < 0:
            raise ConfigError("c_setup must be >= 0")
        if self.launch_speed <= 0 or self.flag_distance <= 0:
            raise ConfigError("launch_speed and flag_distance must be positive")
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
    z: Fraction
    z_length: int
    budget: Fraction
    outcome: Outcome
    elapsed: Fraction
    setup: Fraction
    epsilon: Optional[Fraction] = None
    probe_depth: Optional[int] = None
    # what the experimenter knows about the realized projectile mass:
    # a single point when error-free, the tolerance window otherwise
    mass_interval: tuple = ()
    hidden: dict = field(default_factory=dict, repr=False)

    @property
    def total_time(self) -> Fraction:
        return self.elapsed + self.setup

    def to_dict(self) -> dict:
        d = {
            "index": self.index,
            "z": self.word,
            "z_length": self.z_length,
            "budget": fraction_text(self.budget),
            "answer": str(self.outcome),
            "elapsed": fraction_text(self.elapsed),
            "setup": fraction_text(self.setup),
        }
        if self.epsilon is not None:
            d["epsilon"] = fraction_text(self.epsilon)
        return d


@dataclass
class BatchRecord:
    """Aggregate of zeta repetitions of one query at one budget."""

    index: int
    word: str
    z: Fraction
    z_length: int
    budget: Fraction
    zeta: int
    n_lesser: int
    n_greater: int
    n_timeout: int
    elapsed_total: Fraction
    setup_total: Fraction
    epsilon: Optional[Fraction] = None
    engine: str = "thresholds"

    @property
    def total_time(self) -> Fraction:
        return self.elapsed_total + self.setup_total

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "z": self.word,
            "z_length": self.z_length,
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


class CollisionOracle:
    """Stateful query interface around one hidden mass source."""

    def __init__(self, source: MassSource, config: Optional[OracleConfig] = None):
        self.source = source
        self.config = config or OracleConfig()
        self.transcript: list = []

    # -- draws ------------------------------------------------------------

    def _draw_mass(self, z: Fraction, epsilon: Optional[Fraction], stream: int,
                   trial: int = 0) -> Fraction:
        cfg = self.config
        if cfg.mode is PrecisionMode.ERROR_FREE:
            return z
        if epsilon is None:
            raise ConfigError("this precision mode needs a tolerance")
        r = rng.raw64(cfg.seed, stream, 2 * trial)
        m_star = z - epsilon + 2 * epsilon * Fraction(r, 1 << 64)
        # clip at the domain boundary; only reachable when the tolerance
        # window leaves [0, 1], and boundary hits have probability zero
        if m_star < 0:
            return Fraction(0)
        if m_star > 1:
            return Fraction(1)
        return m_star

    def _draw_jitter(self, stream: int, trial: int = 0) -> Fraction:
        cfg = self.config
        if cfg.N == 0:
            return _ZERO
        r = rng.raw64(cfg.seed, stream, 2 * trial + 1)
        return -cfg.N + 2 * cfg.N * Fraction(r, 1 << 64)

    # -- single query -------------------------------------------------------

    def query(self, word: str, budget, epsilon=None):
        """Run one experiment; append and return its QueryRecord.

        Under TimeoutReaction.ABORT a timeout still appends its record
        before raising, so aborted transcripts stay complete.
        """
        cfg = self.config
        z, budget, epsilon = self._resolve(word, budget, epsilon)
        index = len(self.transcript)
        m_star = self._draw_mass(z, epsilon, index)
        jitter = self._draw_jitter(index)
        need_arrival = cfg.wait_policy is WaitPolicy.INTERRUPT
        outcome, arrival, depth = self._decide(m_star, jitter, budget, need_arrival)

        if cfg.wait_policy is WaitPolicy.FULL_BUDGET or outcome is Outcome.TIMEOUT:
            elapsed = budget
        else:
            elapsed = arrival
        setup = cfg.c_setup * len(word)

        if epsilon is None:
            interval = (z, z)
        else:
            interval = (max(Fraction(0), z - epsilon), min(Fraction(1), z + epsilon))
        record = QueryRecord(
            index=index, word=word, z=z, z_length=len(word), budget=budget,
            outcome=outcome, elapsed=elapsed, setup=setup,
            epsilon=epsilon, probe_depth=depth, mass_interval=interval,
        )
        if cfg.record_hidden:
            record.hidden["m_star"] = m_star
            record.hidden["jitter"] = jitter
        self.transcript.append(record)
        if outcome is Outcome.TIMEOUT and cfg.timeout_reaction is TimeoutReaction.ABORT:
            raise TimeoutExceeded(record)
        return record

    def _resolve(self, word: str, budget, epsilon):
        """Checked (z, budget, epsilon) of a query, shared by both query kinds.

        The returned epsilon is the tolerance the draws use: the global one
        in FIXED mode, the per-query one in ARBITRARY mode, and None for
        exactly manufactured masses.
        """
        cfg = self.config
        z = word_to_dyadic(word).as_fraction()
        budget = to_fraction(budget)
        if budget <= 0:
            raise ConfigError("budget must be positive")
        if cfg.mode is PrecisionMode.FIXED:
            if epsilon is not None and to_fraction(epsilon) != cfg.epsilon:
                raise ConfigError("FIXED mode pins every query to the global epsilon")
            epsilon = cfg.epsilon
        elif epsilon is not None:
            epsilon = to_fraction(epsilon)
            if epsilon <= 0:
                raise ConfigError("epsilon must be positive")
        if cfg.mode is PrecisionMode.ARBITRARY and epsilon is None:
            raise ConfigError("ARBITRARY mode needs a per-query epsilon")
        if cfg.mode is PrecisionMode.ERROR_FREE:
            return z, budget, None
        return z, budget, epsilon

    # -- decision core ------------------------------------------------------

    def _decide(self, m_star: Fraction, jitter: Fraction, budget: Fraction,
                need_arrival: bool = True):
        """Outcome, arrival time (None on timeout), probe depth used.

        An answer requires arrival strictly before the deadline; an
        arrival exactly at the deadline is a timeout.  That strictness
        matches the threshold counting used by the batched engine, and
        it is the reason equality never has to be decided from an
        infinite digit tail.
        """
        deadline = budget - jitter if jitter else budget
        if deadline <= 0:
            return Outcome.TIMEOUT, None, None

        exact = self.source.exact_value
        if exact is None:
            return self._decide_probed(m_star, jitter, deadline, need_arrival)
        # law/gap < deadline in cross-multiplied integers, where
        # gap = |m* - mu| = |diff| / gd
        diff = m_star.numerator * exact.denominator - exact.numerator * m_star.denominator
        if diff == 0:
            return Outcome.TIMEOUT, None, None
        gn, gd = abs(diff), m_star.denominator * exact.denominator
        law = self._law(m_star, exact)
        if law.numerator * gd * deadline.denominator >= deadline.numerator * gn * law.denominator:
            return Outcome.TIMEOUT, None, None
        side = Outcome.LESSER if diff < 0 else Outcome.GREATER
        if not need_arrival:
            return side, None, None
        return side, Fraction(law.numerator * gd, law.denominator * gn) + jitter, None

    def _law(self, m_star: Fraction, mu) -> Fraction:
        """Arrival time times |m* - mu|: K under protocol timing, and
        (r/u) * (m* + mu) under kinematic timing, which alone reads mu."""
        cfg = self.config
        if cfg.timing == "protocol":
            return cfg.K
        return cfg.flag_distance / cfg.launch_speed * (m_star + mu)

    def _arrival_bounds(self, m_star: Fraction, depth: int):
        """(side, earliest, latest) arrival certified by a depth-d prefix.

        side is the sign of m* - mu once the prefix separates them, else 0;
        latest is None until the certified gap is positive.
        """
        a, b, side = distance_bracket(self.source, m_star, depth)
        lo = hi = None
        if self.config.timing != "protocol":
            lo, hi = self.source.interval(depth)
        latest = self._law(m_star, hi) / a if side != 0 and a > 0 else None
        return side, self._law(m_star, lo) / b, latest

    def _decide_probed(self, m_star, jitter, deadline, need_arrival=True):
        # digits enough to see the smallest gap that could still answer,
        # from arrival >= law(m*, 0) / gap
        floor_law = self._law(m_star, 0)
        start = max(8, bits_above(deadline / floor_law) + 2) if floor_law else 8

        def settle(depth: int):
            side, earliest, latest = self._arrival_bounds(m_star, depth)
            if latest is not None and latest < deadline:
                return Outcome.LESSER if side < 0 else Outcome.GREATER
            if earliest >= deadline:
                return Outcome.TIMEOUT
            return None

        outcome, depth = refine(start, self.config.probe_depth_cap, settle)
        if outcome is None or outcome is Outcome.TIMEOUT:
            return Outcome.TIMEOUT, None, depth
        arrival = self._reported_arrival(m_star, depth, jitter) if need_arrival else None
        return outcome, arrival, depth

    _CLOCK_BITS = 48

    def _reported_arrival(self, m_star, depth_hint, jitter) -> Fraction:
        """Arrival time for the transcript when the target is a digit stream.

        The true arrival is irrational in general, so the clock reading
        is certified to 2**-48: the enclosure from deeper digit reads is
        narrowed until it fits inside one clock tick, then snapped to
        the tick grid.  Deterministic, so replays reproduce it exactly.

        Past depth_hint the certified gap a only grows, and the enclosure
        at depth d is at most 4 law(m*, 1) 2**-d / a**2 wide, so every
        d >= need fits it inside a tick.  The digit horizon is the first
        doubling of depth_hint that reaches both need and four times the
        probe cap.
        """
        tick = Fraction(1, 1 << self._CLOCK_BITS)
        a, _, _ = distance_bracket(self.source, m_star, depth_hint)
        need = bits_above((4 << self._CLOCK_BITS) * self._law(m_star, 1) / (a * a))

        def settle(depth: int):
            _, earliest, latest = self._arrival_bounds(m_star, depth)
            if latest is not None and latest - earliest < tick:
                ticks = (earliest.numerator << self._CLOCK_BITS) // earliest.denominator
                return Fraction(ticks, 1 << self._CLOCK_BITS) + jitter
            return None

        horizon = max(need, 4 * self.config.probe_depth_cap)
        cap = depth_hint << ((horizon - 1) // depth_hint).bit_length()
        arrival, _ = refine(depth_hint, cap, settle)
        if arrival is None:
            raise RuntimeError("clock certification exceeded its digit horizon")
        return arrival

    # -- batched queries ------------------------------------------------------

    def batch_query(self, word: str, budget, zeta: int, epsilon=None) -> BatchRecord:
        """zeta independent repetitions of one query, reported as counts.

        Requires FULL_BUDGET accounting (each repetition bills the whole
        budget) and zero jitter with an exactly-known non-dyadic target
        for the threshold engine; anything else falls back to running
        the trials one-by-one through the certified decision path.
        """
        cfg = self.config
        if zeta < 1:
            raise ConfigError("zeta must be >= 1")
        if cfg.wait_policy is not WaitPolicy.FULL_BUDGET:
            raise ConfigError("batched queries require WaitPolicy.FULL_BUDGET")
        z, budget, epsilon = self._resolve(word, budget, epsilon)
        index = len(self.transcript)
        exact = self.source.exact_value
        usable_kernel = (
            epsilon is not None
            and cfg.N == 0
            and cfg.timing == "protocol"
            and exact is not None
            and self.source.non_dyadic
            and z - epsilon >= 0
            and z + epsilon <= 1
        )
        if usable_kernel:
            from . import kernels
            eta = cfg.K / budget
            n_less, n_great = kernels.count_outcomes(
                cfg.seed, index, zeta, z, epsilon, exact, eta)
            engine = kernels.engine_name()
        else:
            n_less = n_great = 0
            for trial in range(zeta):
                m_star = self._draw_mass(z, epsilon, index, trial)
                jitter = self._draw_jitter(index, trial)
                outcome, _, _ = self._decide(m_star, jitter, budget, need_arrival=False)
                if outcome is Outcome.LESSER:
                    n_less += 1
                elif outcome is Outcome.GREATER:
                    n_great += 1
            engine = "per-trial"

        setup_total = cfg.c_setup * len(word) * zeta
        record = BatchRecord(
            index=index, word=word, z=z, z_length=len(word), budget=budget,
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

    def reset(self) -> None:
        self.transcript.clear()


def timeout_window(config: OracleConfig, budget) -> Fraction:
    """Half-width of the mass window around the target that can time out.

    Inverting arrival = K/gap + jitter at the worst jitter: any realized
    mass with |m* - target| < K/(budget - N) may miss the deadline, and
    the window is symmetric because the arrival law sees only |m* - target|.
    With N = 0 this is the exact timeout half-width.
    """
    budget = to_fraction(budget)
    if budget <= config.N:
        raise ConfigError("budget must exceed the jitter bound")
    return config.K / (budget - config.N)
