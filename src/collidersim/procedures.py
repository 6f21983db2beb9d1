"""Digit-measurement procedures driven by the query protocol.

A schedule T(n) fixes how long the experimenter is willing to wait for
a query of word length n.  Bisection reads digits one at a time by
halving the cell the digits so far pin the target to; the grid sweep
fires every mass on a dyadic grid at one shared budget and reads off
the bracketing pair.  Both report a
digit prefix plus exactly where (if anywhere) a timeout stopped them,
and both keep exact simulated-time accounting so cost growth laws can
be checked against transcripts rather than against formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .collision import Outcome
from .dyadic import fraction_text, to_fraction
from .oracle import CollisionOracle, ConfigError, PrecisionMode, WaitPolicy
from .sources import (MassSource, RunLengths, _key_values, diagonal_run_lengths,
                      from_run_lengths, run_length_blocks)


class Schedule:
    """Total map from word length to waiting budget.

    Built-in constructors produce monotone, easily computed (time
    constructible) budgets; a custom callable is accepted as-is and
    carries no such promise.
    """

    def __init__(self, fn: Callable[[int], Fraction], descriptor: str):
        self._fn = fn
        self.descriptor = descriptor

    def __call__(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("schedules are defined for word lengths >= 1")
        value = to_fraction(self._fn(n))
        if value.numerator <= 0:
            raise ValueError(f"schedule {self.descriptor} gave budget {value} at n={n}")
        return value


def schedule_exponential(K, shift: int = 0) -> Schedule:
    """T(n) = K * 2**(n + shift)."""
    Kf = to_fraction(K)
    kn, kd = Kf.numerator, Kf.denominator    # K 2**m built from K's integers

    def budget(n: int) -> Fraction:
        e = n + shift
        return Fraction(kn << e, kd) if e >= 0 else Fraction(kn, kd << -e)

    return Schedule(budget, f"exponential:shift={shift}")


def schedule_algebraic(order: int, alpha) -> Schedule:
    """T(n) = alpha * n * 2**(order*n), the budget shape matched to
    algebraic targets of the given order, whose distance from stage-n
    dyadics shrinks no faster than a constant over 2**(order*n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    a = to_fraction(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    return Schedule(lambda n: a * n * (1 << (order * n)),
                    f"algebraic:order={order},alpha={a}")


def schedule_constant(value) -> Schedule:
    v = to_fraction(value)
    return Schedule(lambda n: v, f"constant:{v}")


def schedule_tabular(values: Sequence) -> Schedule:
    """T(n) is the n-th table entry; the last entry repeats past the end."""
    vals = [to_fraction(v) for v in values]
    if not vals:
        raise ValueError("empty budget table")
    return Schedule(lambda n: vals[min(n, len(vals)) - 1],
                    f"tabular:{len(vals)} entries")


def sufficient_exponential(K, u_max: int) -> Schedule:
    """Exponential schedule that measures any mass whose run lengths stay <= u_max.

    The slowest stage sits at the end of a block, where the next digit
    is 2**-(a + u) away at worst, so budget K * 2**(n + u_max + 1)
    strictly covers every arrival.
    """
    if u_max < 1:
        raise ValueError("u_max must be >= 1")
    return schedule_exponential(K, shift=u_max + 1)


def sufficient_for_rational(K, q: int) -> Schedule:
    """Schedule measuring any p/q: stage-i gaps are at least 1/(q*2^i)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    Kf = to_fraction(K)
    return Schedule(lambda n: Kf * q * (1 << n),
                    f"rational-sufficient:q={q}")


def builtin_schedules(K) -> dict:
    """The stock schedules exercised by the adversarial-mass checks."""
    return {
        "exp+0": schedule_exponential(K, 0),
        "exp+2": schedule_exponential(K, 2),
        "alg1": schedule_algebraic(1, 4 * to_fraction(K)),
        "alg2": schedule_algebraic(2, to_fraction(K)),
        "alg3": schedule_algebraic(3, to_fraction(K)),
    }


def parse_schedule(text: str, K) -> Schedule:
    """CLI schedule syntax; a stray token fails with the spec quoted.

    exp:k=2          T(n) = K * 2**(n+2), k defaults to 0
    alg:k=2,alpha=4  T(n) = 4 * n * 2**(2n), k defaults to 1 and alpha to K
    const:96         constant budget
    table:4,8,32     budgets by word length, the last entry repeated
    """
    kind, colon, args = text.partition(":")
    try:
        if not colon:
            raise ValueError("needs the form kind:args")
        if kind == "exp":
            opts = _key_values(args.split(","), ("k",))
            return schedule_exponential(K, int(opts.get("k", 0)))
        if kind == "alg":
            opts = _key_values(args.split(","), ("k", "alpha"))
            return schedule_algebraic(int(opts.get("k", 1)), opts.get("alpha", K))
        if kind == "const":
            if not args.strip():
                raise ValueError("needs a budget, e.g. const:96")
            return schedule_constant(args)
        if kind == "table":
            return schedule_tabular(args.split(","))
        raise ValueError(f"unknown schedule kind {kind!r}")
    except ValueError as exc:
        raise ValueError(f"schedule spec {text!r}: {exc}") from None


# ---------------------------------------------------------------------------


@dataclass
class MeasurementReport:
    """What a measurement run produced and what it cost."""

    procedure: str
    digits: str
    requested: int
    timed_out_at: Optional[int]
    total_time: Fraction
    total_setup: Fraction
    stage_elapsed: list
    details: dict

    @property
    def complete(self) -> bool:
        return self.timed_out_at is None and len(self.digits) == self.requested

    def status(self) -> str:
        if self.complete:
            return f"complete:{self.requested}"
        return f"timed-out-at-digit:{self.timed_out_at}"

    def to_dict(self) -> dict:
        return {
            "procedure": self.procedure,
            "status": self.status(),
            "digits": self.digits,
            "requested": self.requested,
            "total_time": fraction_text(self.total_time),
            "total_setup": fraction_text(self.total_setup),
            "stage_elapsed": [fraction_text(t) for t in self.stage_elapsed],
            "details": self.details,
        }


def default_stage_tolerance(stage: int) -> Fraction:
    """Per-stage manufacturing tolerance for error-prone bisection.

    Small enough that a tolerance-wide wobble of the test mass cannot
    flip the comparison whenever the target keeps the guaranteed
    distance > 2**-(stage+5) from stage dyadics (the margin encoded
    masses provide)."""
    return Fraction(1, 1 << (stage + 6))


def bisection(oracle: CollisionOracle, n_digits: int, schedule: Schedule) -> MeasurementReport:
    """Read the target's digits one halving at a time.

    Stage i fires the word "0" + (the digits read so far) + "1", of
    length i+1, with budget T(i+1); its value is the centre of the
    width-2**-(i-1) cell those digits pin the target to.  Lesser/greater
    turns into digit 1/0.  A timeout ends the run; with equal masses
    (dyadic target hit exactly) that is the only possible ending, since
    no budget ever resolves equality.  The digits are also kept as the
    integer num, so `query` is handed the word's value (2 num + 1)/2**i
    and does not parse the word it was given.  Under ARBITRARY mode stage
    i asks for the tolerance default_stage_tolerance(i); error-free
    stages ask for none.
    """
    if n_digits < 1:
        raise ValueError("n_digits must be >= 1")
    cfg = oracle.config
    if cfg.mode is PrecisionMode.FIXED:
        raise ConfigError("bisection digits are only sound in error-free or "
                          "per-query tolerance modes")
    arbitrary = cfg.mode is PrecisionMode.ARBITRARY

    digits, num = "", 0
    stage_elapsed = []
    timed_out_at = None
    query, lesser, timeout = oracle.query, Outcome.LESSER, Outcome.TIMEOUT
    for stage in range(1, n_digits + 1):
        word = "0" + digits + "1"
        budget = schedule(len(word))
        eps = default_stage_tolerance(stage) if arbitrary else None
        rec = query(word, budget, eps, _z=(2 * num + 1, 1 << stage))
        stage_elapsed.append(rec.elapsed)
        if rec.outcome is timeout:
            timed_out_at = stage
            break
        bit = rec.outcome is lesser
        digits += "1" if bit else "0"
        num = 2 * num + bit
    fired = len(stage_elapsed)   # stage i fires a word of i + 1 digits
    # the waiting time as one sum of numerators over the lcm of the denominators
    den = lcm(*[t.denominator for t in stage_elapsed])
    waited = sum(t.numerator * (den // t.denominator) for t in stage_elapsed)
    return MeasurementReport(
        procedure="bisection", digits=digits, requested=n_digits,
        timed_out_at=timed_out_at, total_time=Fraction(waited, den),
        total_setup=cfg.c_setup * (fired * (fired + 3) // 2),
        stage_elapsed=stage_elapsed,
        details={"schedule": schedule.descriptor},
    )


def grid_sweep(oracle: CollisionOracle, r: int) -> MeasurementReport:
    """Fire every mass p/2**r, 0 <= p <= 2**r, at one shared budget.

    The budget K * 2**(2r+1) makes the timeout window around the target
    exactly 2**-(2r+1) wide on each side.  When no query times out the
    answers bracket the target between adjacent grid points and the
    lower point's binary form is the first r digits.  A timeout means
    the target sits within the window of some grid point; the sweep
    reports that as failure rather than guessing, so its failure set is
    exactly the union of the little windows.

    `CollisionOracle.fire_grid` fires the words; on an exact target it
    sends only those next to the window through `query`.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    cfg = oracle.config
    if cfg.mode is not PrecisionMode.ERROR_FREE:
        raise ConfigError("the grid sweep assumes exactly manufactured masses; "
                          "use --mode errorfree (PrecisionMode.ERROR_FREE)")
    if cfg.wait_policy is not WaitPolicy.FULL_BUDGET:
        raise ConfigError("the grid sweep waits out every budget (rendezvous "
                          "accounting); use --wait full (WaitPolicy.FULL_BUDGET)")
    budget = cfg.K * (1 << (2 * r + 1))
    n_points = (1 << r) + 1
    # a grid query answers lesser, greater or timeout, never no-result; the
    # members are read once, as each read through the Enum class is slow
    lesser, greater, timeout = Outcome.LESSER, Outcome.GREATER, Outcome.TIMEOUT
    outcomes = [rec.outcome for rec in oracle.fire_grid(r, budget)]
    timeouts = [p for p, outcome in enumerate(outcomes) if outcome is timeout]
    lesser_max = n_points - 1 - outcomes[::-1].index(lesser) if lesser in outcomes else None
    greater_min = outcomes.index(greater) if greater in outcomes else None
    ok = (not timeouts and lesser_max is not None and greater_min is not None
          and greater_min == lesser_max + 1)
    digits = format(lesser_max, f"0{r}b") if ok else ""
    # full-budget billing fixes every query's cost before the sweep: it
    # waits out the budget, and every word has r + 1 digits except "1"
    return MeasurementReport(
        procedure="grid-sweep", digits=digits, requested=r,
        timed_out_at=None if ok else r, total_time=budget * n_points,
        total_setup=cfg.c_setup * ((r + 1) * (1 << r) + 1),
        stage_elapsed=[budget] * n_points,
        details={"level": r, "grid_timeouts": timeouts,
                 "bracket": [lesser_max, greater_min]},
    )


def grid_failure_measure(r: int) -> Fraction:
    """Exact Lebesgue measure of the sweep's failure set within [0, 1].

    Interior grid points contribute a window of width 2 * 2**-(2r+1)
    and the two endpoints half of that, which telescopes to 2**-r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return Fraction(1, 1 << r)


# ---------------------------------------------------------------------------


def measurability_check(runs: RunLengths, schedule: Schedule, K, k_max: int) -> list[dict]:
    """Necessary-condition report for measuring a run-length mass under T.

    Pinning the digit that ends block k requires outwaiting an arrival
    of order K * 2**a_{k+1}, and the budget available at that point is
    of order T(a_k), giving the per-block inequality

        2**u_{k+1} <= T(a_k) / (K * 2**a_k).

    The report evaluates it exactly for each k.  It is conservative by
    up to the one-word-length slack between T(a_k) and the budget the
    loop actually grants (T(a_k + 1)), so a single near-miss does not
    always doom a run, but sustained violation does, and the
    diagonalized masses violate it at every block.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    Kf = to_fraction(K)
    out = []
    for k in range(1, k_max + 1):
        a_k = runs.a(k)
        u_next = runs.u(k + 1)
        lhs = Fraction(1 << u_next)
        rhs = schedule(a_k) / (Kf * (1 << a_k))
        out.append({
            "k": k, "a_k": a_k, "u_next": u_next,
            "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs,
        })
    return out


def measurable_continuation(prefix: str) -> MassSource:
    """Extend a digit prefix with strictly alternating digits.

    Run lengths beyond the prefix are all 1, so the result is measurable
    under any schedule with two spare doublings of slack.
    """
    blocks = run_length_blocks(prefix)
    runs = RunLengths.from_list(blocks, tail="constant:1")
    runs.descriptor = f"prefix[{len(prefix)}]+alternating"
    return from_run_lengths(runs)


def adversarial_continuation(prefix: str, schedule: Schedule, K) -> MassSource:
    """Extend a digit prefix so every later block diagonalizes against T.

    Agrees with the prefix bit-for-bit, then resumes the least-violating
    block construction, possibly by stretching the prefix's final block.
    Transcripts that never probed past the prefix cannot tell this
    apart from the measurable continuation.
    """
    blocks = run_length_blocks(prefix)
    runs = diagonal_run_lengths(lambda n: schedule(n), to_fraction(K), blocks)
    runs.descriptor = f"prefix[{len(prefix)}]+adversarial:{schedule.descriptor}"
    return from_run_lengths(runs)

