"""End-to-end demonstrations: digit estimation and advice languages.

Two ways of pulling computational content out of collision timing.

The fixed-precision estimator reads digits of a parameter s embedded as
mu = 1/2 - eps/2 + s*eps with a manufacturing tolerance eps it cannot
shrink.  One budget choice makes the three outcome frequencies of a
repeated z = 1/2 query depend on s so that the statistic
X = 2*(lesser count) + (timeout count) has mean exactly (s + 1/2) per
trial regardless of the timeout window, and bounded variance; Chebyshev
then prices k digits at a trial count and error probability.

The membership harness decides words of an advice language by
bisection-measuring just enough digits of the mass that encodes the
advice function, decoding the needed prefix, and applying the language's
base rule.  Budgets follow from the guaranteed dyadic separation of
encoded masses, so no query ever times out and per-word cost grows
polynomially in log of the word length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .advice import PrefixFunction, decode_advice, read_bound
from .dyadic import to_fraction
from .oracle import (CollisionOracle, ConfigError, OracleConfig, PrecisionMode,
                     WaitPolicy)
from .procedures import (MeasurementReport, Schedule, bisection,
                         schedule_exponential)
from .sources import MassSource, affine_of_source


# ---------------------------------------------------------------------------
# trinomial outcome model for the embedded-parameter query


def embed_parameter(s_source: MassSource, epsilon) -> MassSource:
    """Mass mu = 1/2 - eps/2 + s*eps carrying the parameter s.

    The affine placement centers the reachable window: as s sweeps
    [0, 1], mu sweeps exactly the tolerance interval around 1/2 that an
    eps-noisy z = 1/2 projectile can reach.
    """
    eps = to_fraction(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2]")
    return affine_of_source(Fraction(1, 2) - eps / 2, eps, s_source)


def trinomial_probabilities(s, h) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (lesser, greater, timeout) probabilities for the z = 1/2 query.

    s is the embedded parameter, h = eta/eps the timeout half-width in
    tolerance units.  Requires the timeout window to sit inside the
    draw interval, which holds for all s in [0, 1] once h <= 1/2.
    """
    s = to_fraction(s)
    h = to_fraction(h)
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    if not 0 <= h <= Fraction(1, 2):
        raise ValueError("h must lie in [0, 1/2]")
    p = (s + Fraction(1, 2) - h) / 2
    q = (Fraction(3, 2) - s - h) / 2
    return p, q, h


def estimator_zeta(k: int, delta) -> int:
    """Trials making P(|X/zeta - (s+1/2)| >= 2**-(k+5)) <= delta.

    Chebyshev with the variance bound 3/4: any zeta exceeding
    3 * 2**(2k+10) / (4*delta) suffices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = to_fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    bound = 3 * (1 << (2 * k + 10)) / (4 * delta)
    return math.floor(bound) + 1


@dataclass
class DigitEstimate:
    """Outcome of one estimation run."""

    k: int
    delta: Fraction
    zeta: int
    n_lesser: int
    n_greater: int
    n_timeout: int
    statistic: int
    s_hat: Fraction
    digits: str
    engine: str
    elapsed_total: Fraction
    setup_total: Fraction

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "delta": str(self.delta),
            "zeta": self.zeta,
            "counts": {"lesser": self.n_lesser, "greater": self.n_greater,
                       "timeout": self.n_timeout},
            "statistic": self.statistic,
            "s_hat": f"{self.s_hat.numerator}/{self.s_hat.denominator}",
            "digits": self.digits,
            "engine": self.engine,
        }


def require_fixed_mode(cfg: OracleConfig) -> None:
    """The estimator's refusal of every mode but FIXED, for the command and
    the procedure alike."""
    if cfg.mode is not PrecisionMode.FIXED:
        raise ConfigError("digit estimation is the fixed-tolerance procedure; "
                          "use --mode fixed with --epsilon (PrecisionMode.FIXED)")


def estimate_digits(oracle: CollisionOracle, k: int,
                    delta=Fraction(1, 4)) -> DigitEstimate:
    """Read the first k digits of the embedded parameter despite fixed noise.

    Fires zeta repetitions of the z = 1/2 word at budget 4K/eps, which
    pins the timeout half-width to exactly eps/4.  The oracle must bill
    full budgets (the procedure is a rendezvous, every trial waits the
    whole window) with exact fixed tolerance and no launch latency.
    """
    cfg = oracle.config
    require_fixed_mode(cfg)   # FIXED mode holds a positive epsilon
    if cfg.N != 0:
        raise ConfigError("digit estimation needs zero launch latency so the "
                          "timeout width is exact")
    if cfg.wait_policy is not WaitPolicy.FULL_BUDGET:
        raise ConfigError("digit estimation bills the full budget per trial")
    zeta = estimator_zeta(k, delta)
    budget = 4 * cfg.K / cfg.epsilon
    batch = oracle.batch_query("01", budget, zeta)
    x = 2 * batch.n_lesser + batch.n_timeout
    s_hat = Fraction(x, zeta) - Fraction(1, 2)
    clamped = min(max(s_hat, Fraction(0)), Fraction(1))
    val = min(math.floor(clamped * (1 << k)), (1 << k) - 1)
    return DigitEstimate(
        k=k, delta=to_fraction(delta), zeta=zeta,
        n_lesser=batch.n_lesser, n_greater=batch.n_greater,
        n_timeout=batch.n_timeout, statistic=x, s_hat=s_hat,
        digits=format(val, f"0{k}b"), engine=batch.engine,
        elapsed_total=batch.elapsed_total, setup_total=batch.setup_total,
    )


# ---------------------------------------------------------------------------
# advice languages decided through the oracle


class AdviceLanguage:
    """A base rule plus a length-indexed advice function.

    Membership of w consults rule(w, advice) where advice is the value
    of f at the power of two covering |w|; that is exactly the string a
    decoder recovers from the encoded mass knowing only |w|.
    """

    def __init__(self, rule: Callable[[str, str], bool], f: PrefixFunction):
        self.rule = rule
        self.f = f

    def covering_power(self, length: int) -> int:
        if length < 1:
            raise ValueError("words must be nonempty")
        return (length - 1).bit_length()

    def contains(self, word: str) -> bool:
        """Ground-truth membership, consulting f directly."""
        m = self.covering_power(len(word))
        return self.rule(word, self.f(1 << m))


def hidden_bit_language(hidden: str) -> AdviceLanguage:
    """Words whose length class points at a 1 in a hidden bit sequence.

    w is in the language iff hidden[floor(log2 |w|)] is 1 (0-indexed),
    i.e. membership depends on |w| only through its binary order of
    magnitude.  The advice f(n) is the hidden prefix of length
    floor(log2 n) + 1, so |f(2**j)| = j + 1: growth pair (1, 1).
    """
    if not hidden or set(hidden) - {"0", "1"}:
        raise ValueError("hidden must be a nonempty bit string")

    f = PrefixFunction(lambda n: hidden[:n.bit_length()], a=1, b=1,
                       stable_from=1 << (len(hidden) - 1),
                       descriptor=f"hidden[{len(hidden)} bits]")

    def rule(word: str, advice: str) -> bool:
        idx = len(word).bit_length()
        if idx > len(advice):
            raise ValueError("advice too short for this word length")
        return advice[idx - 1] == "1"

    return AdviceLanguage(rule, f)


@dataclass
class MembershipResult:
    accepted: bool
    advice_bits: str
    digits_consumed: int
    total_time: Fraction
    total_setup: Fraction


class MeasurementIncomplete(RuntimeError):
    """The advice measurement timed out; names the partial report's status."""

    def __init__(self, report: MeasurementReport):
        super().__init__(f"measurement stopped: {report.status()}")


def membership_schedule(K) -> Schedule:
    """Budget law under which every encoded advice mass is measurable.

    Encoded masses keep distance > 2**-(n+5) from stage-n dyadics, so
    arrivals stay below K * 2**(n+5); two extra doublings of headroom
    absorb per-query tolerance wobble half the gap wide.
    """
    return schedule_exponential(K, 6)


def decide_membership(oracle: CollisionOracle, word: str,
                      language: AdviceLanguage) -> MembershipResult:
    """Decide one word by measuring, decoding, then applying the base rule.

    The oracle's hidden mass must encode the language's advice function;
    only the public growth pair (a, b) and the base rule are used here.
    The measurement runs under membership_schedule(K).
    """
    length = len(word)
    if length < 1:
        raise ValueError("words must be nonempty")
    a, b = language.f.a, language.f.b
    depth = read_bound(length, a, b)
    report = bisection(oracle, depth, membership_schedule(oracle.config.K))
    if not report.complete:
        raise MeasurementIncomplete(report)
    advice_bits, consumed = decode_advice(report.digits, length, a, b)
    return MembershipResult(
        accepted=language.rule(word, advice_bits),
        advice_bits=advice_bits,
        digits_consumed=consumed,
        total_time=report.total_time,
        total_setup=report.total_setup,
    )


def cost_slope(lengths: Sequence[int], times: Sequence) -> float:
    """Least-squares slope of log2(time) against log2(length)."""
    if len(lengths) != len(times) or len(lengths) < 2:
        raise ValueError("need matching samples, at least two")
    xs = [math.log2(n) for n in lengths]
    ys = [math.log2(float(t)) for t in times]
    # statistics.linear_regression's sums, without importing statistics
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) * (x - xbar) for x in xs)
    if not sxx:
        raise ValueError("x is constant")
    return math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
