"""Reference model of oracle queries, batches, bisection and the grid sweep.

A straight `Fraction` transcription of the experiment that `oracle.py`
describes, with no cross-multiplication and no shortcut:

- the projectile mass m* = z - eps + 2 eps r / 2**64, r = rng.raw64, clipped
  into [0, 1] (m* = z when error-free), and the jitter -N + 2 N r' / 2**64;
- the law K / gap (protocol) or (r/u)(m* + mu) / gap (kinematic);
- on an exactly known target mu, the arrival in closed form,
  law / |m* - mu| + jitter, which answers only if strictly before the
  budget (equal masses never answer);
- on a digit-stream target, the certified decision: read depth-d prefixes
  of the target, d doubling from the start depth to the probe cap, until
  the arrival is proven strictly before the deadline (an answer) or at or
  after it (a timeout);
- the clock reading of an answered interrupt-billed query on a stream:
  deepen until the arrival enclosure is under one 2**-48 tick, then floor
  to the tick grid and add the jitter;
- interrupt or full-budget billing;
- a batch of zeta repetitions of one query, counted trial by trial: trial
  t draws its mass and its jitter from draws 2t and 2t + 1 of the query's
  substream, and every repetition waits out the whole budget;
- bisection: keep the bracket [lo, hi) around the target, fire the word
  of its midpoint at the schedule's budget for that word's length, and
  stop at the first timeout;
- the grid sweep: fire every p/2**r at the budget K 2**(2r + 1), one by
  one, and read the digits off an adjacent lesser/greater pair.

The target's digits are read through `MassSource.prefix_int`, and an
exact target's value through `MassSource.exact_value`.  This module
imports nothing from `oracle`, `kernels` or `procedures`, so property
tests can hold `CollisionOracle.query`, the per-trial path of
`CollisionOracle.batch_query`, `procedures.bisection` and
`procedures.grid_sweep` to it record by record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from collidersim import rng

TICK = Fraction(1, 1 << 48)


@dataclass
class Apparatus:
    K: Fraction = Fraction(1)
    N: Fraction = Fraction(0)
    timing: str = "protocol"
    launch_speed: Fraction = Fraction(1)
    flag_distance: Fraction = Fraction(1)
    interrupt: bool = True
    probe_depth_cap: int = 4096
    seed: int = 0
    c_setup: Fraction = Fraction(1)


@dataclass
class Result:
    outcome: str              # "lesser", "greater" or "timeout"
    elapsed: Fraction
    probe_depth: Optional[int]
    m_star: Fraction
    jitter: Fraction = Fraction(0)


def text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def word_value(word: str) -> Fraction:
    """Bit i of the word weighs 2**(1-i)."""
    return Fraction(int(word, 2), 1 << (len(word) - 1))


def draw_mass(app: Apparatus, z: Fraction, epsilon: Optional[Fraction],
              index: int, trial: int = 0) -> Fraction:
    if epsilon is None:
        return z
    u = Fraction(rng.raw64(app.seed, index, 2 * trial), 1 << 64)
    return min(max(z - epsilon + 2 * epsilon * u, Fraction(0)), Fraction(1))


def draw_jitter(app: Apparatus, index: int, trial: int = 0) -> Fraction:
    if app.N == 0:
        return Fraction(0)
    u = Fraction(rng.raw64(app.seed, index, 2 * trial + 1), 1 << 64)
    return -app.N + 2 * app.N * u


def law(app: Apparatus, m: Fraction, mu) -> Fraction:
    """Arrival time times |m - mu|."""
    if app.timing == "protocol":
        return app.K
    return app.flag_distance / app.launch_speed * (m + mu)


def bits_above(x: Fraction) -> int:
    """Least t >= 0 with 2**t > x."""
    return max(math.floor(x), 0).bit_length()


def doublings(start: int, cap: int):
    d = min(start, cap)
    while True:
        yield d
        if d >= cap:
            return
        d = min(2 * d, cap)


def arrival_bounds(app: Apparatus, src, m: Fraction, depth: int):
    """(side, near, earliest, latest) from the depth-d prefix interval [lo, hi).

    near <= |m - mu| <= far; latest is None while near is 0.
    """
    lo = Fraction(src.prefix_int(depth), 1 << depth)
    hi = lo + Fraction(1, 1 << depth)
    if m < lo:
        side, near, far = -1, lo - m, hi - m
    elif m >= hi:
        side, near, far = +1, m - hi, m - lo
    else:
        side, near, far = 0, Fraction(0), hi - lo
    latest = law(app, m, hi) / near if near > 0 else None
    return side, near, law(app, m, lo) / far, latest


def clock_reading(app: Apparatus, src, m: Fraction, depth: int,
                  jitter: Fraction) -> Fraction:
    _, near, _, _ = arrival_bounds(app, src, m, depth)
    need = bits_above(4 * law(app, m, 1) / (near * near * TICK))
    horizon = max(need, 4 * app.probe_depth_cap)
    cap = depth
    while cap < horizon:
        cap *= 2
    for d in doublings(depth, cap):
        _, _, earliest, latest = arrival_bounds(app, src, m, d)
        if latest is not None and latest - earliest < TICK:
            return math.floor(earliest / TICK) * TICK + jitter
    raise RuntimeError("clock reading did not settle")


def query(app: Apparatus, src, index: int, word: str, budget: Fraction,
          epsilon: Optional[Fraction] = None, trial: int = 0) -> Result:
    """Query number `index` of a run: the mass z of `word` against src."""
    m = draw_mass(app, word_value(word), epsilon, index, trial)
    jitter = draw_jitter(app, index, trial)
    mu = src.exact_value
    if mu is not None:
        if m == mu:
            return Result("timeout", budget, None, m, jitter)
        arrival = law(app, m, mu) / abs(m - mu) + jitter
        if arrival >= budget:
            return Result("timeout", budget, None, m, jitter)
        return Result("lesser" if m < mu else "greater",
                      arrival if app.interrupt else budget, None, m, jitter)
    deadline = budget - jitter
    if deadline <= 0:
        return Result("timeout", budget, None, m, jitter)
    floor_law = law(app, m, 0)
    start = max(8, bits_above(deadline / floor_law) + 2) if floor_law else 8
    for depth in doublings(start, app.probe_depth_cap):
        side, _, earliest, latest = arrival_bounds(app, src, m, depth)
        if latest is not None and latest < deadline:
            outcome = "lesser" if side < 0 else "greater"
            if not app.interrupt:
                return Result(outcome, budget, depth, m, jitter)
            return Result(outcome, clock_reading(app, src, m, depth, jitter),
                          depth, m, jitter)
        if earliest >= deadline:
            break
    return Result("timeout", budget, depth, m, jitter)


def batch_counts(app: Apparatus, src, index: int, word: str, budget: Fraction,
                 zeta: int, epsilon: Optional[Fraction] = None) -> tuple:
    """(n_lesser, n_greater) of zeta repetitions of query number `index`."""
    full = replace(app, interrupt=False)
    outcomes = [query(full, src, index, word, budget, epsilon, trial).outcome
                for trial in range(zeta)]
    return outcomes.count("lesser"), outcomes.count("greater")


def record_dict(index: int, word: str, budget: Fraction, result: Result,
                setup: Fraction) -> dict:
    """The transcript line of one error-free query."""
    return {"index": index, "z": word, "z_length": len(word),
            "budget": text(budget), "answer": result.outcome,
            "elapsed": text(result.elapsed), "setup": text(setup)}


def value_word(v: Fraction) -> str:
    """Shortest word of a dyadic mass v in [0, 1], read off bit by bit."""
    if v == 1:
        return "1"
    bits = ""
    while v:
        v *= 2
        bit = int(v >= 1)
        bits += str(bit)
        v -= bit
    return "0" + bits


def bisection(app: Apparatus, src, n_digits: int, schedule,
              arbitrary: bool = False):
    """Bisection of src: (records, report).

    Each record is (word, budget, result, setup); the report holds the
    digits, the status, and the waiting and setup totals.
    """
    lo, hi = Fraction(0), Fraction(1)
    digits, records, status = "", [], f"complete:{n_digits}"
    for stage in range(1, n_digits + 1):
        mid = (lo + hi) / 2
        word = value_word(mid)
        budget = schedule(len(word))
        eps = Fraction(1, 2 ** (stage + 6)) if arbitrary else None
        result = query(app, src, stage - 1, word, budget, eps)
        records.append((word, budget, result, app.c_setup * len(word)))
        if result.outcome == "timeout":
            status = f"timed-out-at-digit:{stage}"
            break
        if result.outcome == "lesser":
            digits, lo = digits + "1", mid
        else:
            digits, hi = digits + "0", mid
    report = {"digits": digits, "status": status,
              "total_time": sum((r[2].elapsed for r in records), Fraction(0)),
              "total_setup": sum((r[3] for r in records), Fraction(0))}
    return records, report


def grid_sweep(app: Apparatus, src, r: int):
    """Grid sweep of src at level r, billed full-budget: (records, report).

    Each record is (word, budget, result, setup); the report is the dict
    of a `MeasurementReport`.
    """
    budget = app.K * 2 ** (2 * r + 1)
    records, timeouts, lesser, greater = [], [], None, None
    for p in range(2 ** r + 1):
        word = "1" if p == 2 ** r else "0" + format(p, f"0{r}b")
        result = query(app, src, p, word, budget)
        records.append((word, budget, result, app.c_setup * len(word)))
        if result.outcome == "timeout":
            timeouts.append(p)
        elif result.outcome == "lesser":
            lesser = p
        elif greater is None:
            greater = p
    ok = not timeouts and lesser is not None and greater == lesser + 1
    report = {
        "procedure": "grid-sweep",
        "status": f"complete:{r}" if ok else f"timed-out-at-digit:{r}",
        "digits": format(lesser, f"0{r}b") if ok else "",
        "requested": r,
        "total_time": text(sum((rec[2].elapsed for rec in records), Fraction(0))),
        "total_setup": text(sum((rec[3] for rec in records), Fraction(0))),
        "stage_elapsed": [text(rec[2].elapsed) for rec in records],
        "details": {"level": r, "grid_timeouts": timeouts,
                    "bracket": [lesser, greater]},
    }
    return records, report
