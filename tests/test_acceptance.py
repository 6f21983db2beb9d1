"""Acceptance gate: end-to-end exercises of the measurement stack.

Each test is one numbered criterion and prints a single PASS or FAIL
line, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Statistical thresholds are three-sigma bands around closed-form
expectations, evaluated on fixed seeds; everything else is exact.
"""

import functools
import json
import math
import random
from fractions import Fraction

import pytest

from collidersim import rng
from collidersim.advice import (AdviceCorruptionError, PrefixFunction,
                                decode_advice, dyadic_gap_bound, encode_advice,
                                encoded_mass, read_bound)
from collidersim.collision import (Outcome, classify_outcome, experiment_time,
                                   kinetic_energy, momentum,
                                   post_collision_velocities,
                                   time_gap_product, time_bounds,
                                   uncertainty_product)
from collidersim.dyadic import Dyadic
from collidersim.harness import (cost_slope, decide_membership,
                                 estimate_digits, estimator_zeta,
                                 hidden_bit_language, trinomial_probabilities)
from collidersim.oracle import (CollisionOracle, OracleConfig, PrecisionMode,
                                WaitPolicy)
from collidersim.procedures import (adversarial_continuation, bisection,
                                    builtin_schedules, grid_failure_measure,
                                    grid_sweep, measurability_check,
                                    measurable_continuation,
                                    schedule_constant, schedule_exponential,
                                    sufficient_exponential,
                                    sufficient_for_rational)
from collidersim.rng import derive_seed
from collidersim.sources import (RunLengths, adversarial_mass, from_dyadic,
                                 from_rational, from_run_lengths)


def criterion(num: int, desc: str):
    """Print one pass/fail line per criterion, then defer to pytest."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")
        return wrapper
    return deco


def _rand_unit(gen: random.Random) -> Fraction:
    q = gen.randrange(2, 10 ** 6)
    return Fraction(gen.randrange(1, q), q)


@criterion(1, "collision outcomes follow exactly from conservation laws")
def test_criterion_01_collision_kinematics_exact():
    gen = random.Random(101)
    for _ in range(10_000):
        m, mu = _rand_unit(gen), _rand_unit(gen)
        u = Fraction(gen.randrange(1, 64), gen.randrange(1, 64))
        r = Fraction(gen.randrange(1, 64), gen.randrange(1, 64))
        v_m, v_mu = post_collision_velocities(m, mu, u)
        assert v_m == (m - mu) / (m + mu) * u
        assert v_mu == 2 * m / (m + mu) * u
        assert momentum(m, u) == momentum(m, v_m) + momentum(mu, v_mu)
        assert kinetic_energy(m, u) == (kinetic_energy(m, v_m)
                                        + kinetic_energy(mu, v_mu))
        t = experiment_time(m, mu, u, r)
        if m == mu:
            assert t == math.inf
            assert classify_outcome(m, mu) is Outcome.NO_RESULT
        else:
            assert t == (r / u) * (m + mu) / abs(m - mu)
            want = Outcome.LESSER if m < mu else Outcome.GREATER
            assert classify_outcome(m, mu) is want
        assert time_gap_product(m, mu, u, r) == (m + mu) * r / u
    # degenerate projectile: bounce straight back, target never moves
    mu = _rand_unit(gen)
    assert post_collision_velocities(0, mu, 3) == (-3, 0)
    # equal masses swap velocities, so the projectile stops dead
    m = _rand_unit(gen)
    u = Fraction(gen.randrange(1, 64), gen.randrange(1, 64))
    assert post_collision_velocities(m, m, u) == (0, u)
    assert experiment_time(m, m) == math.inf


@criterion(2, "error-free bisection reads twenty digits of 1/3 on budget")
def test_criterion_02_error_free_bisection_recovers_one_third():
    oracle = CollisionOracle(from_rational(1, 3))
    schedule = schedule_exponential(Fraction(1), 2)
    report = bisection(oracle, 20, schedule)
    assert report.complete
    assert report.digits == "01" * 10
    # each stage's arrival is exactly 3 * 2**n, strictly inside its budget
    # and above the geometric floor for this mass
    assert report.stage_elapsed == [3 * 2 ** n for n in range(1, 21)]
    for n in range(1, 21):
        assert 2 ** (n - 1) <= 3 * 2 ** n < schedule(n + 1)
    assert report.total_time == sum(3 * 2 ** n for n in range(1, 21))
    assert report.total_time <= sum(schedule(n + 1) for n in range(1, 21))
    assert report.total_setup == sum(range(2, 22))
    assert oracle.total_elapsed == report.total_time + report.total_setup


@criterion(3, "sufficient schedules recover rational and patterned masses")
def test_criterion_03_digit_recovery_rationals_and_patterns():
    gen = random.Random(303)
    rationals = []
    while len(rationals) < 50:
        q = gen.randrange(3, 1000)
        f = Fraction(gen.randrange(1, q), q)
        if f.denominator & (f.denominator - 1) == 0:
            continue  # dyadics stall bisection by design, tested elsewhere
        rationals.append(f)
    for f in rationals:
        src = from_rational(f.numerator, f.denominator)
        oracle = CollisionOracle(src)
        report = bisection(oracle, 24,
                           sufficient_for_rational(Fraction(1), f.denominator))
        want = "".join(str(src.digit_at(i)) for i in range(1, 25))
        assert report.complete and report.digits == want

    for _ in range(20):
        blocks = [gen.randrange(0, 4)] + [gen.randrange(1, 5) for _ in range(4)]
        runs = RunLengths.from_list(blocks, tail="repeat-last")
        src = from_run_lengths(runs)
        oracle = CollisionOracle(src)
        report = bisection(oracle, 24, sufficient_exponential(Fraction(1), 4))
        want = "".join(str(src.digit_at(i)) for i in range(1, 25))
        assert report.complete and report.digits == want


@criterion(4, "encoded advice masses keep clear of every dyadic grid point")
def test_criterion_04_encoded_masses_avoid_dyadic_grid():
    gen = random.Random(404)
    for _ in range(25):
        m_top = gen.randrange(1, 7)
        table = {0: ""}
        bits = ""
        for j in range(m_top + 1):
            bits += "".join(gen.choice("01") for _ in range(gen.randrange(0, 3)))
            table[2 ** j] = bits
        f = PrefixFunction.from_table(table)
        mu = encoded_mass(f).exact_value
        for n in range(1, 17):
            # minimum of |mu - k/2**n| over every integer k, computed
            # exactly: scale by q*2**n and reduce mod q
            rem = (mu.numerator << n) % mu.denominator
            closest = Fraction(min(rem, mu.denominator - rem),
                               mu.denominator << n)
            assert closest > dyadic_gap_bound(n)


@criterion(5, "advice decoding round-trips and rejects any single corruption")
def test_criterion_05_advice_decoding_and_corruption_detection():
    gen = random.Random(505)
    for _ in range(100):
        m_top = gen.randrange(1, 9)
        table = {0: ""}
        bits = ""
        for j in range(m_top + 1):
            cap = 2 * j + 4
            room = cap - len(bits)
            bits += "".join(gen.choice("01")
                            for _ in range(gen.randrange(0, min(room, 3) + 1)))
            table[2 ** j] = bits
        f = PrefixFunction.from_table(table, a=2, b=4)
        src = encoded_mass(f)
        for _ in range(3):
            w = 2 ** gen.randrange(0, m_top + 1)
            bound = read_bound(w, 2, 4)
            got, consumed = decode_advice(format(src.prefix_int(bound), f"0{bound}b"), w, 2, 4)
            assert got == f(w)
            assert consumed <= bound
        digits = encode_advice(f, m_top)
        i = gen.randrange(len(digits))
        flipped = digits[:i] + ("1" if digits[i] == "0" else "0") + digits[i + 1:]
        with pytest.raises(AdviceCorruptionError):
            decode_advice(flipped + "001" * 40, 2 ** m_top, 2, 4)
        with pytest.raises(AdviceCorruptionError):
            decode_advice(digits[:len(digits) - 2], 2 ** m_top, 2, 4)


@criterion(6, "membership via measured advice matches truth at low cost")
def test_criterion_06_membership_decisions_with_advice():
    hidden = "10110100110"
    lang = hidden_bit_language(hidden)

    def truth(n: int) -> bool:
        return hidden[n.bit_length() - 1] == "1"

    gen = random.Random(606)
    for i in range(200):
        n = gen.randrange(1, 1025)
        if i % 2 == 0:
            oracle = CollisionOracle(encoded_mass(lang.f))
        else:
            oracle = CollisionOracle(
                encoded_mass(lang.f),
                OracleConfig(mode=PrecisionMode.ARBITRARY, seed=i))
        result = decide_membership(oracle, "0" * n, lang)
        assert result.accepted == truth(n)
        assert result.advice_bits == lang.f(2 ** (n - 1).bit_length())
        assert result.digits_consumed <= read_bound(n, lang.f.a, lang.f.b)

    lengths = [8, 16, 32, 64, 128, 256, 512, 1024]
    times = []
    for n in lengths:
        oracle = CollisionOracle(encoded_mass(lang.f))
        result = decide_membership(oracle, "0" * n, lang)
        times.append(result.total_time + result.total_setup)
    assert cost_slope(lengths, times) <= 7.0


@criterion(7, "fixed-noise digit estimation hits its accuracy and variance")
def test_criterion_07_fixed_noise_digit_estimation_statistics():
    from collidersim.harness import embed_parameter

    base_seed = 70707
    delta = Fraction(1, 4)
    eps = Fraction(1, 64)
    reps = 100
    # exactly, X = 2*[lesser] + [timeout] has mean s + 1/2 whatever the
    # timeout half-width h, and at the inset h = 1/4 a variance of at
    # most 3/4, the cap that estimator_zeta's Chebyshev bound assumes
    for s in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
        for h in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            p, _, r_prob = trinomial_probabilities(s, h)
            assert 2 * p + r_prob == s + Fraction(1, 2)
        p, _, r_prob = trinomial_probabilities(s, Fraction(1, 4))
        assert 4 * p + r_prob - (2 * p + r_prob) ** 2 <= Fraction(3, 4)
    # sample variance of 100 draws concentrates within 3 sigma of the
    # population value, which the inset caps at 3/4
    var_bound = 0.75 * (1 + 3 * math.sqrt(2 / 99))
    for k, s in [(1, Fraction(1, 7)), (2, Fraction(2, 7)), (3, Fraction(4, 7))]:
        zeta = estimator_zeta(k, delta)
        true_digits = format((s.numerator << k) // s.denominator, f"0{k}b")
        p, q, r_prob = trinomial_probabilities(s, Fraction(1, 4))
        errors = 0
        xbars = []
        totals = [0, 0, 0]
        for rep in range(reps):
            cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=eps,
                               wait_policy=WaitPolicy.FULL_BUDGET,
                               seed=derive_seed(base_seed, k * 1000 + rep))
            source = embed_parameter(
                from_rational(s.numerator, s.denominator), eps)
            est = estimate_digits(CollisionOracle(source, cfg), k, delta)
            if est.digits != true_digits:
                errors += 1
            assert est.engine.startswith("thresholds")
            assert est.elapsed_total == zeta * 4 / eps
            assert est.setup_total == zeta * 2
            xbars.append(Fraction(2 * est.n_lesser + est.n_timeout, zeta))
            totals[0] += est.n_lesser
            totals[1] += est.n_greater
            totals[2] += est.n_timeout
        assert errors == 0
        mean_x = sum(xbars) / reps
        var_x = sum((x - mean_x) ** 2 for x in xbars) / (reps - 1)
        assert float(zeta * var_x) <= var_bound
        n_total = reps * zeta
        mean_dev = float(mean_x - (s + Fraction(1, 2)))
        assert abs(mean_dev) <= 3 * math.sqrt(0.75 / n_total)
        for got, prob in zip(totals, (p, q, r_prob)):
            sigma = math.sqrt(float(prob * (1 - prob)) * n_total)
            assert abs(got - float(prob) * n_total) <= 3 * sigma


@criterion(8, "shared-budget grid sweeps fail on no more than measure 2**-r")
def test_criterion_08_grid_sweep_failure_measure():
    reps = 10_000
    failures = 0
    for i in range(reps):
        raw = rng.raw64(80808, 0, i)
        cfg = OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET)
        oracle = CollisionOracle(from_dyadic(Dyadic(raw, 64)), cfg)
        report = grid_sweep(oracle, 6)
        if report.complete:
            assert report.digits == format(raw >> 58, "06b")
        else:
            failures += 1
    p = float(grid_failure_measure(6))
    assert p == 1 / 64
    band = 3 * math.sqrt(p * (1 - p) / reps)
    # two-sided: the failing set has measure 1/64, not merely at most
    assert p - band <= failures / reps <= p + band


@criterion(9, "every builtin schedule is defeated by its diagonal mass")
def test_criterion_09_adversarial_masses_defeat_their_schedule():
    K = Fraction(1)
    for name, schedule in builtin_schedules(K).items():
        src = adversarial_mass(schedule, K)
        runs = src.run_lengths
        u = [runs.u(k) for k in (1, 2, 3)]
        horizon = runs.a(2)
        rows = measurability_check(runs, schedule, K, 3)
        assert [row["holds"] for row in rows] == [False] * 3, name
        oracle = CollisionOracle(src)
        report = bisection(oracle, horizon + 1, schedule)
        assert not report.complete, name
        assert report.timed_out_at is not None
        # the inequality already fails at k=1, so the stall comes no
        # later than the second block boundary
        assert report.timed_out_at <= horizon, name
        want = "".join(str(src.digit_at(i)) for i in range(1, horizon + 2))
        # whatever came out before the stall is still correct
        assert report.digits == want[:len(report.digits)], name
        # a strictly larger schedule sized to the revealed run lengths
        # finishes the job
        rescue = sufficient_exponential(K, max(u))
        for n in range(1, horizon + 2):
            assert rescue(n) > schedule(n), name
        retry = bisection(CollisionOracle(adversarial_mass(schedule, K)),
                          horizon, rescue)
        assert retry.complete, name
        assert retry.digits == want[:horizon], name
        assert len(retry.digits) > len(report.digits), name


@criterion(10, "transcripts cannot distinguish continuations past probe depth")
def test_criterion_10_transcripts_blind_beyond_probe_depth():
    schedule = schedule_exponential(Fraction(1), 4)
    cfg = OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET)
    gen = random.Random(1010)
    for _ in range(10):
        blocks = [gen.randrange(0, 4)] + [gen.randrange(1, 4) for _ in range(6)]
        src = from_run_lengths(RunLengths.from_list(blocks, tail="repeat-last"))
        oracle = CollisionOracle(src, cfg)
        report = bisection(oracle, 8, schedule)
        assert report.complete
        depth = max(rec.probe_depth or 0 for rec in oracle.transcript)
        assert depth >= 8
        prefix = "".join(str(src.digit_at(i)) for i in range(1, depth + 1))
        tame = measurable_continuation(prefix)
        wild = adversarial_continuation(prefix, schedule, Fraction(1))
        transcripts = []
        for cont in (tame, wild):
            o2 = CollisionOracle(cont, cfg)
            rep2 = bisection(o2, 8, schedule)
            transcripts.append((
                json.dumps(rep2.to_dict(), sort_keys=True),
                json.dumps([r.to_dict() for r in o2.transcript],
                           sort_keys=True)))
        assert transcripts[0] == transcripts[1]
        # the two masses genuinely differ, just not where the run looked
        assert any(tame.digit_at(i) != wild.digit_at(i)
                   for i in range(depth + 1, depth + 2001))


@criterion(11, "waiting time times resolution is pinned by the masses alone")
def test_criterion_11_uncertainty_product_invariant():
    gen = random.Random(1111)
    count = 0
    while count < 1000:
        lo, hi = sorted((_rand_unit(gen), _rand_unit(gen)))
        if lo == hi:
            continue
        span = hi - lo
        m = lo + span * _rand_unit(gen)
        mu = lo + span * _rand_unit(gen)
        if m == mu:
            continue
        u = Fraction(gen.randrange(1, 32), gen.randrange(1, 32))
        r = Fraction(gen.randrange(1, 32), gen.randrange(1, 32))
        product = uncertainty_product(m, mu, u, r)
        assert product == (m + mu) * r / u
        gap = abs(m - mu)
        t = experiment_time(m, mu, u, r)
        assert product == t * gap
        t_lo, t_hi = time_bounds(gap, u, r, lo, hi)
        assert t_lo <= t <= t_hi
        # tight band from m + mu in [2 lo, 2 hi], inside the coarser
        # one-sided bracket quoted for the product
        assert 2 * lo * r / u <= product <= 2 * hi * r / u
        assert lo * r / u <= product <= 2 * hi * r / u
        count += 1
    m = _rand_unit(gen)
    with pytest.raises(ValueError):
        uncertainty_product(m, m)
    # so no run resolves a gap of 2**-n sooner than lo * r / u * 2**(n+1):
    # each further digit doubles the shortest possible wait
    lo, u, r = Fraction(1, 8), Fraction(3, 2), Fraction(5, 7)
    floors = [time_bounds(Fraction(1, 1 << n), u, r, lo)[0] for n in range(2, 40)]
    assert floors == [lo * r / u * (1 << (n + 1)) for n in range(2, 40)]


@criterion(12, "constant budgets measure every non-dyadic mass, no one budget all")
def test_criterion_12_constant_budget_family():
    # bisection that waits K * 2**k on every stage, whatever its depth
    def completes(p: int, q: int, k: int) -> bool:
        oracle = CollisionOracle(from_rational(p, q))
        return bisection(oracle, 8, schedule_constant(1 << k)).complete

    # every non-dyadic mass is read by some member, and by every larger one
    for q in range(3, 14, 2):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                done = [completes(p, q, k) for k in range(20)]
                assert True in done, (p, q)
                assert all(done[done.index(True):]), (p, q)
    # but each member has a mass it cannot read, which a larger one reads
    for k in range(20):
        p, q = 3 * (1 << k) + 1, 3 << (k + 1)   # 1/2 + 1/(3 * 2**(k+1))
        assert not completes(p, q, k), k
        if k >= 2:
            assert completes(p, q, k + 8), k
