from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collidersim.oracle import (CollisionOracle, ConfigError, OracleConfig,
                                PrecisionMode, WaitPolicy)
from collidersim.procedures import (adversarial_continuation, bisection,
                                    builtin_schedules,
                                    default_stage_tolerance,
                                    grid_failure_measure, grid_sweep,
                                    measurability_check,
                                    measurable_continuation, parse_schedule,
                                    run_length_blocks, schedule_algebraic,
                                    schedule_constant, schedule_exponential,
                                    schedule_tabular, sufficient_exponential,
                                    sufficient_for_rational,
                                    Schedule)
from collidersim.sources import (RunLengths, from_dyadic, from_rational,
                                 from_run_lengths)
from collidersim.dyadic import Dyadic

import reference_model


class TestSchedules:
    def test_exponential(self):
        T = schedule_exponential(1, 0)
        assert [T(n) for n in (1, 2, 3)] == [2, 4, 8]
        assert schedule_exponential(3, 2)(4) == 3 * 64

    def test_algebraic_frozen(self):
        assert schedule_algebraic(1, 4)(3) == 96   # 4 * 3 * 2**3
        assert schedule_algebraic(2, 1)(1) == 4    # 1 * 1 * 2**2

    def test_constant_and_tabular(self):
        assert schedule_constant(96)(7) == 96
        T = schedule_tabular([4, 8, 32])
        assert [T(n) for n in (1, 2, 3, 4, 5)] == [4, 8, 32, 32, 32]

    def test_domain_validation(self):
        T = schedule_exponential(1, 0)
        with pytest.raises(ValueError):
            T(0)
        bad = Schedule(lambda n: Fraction(0), "zero")
        with pytest.raises(ValueError):
            bad(1)

    def test_builtin_registry(self):
        reg = builtin_schedules(2)
        assert set(reg) == {"exp+0", "exp+2", "alg1", "alg2", "alg3"}
        assert reg["exp+2"](1) == 2 * 8

    def test_parse_schedule(self):
        assert parse_schedule("exp:k=2", 1)(1) == 8
        assert parse_schedule("alg:k=1,alpha=4", 1)(3) == 96
        assert parse_schedule("const:96", 1)(5) == 96
        assert parse_schedule("table:4,8,32", 1)(9) == 32
        with pytest.raises(ValueError):
            parse_schedule("warp:9", 1)

    @pytest.mark.parametrize("spec, message", [
        ("alg:k=2,alfa=4", "unused tokens ['alfa']"),
        ("exp:k=2,kk=3", "unused tokens ['kk']"),
        ("exp:k=2,k=5", "key 'k' repeats"),
        ("exp:k=2,5", "token '5' is not key=value"),
        ("exp:5", "token '5' is not key=value"),
        ("const:96,k=1", "cannot parse rational '96,k=1'"),
        ("warp:9", "unknown schedule kind 'warp'"),
        ("exp", "needs the form kind:args"),
    ])
    def test_stray_tokens_are_refused_with_the_spec_quoted(self, spec, message):
        with pytest.raises(ValueError) as exc:
            parse_schedule(spec, 4)
        assert str(exc.value).startswith(f"schedule spec {spec!r}: {message}")

    @given(st.data())
    def test_parse_schedule_gives_the_constructors_budgets(self, data):
        K = data.draw(st.fractions(min_value=Fraction(1, 16), max_value=16))
        budget = st.fractions(min_value=Fraction(1, 64), max_value=64)
        sep = data.draw(st.sampled_from([",", ", ", " , "]))
        kind = data.draw(st.sampled_from(["exp", "alg", "const", "table"]))
        if kind == "exp":
            k = data.draw(st.none() | st.integers(-4, 8))
            text = "exp:" if k is None else f"exp:k={k}"
            want = schedule_exponential(K, k or 0)
        elif kind == "alg":
            k = data.draw(st.none() | st.integers(1, 3))
            alpha = data.draw(st.none() | budget)
            text = "alg:" + sep.join([f"k={k}"] * (k is not None)
                                     + [f"alpha = {alpha}"] * (alpha is not None))
            want = schedule_algebraic(k or 1, K if alpha is None else alpha)
        elif kind == "const":
            value = data.draw(budget)
            text, want = f"const:{value}", schedule_constant(value)
        else:
            values = data.draw(st.lists(budget, min_size=1, max_size=5))
            text, want = "table:" + sep.join(map(str, values)), schedule_tabular(values)
        T = parse_schedule(text, K)
        assert [T(n) for n in range(1, 13)] == [want(n) for n in range(1, 13)]

    def test_negative_exponent_halves_the_law_constant(self):
        # T(n) = K 2**(n + shift) is K/2 at n + shift = -1, not a negative shift
        T = parse_schedule("exp:k=-2", 1)
        assert [T(n) for n in (1, 2, 3)] == [Fraction(1, 2), 1, 2]
        assert schedule_exponential(Fraction(3, 5), -4)(1) == Fraction(3, 40)

    def test_sufficiency_constructors(self):
        # bounded run lengths u <= U: shift U+1 always outruns arrivals
        T = sufficient_exponential(1, 3)
        assert T(2) == 2 ** (2 + 4)
        R = sufficient_for_rational(1, 3)
        assert R(2) == 3 * 4

    def test_float_budgets_are_refused(self):
        # a float budget would become its binary expansion, not the value meant
        with pytest.raises(TypeError, match="0.1"):
            Schedule(lambda n: 0.1, "floaty")(3)
        with pytest.raises(TypeError):
            schedule_exponential(0.5)
        with pytest.raises(TypeError):
            schedule_constant(96.0)


class TestBisection:
    def test_recovers_binary_digits(self):
        oracle = CollisionOracle(from_rational(1, 3))
        report = bisection(oracle, 12, schedule_exponential(1, 2))
        assert report.complete
        assert report.digits == "010101010101"
        assert report.status() == "complete:12"
        source = from_rational(1, 3)
        assert report.digits == "".join(str(source.digit_at(i))
                                        for i in range(1, 13))

    def test_stage_costs_are_exact(self):
        # stage n tests the midpoint at distance 2**-(n+1)/ ... for 1/3 the
        # arrival is always 3 * K * 2**n, measured exactly on a rational
        oracle = CollisionOracle(from_rational(1, 3))
        report = bisection(oracle, 6, schedule_exponential(1, 2))
        for stage, elapsed in enumerate(report.stage_elapsed, start=1):
            assert elapsed == 3 * (1 << stage)
        assert report.total_time == sum(report.stage_elapsed)
        # every word has stage + 1 digits and c_setup = 1
        assert report.total_setup == sum(range(2, 8))

    def test_times_out_under_slow_schedule(self):
        oracle = CollisionOracle(from_rational(1, 3))
        report = bisection(oracle, 6, schedule_exponential(1, 0))
        assert not report.complete
        assert report.timed_out_at == 1
        assert report.status() == "timed-out-at-digit:1"
        assert report.digits == ""

    def test_rejects_fixed_precision(self):
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=Fraction(1, 64))
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        with pytest.raises(ConfigError):
            bisection(oracle, 4, schedule_exponential(1, 2))

    def test_arbitrary_mode_uses_shrinking_tolerance(self):
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, seed=11)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        report = bisection(oracle, 8, schedule_exponential(1, 2))
        assert report.complete
        assert report.digits == "01010101"
        for stage, rec in enumerate(oracle.transcript, start=1):
            assert rec.epsilon == default_stage_tolerance(stage)
        assert default_stage_tolerance(3) == Fraction(1, 512)

    def test_dyadic_target_stalls_when_midpoint_hits_it(self):
        # the stage-4 midpoint is exactly 5/16, so the masses tie and the
        # experiment never ends: dyadic values are out of bisection's reach
        oracle = CollisionOracle(from_dyadic(Dyadic(5, 4)))  # 0.0101
        report = bisection(oracle, 10, schedule_exponential(1, 2))
        assert not report.complete
        assert report.timed_out_at == 4
        assert report.digits == "010"

    @pytest.mark.parametrize("mode", [PrecisionMode.ERROR_FREE, PrecisionMode.ARBITRARY],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("wait", list(WaitPolicy), ids=lambda w: w.value)
    def test_records_are_those_of_the_words_fired_as_text(self, mode, wait):
        # the value bisection hands query is the one query parses from the
        # word: the same z, the same draws, the same record bytes
        cfg = OracleConfig(mode=mode, wait_policy=wait, N=Fraction(1, 4), seed=3,
                           record_hidden=True)
        oracle = CollisionOracle(from_run_lengths([3, 2, 4]), cfg)
        assert bisection(oracle, 60, schedule_exponential(1, 6)).complete
        fresh = CollisionOracle(from_run_lengths([3, 2, 4]), cfg)
        for rec in oracle.transcript:
            again = fresh.query(rec.word, rec.budget, rec.epsilon)
            assert (rec.to_dict(), rec.json_line(), rec.hidden, rec.probe_depth) == \
                (again.to_dict(), again.json_line(), again.hidden, again.probe_depth)


class TestBisectionMatchesReferenceModel:
    """Bisection on a digit-stream target fires, bills and reads like the
    Fraction bracket-and-midpoint transcription in tests/reference_model.py.
    Non-integer K and c_setup take the budget and setup paths that divide."""

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           K=st.tuples(st.integers(1, 16), st.integers(1, 16)),
           shift=st.integers(0, 7),
           N=st.integers(0, 16),
           c_setup=st.one_of(st.integers(0, 3),
                             st.fractions(0, 3, max_denominator=12)),
           arbitrary=st.booleans(),
           wait=st.sampled_from(list(WaitPolicy)),
           seed=st.integers(0, 2**16),
           n_digits=st.integers(4, 40),
           timing=st.sampled_from(["protocol", "kinematic"]),
           ru=st.tuples(st.integers(1, 9), st.integers(1, 9)))
    @example(runs=[3, 2, 4], K=(1, 1), shift=6, N=0, c_setup=1, arbitrary=False,
             wait=WaitPolicy.INTERRUPT, seed=0, n_digits=24, timing="protocol", ru=(1, 1))
    @example(runs=[1], K=(3, 2), shift=1, N=4, c_setup=2, arbitrary=True,
             wait=WaitPolicy.FULL_BUDGET, seed=5, n_digits=12, timing="protocol", ru=(1, 1))
    # interrupt arrivals over 2**48 and jitter, then a timeout billed K 2**n
    # with K = 3/7: the stage times have mixed denominators
    @example(runs=[3, 2, 4], K=(3, 7), shift=2, N=5, c_setup=Fraction(2, 3),
             arbitrary=False, wait=WaitPolicy.INTERRUPT, seed=1, n_digits=30,
             timing="protocol", ru=(1, 1))
    # long interrupt-billed runs, as the benchmark's: the word's value is
    # handed to query at every stage, and the clock's bit-length start is
    # one doubling early at stage 4 of the first and stage 2 of the second
    @example(runs=[3, 2, 4], K=(1, 1), shift=6, N=0, c_setup=1, arbitrary=False,
             wait=WaitPolicy.INTERRUPT, seed=0, n_digits=400, timing="protocol", ru=(1, 1))
    @example(runs=[1, 3], K=(3, 2), shift=6, N=3, c_setup=1, arbitrary=True,
             wait=WaitPolicy.INTERRUPT, seed=7, n_digits=200, timing="kinematic",
             ru=(2, 3))
    def test_bisection_matches_reference_model(self, runs, K, shift, N, c_setup,
                                               arbitrary, wait, seed, n_digits,
                                               timing, ru):
        Kf = Fraction(*K)
        cfg = OracleConfig(K=Kf, N=Fraction(N, 16), c_setup=c_setup, seed=seed,
                           mode=PrecisionMode.ARBITRARY if arbitrary
                           else PrecisionMode.ERROR_FREE, wait_policy=wait,
                           timing=timing, flag_distance=Fraction(ru[0]),
                           launch_speed=Fraction(ru[1]))
        app = reference_model.Apparatus(
            K=Kf, N=cfg.N, interrupt=wait is WaitPolicy.INTERRUPT, seed=seed,
            c_setup=cfg.c_setup, timing=timing, flag_distance=cfg.flag_distance,
            launch_speed=cfg.launch_speed)
        oracle = CollisionOracle(from_run_lengths(runs), cfg)
        rep = bisection(oracle, n_digits, schedule_exponential(Kf, shift))
        records, want = reference_model.bisection(
            app, from_run_lengths(runs), n_digits,
            lambda n: Kf * 2 ** (n + shift), arbitrary)
        assert [(r.word, r.budget, str(r.outcome), r.elapsed, r.setup, r.probe_depth)
                for r in oracle.transcript] == \
            [(word, budget, res.outcome, res.elapsed, setup, res.probe_depth)
             for word, budget, res, setup in records]
        assert (rep.digits, rep.status(), rep.total_time, rep.total_setup) == \
            (want["digits"], want["status"], want["total_time"], want["total_setup"])
        assert rep.total_time == sum(rep.stage_elapsed, Fraction(0))

ULP = Fraction(1, 1 << 64)


class TestGridSweepMatchesReferenceModel:
    """The grid sweep writes the transcript and report of the Fraction
    transcription in tests/reference_model.py, which fires every grid
    point one by one, record by record.  The target sits on a window edge
    of a grid point (an edge arrival is a timeout), an ulp to either side
    of one, or on a grid point."""

    @staticmethod
    def target(timing, K, T, c, place, p, r, ulps):
        """mu with the grid point p/2**r on its lo or hi cutoff, plus ulps."""
        g = Fraction(p, 1 << r)
        if place == "lo":      # g = mu - K/T, or mu (T - c)/(T + c)
            mu = g + K / T if timing == "protocol" else (
                g * (T + c) / (T - c) if T > c else g)
        elif place == "hi":    # g = mu + K/T, or mu (T + c)/(T - c)
            mu = g - K / T if timing == "protocol" else (
                g * (T - c) / (T + c) if T > c else g)
        else:
            mu = g
        return mu + ulps * ULP

    @settings(max_examples=100, deadline=None)
    @given(timing=st.sampled_from(["protocol", "kinematic"]),
           K=st.tuples(st.integers(1, 16), st.integers(1, 16)),
           c_over_T=st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(15, 16),
                                     Fraction(1), Fraction(2)]),
           u=st.integers(1, 9),
           c_setup=st.integers(0, 3),
           r=st.integers(1, 8),
           N=st.sampled_from([0, 0, 0, 3]),
           hidden=st.booleans(),
           place=st.sampled_from(["lo", "hi", "grid"]),
           p=st.integers(0, 256),
           ulps=st.sampled_from([-1, 0, 1]),
           seed=st.integers(0, 2**16))
    @example(timing="protocol", K=(1, 1), c_over_T=Fraction(1), u=1, c_setup=1,
             r=3, N=0, hidden=True, place="lo", p=2, ulps=0, seed=0)
    @example(timing="protocol", K=(3, 2), c_over_T=Fraction(1), u=1, c_setup=2,
             r=4, N=0, hidden=False, place="hi", p=7, ulps=0, seed=0)
    @example(timing="kinematic", K=(1, 1), c_over_T=Fraction(1, 2), u=3, c_setup=1,
             r=3, N=0, hidden=True, place="lo", p=3, ulps=0, seed=0)
    @example(timing="kinematic", K=(2, 1), c_over_T=Fraction(1, 8), u=1, c_setup=1,
             r=5, N=0, hidden=False, place="hi", p=9, ulps=0, seed=0)
    @example(timing="kinematic", K=(1, 1), c_over_T=Fraction(2), u=1, c_setup=1,
             r=3, N=0, hidden=False, place="grid", p=3, ulps=1, seed=0)
    @example(timing="kinematic", K=(1, 1), c_over_T=Fraction(1), u=2, c_setup=0,
             r=2, N=0, hidden=True, place="grid", p=1, ulps=-1, seed=0)
    def test_grid_sweep_matches_reference_model(self, timing, K, c_over_T, u, c_setup,
                                                r, N, hidden, place, p, ulps, seed):
        Kf = Fraction(*K)
        T = Kf * (1 << (2 * r + 1))
        c = c_over_T * T
        p %= (1 << r) + 1
        mu = self.target(timing, Kf, T, c, place, p, r, ulps)
        assume(0 <= mu <= 1)
        cfg = OracleConfig(K=Kf, N=Fraction(N, 4), c_setup=c_setup, timing=timing,
                           flag_distance=c * u, launch_speed=Fraction(u), seed=seed,
                           wait_policy=WaitPolicy.FULL_BUDGET, record_hidden=hidden)
        app = reference_model.Apparatus(
            K=Kf, N=cfg.N, timing=timing, flag_distance=cfg.flag_distance,
            launch_speed=cfg.launch_speed, interrupt=False, seed=seed,
            c_setup=cfg.c_setup)
        oracle = CollisionOracle(from_rational(mu.numerator, mu.denominator), cfg)
        rep = grid_sweep(oracle, r)
        records, want = reference_model.grid_sweep(
            app, from_rational(mu.numerator, mu.denominator), r)
        assert [(rec.to_dict(), rec.probe_depth, rec.hidden) for rec in oracle.transcript] == \
            [(reference_model.record_dict(i, word, budget, res, setup), None,
              {"m_star": res.m_star, "jitter": res.jitter} if hidden else {})
             for i, (word, budget, res, setup) in enumerate(records)]
        assert rep.to_dict() == want


class TestGridSweep:
    def grid_config(self, **kw):
        return OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET, **kw)

    def test_frozen_third_level_two(self):
        oracle = CollisionOracle(from_rational(1, 3), self.grid_config())
        report = grid_sweep(oracle, 2)
        assert report.complete
        assert report.digits == "01"
        assert report.total_time == 160  # (2**2 + 1) queries, each 2**5
        assert report.details["bracket"] == [1, 2]  # 1/4 < mu < 2/4

    def test_budget_is_shared_and_flat(self):
        oracle = CollisionOracle(from_rational(1, 3), self.grid_config(K=2))
        report = grid_sweep(oracle, 3)
        budgets = {rec.budget for rec in oracle.transcript}
        assert budgets == {2 * 2 ** 7}
        assert len(oracle.transcript) == 9

    def test_on_grid_mass_fails(self):
        oracle = CollisionOracle(from_dyadic(Dyadic(1, 2)), self.grid_config())
        report = grid_sweep(oracle, 2)
        assert not report.complete
        assert report.digits == ""
        assert report.details["grid_timeouts"] == [1]  # the point 1/4 tied

    def test_failure_measure(self):
        assert grid_failure_measure(2) == Fraction(1, 4)
        assert grid_failure_measure(6) == Fraction(1, 64)

    def test_requires_error_free_full_budget(self):
        with pytest.raises(ConfigError):
            grid_sweep(CollisionOracle(from_rational(1, 3)), 2)
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY,
                           wait_policy=WaitPolicy.FULL_BUDGET)
        with pytest.raises(ConfigError):
            grid_sweep(CollisionOracle(from_rational(1, 3), cfg), 2)


class TestClosedFormAccounting:
    """A report's simulated-time totals equal the sums over the records
    its run appended, whether the procedure adds them up or derives them
    in closed form."""

    @staticmethod
    def check(oracle, report, start, before):
        recs = oracle.transcript[start:]
        assert report.stage_elapsed == [rec.elapsed for rec in recs]
        assert report.total_time == sum((rec.elapsed for rec in recs), Fraction(0))
        assert report.total_setup == sum((rec.setup for rec in recs), Fraction(0))
        assert all(rec.setup == oracle.config.c_setup * len(rec.word) for rec in recs)
        assert oracle.total_elapsed - before == report.total_time + report.total_setup

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 6),
           K=st.fractions(Fraction(1, 8), 8, max_denominator=12),
           c_setup=st.fractions(0, 4, max_denominator=12),
           extra=st.fractions(Fraction(1, 12), 4, max_denominator=12),
           target=st.one_of(
               st.integers(0, 8).flatmap(lambda e: st.integers(0, 1 << e).map(
                   lambda p: from_dyadic(Dyadic(p, e)))),
               st.integers(1, 60).flatmap(lambda q: st.integers(0, q).map(
                   lambda p: from_rational(p, q)))),
           wait=st.sampled_from(list(WaitPolicy)),
           shift=st.integers(0, 4))
    def test_totals_are_the_record_sums(self, r, K, c_setup, extra, target,
                                        wait, shift):
        schedule = schedule_exponential(K, shift)
        runs = [(lambda o: grid_sweep(o, r), WaitPolicy.FULL_BUDGET),
                (lambda o: bisection(o, r, schedule), wait)]
        for run, policy in runs:
            # two live oracles with different setup costs take turns, so a
            # setup cost shared between oracles would show
            oracles = [CollisionOracle(target, OracleConfig(
                K=K, c_setup=c, wait_policy=policy))
                for c in (c_setup, c_setup + extra)]
            for oracle in oracles + oracles:
                start, before = len(oracle.transcript), oracle.total_elapsed
                self.check(oracle, run(oracle), start, before)

    def test_waiting_time_over_mixed_denominators(self):
        # jittered arrivals, then a timeout billed (3/7) 2**n
        cfg = OracleConfig(K=Fraction(3, 7), N=Fraction(5, 16), seed=1)
        oracle = CollisionOracle(from_run_lengths([3, 2, 4]), cfg)
        report = bisection(oracle, 30, schedule_exponential(Fraction(3, 7), 2))
        assert report.status() == "timed-out-at-digit:5"
        assert len({t.denominator for t in report.stage_elapsed}) == 3
        assert report.total_time == sum(report.stage_elapsed, Fraction(0))

    def test_bisection_keeps_one_setup_cost(self):
        # every bisection stage bills a new word length at a fractional c_setup
        cfg = OracleConfig(c_setup=Fraction(2, 3), wait_policy=WaitPolicy.FULL_BUDGET)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        assert bisection(oracle, 400, schedule_exponential(1, 6)).complete
        assert [rec.setup for rec in oracle.transcript] == \
            [Fraction(2, 3) * len(rec.word) for rec in oracle.transcript]


class TestConstantBudget:
    # bisection that waits K * 2**k on every stage, whatever its depth
    def test_enough_budget_completes(self):
        oracle = CollisionOracle(from_rational(1, 3))
        report = bisection(oracle, 4, schedule_constant(1 << 6))
        assert report.complete
        assert report.digits == "0101"
        assert {rec.budget for rec in oracle.transcript} == {64}

    def test_small_budget_stops_at_first_digit(self):
        oracle = CollisionOracle(from_rational(1, 3))
        report = bisection(oracle, 4, schedule_constant(1 << 1))
        assert report.timed_out_at == 1


class TestMeasurability:
    def test_linear_runs_fail_only_at_first_block(self):
        runs = RunLengths(lambda k: k, descriptor="u_k = k")
        T = Schedule(lambda n: Fraction(n) * (1 << (2 * n)), "poly-exp")
        rows = measurability_check(runs, T, 1, 4)
        assert [row["holds"] for row in rows] == [False, True, True, True]
        assert rows[0]["lhs"] == 4 and rows[0]["rhs"] == 2
        assert rows[1] == {"k": 2, "a_k": 3, "u_next": 3,
                           "lhs": Fraction(8), "rhs": Fraction(24),
                           "holds": True}

    def test_constant_runs_pass_under_fast_exponential(self):
        runs = RunLengths.from_list([1], tail="repeat-last")
        rows = measurability_check(runs, schedule_exponential(1, 2), 1, 6)
        assert all(row["holds"] for row in rows)

    def test_diagonal_mass_fails_everywhere(self):
        T = schedule_exponential(1, 0)
        src = adversarial_continuation("1111", T, 1)
        rows = measurability_check(src.run_lengths, T, 1, 4)
        assert not any(row["holds"] for row in rows)


class TestContinuations:
    def test_run_length_blocks(self):
        assert run_length_blocks("1100010101") == [2, 3, 1, 1, 1, 1, 1]
        assert run_length_blocks("0011") == [0, 2, 2]
        assert run_length_blocks("1") == [1]
        with pytest.raises(ValueError):
            run_length_blocks("")

    def test_both_continuations_extend_the_prefix(self):
        prefix = "0101100"
        tame = measurable_continuation(prefix)
        wild = adversarial_continuation(prefix, schedule_exponential(1, 0), 1)
        for i, bit in enumerate(prefix, start=1):
            assert tame.digit_at(i) == int(bit)
            assert wild.digit_at(i) == int(bit)
        horizon = range(len(prefix) + 1, 200)
        assert any(tame.digit_at(i) != wild.digit_at(i) for i in horizon)

    def test_tame_continuation_alternates(self):
        tame = measurable_continuation("11")
        tail = "".join(str(tame.digit_at(i)) for i in range(3, 11))
        assert tail == "01010101"

