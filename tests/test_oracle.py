import ast
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collidersim import rng
from collidersim.collision import Outcome
from collidersim.oracle import (CollisionOracle, ConfigError, OracleConfig,
                                PrecisionMode, TimeoutExceeded,
                                TimeoutReaction, WaitPolicy)
from collidersim.sources import (RunLengths, affine_of_source, custom,
                                 from_dyadic, from_rational, from_run_lengths)
from collidersim.dyadic import Dyadic, word_to_dyadic

import reference_model


def third_as_stream():
    """1/3 presented as a digit stream with no exact value attached."""
    return from_run_lengths(RunLengths.from_list([0], tail="constant:1"))


class TestOneArrivalLaw:
    """The timing is read once, to set the law alpha + beta (m* + mu); the
    cutoff rule, the law and the clock read only (alpha, beta), so a branch
    on the timing elsewhere in the oracle fails here."""

    ORACLE = Path(__file__).resolve().parent.parent / "src" / "collidersim" / "oracle.py"

    def test_timing_is_read_in_one_place(self):
        tree = ast.parse(self.ORACLE.read_text(encoding="utf-8"))
        scopes = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef)]
        scopes += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        readers = {next((name for name, f in scopes if f.lineno <= node.lineno <= f.end_lineno),
                        None)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "timing"}
        assert readers == {"OracleConfig.__post_init__", "CollisionOracle.__init__"}


class TestConfig:
    def test_fixed_mode_needs_epsilon(self):
        with pytest.raises(ConfigError):
            OracleConfig(mode=PrecisionMode.FIXED)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            OracleConfig(K=0)
        with pytest.raises(ConfigError):
            OracleConfig(N=-1)
        with pytest.raises(ConfigError):
            OracleConfig(timing="psychic")
        with pytest.raises(ConfigError):
            OracleConfig(probe_depth_cap=4)

    @pytest.mark.parametrize("field", ["K", "N", "c_setup", "epsilon",
                                       "launch_speed", "flag_distance"])
    def test_float_parameters_are_refused(self, field):
        # a float 0.1 is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="0.1"):
            OracleConfig(**{field: 0.1})


class TestExactQueries:
    def test_arrival_is_exact_for_rational_targets(self):
        oracle = CollisionOracle(from_rational(1, 3))
        rec = oracle.query("01", 10)
        assert rec.outcome is Outcome.GREATER
        assert rec.elapsed == 6  # K/(1/2 - 1/3)
        assert rec.setup == 2    # c_setup = 1 per word digit
        assert rec.total_time == 8

    def test_lesser_side(self):
        oracle = CollisionOracle(from_rational(1, 3))
        rec = oracle.query("001", 20)  # z = 1/4 < 1/3
        assert rec.outcome is Outcome.LESSER
        assert rec.elapsed == 12

    def test_deadline_exact_arrival_times_out(self):
        oracle = CollisionOracle(from_rational(1, 3))
        assert oracle.query("01", 6).outcome is Outcome.TIMEOUT
        assert oracle.query("01", Fraction(6) + Fraction(1, 10 ** 12)).outcome \
            is Outcome.GREATER

    def test_equal_masses_always_time_out(self):
        oracle = CollisionOracle(from_dyadic(Dyadic(1, 1)))
        rec = oracle.query("01", 10 ** 9)
        assert rec.outcome is Outcome.TIMEOUT
        assert rec.elapsed == 10 ** 9

    def test_kinematic_timing_uses_mass_sum(self):
        cfg = OracleConfig(timing="kinematic")
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("01", 10)
        assert rec.elapsed == 5  # (r/u) * (1/2 + 1/3) / (1/6)

    def test_full_budget_bills_everything(self):
        cfg = OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("01", 10)
        assert rec.outcome is Outcome.GREATER
        assert rec.elapsed == 10

    def test_mass_interval_error_free(self):
        oracle = CollisionOracle(from_rational(1, 3))
        rec = oracle.query("01", 10)
        assert rec.mass_interval == (Fraction(1, 2), Fraction(1, 2))


class TestProbedQueries:
    def test_stream_target_matches_exact_target(self):
        exact = CollisionOracle(from_rational(1, 3))
        stream = CollisionOracle(third_as_stream())
        for word, budget in [("01", 10), ("001", 20), ("0011", 5), ("01", 6)]:
            a = exact.query(word, budget)
            b = stream.query(word, budget)
            assert a.outcome is b.outcome

    def test_clock_rounding_is_tight_and_deterministic(self):
        tick = Fraction(1, 1 << 48)
        rec1 = CollisionOracle(third_as_stream()).query("01", 10)
        rec2 = CollisionOracle(third_as_stream()).query("01", 10)
        assert rec1.elapsed == rec2.elapsed
        assert 0 < 6 - rec1.elapsed <= 2 * tick
        assert rec1.elapsed.denominator <= 1 << 48  # on the tick grid

    def test_probe_depth_recorded(self):
        oracle = CollisionOracle(third_as_stream())
        rec = oracle.query("01", 10)
        assert rec.probe_depth is not None and rec.probe_depth >= 8

    @pytest.mark.parametrize("timing", ["protocol", "kinematic"])
    @pytest.mark.parametrize("cap", [8, 64, 512, 4096])
    def test_probe_cap_forces_timeout(self, cap, timing):
        # digits of exactly 1/2, but presented without an exact value:
        # no finite prefix separates it from z = 1/2, so equal masses
        # never answer, whatever the cap
        half = custom(lambda n: 1 if n == 1 else 0)
        oracle = CollisionOracle(half, OracleConfig(probe_depth_cap=cap, timing=timing))
        # a budget far past 2**cap leaves both certificates open at the cap
        rec = oracle.query("01", Fraction(2) ** (cap + 20))
        assert rec.outcome is Outcome.TIMEOUT
        assert rec.probe_depth == cap
        # a moderate budget certifies an ordinary timeout from a short prefix
        modest = oracle.query("01", 10 ** 6)
        assert modest.outcome is Outcome.TIMEOUT
        assert modest.probe_depth < 64

    @pytest.mark.parametrize("timing, extra", [("protocol", 0), ("kinematic", 1)],
                             ids=["protocol", "kinematic"])
    def test_exclusive_endpoint_corner(self, timing, extra):
        # z = 1/2 + 2**-64 is the exclusive upper end of the 64-digit cell
        # of 1/2, so it separates from the stream only at digit 65
        word = "01" + "0" * 62 + "1"
        budget = Fraction(2) ** 80

        def query(cap):
            half = custom(lambda n: 1 if n == 1 else 0)
            cfg = OracleConfig(probe_depth_cap=cap, timing=timing)
            return CollisionOracle(half, cfg).query(word, budget)

        rec = query(64)
        assert rec.outcome is Outcome.TIMEOUT
        assert rec.probe_depth == 64
        rec = query(65)
        assert rec.outcome is Outcome.GREATER
        assert rec.probe_depth == 65
        assert rec.elapsed == 2 ** 64 + extra

    def test_kinematic_probed_agrees_with_exact(self):
        cfg = OracleConfig(timing="kinematic")
        stream = CollisionOracle(third_as_stream(), cfg)
        rec = stream.query("01", 10)
        assert rec.outcome is Outcome.GREATER
        assert 0 < 5 - rec.elapsed <= Fraction(2, 1 << 48)


class TestNoisyModes:
    def test_arbitrary_needs_epsilon(self):
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        with pytest.raises(ConfigError):
            oracle.query("01", 10)

    def test_fixed_pins_epsilon(self):
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=Fraction(1, 64))
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        with pytest.raises(ConfigError):
            oracle.query("01", 10, epsilon=Fraction(1, 32))
        rec = oracle.query("01", 10)
        assert rec.epsilon == Fraction(1, 64)

    def test_draws_stay_in_window(self):
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, record_hidden=True, seed=9)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        eps = Fraction(1, 16)
        for _ in range(20):
            rec = oracle.query("01", 10, epsilon=eps)
            m_star = rec.hidden["m_star"]
            assert Fraction(1, 2) - eps <= m_star <= Fraction(1, 2) + eps
            assert rec.mass_interval == (Fraction(1, 2) - eps, Fraction(1, 2) + eps)

    def test_boundary_draw_clips_to_zero(self):
        # seed 0, stream 0: the raw draw is below half scale, so the
        # window [-1/4, 1/4] around z = 0 clips at the floor
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, record_hidden=True, seed=0)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("0", 10, epsilon=Fraction(1, 4))
        assert rec.hidden["m_star"] == 0
        assert rec.mass_interval == (Fraction(0), Fraction(1, 4))

    def test_boundary_draw_clips_to_one(self):
        # seed 1, stream 0: the raw draw is above half scale, so the
        # window [3/4, 5/4] around z = 1 clips at the ceiling
        assert rng.raw64(1, 0, 0) > 1 << 63
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, record_hidden=True, seed=1)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("1", 10, epsilon=Fraction(1, 4))
        assert rec.hidden["m_star"] == 1
        assert rec.mass_interval == (Fraction(3, 4), Fraction(1))

    def test_jitter_shifts_arrival(self):
        cfg = OracleConfig(N=Fraction(1, 8), record_hidden=True, seed=3)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("01", 10)
        assert rec.outcome is Outcome.GREATER
        assert rec.elapsed == 6 + rec.hidden["jitter"]
        assert abs(rec.hidden["jitter"]) <= Fraction(1, 8)


class TestRecordValues:
    """A record keeps only its word: z, z_length and mass_interval are
    read off it."""

    @pytest.mark.parametrize("word, z", [("0", Fraction(0)), ("1", Fraction(1)),
                                         ("0100", Fraction(1, 2))])
    def test_values_of_a_word(self, word, z):
        rec = CollisionOracle(from_rational(1, 3)).query(word, 10)
        assert (rec.z, rec.z_length, rec.mass_interval) == (z, len(word), (z, z))
        assert rec.to_dict()["z"] == word and rec.to_dict()["z_length"] == len(word)
        eps = Fraction(1, 8)
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY)
        rec = CollisionOracle(from_rational(1, 3), cfg).query(word, 10, epsilon=eps)
        assert rec.mass_interval == (max(z - eps, 0), min(z + eps, 1))
        batch = CollisionOracle(from_rational(1, 3), OracleConfig(
            wait_policy=WaitPolicy.FULL_BUDGET)).batch_query(word, 10, 3)
        assert (batch.z, batch.z_length) == (z, len(word))

    def test_every_record_of_an_exact_sweep(self):
        cfg = OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET, record_hidden=True)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        earlier = [oracle.query("01", 10), oracle.query("1", 10)]
        queried = []
        oracle.query = lambda word, budget: queried.append(word) or \
            CollisionOracle.query(oracle, word, budget)
        recs = oracle.fire_grid(3, Fraction(128))
        # 1/3 lies between 2/8 and 3/8; only those two words are queried,
        # and fire_grid writes the other seven records itself, numbered on
        # from the records before the sweep
        assert queried == ["0010", "0011"]
        assert oracle.transcript == earlier + recs
        assert [rec.index for rec in oracle.transcript] == list(range(11))
        assert [rec.word for rec in recs] == \
            ["0" + format(p, "03b") for p in range(8)] + ["1"]
        for p, rec in enumerate(recs):
            z = Fraction(p, 8)
            assert (rec.z, rec.z_length, rec.mass_interval) == \
                (z, 4 if p < 8 else 1, (z, z))
            assert rec.hidden["m_star"] == z

    @settings(max_examples=60, deadline=None)
    @given(before=st.lists(st.sampled_from(["0", "01", "0011", "1"]), max_size=3),
           r=st.integers(1, 5), p=st.integers(0, 32),
           place=st.sampled_from(["lo", "hi", "grid"]),
           ulps=st.sampled_from([-1, 0, 1]), hidden=st.booleans(), abort=st.booleans())
    # the word "1" (p = 2**r) sits on the timeout window's edge, then inside it
    @example(before=["01"], r=3, p=8, place="hi", ulps=0, hidden=True, abort=False)
    @example(before=["01", "1"], r=2, p=4, place="grid", ulps=0, hidden=True, abort=True)
    def test_sweep_writes_the_records_query_would(self, before, r, p, place, ulps,
                                                  hidden, abort):
        """After earlier records, a sweep appends 2**r + 1 records with
        consecutive indices, equal to those of firing each word through
        `query`, with the same hidden values."""
        budget = Fraction(1 << (2 * r + 1))
        g, window = Fraction(p % ((1 << r) + 1), 1 << r), 1 / budget
        mu = g + {"lo": window, "hi": -window, "grid": 0}[place] + Fraction(ulps, 1 << 64)
        assume(0 <= mu <= 1)
        cfg = OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET, record_hidden=hidden,
                           timeout_reaction=TimeoutReaction.ABORT if abort
                           else TimeoutReaction.RETURN)
        oracles = [CollisionOracle(from_rational(mu.numerator, mu.denominator), cfg)
                   for _ in range(2)]
        for oracle in oracles:
            for word in before:
                try:
                    oracle.query(word, 10)
                except TimeoutExceeded:
                    pass
        swept, queried = oracles
        recs = swept.fire_grid(r, budget)
        for q in range(len(recs)):
            try:
                queried.query("0" + format(q, f"0{r}b") if q < 1 << r else "1", budget)
            except TimeoutExceeded:
                pass
        assert [rec.index for rec in recs] == \
            list(range(len(before), len(before) + (1 << r) + 1))
        assert [(rec, rec.hidden) for rec in swept.transcript] == \
            [(rec, rec.hidden) for rec in queried.transcript]

    def test_hidden_values(self):
        """A record that hides nothing reads {} from one read-only mapping;
        under record_hidden each record, queried or written in bulk, has a
        dict of its own."""
        rec = CollisionOracle(from_rational(1, 3)).query("01", 10)
        assert rec.hidden == {}
        with pytest.raises(TypeError):
            rec.hidden["x"] = 1
        cfg = OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET, record_hidden=True)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        oracle.query("01", 10)
        # 2/8 and 3/8 are queried; 0 and 1/8 are written lesser, the rest greater
        oracle.fire_grid(3, Fraction(128))
        hidden = [rec.hidden for rec in oracle.transcript]
        assert all(type(h) is dict and set(h) == {"m_star", "jitter"} for h in hidden)
        assert len({id(h) for h in hidden}) == len(hidden) == 10


class TestQueryArgumentChecks:
    """Bad budgets and tolerances are refused in every precision mode,
    including error-free queries without a tolerance, which skip the
    tolerance checks."""

    @staticmethod
    def oracle(mode):
        eps = Fraction(1, 64) if mode is PrecisionMode.FIXED else None
        return CollisionOracle(from_rational(1, 3), OracleConfig(mode=mode, epsilon=eps))

    @pytest.mark.parametrize("budget", [0, -1, Fraction(-1, 3), "0"])
    @pytest.mark.parametrize("mode", list(PrecisionMode), ids=str)
    def test_nonpositive_budget(self, mode, budget):
        oracle = self.oracle(mode)
        eps = Fraction(1, 64) if mode is PrecisionMode.ARBITRARY else None
        with pytest.raises(ConfigError, match="budget"):
            oracle.query("01", budget, epsilon=eps)
        assert oracle.transcript == []

    @pytest.mark.parametrize("mode, epsilon", [
        (PrecisionMode.ERROR_FREE, 0),
        (PrecisionMode.ERROR_FREE, Fraction(-1, 8)),
        (PrecisionMode.ARBITRARY, 0),
        (PrecisionMode.FIXED, "1/32"),
    ], ids=["error-free-0", "error-free-negative", "arbitrary-0", "fixed-mismatch"])
    def test_rejected_epsilon(self, mode, epsilon):
        oracle = self.oracle(mode)
        with pytest.raises(ConfigError, match="epsilon"):
            oracle.query("01", 10, epsilon=epsilon)
        assert oracle.transcript == []

    def test_error_free_ignores_a_positive_epsilon(self):
        oracle = self.oracle(PrecisionMode.ERROR_FREE)
        rec = oracle.query("01", 8, "1/8")
        assert rec.epsilon is None
        assert rec.to_dict() == self.oracle(PrecisionMode.ERROR_FREE).query("01", 8).to_dict()
        with pytest.raises(ConfigError, match="^epsilon must be positive$"):
            oracle.query("01", 8, "-1/8")
        assert len(oracle.transcript) == 1

    @pytest.mark.parametrize("make_source", [lambda: from_rational(1, 3),
                                             third_as_stream],
                             ids=["exact", "stream"])
    def test_jitter_past_the_budget_times_out(self, make_source):
        # seed 6 draws jitter ~0.886 from [-1, 1], so the deadline
        # budget - jitter is negative
        cfg = OracleConfig(N=Fraction(1), seed=6, record_hidden=True)
        rec = CollisionOracle(make_source(), cfg).query("01", Fraction(1, 2))
        assert rec.hidden["jitter"] >= rec.budget
        assert rec.outcome is Outcome.TIMEOUT
        assert rec.elapsed == rec.budget == Fraction(1, 2)
        assert rec.probe_depth is None


class TestTimeoutReaction:
    def test_abort_raises_with_record(self):
        cfg = OracleConfig(timeout_reaction=TimeoutReaction.ABORT)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        with pytest.raises(TimeoutExceeded) as exc:
            oracle.query("01", 2)
        assert exc.value.record.outcome is Outcome.TIMEOUT
        assert len(oracle.transcript) == 1  # the record landed first

    def test_return_mode_keeps_going(self):
        oracle = CollisionOracle(from_rational(1, 3))
        rec = oracle.query("01", 2)
        assert rec.outcome is Outcome.TIMEOUT
        assert oracle.query("01", 10).outcome is Outcome.GREATER


class TestBatchedQueries:
    def brute_counts(self, seed, stream, zeta, z, eps, mu, eta):
        nl = ng = nt = 0
        for k in range(zeta):
            m = z - eps + 2 * eps * Fraction(rng.raw64(seed, stream, 2 * k), 1 << 64)
            gap = abs(m - mu)
            if gap > eta:
                if m < mu:
                    nl += 1
                else:
                    ng += 1
            else:
                nt += 1
        return nl, ng, nt

    def test_kernel_counts_match_direct_simulation(self):
        mu = Fraction(151, 300)
        eps = Fraction(1, 64)
        budget = Fraction(6400)
        zeta = 4096
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=eps,
                           wait_policy=WaitPolicy.FULL_BUDGET, seed=17)
        oracle = CollisionOracle(from_rational(151, 300), cfg)
        batch = oracle.batch_query("01", budget, zeta)
        assert batch.engine.startswith("thresholds")
        want = self.brute_counts(17, 0, zeta, Fraction(1, 2), eps, mu,
                                 Fraction(1, 6400))
        assert (batch.n_lesser, batch.n_greater, batch.n_timeout) == want
        assert batch.elapsed_total == budget * zeta
        assert batch.setup_total == 2 * zeta

    def test_fallback_path_agrees_with_kernel(self):
        # a stream source has no exact value, forcing per-trial decisions
        eps = Fraction(1, 64)
        budget = Fraction(6400)
        zeta = 512
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY,
                           wait_policy=WaitPolicy.FULL_BUDGET, seed=23)
        stream_oracle = CollisionOracle(third_as_stream(), cfg)
        b1 = stream_oracle.batch_query("01", budget, zeta, epsilon=eps)
        assert b1.engine == "per-trial"
        exact_oracle = CollisionOracle(from_rational(1, 3), cfg)
        b2 = exact_oracle.batch_query("01", budget, zeta, epsilon=eps)
        assert b2.engine.startswith("thresholds")
        assert (b1.n_lesser, b1.n_greater, b1.n_timeout) == \
            (b2.n_lesser, b2.n_greater, b2.n_timeout)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["dyadic", "rational", "affine"]),
           mu=st.integers(0, 12).flatmap(
               lambda e: st.tuples(st.integers(0, 1 << e), st.just(e))),
           word=st.text("01", min_size=1, max_size=6),
           eps_bits=st.integers(1, 8),
           budget=st.tuples(st.integers(1, 1 << 12), st.integers(1, 16)),
           zeta=st.integers(1, 300), seed=st.integers(0, 2**16))
    # 0 + 3/4 * (1/3) = 1/4: a dyadic image of a non-dyadic source
    @example(kind="affine", mu=(1, 2), word="1", eps_bits=2, budget=(4, 1),
             zeta=64, seed=0)
    # mu - eta = z - eps and mu + eta = z + eps: every draw times out
    @example(kind="dyadic", mu=(1, 1), word="1", eps_bits=2, budget=(4, 1),
             zeta=64, seed=0)
    # mu - eta = z - eps, mu + eta inside the draw window
    @example(kind="rational", mu=(3, 3), word="1", eps_bits=2, budget=(8, 1),
             zeta=64, seed=0)
    def test_exact_dyadic_targets_use_the_kernel(self, kind, mu, word, eps_bits,
                                                 budget, zeta, seed):
        mu = Fraction(mu[0], 1 << mu[1])
        if kind == "dyadic":
            src = from_dyadic(mu)
        elif kind == "rational":
            src = from_rational(mu.numerator, mu.denominator)
        else:
            assume(mu <= Fraction(3, 4))
            src = affine_of_source(0, Fraction(3, 4),
                                   from_rational(4 * mu.numerator, 3 * mu.denominator))
        word = "0" + word
        z = word_to_dyadic(word).as_fraction()
        eps = Fraction(1, 1 << eps_bits)
        assume(0 <= z - eps and z + eps <= 1)
        budget = Fraction(*budget)
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY,
                           wait_policy=WaitPolicy.FULL_BUDGET, seed=seed)
        batch = CollisionOracle(src, cfg).batch_query(word, budget, zeta, epsilon=eps)
        assert batch.engine == "thresholds-py"
        want = self.brute_counts(seed, 0, zeta, z, eps, mu, cfg.K / budget)
        assert (batch.n_lesser, batch.n_greater, batch.n_timeout) == want

    # mu = z + a eps / 8; the budget b/8 * 2 c / eps puts the kinematic
    # window about eps wide, and b <= 4 eps gives T <= c (nothing greater)
    @settings(max_examples=40, deadline=None)
    @given(word=st.text("01", min_size=1, max_size=5), eps_bits=st.integers(1, 6),
           a=st.integers(-12, 12), q=st.sampled_from([1, 3, 7]),
           b=st.integers(1, 40), ru=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           zeta=st.integers(1, 200), seed=st.integers(0, 2**16))
    @example(word="1", eps_bits=1, a=3, q=7, b=2, ru=(1, 1), zeta=200, seed=0)
    @example(word="1", eps_bits=1, a=3, q=1, b=1, ru=(2, 3), zeta=200, seed=1)
    def test_kinematic_exact_batches_count_like_the_per_trial_path(
            self, word, eps_bits, a, q, b, ru, zeta, seed):
        z = word_to_dyadic("0" + word).as_fraction()
        eps = Fraction(1, 1 << eps_bits)
        mu = z + Fraction(a, 8 * q) * eps
        assume(0 <= z - eps and z + eps <= 1 and 0 < mu < 1)
        c = Fraction(*ru)
        budget = Fraction(b, 8) * 2 * c / eps
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, timing="kinematic",
                           flag_distance=Fraction(ru[0]), launch_speed=Fraction(ru[1]),
                           wait_policy=WaitPolicy.FULL_BUDGET, seed=seed)
        kernel = CollisionOracle(from_rational(mu.numerator, mu.denominator), cfg)
        got = kernel.batch_query("0" + word, budget, zeta, epsilon=eps)
        assert got.engine == "thresholds-py"
        # the same target as a digit stream takes the certified per-trial path
        n, d = mu.numerator, mu.denominator
        stream = CollisionOracle(custom(lambda i: (n << i) // d & 1), cfg)
        want = stream.batch_query("0" + word, budget, zeta, epsilon=eps)
        assert want.engine == "per-trial"
        assert (got.n_lesser, got.n_greater, got.n_timeout) == \
            (want.n_lesser, want.n_greater, want.n_timeout)

    def test_batch_requires_full_budget(self):
        oracle = CollisionOracle(from_rational(1, 3))
        with pytest.raises(ConfigError):
            oracle.batch_query("01", 10, 4)

    @pytest.mark.parametrize("eps", [Fraction(-1, 8), Fraction(0)])
    @pytest.mark.parametrize("make_source",
                             [lambda: from_rational(1, 3), third_as_stream],
                             ids=["kernel", "per-trial"])
    def test_batch_rejects_nonpositive_epsilon(self, eps, make_source):
        # the same argument rules as a single query, on both engines
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY,
                           wait_policy=WaitPolicy.FULL_BUDGET)
        oracle = CollisionOracle(make_source(), cfg)
        with pytest.raises(ConfigError, match="epsilon must be positive"):
            oracle.batch_query("01", 6400, 16, epsilon=eps)
        assert oracle.transcript == []

    def test_batch_rejects_conflicting_fixed_epsilon(self):
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=Fraction(1, 64),
                           wait_policy=WaitPolicy.FULL_BUDGET)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        with pytest.raises(ConfigError, match="FIXED mode pins"):
            oracle.batch_query("01", 6400, 16, epsilon=Fraction(1, 32))
        rec = oracle.batch_query("01", 6400, 16, epsilon=Fraction(1, 64))
        assert rec.epsilon == Fraction(1, 64)


class TestPerTrialBatchesMatchReferenceModel:
    """A batch on a digit-stream target counts its trials one by one, and
    holds to the reference model's trial-by-trial count."""

    @settings(max_examples=80, deadline=None)
    @given(stream=st.one_of(
               st.tuples(st.just("pattern"),
                         st.lists(st.integers(1, 6), min_size=1, max_size=5)),
               st.tuples(st.just("custom"), st.integers(0, 2**16))),
           timing=st.sampled_from(["protocol", "kinematic"]),
           K=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           N=st.sampled_from([0, 0, 1, 16]),
           mode=st.sampled_from([PrecisionMode.FIXED, PrecisionMode.ARBITRARY]),
           eps_bits=st.integers(1, 16),
           cap=st.one_of(st.integers(8, 64), st.just(4096)),
           seed=st.integers(0, 2**16),
           # (L, flip, e, q, zeta): the word 0.d1...dL from the target's
           # first L digits, its last digit flipped or not, at the budget
           # 2**e / q, repeated zeta times
           batches=st.lists(st.tuples(st.integers(0, 24), st.booleans(),
                                      st.integers(0, 40), st.integers(1, 15),
                                      st.integers(1, 24)),
                            min_size=1, max_size=3))
    # the tolerance window straddles the target: both answers and timeouts
    @example(stream=("pattern", [3, 2, 4]), timing="protocol", K=(1, 1), N=1,
             mode=PrecisionMode.ARBITRARY, eps_bits=6, cap=4096, seed=0,
             batches=[(8, False, 10, 1, 24)])
    # z = 1/2 arrives about 2.5 after firing at a target near 0.9: each
    # trial's own jitter in [-1, 1] decides whether it beats the budget 2
    @example(stream=("pattern", [3, 2, 4]), timing="protocol", K=(1, 1), N=16,
             mode=PrecisionMode.FIXED, eps_bits=16, cap=4096, seed=0,
             batches=[(1, False, 1, 1, 24)])
    def test_counts_match_reference_model(self, stream, timing, K, N, mode,
                                          eps_bits, cap, seed, batches):
        eps = Fraction(1, 1 << eps_bits)
        cfg = OracleConfig(K=Fraction(*K), N=Fraction(N, 16), timing=timing,
                           mode=mode, epsilon=eps if mode is PrecisionMode.FIXED else None,
                           wait_policy=WaitPolicy.FULL_BUDGET, probe_depth_cap=cap,
                           seed=seed)
        app = reference_model.Apparatus(K=cfg.K, N=cfg.N, timing=timing,
                                        probe_depth_cap=cap, seed=seed)
        make_source = TestStreamQueriesMatchReferenceModel.make_source
        oracle, model_src = CollisionOracle(make_source(stream), cfg), make_source(stream)
        for index, (length, flip, e, q, zeta) in enumerate(batches):
            digits = format(model_src.prefix_int(length), f"0{length}b") if length else ""
            if flip and digits:
                digits = digits[:-1] + "10"[int(digits[-1])]
            word, budget = "0" + digits, Fraction(1 << e, q)
            rec = oracle.batch_query(word, budget, zeta,
                                     epsilon=eps if mode is PrecisionMode.ARBITRARY else None)
            assert rec.engine == "per-trial"
            assert (rec.n_lesser, rec.n_greater) == reference_model.batch_counts(
                app, model_src, index, word, budget, zeta, eps)


class TestProbedMatchesExactProperty:
    """A digit stream of p/q, probed, decides like the exact rational p/q."""

    @settings(max_examples=200, deadline=None)
    # p < q: the digit rule below cannot spell 1 (its expansion is 0.111...)
    @given(pq=st.integers(2, 500).flatmap(
               lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
           word=st.text("01", min_size=1, max_size=24),
           log_budget=st.integers(1, 60), budget_den=st.integers(1, 7),
           jitter=st.sampled_from([0, 1, 5]),
           timing=st.sampled_from(["protocol", "kinematic"]),
           seed=st.integers(0, 2**16))
    def test_probed_oracle_matches_exact(self, pq, word, log_budget,
                                         budget_den, jitter, timing, seed):
        p, q = pq
        word = "0" + word
        budget = Fraction(1 << log_budget, budget_den)
        cfg = OracleConfig(K=Fraction(3, 2), N=Fraction(jitter, 16),
                           timing=timing, seed=seed)
        stream = custom(lambda n: ((p << n) // q) & 1)
        exact = CollisionOracle(from_rational(p, q), cfg).query(word, budget)
        probed = CollisionOracle(stream, cfg).query(word, budget)
        assert probed.outcome is exact.outcome
        if exact.outcome is not Outcome.TIMEOUT:
            assert 0 <= exact.elapsed - probed.elapsed < Fraction(1, 1 << 47)


class TestClockHorizon:
    def test_clock_reads_at_small_probe_caps(self):
        # the decision settles within a small cap, but a 2**-48 clock
        # reading needs about 48 + 2 log2(1/gap) digits, far past 4 caps
        tick = Fraction(1, 1 << 48)
        deep = CollisionOracle(from_run_lengths([3, 2, 4]))
        for cap in range(8, 17):
            small = CollisionOracle(from_run_lengths([3, 2, 4]),
                                    OracleConfig(probe_depth_cap=cap))
            for word, budget in product(["01", "011", "0101", "00111", "0110"],
                                        [3, 16, 64, 199]):
                got = small.query(word, budget)
                if got.outcome is Outcome.TIMEOUT:
                    continue
                want = deep.query(word, budget)
                assert got.outcome is want.outcome
                assert abs(got.elapsed - want.elapsed) <= tick

    @pytest.mark.parametrize("timing", ["protocol", "kinematic"])
    def test_clock_skips_the_doublings_that_cannot_fit_a_tick(self, timing):
        # a 202-digit bisection word decides at depth 211, and a tick needs
        # 459 digits: the clock reads the decision's depth for its bracket,
        # then 4 * 211, where it settles, and not 2 * 211, where the
        # enclosure provably spans more than a tick
        src = from_run_lengths([3, 2, 4])
        word = "0" + format(src.prefix_int(200), "0200b") + "1"
        read, prefix_int = [], src.prefix_int
        src.prefix_int = lambda depth: read.append(depth) or prefix_int(depth)
        budget = Fraction(1 << 208)
        rec = CollisionOracle(src, OracleConfig(timing=timing)).query(word, budget)
        assert rec.probe_depth == 211
        assert read == [211, 211, 4 * 211]
        want = reference_model.query(reference_model.Apparatus(timing=timing),
                                     from_run_lengths([3, 2, 4]), 0, word, budget)
        assert (str(rec.outcome), rec.elapsed) == (want.outcome, want.elapsed)

    @pytest.mark.parametrize("timing", ["protocol", "kinematic"])
    def test_horizon_is_read_from_the_near_end_of_the_bracket(self, timing):
        # at depth 8 the cell [1/2, 1/2 + 2**-8] lies 2**-61 above m* and mu
        # 2**-60 into it: a tick needs about 168 digits, which the near end
        # 2**-61 foresees and the far end 2**-8 (a horizon of 128) does not
        m = Fraction(1, 2) - Fraction(1, 1 << 61)

        def stream():
            return custom(lambda n: int(n in (1, 60)))
        oracle = CollisionOracle(stream(), OracleConfig(timing=timing, probe_depth_cap=8))
        got = oracle._reported_arrival((m.numerator, m.denominator), 8, Fraction(0))
        app = reference_model.Apparatus(timing=timing, probe_depth_cap=8)
        assert got == reference_model.clock_reading(app, stream(), m, 8, Fraction(0))

    @staticmethod
    def exact_clock_start(app, src, m, depth):
        """The first doubling of depth that reaches bits_above(law(m, lo)
        2**48 / far**2), the exact-division start: lo is the depth-d
        cell's low end and far its distance from m at the far end."""
        lo = Fraction(src.prefix_int(depth), 1 << depth)
        far = max(abs(m - lo), abs(m - lo - Fraction(1, 1 << depth)))
        skip = reference_model.bits_above(
            reference_model.law(app, m, lo) / (far * far * reference_model.TICK))
        return depth << ((max(skip, 1) - 1) // depth).bit_length()

    def test_clock_may_start_one_doubling_before_the_exact_start(self):
        # the word 0.<10 digits>1 decides at depth 35; the exact division
        # starts the clock at 140, its bit-length bound at 70, where the
        # enclosure provably spans more than a tick, so the reading holds
        src = from_run_lengths([3, 2, 4])
        word = "0" + format(src.prefix_int(10), "010b") + "1"
        read, prefix_int = [], src.prefix_int
        src.prefix_int = lambda depth: read.append(depth) or prefix_int(depth)
        rec = CollisionOracle(src).query(word, Fraction(1 << 32))
        assert rec.probe_depth == 35
        assert read == [35, 35, 70, 140]
        app, m = reference_model.Apparatus(), reference_model.word_value(word)
        assert self.exact_clock_start(app, from_run_lengths([3, 2, 4]), m, 35) == 140
        assert rec.elapsed == reference_model.clock_reading(
            app, from_run_lengths([3, 2, 4]), m, 35, Fraction(0))

    @settings(max_examples=100, deadline=None)
    @given(runs=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           timing=st.sampled_from(["protocol", "kinematic"]),
           K=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           ru=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           length=st.integers(0, 60), flip=st.booleans(), extra=st.integers(0, 40))
    @example(runs=[3, 2, 4], timing="protocol", K=(1, 1), ru=(1, 1), length=10,
             flip=False, extra=22)
    def test_clock_starts_at_or_one_doubling_before_the_exact_start(
            self, runs, timing, K, ru, length, flip, extra):
        # the word 0.d1...dL1 from the target's first L digits, the last
        # flipped or not, at the budget 2**(L + extra)
        src = from_run_lengths(runs)
        digits = format(src.prefix_int(length), f"0{length}b") if length else ""
        if flip and digits:
            digits = digits[:-1] + "10"[int(digits[-1])]
        word = "0" + digits + "1"
        cfg = OracleConfig(K=Fraction(*K), timing=timing, flag_distance=Fraction(ru[0]),
                           launch_speed=Fraction(ru[1]))
        read, prefix_int = [], src.prefix_int
        src.prefix_int = lambda depth: read.append(depth) or prefix_int(depth)
        rec = CollisionOracle(src, cfg).query(word, Fraction(1 << length + extra))
        assume(rec.outcome is not Outcome.TIMEOUT)
        # the decision's reads end at its depth h, then the clock reads h
        # for its bracket and starts its doublings
        h = rec.probe_depth
        first = read[read.index(h) + 2]
        app = reference_model.Apparatus(K=cfg.K, timing=timing, flag_distance=cfg.flag_distance,
                                        launch_speed=cfg.launch_speed)
        m = reference_model.word_value(word)
        start = self.exact_clock_start(app, from_run_lengths(runs), m, h)
        assert first == start or (2 * first == start and first >= h)
        assert rec.elapsed == reference_model.clock_reading(
            app, from_run_lengths(runs), m, h, Fraction(0))


class TestIntegerDecisionProperty:
    """Queries on exact targets decide like law/gap + jitter < budget."""

    @settings(max_examples=300, deadline=None)
    @given(target=st.one_of(
               st.integers(1, 500).flatmap(
                   lambda q: st.tuples(st.integers(0, q), st.just(q))),
               st.integers(0, 70).flatmap(
                   lambda e: st.tuples(st.integers(0, 1 << e), st.just(1 << e)))),
           word=st.one_of(st.just("1"),
                          st.text("01", max_size=40).map(lambda w: "0" + w)),
           K=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           budget=st.tuples(st.integers(1, 1 << 50), st.integers(1, 7)),
           N=st.integers(0, 16),
           timing=st.sampled_from(["protocol", "kinematic"]),
           wait=st.sampled_from(list(WaitPolicy)),
           seed=st.integers(0, 2**16))
    # gap = 0: the projectile is the target, no budget answers
    @example(target=(1, 2), word="01", K=(1, 1), budget=(1 << 50, 1), N=0,
             timing="protocol", wait=WaitPolicy.INTERRUPT, seed=0)
    # deadline <= 0: seed 6 draws jitter ~0.886 from [-1, 1], above the budget
    @example(target=(1, 3), word="01", K=(1, 1), budget=(1, 2), N=16,
             timing="protocol", wait=WaitPolicy.INTERRUPT, seed=6)
    # arrival exactly at the deadline: 1/(1/2 - 1/3) = 6
    @example(target=(1, 3), word="01", K=(1, 1), budget=(6, 1), N=0,
             timing="protocol", wait=WaitPolicy.INTERRUPT, seed=0)
    def test_decision_matches_fraction_evaluation(self, target, word, K, budget,
                                                  N, timing, wait, seed):
        mu = Fraction(*target)
        budget = Fraction(*budget)
        cfg = OracleConfig(K=Fraction(*K), N=Fraction(N, 16), timing=timing,
                           launch_speed=Fraction(3), flag_distance=Fraction(5),
                           wait_policy=wait, seed=seed, record_hidden=True)
        src = from_rational(*target) if mu.denominator & (mu.denominator - 1) \
            else from_dyadic(mu)
        rec = CollisionOracle(src, cfg).query(word, budget)

        m, jitter = rec.hidden["m_star"], rec.hidden["jitter"]
        law = cfg.K if timing == "protocol" else Fraction(5, 3) * (m + mu)
        gap = abs(m - mu)
        arrival = law / gap + jitter if gap else None
        if arrival is not None and arrival < budget:
            assert rec.outcome is (Outcome.LESSER if m < mu else Outcome.GREATER)
            assert rec.elapsed == (arrival if wait is WaitPolicy.INTERRUPT else budget)
        else:
            assert rec.outcome is Outcome.TIMEOUT
            assert rec.elapsed == budget


class TestCellCutoffsMatchArrivalBounds:
    """At one depth, the cutoffs of the target cell [p, p + 1]/2**d settle
    a query as the reference model's arrival bounds do: latest < T answers
    on m*'s side, earliest >= T times out, and anything else reads deeper.

    A mass strictly inside the cell never answers.  There the cutoffs may
    time out where the bounds, which pair the nearest law term with the
    cell's whole width, still read deeper; from the start depth on, where
    2**-d < law(m*, 0) / (4 T), both time out."""

    class Prefix:
        def __init__(self, p):
            self.p = p

        def prefix_int(self, depth):
            return self.p

    @staticmethod
    def cell_verdict(oracle, m, T, p, depth):
        """The verdict of the cell's cutoffs on m, read twice: m against the
        cutoffs themselves, and the signs of the cutoffs less m, computed
        over the common denominator md 2**depth as the decision does."""
        s_lo, s_hi, rule = oracle.cutoffs(T.numerator, T.denominator)
        lo, lo_t, hi_t, hi = (None if c is None else Fraction(c, s << depth)
                              for c, s in zip(rule(p, p + 1, 0, 1 << depth),
                                              (s_lo, s_lo, s_hi, s_hi)))
        verdicts = {"lesser": m < lo, "greater": hi is not None and m > hi,
                    "timeout": lo_t <= m and (hi_t is None or m <= hi_t)}
        mn, md = m.numerator, m.denominator
        lo, lo_t, hi_t, hi = rule(p * md, (p + 1) * md, mn << depth, md << depth)
        assert (lo > 0, hi is not None and hi < 0,
                lo_t <= 0 and (hi_t is None or hi_t >= 0)) == tuple(verdicts.values())
        return next((v for v, hit in verdicts.items() if hit), None)

    @settings(max_examples=400, deadline=None)
    @given(cell=st.integers(1, 48).flatmap(
               lambda d: st.tuples(st.integers(0, (1 << d) - 1), st.just(d))),
           place=st.sampled_from(["zero", "below", "lo_end", "inside", "hi_end", "above"]),
           t=st.tuples(st.integers(1, 1 << 20), st.integers(1, 1 << 20)),
           timing=st.sampled_from(["protocol", "kinematic"]),
           K=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           ru=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           T=st.tuples(st.integers(0, 48), st.integers(1, 15)))
    # T = c = 1: nothing above the cell answers, and all of it times out
    @example(cell=(5, 4), place="above", t=(1, 1), timing="kinematic", K=(1, 1),
             ru=(3, 3), T=(0, 1))
    # T < c, m* = 0 below the cell: lesser needs T pn > c qn, never here
    @example(cell=(3, 2), place="zero", t=(1, 1), timing="kinematic", K=(1, 1),
             ru=(4, 1), T=(1, 1))
    # m* inside the cell past the start depth: both time out
    @example(cell=(123456789, 30), place="inside", t=(1, 2), timing="kinematic",
             K=(1, 1), ru=(1, 1), T=(20, 1))
    @example(cell=(98765, 24), place="inside", t=(1, 3), timing="protocol",
             K=(3, 2), ru=(1, 1), T=(16, 1))
    def test_cell_verdict_matches_arrival_bounds(self, cell, place, t, timing, K, ru, T):
        p, depth = cell
        t = Fraction(t[0], t[0] + t[1])    # in (0, 1)
        P, Q = Fraction(p, 1 << depth), Fraction(p + 1, 1 << depth)
        m = {"zero": Fraction(0), "below": P * t, "lo_end": P, "hi_end": Q,
             "inside": P + (Q - P) * t, "above": Q + (1 - Q) * t}[place]
        T = Fraction(1 << T[0], T[1])
        cfg = OracleConfig(K=Fraction(*K), timing=timing,
                           flag_distance=Fraction(ru[0]), launch_speed=Fraction(ru[1]))
        app = reference_model.Apparatus(K=cfg.K, timing=timing,
                                         flag_distance=cfg.flag_distance,
                                         launch_speed=cfg.launch_speed)
        side, _, earliest, latest = reference_model.arrival_bounds(
            app, self.Prefix(p), m, depth)
        if latest is not None and latest < T:
            want = "lesser" if side < 0 else "greater"
        else:
            want = "timeout" if earliest >= T else None
        got = self.cell_verdict(CollisionOracle(self.Prefix(p), cfg), m, T, p, depth)
        if P < m < Q:
            floor_law = reference_model.law(app, m, 0)
            start = max(8, reference_model.bits_above(T / floor_law) + 2)
            assert got in ("timeout", None) and want in ("timeout", None)
            if want == "timeout" or depth >= start:
                assert got == want == "timeout"
        else:
            assert got == want


class TestStreamQueriesMatchReferenceModel:
    """Queries on digit-stream targets decide, bill and draw like the
    Fraction transcription in tests/reference_model.py, record by record."""

    @staticmethod
    def make_source(stream):
        kind, arg = stream
        if kind == "pattern":
            return from_run_lengths(arg)
        return custom(lambda n: rng.raw64(arg, n, 0) >> 63)

    @settings(max_examples=150, deadline=None)
    @given(stream=st.one_of(
               st.tuples(st.just("pattern"),
                         st.lists(st.integers(1, 6), min_size=1, max_size=5)),
               st.tuples(st.just("custom"), st.integers(0, 2**16))),
           timing=st.sampled_from(["protocol", "kinematic"]),
           K=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           ru=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           N=st.integers(0, 16),
           mode=st.sampled_from(list(PrecisionMode)),
           eps_bits=st.integers(1, 60),
           wait=st.sampled_from(list(WaitPolicy)),
           cap=st.one_of(st.integers(8, 64), st.sampled_from([512, 4096])),
           seed=st.integers(0, 2**16),
           # (L, flip, e, q): the word 0.d1...dL from the target's first L
           # digits, its last digit flipped or not, at the budget 2**e / q
           queries=st.lists(st.tuples(st.integers(0, 160), st.booleans(),
                                      st.integers(0, 170), st.integers(1, 15)),
                            min_size=1, max_size=6))
    # the earliest arrival equals the deadline at depth 8: 1/(29/32 - 1/2);
    # that is a timeout there, not a read to depth 16
    @example(stream=("pattern", [3, 2, 4]), timing="protocol", K=(1, 1),
             ru=(1, 1), N=0, mode=PrecisionMode.ERROR_FREE, eps_bits=1,
             wait=WaitPolicy.INTERRUPT, cap=4096, seed=0,
             queries=[(1, False, 5, 13)])
    # kinematic cutoffs read the law at the far end of the target cell: the
    # tight rule lo = pn (T - c)/(d (T + c)) answers the word 0111 at depth
    # 8, not 16, and times out the word 0 at T = c at depth 8, not the cap
    @example(stream=("pattern", [5]), timing="kinematic", K=(1, 1),
             ru=(2, 2), N=0, mode=PrecisionMode.ERROR_FREE, eps_bits=1,
             wait=WaitPolicy.INTERRUPT, cap=4096, seed=0,
             queries=[(3, False, 8, 13)])
    @example(stream=("pattern", [2]), timing="kinematic", K=(1, 1),
             ru=(4, 4), N=0, mode=PrecisionMode.ERROR_FREE, eps_bits=1,
             wait=WaitPolicy.INTERRUPT, cap=4096, seed=0,
             queries=[(0, False, 3, 8)])
    # the clock skips the doublings that cannot fit a tick: this one
    # decides at depth 173 and reads the clock at 692, skipping 173 and 346
    @example(stream=("pattern", [3, 2, 4]), timing="protocol", K=(1, 1),
             ru=(1, 1), N=0, mode=PrecisionMode.ERROR_FREE, eps_bits=1,
             wait=WaitPolicy.INTERRUPT, cap=4096, seed=0,
             queries=[(160, True, 170, 1)])
    # and with jitter and a drawn mass under kinematic timing it decides at
    # depth 63 and reads the clock at 126
    @example(stream=("pattern", [3, 2, 4]), timing="kinematic", K=(1, 1),
             ru=(2, 3), N=4, mode=PrecisionMode.ARBITRARY, eps_bits=30,
             wait=WaitPolicy.INTERRUPT, cap=4096, seed=7,
             queries=[(40, True, 60, 1)])
    def test_query_matches_reference_model(self, stream, timing, K, ru, N, mode,
                                           eps_bits, wait, cap, seed, queries):
        eps = Fraction(1, 1 << eps_bits)
        cfg = OracleConfig(K=Fraction(*K), N=Fraction(N, 16), timing=timing,
                           flag_distance=Fraction(ru[0]), launch_speed=Fraction(ru[1]),
                           mode=mode, epsilon=eps if mode is PrecisionMode.FIXED else None,
                           wait_policy=wait, probe_depth_cap=cap, seed=seed,
                           record_hidden=True)
        app = reference_model.Apparatus(
            K=cfg.K, N=cfg.N, timing=timing, flag_distance=cfg.flag_distance,
            launch_speed=cfg.launch_speed, interrupt=wait is WaitPolicy.INTERRUPT,
            probe_depth_cap=cap, seed=seed)
        oracle = CollisionOracle(self.make_source(stream), cfg)
        model_src = self.make_source(stream)
        for index, (length, flip, e, q) in enumerate(queries):
            digits = format(model_src.prefix_int(length), f"0{length}b") if length else ""
            if flip and digits:
                digits = digits[:-1] + "10"[int(digits[-1])]
            word, budget = "0" + digits, Fraction(1 << e, q)
            rec = oracle.query(word, budget,
                               epsilon=eps if mode is PrecisionMode.ARBITRARY else None)
            want = reference_model.query(
                app, model_src, index, word, budget,
                None if mode is PrecisionMode.ERROR_FREE else eps)
            assert (str(rec.outcome), rec.elapsed, rec.probe_depth,
                    rec.hidden["m_star"]) == (want.outcome, want.elapsed,
                                              want.probe_depth, want.m_star)


class TestExactQueriesMatchReferenceModel:
    """Queries on exact targets decide, bill and draw like the closed-form
    Fraction transcription in tests/reference_model.py, record by record.
    A query may be fired at exactly its error-free arrival time, which is
    a timeout."""

    @settings(max_examples=100, deadline=None)
    @given(mu=st.tuples(st.integers(0, 64), st.sampled_from([1, 3, 7, 64, 96])),
           timing=st.sampled_from(["protocol", "kinematic"]),
           K=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           ru=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           N=st.sampled_from([0, 0, 1, 16]),
           mode=st.sampled_from(list(PrecisionMode)),
           eps_bits=st.integers(1, 60),
           wait=st.sampled_from(list(WaitPolicy)),
           seed=st.integers(0, 2**16),
           # (word, e, q, on_edge): the budget 2**e / q, or the word's own
           # error-free arrival time when on_edge
           queries=st.lists(st.tuples(st.text("01", max_size=10), st.integers(0, 40),
                                      st.integers(1, 15), st.booleans()),
                            min_size=1, max_size=6))
    @example(mu=(1, 3), timing="kinematic", K=(1, 1), ru=(1, 1), N=0,
             mode=PrecisionMode.ERROR_FREE, eps_bits=1, wait=WaitPolicy.INTERRUPT,
             seed=0, queries=[("01", 0, 1, True), ("001", 0, 1, True)])
    @example(mu=(1, 3), timing="protocol", K=(3, 2), ru=(1, 1), N=0,
             mode=PrecisionMode.ERROR_FREE, eps_bits=1, wait=WaitPolicy.INTERRUPT,
             seed=0, queries=[("011", 0, 1, True), ("0001", 0, 1, True)])
    def test_query_matches_reference_model(self, mu, timing, K, ru, N, mode, eps_bits,
                                           wait, seed, queries):
        mu = Fraction(min(mu[0], mu[1]), mu[1])
        eps = Fraction(1, 1 << eps_bits)
        cfg = OracleConfig(K=Fraction(*K), N=Fraction(N, 16), timing=timing,
                           flag_distance=Fraction(ru[0]), launch_speed=Fraction(ru[1]),
                           mode=mode, epsilon=eps if mode is PrecisionMode.FIXED else None,
                           wait_policy=wait, seed=seed, record_hidden=True)
        app = reference_model.Apparatus(
            K=cfg.K, N=cfg.N, timing=timing, flag_distance=cfg.flag_distance,
            launch_speed=cfg.launch_speed, interrupt=wait is WaitPolicy.INTERRUPT,
            seed=seed)
        source = from_rational(mu.numerator, mu.denominator)
        oracle = CollisionOracle(source, cfg)
        for index, (bits, e, q, on_edge) in enumerate(queries):
            word = "0" + bits
            z = reference_model.word_value(word)
            budget = Fraction(1 << e, q)
            if on_edge and z != mu:
                budget = reference_model.law(app, z, mu) / abs(z - mu)
            rec = oracle.query(word, budget,
                               epsilon=eps if mode is PrecisionMode.ARBITRARY else None)
            want = reference_model.query(
                app, source, index, word, budget,
                None if mode is PrecisionMode.ERROR_FREE else eps)
            assert (str(rec.outcome), rec.elapsed, rec.probe_depth, rec.hidden) == \
                (want.outcome, want.elapsed, want.probe_depth,
                 {"m_star": want.m_star, "jitter": want.jitter})


class TestTranscripts:
    def test_replay_is_bit_identical(self):
        def run():
            cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, N=Fraction(1, 16),
                               seed=77)
            oracle = CollisionOracle(from_rational(2, 7), cfg)
            for word, budget in [("01", 30), ("001", 50), ("011", 40)]:
                oracle.query(word, budget, epsilon=Fraction(1, 128))
            return json.dumps([r.to_dict() for r in oracle.transcript])

        assert run() == run()

    def test_record_serialization(self):
        oracle = CollisionOracle(from_rational(1, 3))
        rec = oracle.query("01", 10)
        d = rec.to_dict()
        assert d["z"] == "01"
        assert d["z_length"] == 2
        assert d["answer"] == "greater"
        assert d["elapsed"] == "6"
        assert d["budget"] == "10"
        assert "epsilon" not in d

    def test_hidden_values_stay_out_of_serialization(self):
        cfg = OracleConfig(mode=PrecisionMode.ARBITRARY, record_hidden=True)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("01", 10, epsilon=Fraction(1, 64))
        assert rec.hidden
        assert "m_star" not in json.dumps(rec.to_dict())

    def test_total_elapsed_sums_every_record(self):
        oracle = CollisionOracle(from_rational(1, 3))
        assert oracle.total_elapsed == 0
        oracle.query("01", 10)
        oracle.query("001", 20)
        assert oracle.total_elapsed == (6 + 2) + (12 + 3)


class TestJsonLine:
    """A query record writes its transcript line from text, byte for byte
    the line a sort_keys JSONEncoder writes for its to_dict."""

    ENCODER = json.JSONEncoder(sort_keys=True)

    def assert_lines(self, records):
        for rec in records:
            assert rec.json_line() == self.ENCODER.encode(rec.to_dict())

    @settings(max_examples=120, deadline=None)
    @given(target=st.one_of(
               st.tuples(st.just("exact"), st.integers(0, 96),
                         st.sampled_from([1, 3, 7, 64, 96])),
               st.tuples(st.just("stream"),
                         st.lists(st.integers(1, 6), min_size=1, max_size=4))),
           timing=st.sampled_from(["protocol", "kinematic"]),
           mode=st.sampled_from(list(PrecisionMode)),
           eps=st.sampled_from([Fraction(1, 3), Fraction(1, 64), Fraction(5, 7),
                                Fraction(1, 1 << 70)]),
           wait=st.sampled_from(list(WaitPolicy)),
           K=st.sampled_from([Fraction(1), Fraction(3, 7), Fraction(1, 1000)]),
           N=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(7, 5), Fraction(1000)]),
           c_setup=st.sampled_from([Fraction(0), Fraction(1), Fraction(2, 3)]),
           seed=st.integers(0, 2**16),
           # (word, e, q): the budget 2**e / q, up to 2**400-sized
           queries=st.lists(st.tuples(
               st.one_of(st.just("1"), st.text("01", max_size=12).map(lambda w: "0" + w)),
               st.integers(0, 400), st.integers(1, 15)), min_size=1, max_size=5))
    @example(target=("exact", 1, 3), timing="protocol", mode=PrecisionMode.FIXED,
             eps=Fraction(1, 3), wait=WaitPolicy.FULL_BUDGET, K=Fraction(1),
             N=Fraction(0), c_setup=Fraction(2, 3), seed=0,
             queries=[("1", 400, 1), ("0", 3, 7)])
    def test_query_lines_match_the_encoder(self, target, timing, mode, eps, wait,
                                           K, N, c_setup, seed, queries):
        source = (from_rational(min(target[1], target[2]), target[2])
                  if target[0] == "exact" else from_run_lengths(target[1]))
        cfg = OracleConfig(K=K, N=N, timing=timing, mode=mode, wait_policy=wait,
                           epsilon=eps if mode is PrecisionMode.FIXED else None,
                           c_setup=c_setup, seed=seed, probe_depth_cap=64)
        oracle = CollisionOracle(source, cfg)
        for word, e, q in queries:
            oracle.query(word, Fraction(1 << e, q),
                         epsilon=eps if mode is PrecisionMode.ARBITRARY else None)
        self.assert_lines(oracle.transcript)

    @settings(max_examples=60, deadline=None)
    @given(mu=st.tuples(st.integers(0, 96), st.sampled_from([3, 7, 64, 96])),
           r=st.integers(1, 6),
           K=st.sampled_from([Fraction(1), Fraction(3, 7), Fraction(1, 1000)]),
           c_setup=st.sampled_from([Fraction(0), Fraction(1), Fraction(2, 3)]))
    def test_bulk_grid_lines_match_the_encoder(self, mu, r, K, c_setup):
        cfg = OracleConfig(K=K, c_setup=c_setup, wait_policy=WaitPolicy.FULL_BUDGET)
        oracle = CollisionOracle(from_rational(min(*mu), mu[1]), cfg)
        self.assert_lines(oracle.fire_grid(r, K * (1 << (2 * r + 1))))

    def test_both_bulk_runs_and_negative_elapsed(self):
        # 1/3 at level 4: lesser records written below the window, greater
        # above it, ending with the word "1"
        cfg = OracleConfig(c_setup=Fraction(2, 3), wait_policy=WaitPolicy.FULL_BUDGET)
        recs = CollisionOracle(from_rational(1, 3), cfg).fire_grid(4, Fraction(512))
        assert {Outcome.LESSER, Outcome.GREATER} <= {rec.outcome for rec in recs}
        assert recs[-1].word == "1"
        self.assert_lines(recs)
        # jitter up to 1000 against arrivals near K = 1/1000: an early flag
        # reads a negative elapsed time
        cfg = OracleConfig(K=Fraction(1, 1000), N=Fraction(1000), seed=3)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        for p in range(16):
            oracle.query("0" + format(p, "04b"), Fraction(1, 3))
        assert any(rec.elapsed < 0 for rec in oracle.transcript)
        self.assert_lines(oracle.transcript)


class TestDrawOverLcm:
    """m* over lcm(zd, ed) 2**64 is the value of the old zd ed 2**64 form."""

    @staticmethod
    def product_form(seed, z, eps, stream, trial):
        (zn, zd), en, ed = z, eps.numerator, eps.denominator
        r = rng.raw64(seed, stream, 2 * trial)
        num = ((zn * ed - en * zd) << 64) + 2 * en * zd * r
        den = zd * ed << 64
        return Fraction(0) if num < 0 else Fraction(1) if num > den else Fraction(num, den)

    @settings(max_examples=300, deadline=None)
    @given(word=st.one_of(st.just("1"), st.text("01", max_size=80).map(lambda w: "0" + w)),
           eps=st.one_of(st.integers(0, 90).map(lambda e: Fraction(1, 1 << e)),
                         st.fractions(Fraction(1, 10**6), 2, max_denominator=10**6)),
           seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**16),
           trial=st.integers(0, 2**16))
    # a tolerance of 1 around 1/4 and 3/4 leaves [0, 1] on both sides
    @example(word="001", eps=Fraction(1), seed=0, stream=0, trial=0)
    @example(word="011", eps=Fraction(1), seed=0, stream=0, trial=1)
    def test_draw_matches_the_product_form(self, word, eps, seed, stream, trial):
        z = int(word, 2), 1 << len(word) - 1
        oracle = CollisionOracle(from_rational(1, 3), OracleConfig(
            mode=PrecisionMode.ARBITRARY, seed=seed))
        assert Fraction(*oracle._draw_mass(z, eps, stream, trial)) == \
            self.product_form(seed, z, eps, stream, trial)

    def test_clipped_draws_on_both_sides(self):
        oracle = CollisionOracle(from_rational(1, 3), OracleConfig(
            mode=PrecisionMode.ARBITRARY))
        draws = {oracle._draw_mass((1, 2), Fraction(1), 0, t) for t in range(64)}
        assert {(0, 1), (1, 1)} <= draws
