import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collidersim import rng
from collidersim.collision import Outcome
from collidersim.oracle import (CollisionOracle, ConfigError, OracleConfig,
                                PrecisionMode, TimeoutExceeded,
                                TimeoutReaction, WaitPolicy, timeout_window)
from collidersim.sources import (RunLengths, custom, from_dyadic,
                                 from_rational, from_run_lengths)
from collidersim.dyadic import Dyadic


def third_as_stream():
    """1/3 presented as a digit stream with no exact value attached."""
    return from_run_lengths(RunLengths.from_list([0], tail="constant:1"))


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

    def test_timeout_window(self):
        cfg = OracleConfig(K=Fraction(2), N=Fraction(1, 2))
        assert timeout_window(cfg, 10) == Fraction(2) / Fraction(19, 2)
        with pytest.raises(ConfigError):
            timeout_window(cfg, Fraction(1, 2))


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

    def test_probe_cap_forces_timeout(self):
        # digits of exactly 1/2, but presented without an exact value:
        # no finite prefix separates it from z = 1/2
        half = custom(lambda n: 1 if n == 1 else 0, non_dyadic=False)
        cfg = OracleConfig(probe_depth_cap=64)
        oracle = CollisionOracle(half, cfg)
        # 64 digits pin the distance below 2**-63, which certifies an
        # ordinary timeout against moderate budgets; an astronomically
        # large budget leaves both certificates open and hits the cap
        rec = oracle.query("01", Fraction(2) ** 80)
        assert rec.outcome is Outcome.TIMEOUT
        assert rec.probe_depth == 64
        modest = oracle.query("01", 10 ** 6)
        assert modest.outcome is Outcome.TIMEOUT
        assert modest.probe_depth < 64

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

    def test_jitter_shifts_arrival(self):
        cfg = OracleConfig(N=Fraction(1, 8), record_hidden=True, seed=3)
        oracle = CollisionOracle(from_rational(1, 3), cfg)
        rec = oracle.query("01", 10)
        assert rec.outcome is Outcome.GREATER
        assert rec.elapsed == 6 + rec.hidden["jitter"]
        assert abs(rec.hidden["jitter"]) <= Fraction(1, 8)


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

    def test_total_elapsed_and_reset(self):
        oracle = CollisionOracle(from_rational(1, 3))
        oracle.query("01", 10)
        oracle.query("001", 20)
        assert oracle.total_elapsed == (6 + 2) + (12 + 3)
        oracle.reset()
        assert oracle.total_elapsed == 0
