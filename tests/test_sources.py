import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collidersim.dyadic import Dyadic
from collidersim.sources import (GapProbe, MassSource, RunLengths,
                                 adversarial_mass, affine_of_source, custom,
                                 diagonal_run_lengths, distance_bracket,
                                 from_dyadic, from_rational, from_run_lengths,
                                 gap_probe, load_mass_file, parse_fraction,
                                 parse_mass_spec, refine,
                                 run_lengths_from_digits)


def digits_of(src, depth):
    return "".join(str(src.digit_at(i)) for i in range(1, depth + 1))


class TestDigitStreams:
    def test_rational_expansions(self):
        assert digits_of(from_rational(1, 3), 8) == "01010101"
        assert digits_of(from_rational(1, 7), 9) == "001001001"
        assert digits_of(from_rational(5, 16), 8) == "01010000"

    def test_dyadic_terminates(self):
        # canonical expansion: no eventually-all-ones tail
        assert digits_of(from_dyadic(Dyadic(1, 1)), 6) == "100000"
        assert digits_of(from_dyadic(Dyadic(3, 2)), 6) == "110000"

    def test_endpoints(self):
        assert digits_of(from_rational(0, 1), 4) == "0000"
        assert from_rational(1, 1).exact_value == 1

    def test_prefix_int_matches_digits(self):
        rnd = random.Random(31)
        for _ in range(50):
            q = rnd.randrange(2, 500)
            p = rnd.randrange(0, q)  # values below 1; the unit mass is special
            src = from_rational(p, q)
            d = rnd.randrange(1, 40)
            assert src.prefix_int(d) == int(digits_of(src, d), 2)

    def test_unit_mass_keeps_sound_brackets(self):
        # 1 has no fractional expansion, so digit_at reads zeros there,
        # but the certified bracket interface still encloses the value
        src = from_rational(1, 1)
        for d in (1, 4, 21):
            assert src.prefix_int(d) == 1 << d
            lo, hi = src.interval(d)
            assert lo <= 1 < hi

    def test_interval_contains_value(self):
        src = from_rational(2, 7)
        for d in (1, 5, 13, 40):
            lo, hi = src.interval(d)
            assert lo <= src.exact_value < hi
            assert hi - lo == Fraction(1, 1 << d)

    def test_non_dyadic_flag(self):
        assert from_rational(1, 3).non_dyadic
        assert not from_rational(3, 8).non_dyadic

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_rational(4, 3)

    def test_custom_audit_catches_impure_rules(self):
        state = {"n": 0}

        def flaky(n):
            state["n"] += 1
            return state["n"] % 2

        src = custom(flaky, audit=True)
        with pytest.raises(RuntimeError):
            src.digit_at(1)


class TestRunLengths:
    def test_cumulative_positions(self):
        runs = RunLengths.from_list([3, 2, 4])
        assert [runs.u(k) for k in (1, 2, 3, 4, 5)] == [3, 2, 4, 4, 4]
        assert [runs.a(k) for k in (0, 1, 2, 3)] == [0, 3, 5, 9]

    def test_tails(self):
        cyc = RunLengths.from_list([3, 2, 4], tail="cycle")
        assert [cyc.u(k) for k in (4, 5, 6, 7)] == [3, 2, 4, 3]
        con = RunLengths.from_list([3], tail="constant:2")
        assert [con.u(k) for k in (1, 2, 3)] == [3, 2, 2]

    def test_leading_block_may_be_empty(self):
        runs = RunLengths.from_list([0, 2, 1])
        src = from_run_lengths(runs)
        # blocks: no ones, 00, 1, then repeat-last tail 0 1 0 ...
        assert digits_of(src, 6) == "001010"

    def test_later_blocks_must_be_positive(self):
        with pytest.raises(ValueError):
            RunLengths.from_list([3, 0, 2]).a(3)

    def test_blocks_covering(self):
        runs = RunLengths.from_list([3, 2, 4])
        assert runs.blocks_covering(1) == 1
        assert runs.blocks_covering(3) == 1
        assert runs.blocks_covering(4) == 2
        assert runs.blocks_covering(9) == 3

    def test_pattern_digits_alternate_by_block(self):
        src = from_run_lengths([2, 3, 1])
        # blocks: 11 000 1, then repeat-last tail 0 1 0 ...
        assert digits_of(src, 10) == "1100010101"

    def test_covering_survives_deep_materialization(self):
        # materializing block lengths past the query (as any diagnostic
        # pass does) must not change which block covers a digit
        runs = RunLengths.from_list([2, 3, 1])
        runs.u(7)
        assert runs.blocks_covering(1) == 1
        assert runs.blocks_covering(4) == 2
        assert runs.blocks_covering(6) == 3
        assert runs.blocks_covering(9) == 6
        src = from_run_lengths(runs)
        assert digits_of(src, 10) == "1100010101"

    def test_run_length_extraction_inverts(self):
        src = from_run_lengths([2, 3, 1, 4])
        # a block counts as complete only once the flip ending it is seen,
        # so the view must reach into block five
        assert run_lengths_from_digits(src, 11) == [2, 3, 1, 4]
        assert run_lengths_from_digits(src, 10) == [2, 3, 1]
        assert run_lengths_from_digits(src, 9) == [2, 3, 1]


class TestDistanceBrackets:
    def test_bracket_is_sound(self):
        rnd = random.Random(41)
        for _ in range(200):
            q = rnd.randrange(3, 200)
            p = rnd.randrange(0, q)
            src = from_rational(p, q)
            m = Fraction(rnd.randrange(0, 65), 64)
            d = rnd.randrange(2, 30)
            a, b, side = distance_bracket(src, m, d)
            true_gap = abs(m - src.exact_value)
            assert a <= true_gap <= b
            if side:
                assert side == (1 if m > src.exact_value else -1)

    def test_gap_probe_proves_separation(self):
        probe = gap_probe(from_rational(1, 3), Fraction(3, 8), 64)
        assert probe.proven
        assert probe.side == 1
        assert 0 < probe.gap <= Fraction(3, 8) - Fraction(1, 3)

    def test_gap_probe_equal_masses_unresolved(self):
        probe = gap_probe(from_rational(1, 3), Fraction(1, 3), 64)
        assert not probe.proven
        assert probe.depth <= 64

    def test_unresolved_bound_is_literal(self):
        # m one tick above a dyadic target, beyond the probe horizon
        src = from_dyadic(Dyadic(1, 1))
        m = Fraction(1, 2) + Fraction(1, 1 << 100)
        probe = gap_probe(src, m, 64)
        assert not probe.proven
        assert abs(m - Fraction(1, 2)) < Fraction(1, 1 << probe.depth)

    def test_exclusive_endpoint_corner(self):
        src = from_dyadic(Dyadic(1, 1))
        m = Fraction(1, 2) + Fraction(1, 1 << 64)
        probe = gap_probe(src, m, 64)
        assert not probe.proven
        assert abs(m - Fraction(1, 2)) < Fraction(1, 1 << probe.depth)

    def test_target_stops_early(self):
        probe = gap_probe(from_rational(1, 3), Fraction(1, 2), 4096,
                          target=Fraction(1, 64))
        assert probe.proven
        assert probe.gap >= Fraction(1, 64)
        assert probe.depth <= 64

    def test_refine_doubles_then_clamps_to_the_cap(self):
        seen = []
        assert refine(3, 20, seen.append) == (None, 20)
        assert seen == [3, 6, 12, 20]
        assert refine(3, 20, lambda d: d if d > 5 else None) == (6, 6)
        assert refine(3, 20, lambda d: 0) == (0, 3)
        assert refine(30, 20, lambda d: d) == (20, 20)


class TestAdversarialMasses:
    def test_blocks_outgrow_plain_exponential(self):
        src = adversarial_mass(lambda n: Fraction(1 << n), 1, u1=4)
        runs = src.run_lengths
        assert [runs.u(k) for k in range(1, 6)] == [4, 2, 2, 2, 2]
        assert runs.a(2) == 6

    def test_blocks_scale_with_schedule(self):
        src = adversarial_mass(lambda n: Fraction(1 << (n + 2)), 1, u1=4)
        runs = src.run_lengths
        assert [runs.u(k) for k in range(1, 4)] == [4, 4, 4]

    def test_each_block_defeats_both_relevant_budgets(self):
        budget = lambda n: 3 * Fraction(1 << (2 * n))
        runs = adversarial_mass(budget, 1, u1=2).run_lengths
        for k in range(1, 6):
            a_k = runs.a(k)
            wall = Fraction(1 << runs.a(k + 1))
            assert wall > budget(a_k)
            assert wall > budget(a_k + 1)

    def test_u1_must_leave_one_honest_digit(self):
        with pytest.raises(ValueError):
            adversarial_mass(lambda n: Fraction(1 << n), 1, u1=0)

    def test_prefix_continuation_preserves_digits(self):
        runs = diagonal_run_lengths(lambda n: Fraction(1 << n), 1,
                                    initial_runs=[4, 2, 1], extend_last=True)
        src = from_run_lengths(runs)
        assert digits_of(src, 7) == "1111001"
        # stretched last block still diagonalizes: wall after a_2 = 6
        assert runs.u(3) == 2

    def test_closed_prefix_blocks_are_pinned(self):
        runs = diagonal_run_lengths(lambda n: Fraction(1 << n), 1,
                                    initial_runs=[4, 2, 3], extend_last=False)
        assert [runs.u(k) for k in (1, 2, 3)] == [4, 2, 3]
        assert runs.u(4) >= 1


class TestAffineImages:
    def test_digits_match_exact_value(self):
        src = affine_of_source(Fraction(1, 2), Fraction(1, 4), from_rational(1, 3))
        want = from_rational(7, 12)
        assert src.exact_value == Fraction(7, 12)
        assert digits_of(src, 40) == digits_of(want, 40)

    @settings(deadline=None)
    @given(kind=st.sampled_from(["dyadic", "rational"]),
           pq=st.integers(1, 300).flatmap(
               lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
           scale=st.tuples(st.integers(1, 32), st.integers(0, 6)),
           offset=st.tuples(st.integers(0, 64), st.integers(0, 6)))
    # 3/4 * 1/3 = 1/4: a dyadic image of a non-dyadic source
    @example(kind="rational", pq=(1, 3), scale=(3, 2), offset=(0, 0))
    def test_digits_match_exact_image(self, kind, pq, scale, offset):
        p, q = pq
        if kind == "dyadic":
            q = 1 << q.bit_length()
        sc = Fraction(scale[0], 1 << scale[1])
        off = Fraction(offset[0], 1 << offset[1])
        # the image of [0, 1) must stay inside [0, 1)
        assume(sc <= 1 and off + sc <= 1)
        mu = Fraction(p, q)
        src = from_dyadic(mu) if kind == "dyadic" else from_rational(p, q)
        image = off + sc * mu
        out = affine_of_source(off, sc, src)
        assert out.exact_value == image
        want = from_rational(image.numerator, image.denominator)
        assert digits_of(out, 48) == digits_of(want, 48)

    def test_rejects_images_outside_unit_interval(self):
        with pytest.raises(ValueError):
            affine_of_source(Fraction(3, 4), Fraction(1, 2), from_rational(2, 3))


class TestParsing:
    def test_parse_fraction(self):
        assert parse_fraction("1/3") == Fraction(1, 3)
        assert parse_fraction("0.25") == Fraction(1, 4)
        assert parse_fraction("7") == 7
        with pytest.raises(ValueError):
            parse_fraction("x/y")

    def test_inline_kinds(self):
        assert parse_mass_spec("rational:1/3").exact_value == Fraction(1, 3)
        assert parse_mass_spec("dyadic:5/16").exact_value == Fraction(5, 16)
        pat = parse_mass_spec("pattern:3,2,4;tail=cycle")
        assert pat.run_lengths.u(4) == 3

    def test_adversarial_needs_schedule(self):
        with pytest.raises(ValueError):
            parse_mass_spec("adversarial:u1=4")
        src = parse_mass_spec("adversarial:u1=4",
                              schedule_budget=lambda n: Fraction(1 << n), K=1)
        assert src.run_lengths.u(1) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_mass_spec("cheese:1/3")

    def test_mass_file(self, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text("# hidden target\nkind=rational p=2 q=7\n")
        src = load_mass_file(str(path))
        assert src.exact_value == Fraction(2, 7)

    def test_mass_file_rejects_unused_tokens(self, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text("kind=rational p=2 q=7 bogus=1\n")
        with pytest.raises(ValueError):
            load_mass_file(str(path))

    def test_file_kind_round_trip(self, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text("kind=pattern u=3,2 tail=repeat-last\n")
        src = parse_mass_spec(f"file:{path}")
        assert src.run_lengths.u(3) == 2
