import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collidersim.dyadic import Dyadic
from collidersim.sources import (RunLengths, adversarial_mass,
                                 affine_of_source, custom, diagonal_run_lengths,
                                 distance_bracket, from_dyadic, from_rational,
                                 from_run_lengths, load_mass_file,
                                 parse_mass_spec, refine, run_length_blocks)


def digits_of(src, depth):
    return "".join(str(src.digit_at(i)) for i in range(1, depth + 1))


def pattern_reference(values, tail, depth):
    """Digits of a run-length mass, written out run by run."""
    out = ""
    k = 0
    while len(out) < depth:
        k += 1
        if k <= len(values):
            u = values[k - 1]
        elif tail == "repeat-last":
            u = values[-1]
        elif tail == "cycle":
            u = values[(k - 1) % len(values)]
        else:
            u = int(tail.split(":")[1])
        out += str(k % 2) * u
    return out[:depth]


def period_edge(values, tail):
    """Digits in the preperiod and one period of a periodic run list: the
    symbols alternate, so an odd cycle of runs spells its digits twice."""
    if tail == "cycle":
        return sum(values) << (len(values) & 1)
    c = values[-1] if tail == "repeat-last" else int(tail.split(":")[1])
    return sum(values) + 2 * c


def affine_reference(off, sc, src, depth):
    """First `depth` digits of off + sc * mu as an integer, each digit
    settled on its own from the Fraction bracket of a prefix of mu."""
    out = 0
    for n in range(1, depth + 1):
        cap = max(n + 2, 1 << 20)
        d = n + 2
        while True:
            lo = Fraction(src.prefix_int(d), 1 << d)
            a = off + sc * lo
            b = a + sc / (1 << d)
            if not (0 <= a and b <= 1):
                raise ValueError("affine image leaves [0, 1]")
            bit_a = (a.numerator << n) // a.denominator
            bit_b = ((b.numerator << n) - 1) // b.denominator
            if bit_a == bit_b:
                out = out << 1 | bit_a & 1
                break
            if d >= cap:
                raise RuntimeError("affine digit did not settle within 2**20 source "
                                   "digits; the image may be dyadic")
            d = min(2 * d, cap)
    return out


def outcome(read, depth):
    try:
        return read(depth)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_rational(4, 3)

    def test_from_dyadic_rejects_one_third(self):
        with pytest.raises(ValueError, match=r"^1/3 is not dyadic \(denominator 3\)$"):
            from_dyadic(Fraction(1, 3))


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

    @pytest.mark.parametrize("values, tail, good", [
        ([0, 2], "cycle", 2),        # the cycle repeats the empty first run
        ([2, 3], "constant:0", 5),   # the tail repeats an empty run
    ])
    def test_a_tail_repeating_an_empty_run_fails_at_its_digit(self, values, tail, good):
        src = from_run_lengths(RunLengths.from_list(values, tail=tail))
        assert src.prefix_int(good) == int(pattern_reference(values, tail, good), 2)
        for depth in (good + 1, 4 * good + 8):
            with pytest.raises(ValueError, match=r"^u_3 must be >= 1, got 0$"):
                src.prefix_int(depth)
        deep = from_run_lengths(RunLengths.from_list(values, tail=tail))
        with pytest.raises(ValueError, match=r"^u_3 must be >= 1, got 0$"):
            deep.prefix_int(64)

    def test_pattern_digits_alternate_by_block(self):
        src = from_run_lengths([2, 3, 1])
        # blocks: 11 000 1, then repeat-last tail 0 1 0 ...
        assert digits_of(src, 10) == "1100010101"

    def test_covering_survives_deep_materialization(self):
        # materializing block lengths past the query (as any diagnostic
        # pass does) must not change which block covers a digit
        runs = RunLengths.from_list([2, 3, 1])
        runs.u(7)
        src = from_run_lengths(runs)
        assert digits_of(src, 10) == "1100010101"

    @settings(max_examples=200, deadline=None)
    @given(u1=st.integers(0, 5), later=st.lists(st.integers(1, 6), max_size=4),
           tail=st.sampled_from(["repeat-last", "cycle", "constant:1", "constant:4"]),
           data=st.data())
    @example(u1=0, later=[2, 1], tail="repeat-last", data=None)
    @example(u1=3, later=[2, 4], tail="cycle", data=None)
    def test_blocks_match_digit_by_digit_reference(self, u1, later, tail, data):
        values = [u1] + later
        # an empty run is only valid first: no tail may repeat it
        assume(u1 or (later and tail != "cycle"))
        ref = pattern_reference(values, tail, 96)
        edges = [0]
        for v in values + values:
            edges.append(edges[-1] + v)
        near = sorted({e + d for e in edges for d in (-1, 0, 1) if 0 <= e + d <= 96})
        if data is None:  # deep, then shallow, then deeper, past every seed run
            reads = [edges[len(values)] + 1, 1, 96]
        else:
            depth = st.one_of(st.sampled_from(near), st.integers(0, 96))
            lo, mid, hi = sorted(data.draw(st.lists(depth, min_size=3, max_size=3)))
            reads = [mid, lo, hi] + data.draw(st.lists(depth, max_size=3))
        src = from_run_lengths(RunLengths.from_list(values, tail=tail))
        deepest = 0
        for d in reads:
            assert src.prefix_int(d) == int(ref[:d] or "0", 2)
            if d:
                assert src.digit_at(d) == int(ref[d - 1])
            deepest = max(deepest, d)
            assert src._depth <= deepest  # a block never reads past a request
        fresh = from_run_lengths(RunLengths.from_list(values, tail=tail))
        assert digits_of(fresh, 96) == ref

    @settings(max_examples=200, deadline=None)
    @given(u1=st.integers(0, 5), later=st.lists(st.integers(1, 6), max_size=4),
           tail=st.sampled_from(["repeat-last", "cycle", "constant:1", "constant:3"]),
           data=st.data())
    @example(u1=1, later=[], tail="cycle", data=None)
    @example(u1=0, later=[2, 1, 3], tail="constant:1", data=None)
    def test_periodic_reads_match_digit_by_digit_reference(self, u1, later, tail, data):
        values = [u1] + later
        assume(u1 or (later and tail != "cycle"))
        pre = 0 if tail == "cycle" else sum(values)
        edge = period_edge(values, tail)
        top = 4 * edge + 8
        ref = pattern_reference(values, tail, top)
        near = sorted({e + d for e in (pre, edge, 2 * edge - pre, 4 * edge - 3 * pre)
                       for d in (-1, 0, 1) if 0 <= e + d <= top})
        if data is None:  # past the period first, then inside it, then deeper
            reads = [edge + 1, 1, edge, top]
        else:
            depth = st.one_of(st.sampled_from(near), st.integers(0, top))
            reads = data.draw(st.lists(depth, min_size=1, max_size=6)) + [top]
        src = from_run_lengths(RunLengths.from_list(values, tail=tail))
        deepest = 0
        for d in reads:
            assert src.prefix_int(d) == int(ref[:d] or "0", 2)
            deepest = max(deepest, d)
            assert src._depth <= deepest  # no read goes past a request
        assert src.describe() == {"kind": "pattern",
                                  "runs": f"list={','.join(map(str, values))} tail={tail}"}
        assert src.exact_value is None

    def test_huge_run_is_clamped_to_the_request(self):
        # without the clamp the second block alone would be 2**40 bits
        runs = RunLengths(lambda k: 3 if k == 1 else 1 << 40)
        src = from_run_lengths(runs)
        assert src.interval(64)[0] == Fraction(7, 8)
        assert src._prefix.bit_length() <= 64

    def test_huge_period_run_is_never_built(self):
        # the period is the run 2**40 twice: it must not be read whole
        src = from_run_lengths(RunLengths.from_list([3, 1 << 40]))
        assert src.prefix_int(64) == 7 << 61
        assert src._prefix.bit_length() <= 64

    def test_run_length_extraction_inverts(self):
        src = from_run_lengths([2, 3, 1, 4])
        # a block counts as complete only once the flip ending it is seen,
        # so the view must reach into block five
        for depth, complete in ((11, [2, 3, 1, 4]), (10, [2, 3, 1]), (9, [2, 3, 1])):
            assert run_length_blocks(digits_of(src, depth))[:-1] == complete


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

    def test_refine_doubles_then_clamps_to_the_cap(self):
        seen = []

        def settle(d):
            # an open question at the cap must stop the search, not repeat it
            assert len(seen) < 10, "refine read past its cap"
            seen.append(d)

        assert refine(3, 20, settle) == (None, 20)
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
        runs = diagonal_run_lengths(lambda n: Fraction(1 << n), 1, [4, 2, 1])
        src = from_run_lengths(runs)
        assert digits_of(src, 7) == "1111001"
        # stretched last block still diagonalizes: wall after a_2 = 6
        assert runs.u(3) == 2

    def test_closed_prefix_blocks_are_pinned(self):
        # blocks before the last seed block are kept; the last may only grow
        runs = diagonal_run_lengths(lambda n: Fraction(1 << n), 1, [4, 2, 3])
        assert [runs.u(k) for k in (1, 2)] == [4, 2]
        assert runs.u(3) >= 3
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

    @settings(deadline=None)
    @given(kind=st.sampled_from(["pattern", "custom"]),
           values=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           tail=st.sampled_from(["repeat-last", "cycle", "constant:2"]),
           seed=st.integers(0, 1 << 32),
           # about a third of these images leave [0, 1]
           off=st.tuples(st.integers(-2, 24), st.sampled_from([1, 3, 5]), st.integers(2, 6)),
           sc=st.tuples(st.integers(1, 24), st.sampled_from([1, 3, 5]), st.integers(2, 6)),
           reads=st.lists(st.integers(0, 64), min_size=1, max_size=4))
    # 2/3 * 3/8 = 1/4: a dyadic image, which no prefix settles
    @example(kind="pattern", values=[1, 1], tail="cycle", seed=0, off=(0, 1, 0),
             sc=(3, 1, 3), reads=[3])
    # inside [0, 1], but the image of the depth-3 cell is not
    @example(kind="pattern", values=[1, 1], tail="cycle", seed=0, off=(1, 1, 1),
             sc=(45, 1, 6), reads=[40, 2])
    def test_images_match_digit_by_digit_settle(self, kind, values, tail, seed,
                                                off, sc, reads):
        def source():
            if kind == "pattern":
                return from_run_lengths(RunLengths.from_list(values, tail=tail))
            return custom(lambda n: (seed * n * 0x9E3779B97F4A7C15 >> 29) & 1)

        off = Fraction(off[0], off[1] << off[2])
        sc = Fraction(sc[0], sc[1] << sc[2])
        image = affine_of_source(off, sc, source())
        for n in reads:
            want = outcome(lambda d: affine_reference(off, sc, source(), d), n)
            assert outcome(image.prefix_int, n) == want
        assert image.describe() == {"kind": "affine"}

    def test_rejects_images_outside_unit_interval(self):
        with pytest.raises(ValueError):
            affine_of_source(Fraction(3, 4), Fraction(1, 2), from_rational(2, 3))


class TestParsing:
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

    @pytest.mark.parametrize("line, unused", [
        ("kind=rational p=2 q=7 bogus=1", "bogus"),   # no kind reads it
        ("kind=rational p=2 q=7 u=5", "u"),           # a pattern's key
    ], ids=["unknown-key", "key-of-another-kind"])
    def test_mass_file_rejects_unused_tokens(self, line, unused, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError) as exc:
            load_mass_file(str(path))
        assert str(exc.value) == f"{path}:1: unused tokens [{unused!r}]"

    def test_mass_file_of_comments_only(self, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text("# hidden target\n\n# kind=rational p=2 q=7\n")
        with pytest.raises(ValueError) as exc:
            load_mass_file(str(path))
        assert str(exc.value) == f"{path}: no mass specification found"

    @pytest.mark.parametrize("line, key", [("kind=rational q=3", "p"),
                                           ("kind=pattern", "u")])
    def test_mass_file_names_a_missing_key(self, line, key, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text(f"# hidden target\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_mass_file(str(path))
        assert str(exc.value) == f"{path}:2: missing key {key!r}"

    def test_file_kind_round_trip(self, tmp_path):
        path = tmp_path / "mass.txt"
        path.write_text("kind=pattern u=3,2 tail=repeat-last\n")
        src = parse_mass_spec(f"file:{path}")
        assert src.run_lengths.u(3) == 2

    @pytest.mark.parametrize("inline, line", [
        ("rational:2/6", "kind=rational p=1 q=3"),
        ("rational:0.25", "kind=rational p=1 q=4"),
        ("dyadic:5/16", "kind=dyadic value=5/16"),
        ("dyadic:5/16", "kind=dyadic num=5 exp=4"),
        ("pattern:3,2,4;tail=cycle", "kind=pattern u=3,2,4 tail=cycle"),
        ("pattern:0,2", "kind=pattern u=0,2"),
        ("pattern:1; tail=constant:3", "kind=pattern u=1 tail=constant:3"),
        ("advice:TABLE", "kind=advice file=TABLE"),
        ("adversarial:u1=3", "kind=adversarial u1=3"),
        ("adversarial:", "kind=adversarial"),
    ])
    def test_inline_spec_is_shorthand_for_a_file_line(self, inline, line, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("1\t1\n2\t10\n4\t101\n")
        path = tmp_path / "mass.txt"
        path.write_text(line.replace("TABLE", str(table)) + "\n")
        run = {"schedule_budget": lambda n: Fraction(1 << (n + 1)), "K": 3}
        short = parse_mass_spec(inline.replace("TABLE", str(table)), **run)
        long = load_mass_file(str(path), **run)
        assert short.describe() == long.describe()
        assert short.prefix_int(64) == long.prefix_int(64)

    @pytest.mark.parametrize("spec, message", [
        ("pattern:3,2;x=1", "unused tokens ['x']"),
        ("pattern:3,2;cycle", "token 'cycle' is not key=value"),
        ("pattern:3;u=4", "token 'u=4' repeats the run list"),
        ("adversarial:u1=4,x=1", "unused tokens ['x']"),
        ("adversarial:u1=3,u1=6", "key 'u1' repeats"),
        ("adversarial:u1", "token 'u1' is not key=value"),
        ("rational", "mass spec 'rational' needs the form kind:args"),
    ])
    def test_bad_inline_options_fail_in_the_file_words(self, spec, message):
        with pytest.raises(ValueError) as exc:
            parse_mass_spec(spec, schedule_budget=lambda n: Fraction(1 << n), K=1)
        assert str(exc.value) == message


class TestOneReader:
    """Every input text goes through one file reader and one key=value
    reader; a hand-rolled one elsewhere in the package fails here."""

    PACKAGE = Path(__file__).resolve().parent.parent / "src" / "collidersim"

    def calls(self, wanted):
        """(module, enclosing function) of every call that wanted(call) picks."""
        found = []
        for path in sorted(self.PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = [(node.name, node) for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and wanted(node):
                    # the innermost function whose body holds the call
                    inner = [name for name, f in scopes
                             if f.lineno <= node.lineno <= f.end_lineno]
                    found.append((path.stem, inner[-1] if inner else None))
        return found

    def test_only_read_input_opens_a_file_to_read(self):
        def read_open(call):
            if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
                return False
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            if mode is None:
                return True
            return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax"))

        assert self.calls(read_open) == [("sources", "read_input")]

    def test_only_the_key_value_reader_splits_at_equals(self):
        def split_at_equals(call):
            return (isinstance(call.func, ast.Attribute) and call.func.attr == "partition"
                    and any(isinstance(a, ast.Constant) and a.value == "=" for a in call.args))

        assert self.calls(split_at_equals) == [("sources", "_key_values")]
