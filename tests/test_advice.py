import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from collidersim.advice import (AdviceCorruptionError, GrowthBoundError,
                                PrefixFunction, advice_chunks, binarize_8bit,
                                code_binary, decode_advice, dyadic_gap_bound,
                                encode_advice, encoded_mass, read_bound)
from collidersim.dyadic import Dyadic


class TestTripleCode:
    def test_frozen_example(self):
        assert code_binary("00101") == "100100010100010"

    # a word of length 1 reads the content before the first separator,
    # which is f(1), inverted triple by triple
    def test_round_trip(self):
        gen = random.Random(3)
        for _ in range(50):
            bits = "".join(gen.choice("01") for _ in range(gen.randrange(12)))
            got = decode_advice(code_binary(bits) + "001", 1, 0, 12)
            assert got == (bits, 3 * len(bits) + 3)

    def test_corrupt_triples_rejected(self):
        for bad in ["000", "111", "110", "011", "101"]:
            with pytest.raises(AdviceCorruptionError, match=f"invalid triple '{bad}'"):
                decode_advice("010" + bad + "001", 1, 0, 4)
        with pytest.raises(AdviceCorruptionError):
            decode_advice("01010", 1, 0, 4)  # torn triple

    def test_binarize_8bit(self):
        assert binarize_8bit("A") == "01000001"
        assert binarize_8bit("ab") == "0110000101100010"


class TestPrefixFunction:
    def constant_table(self):
        return PrefixFunction.from_table([(0, ""), (4, "")])

    def test_step_lookup_from_table(self):
        f = PrefixFunction.from_table([(0, ""), (1, "1"), (4, "10")])
        assert f(0) == ""
        assert f(1) == "1"
        assert f(3) == "1"
        assert f(4) == "10"
        assert f(100) == "10"  # table cap holds beyond the last key

    def test_repeated_key_is_refused(self):
        with pytest.raises(ValueError, match="^key 1 repeats$"):
            PrefixFunction.from_table([(0, ""), (1, "1"), (1, "10")])

    def test_prefix_property_enforced(self):
        with pytest.raises(ValueError):
            PrefixFunction.from_table([(0, "1"), (2, "0")])

    def test_non_binary_tables_are_binarized(self):
        f = PrefixFunction.from_table([(0, ""), (1, "a"), (2, "ab")])
        assert f(1) == binarize_8bit("a")
        assert f(2) == binarize_8bit("ab")

    def test_growth_bound_enforced_at_encoding(self):
        # |f(2^j)| must stay within a*j + b; a table can violate it
        f = PrefixFunction.from_table([(0, ""), (2, "111111")], a=1, b=1)
        with pytest.raises(GrowthBoundError):
            encode_advice(f, 4)

    def test_rejects_non_binary_output(self):
        f = PrefixFunction(lambda n: "2" * n, a=Fraction(1), b=Fraction(1),
                           stable_from=1)
        with pytest.raises(ValueError):
            f(1)


class TestEncoding:
    def test_frozen_single_bit_table(self):
        f = PrefixFunction.from_table([(0, ""), (1, "1")])
        src = encoded_mass(f)
        digits = "".join(str(src.digit_at(i)) for i in range(1, 13))
        assert digits == "010001001001"
        assert src.exact_value == Fraction(15, 56)

    def test_constant_empty_function(self):
        f = PrefixFunction.from_table([(0, "")])
        src = encoded_mass(f)
        assert src.exact_value == Fraction(1, 7)
        # pure separator stream: 001 001 001 ...
        digits = "".join(str(src.digit_at(i)) for i in range(1, 10))
        assert digits == "001001001"

    def test_stable_function_value_closed_form(self):
        f = PrefixFunction.from_table([(0, ""), (2, "01"), (8, "0110")])
        src = encoded_mass(f)
        head = encode_advice(f, 3)  # stable from 8 = 2**3
        assert src.exact_value == \
            Fraction(7 * int(head, 2) + 1, 7 * (1 << len(head)))

    def test_chunks_cover_increasing_powers(self):
        f = PrefixFunction.from_table([(0, ""), (1, "0"), (2, "01"),
                                       (4, "011")])
        chunks = advice_chunks(f)
        assert next(chunks) == ""            # c(f(0)), empty advice
        assert next(chunks) == code_binary("0") + "001"
        assert next(chunks) == code_binary("1") + "001"
        assert next(chunks) == code_binary("1") + "001"

    def test_encoding_probes_only_powers_of_two(self):
        calls = []

        def fn(n):
            calls.append(n)
            return ""

        f = PrefixFunction(fn, a=Fraction(1), b=Fraction(0), stable_from=1)
        src = encoded_mass(f)
        src.digit_at(500)
        assert calls
        assert all(n == 0 or n & (n - 1) == 0 for n in calls)


def table_value(table, n):
    value = ""
    for key, bits in table:
        if key <= n:
            value = bits
    return value


def advice_reference(table, depth):
    """The encoding of a step table, triple by triple, and its chunk edges."""
    code = {"0": "100", "1": "010"}
    prev = table_value(table, 0)
    out = "".join(code[b] for b in prev)
    edges = [len(out)]
    j = 0
    while len(out) < depth:
        cur = table_value(table, 1 << j)
        for b in cur[len(prev):]:
            out += code[b]
        out += "001"
        edges.append(len(out))
        prev = cur
        j += 1
    return out[:depth], edges


@st.composite
def step_tables(draw):
    keys = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=5)))
    bits = ""
    table = []
    for key in keys:
        bits += draw(st.text("01", max_size=3))
        table.append((key, bits))
    return table


class TestBlockReads:
    @settings(max_examples=150, deadline=None)
    @given(table=step_tables(), stable=st.booleans(), data=st.data())
    @example(table=[(0, ""), (1, "1")], stable=False, data=None)
    @example(table=[(0, "01"), (3, "0110")], stable=True, data=None)
    def test_prefixes_match_digit_by_digit_reference(self, table, stable, data):
        ref, edges = advice_reference(table, 160)
        f = PrefixFunction.from_table(table)
        if not stable:  # the same steps behind an opaque callable
            f = PrefixFunction(f, f.a, f.b)
        src = encoded_mass(f)
        assert (src.exact_value is not None) == stable
        near = sorted({e + d for e in edges for d in (-1, 0, 1) if 0 <= e + d <= 160})
        if data is None:  # deep, then shallow, then deeper
            reads = [edges[2] + 1, 2, 160]
        else:
            depth = st.one_of(st.sampled_from(near), st.integers(0, 160))
            lo, mid, hi = sorted(data.draw(st.lists(depth, min_size=3, max_size=3)))
            reads = [mid, lo, hi]
        for d in reads:
            assert src.prefix_int(d) == int(ref[:d] or "0", 2)
            if d:
                assert src.digit_at(d) == int(ref[d - 1])
        assert "".join(str(src.digit_at(i)) for i in range(1, 161)) == ref


class TestDecoding:
    def test_read_bound_frozen(self):
        # word length 8 -> m = 3: 3*floor(a*m+b) payload + 3*(m+1) separator
        assert read_bound(8, Fraction(1), Fraction(1)) == 3 * 4 + 3 * 4

    def test_round_trip_through_stream(self):
        f = PrefixFunction.from_table([(0, ""), (1, "1"), (2, "10"),
                                       (4, "101"), (8, "1011")])
        src = encoded_mass(f)
        for w in (1, 2, 3, 5, 8):
            m = (w - 1).bit_length()
            bound = read_bound(w, f.a, f.b)
            bits, consumed = decode_advice(format(src.prefix_int(bound), f"0{bound}b"),
                                           w, f.a, f.b)
            assert bits == f(1 << m)
            assert consumed <= bound

    def test_decode_from_string(self):
        coded = code_binary("1") + "001" + code_binary("0") + "001"
        bits, consumed = decode_advice(coded, 2, Fraction(1), Fraction(1))
        assert bits == "10"
        assert consumed == len(coded)

    def test_short_string_is_corrupt(self):
        with pytest.raises(AdviceCorruptionError):
            decode_advice(code_binary("1"), 2, Fraction(1), Fraction(1))

    def test_overrun_is_corrupt(self):
        # a stream that never yields a separator exhausts the read bound
        coded = code_binary("0" * 40)
        with pytest.raises(AdviceCorruptionError):
            decode_advice(coded, 4, Fraction(1), Fraction(1))

    def test_invalid_triple_is_corrupt(self):
        with pytest.raises(AdviceCorruptionError):
            decode_advice("111" + "001", 1, Fraction(1), Fraction(1))


class TestGapBound:
    def test_closed_form(self):
        assert dyadic_gap_bound(3) == Fraction(1, 256)

    def test_separation_holds_for_sampled_tables(self):
        # run-length discipline: <= 4 zeros, <= 2 ones in a row, so every
        # encoded mass stays this far from every dyadic of the same scale
        gen = random.Random(11)
        for _ in range(25):
            bits = "".join(gen.choice("01") for _ in range(gen.randrange(6)))
            table = [(0, ""), (1, bits)] if bits else [(0, "")]
            src = encoded_mass(PrefixFunction.from_table(table))
            for n in range(1, 12):
                grid = Fraction(src.prefix_int(n), 1 << n)
                for point in (grid, grid + Fraction(1, 1 << n)):
                    assert abs(src.exact_value - point) > dyadic_gap_bound(n) \
                        or abs(src.exact_value - point) == 0


class TestTableFiles:
    def test_directives_and_lookup(self, tmp_path):
        path = tmp_path / "advice.tsv"
        path.write_text(
            "# a=2\n"
            "# b=3\n"
            "# alphabet=binary\n"
            "0\t\n"
            "1\t1\n"
            "4\t10\n",
            encoding="utf-8",
        )
        f = PrefixFunction.from_table_file(str(path))
        assert f.a == 2 and f.b == 3
        assert f(2) == "1"
        assert f(6) == "10"

    def test_text_alphabet_is_binarized(self, tmp_path):
        path = tmp_path / "advice.tsv"
        path.write_text("# alphabet=text\n0\t\n1\thi\n", encoding="utf-8")
        f = PrefixFunction.from_table_file(str(path))
        assert f(1) == binarize_8bit("hi")

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_file_matches_from_table(self, data, tmp_path):
        alphabet = data.draw(st.sampled_from(["text", "binary"]))
        chars = "01" if alphabet == "binary" else "01ab \t#=é"
        value, pairs = "", []
        for n in sorted(data.draw(st.sets(st.integers(0, 1500), max_size=6))):
            value += data.draw(st.text(chars, max_size=3))
            pairs.append((n, value))
        a = data.draw(st.fractions(min_value=0, max_value=8))
        b = data.draw(st.fractions(min_value=0, max_value=40))
        directives = [f"a={a}", f"b={b}", f"alphabet={alphabet}"]
        if data.draw(st.booleans()):
            directives = [" ".join(directives)]
        comments = data.draw(st.lists(st.text("ab #\t", max_size=6), max_size=3))
        lines = data.draw(st.permutations(
            [f"# {d}" for d in directives] + [f"  #{c}" for c in comments]
            + [f"{n}\t{v}" for n, v in pairs]))
        path = tmp_path / "advice.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        f = PrefixFunction.from_table_file(str(path))
        want = PrefixFunction.from_table(pairs, a, b, binarize=alphabet == "text")
        assert (f.a, f.b) == (want.a, want.b)
        assert [f(n) for n in range(1025)] == [want(n) for n in range(1025)]

    @pytest.mark.parametrize("text, message", [
        ("# alphabet=txt\n0\t\n1\t01\n", "1: alphabet must be text or binary, got 'txt'"),
        ("# this table has b=2 in prose\n0\t\n1\t1\n", "1: token 'this' is not key=value"),
        ("# a=1 bogus c=3\n0\t\n", "1: token 'bogus' is not key=value"),
        ("# a=1 c=3\n0\t\n", "1: unused tokens ['c']"),
        ("# b=2\n0\t\n# a=1 b=9\n", "3: key 'b' repeats line 1"),
        ("0\t\n1\t1\n1\t10\n", "3: key 1 repeats line 2"),
        ("0\t\nx\t1\n", "2: invalid literal for int() with base 10: 'x'"),
        ("# b=4\n-1\t1\n", "2: table keys must be nonnegative"),
        ("0\t\n1 1\n", "2: expected n<TAB>value"),
    ])
    def test_misread_lines_are_refused_with_their_place(self, text, message, tmp_path):
        path = tmp_path / "advice.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            PrefixFunction.from_table_file(str(path))
        assert str(exc.value) == f"{path}:{message}"
