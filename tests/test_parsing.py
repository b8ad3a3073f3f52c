import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane.errors import (
    BQError,
    DigitLimitExceeded,
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    InvalidField,
    NotOrthogonal,
    ParseError,
)
from bqplane.fields import (
    PrimeField,
    Q,
    QuadExt,
    tower_levels,
)
from bqplane.geometry import Point, all_points
from bqplane.maps import MapTable
from bqplane.parsing import (
    format_element,
    format_point,
    format_table_lines,
    parse_element,
    parse_field,
    parse_map,
    parse_point,
    parse_table_lines,
)
from bqplane.parsing import _parse_pair
from helpers import from_coeff_vector

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
QS2I = QuadExt(QuadExt(Q, 2), -1)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
vectors = st.lists(fractions, min_size=4, max_size=4)


class TestFieldDescriptors:
    @pytest.mark.parametrize("text", [
        "Q",
        "GF(13)",
        "GF(17)",
        "Q[i]",
        "Q[sqrt 2]",
        "Q[sqrt 2][i]",
        "Q[sqrt 2][sqrt 3]",
        "Q[sqrt 2][sqrt (1 + r1)]",
    ])
    def test_round_trip(self, text):
        k = parse_field(text)
        assert parse_field(k.describe()) == k

    def test_shorthand_i_is_sqrt_minus_one(self):
        assert parse_field("Q[i]") == parse_field("Q[sqrt -1]")

    def test_whitespace_insensitive(self):
        assert parse_field(" GF( 13 ) ") == PrimeField(13)

    @pytest.mark.parametrize("text", [
        "GF(6)",        # composite
        "GF(5)",        # excluded small characteristic
        "GF(19)",       # 3 mod 4 not accepted through the descriptor
        "Q[sqrt 4]",    # radicand already a square
        "Q[sqrt 0]",
    ])
    def test_rejected_descriptors(self, text):
        with pytest.raises(InvalidField):
            parse_field(text)

    @pytest.mark.parametrize("text", ["", "GF(", "Q[", "Q[sqrt]", "Q extra", "R"])
    def test_malformed_descriptors(self, text):
        with pytest.raises(ParseError):
            parse_field(text)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_field("GF(x)")
        assert exc.value.position == 3


class TestElements:
    @given(vectors)
    def test_print_parse_round_trip(self, vec):
        x = from_coeff_vector(QS2I, vec)
        assert parse_element(format_element(x), QS2I) == x

    def test_explicit_forms(self):
        x = parse_element("1/2 + 3/2*r1 - 2*i", QS2I)
        assert x == from_coeff_vector(QS2I, [Fraction(1, 2), Fraction(3, 2), -2, 0])
        assert format_element(x) == "1/2 + 3/2*r1 - 2*i"

    def test_products_and_parens(self):
        assert parse_element("(1 + i)*(1 - i)", QS2I) == QS2I(2)
        assert parse_element("r1*r1", QS2I) == QS2I(2)
        assert parse_element("-3", QS2I) == QS2I(-3)

    def test_prime_field_division(self, gf13):
        assert parse_element("7/2", gf13) == gf13(10)

    def test_radical_names_need_matching_level(self, gf13):
        with pytest.raises(ParseError):
            parse_element("r1", gf13)
        with pytest.raises(ParseError):
            parse_element("i", parse_field("Q[sqrt 2]"))
        with pytest.raises(ParseError):
            parse_element("r3", QS2I)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_element("1/0", Q)

    def test_format_normalizes(self):
        assert format_element(QS2I.zero) == "0"
        assert format_element(QS2I(-1) / QS2I(2)) == "-1/2"
        assert format_element(from_coeff_vector(QS2I, [0, 0, 0, 1])) == "r1*i"

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python prints integers of any length")
    def test_coefficient_over_the_digit_limit_is_refused(self):
        n = DIGIT_LIMIT
        assert format_element(QS2I(10 ** n - 1)) == "9" * n
        for x, digits in [
            (QS2I(10 ** n), n + 1),
            (QS2I(Fraction(-1, 10 ** (n + 4))), n + 5),
            (from_coeff_vector(QS2I, [1, 0, 0, 7 * 10 ** (n + 2) + 3]), n + 3),
        ]:
            with pytest.raises(DigitLimitExceeded) as info:
                format_element(x)
            assert str(info.value) == (f"cannot print a coefficient of {digits} digits:"
                                       f" integers print with at most {n} digits")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python prints integers of any length")
    def test_each_coefficient_prints_in_lowest_terms(self):
        # the joint denominator 2^a 5^b is over the limit, each coefficient's is not
        a, b = 3 * DIGIT_LIMIT, 13 * DIGIT_LIMIT // 10
        x = from_coeff_vector(QS2I, [Fraction(1, 2 ** a), Fraction(-1, 5 ** b), 0, 0])
        assert x.rep.den == 2 ** a * 5 ** b
        assert format_element(x) == f"1/{2 ** a} - 1/{5 ** b}*r1"


class TestPoints:
    @given(vectors, vectors)
    def test_round_trip(self, v1, v2):
        pt = Point(from_coeff_vector(QS2I, v1), from_coeff_vector(QS2I, v2))
        assert parse_point(format_point(pt), QS2I) == pt

    def test_explicit(self):
        pt = parse_point("(1/2, -3)", Q)
        assert pt == Point(Q(Fraction(1, 2)), Q(-3))

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_point("(1, 2", Q)
        with pytest.raises(ParseError):
            parse_point("1, 2", Q)


class TestMapExpressions:
    @pytest.mark.parametrize("text", [
        "translate(1, 2)",
        "rot(3/5, 4/5)",
        "refl(0, 1)",
        "lambda(2)",
        "hom(id)",
        "hom(conj@2)",
        "swap",
        "translate(1, 2) . rot(0, 1) . hom(conj@1)",
    ])
    def test_print_parse_round_trip(self, text):
        expr = parse_map(text, QS2I)
        assert parse_map(str(expr), QS2I) == expr

    def test_xi_eta_atoms(self, qi):
        expr = parse_map("eta . swap . xi", qi)
        assert [a.kind for a in expr.parts] == ["eta", "swap", "xi"]

    def test_rightmost_atom_listed_last(self):
        expr = parse_map("translate(1, 0) . rot(0, 1)", Q)
        assert expr.parts[-1].kind == "rot"

    def test_rotation_parameters_must_be_unit(self):
        with pytest.raises(NotOrthogonal):
            parse_map("rot(1, 1)", Q)
        with pytest.raises(NotOrthogonal):
            parse_map("refl(3, 4)", Q)

    def test_unknown_atom(self):
        with pytest.raises(ParseError):
            parse_map("spin(1, 0)", Q)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_map("swap swap", Q)


class TestTableFiles:
    def test_round_trip(self, gf13):
        raw = [(b % 13) * 13 + a % 13 for a in range(13) for b in range(13)]
        text = format_table_lines(MapTable(gf13, raw))
        assert parse_table_lines(text, gf13) == raw

    def test_comments_and_blanks(self, gf13):
        text = "# header\n\n0,0 -> 1,2   # inline note\n"
        assert parse_table_lines(text, gf13) == [1 * 13 + 2] + [None] * 168

    def test_missing_arrow_reports_line(self, gf13):
        with pytest.raises(ParseError) as exc:
            parse_table_lines("0,0 -> 1,2\n3,3 4,4\n", gf13)
        assert "line 2" in str(exc.value)

    def test_bad_element_propagates(self, gf13):
        with pytest.raises(ParseError):
            parse_table_lines("0,0 -> 1,r1\n", gf13)

    def test_malformed_line_messages(self, gf13):
        for text, error, message in [
            ("1,2 -> 3\n", ParseError,
             "line 1: expected ',', found 'end of input' (at position 2)"),
            ("1,2 -> 3,4\n\n1, 2 -> 0,0\n", ParseError,
             "line 3: point (1, 2) already mapped on line 1"),
            ("0,0 -> 1/13,0\n", DivisionByZero,
             "line 1: denominator divisible by 13"),
            ("# 1/13\n\n2,2 -> 0,0\n1/26,0 -> 0,0\n", DivisionByZero,
             "line 4: denominator divisible by 13"),
        ]:
            with pytest.raises(error) as exc:
                parse_table_lines(text, gf13)
            assert str(exc.value) == message

    def test_tables_need_a_finite_field(self):
        with pytest.raises(FieldNotFinite, match="^map tables need a finite field$"):
            parse_table_lines("0,0 -> 0,0\n", Q)

    def test_holes_are_refused_by_the_table(self, gf13):
        with pytest.raises(FieldMismatch, match=r"cover all 169 points"):
            MapTable(gf13, parse_table_lines("0,0 -> 1,2\n", gf13))

    @pytest.mark.parametrize("p, seed", [(13, 1), (13, 2), (17, 0), (29, 3)])
    def test_format_is_the_point_table_format(self, p, seed, point_table_text):
        k = PrimeField(p)
        rng = random.Random(seed)
        raw = [rng.randrange(p * p) for _ in range(p * p)]
        pts = all_points(k)
        want = point_table_text({pts[i]: pts[raw[i]] for i in range(p * p)})
        assert format_table_lines(MapTable(k, raw)) == want


# ------------------------- index tables against the point-table reader

def _reference_table(text, k):
    """Table lines read as tables were read when they held points: every
    side through the element parser, into a point-to-point dict.  Errors
    name their line, and a point given twice is refused."""
    table, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: missing '->'")
        lhs, rhs = line.split("->", 1)
        try:
            src, dst = _parse_pair(lhs, k), _parse_pair(rhs, k)
        except BQError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
        if src in line_of:
            raise ParseError(f"line {lineno}: point {format_point(src)}"
                             f" already mapped on line {line_of[src]}")
        line_of[src] = lineno
        table[src] = dst
    return table


def _reading(reader, text, k):
    """The index table a reader gives, or its error's type and message."""
    try:
        table = reader(text, k)
    except BQError as exc:
        return type(exc), str(exc)
    if isinstance(table, dict):
        p = k.p
        raw = [None] * (p * p)
        for src, dst in table.items():
            raw[src.x1.rep * p + src.x2.rep] = dst.x1.rep * p + dst.x2.rep
        return raw
    return table


def _same_reading(text, k):
    got = _reading(parse_table_lines, text, k)
    assert got == _reading(_reference_table, text, k)
    assert got == _reading(_table_by_line_match, text, k)
    assert got == _reading(_table_by_block_reader, text, k)
    assert got == _reading(_table_by_residue_cache, text, k)
    return got


class TestIntegerTableLines:
    @pytest.mark.parametrize("line", [
        "1,2 -> 3,4",
        "-1,-2 -> -14,-27",                 # negatives
        "13,40 -> 26,100",                  # residues >= p
        "007,0012 -> 000,01",               # leading zeros
        "\t3 ,\t4->  5 ,6\t",               # tabs and spaces
        "3,4 -> 5,6   # a comment, with -> in it",
        "123456789012345678,-9 -> 0,0",     # 18 digits: the former match's longest
        "1234567890123456789,0 -> 0,0",     # 19 digits: past the former match
        "1/2, 3 -> 4, -1",                  # fallback lines
        "- 1, 2 -> (3), 4*5",
        "1 + 1, 2 -> 3 - 4, -0",
    ])
    def test_same_table_as_the_parser(self, gf13, line):
        got = _same_reading(line + "\n", gf13)
        assert sum(v is not None for v in got) == 1

    @pytest.mark.parametrize("text", [
        "1,2 -> 3,4\n14,15 -> 0,0\n",       # the same point, written twice
        "0,0 -> 1,1\n# 0,0 -> 2,2\n1/2,0 -> 0,0\n7,0 -> 5,5\n",
        "0,0 -> 1/13,0\n",
        "0,0 -> 1,2\n\n3,r1 -> 0,0\n",
        "0,0 -> 1,2\n3,3 4,4\n",
        "0,0 -> 1,2\n5,5 -> 6,6\n",          # holes everywhere else
        "",
    ])
    def test_same_outcome_on_many_lines(self, gf13, text):
        _same_reading(text, gf13)

    def test_same_table_on_a_full_file(self, gf13):
        raw = [(3 * (i // 13) + 1) % 13 * 13 + (5 * i + 2) % 13 for i in range(169)]
        _same_reading(format_table_lines(MapTable(gf13, raw)), gf13)

    @given(st.lists(st.tuples(st.integers(-10**20, 10**20), st.integers(0, 3),
                              st.sampled_from(["", " ", "\t", "  "])),
                    min_size=4, max_size=4))
    def test_random_integer_lines(self, parts):
        k = PrimeField(29)
        sides = [f"{ws}{'-' if n < 0 else ''}{'0' * zeros}{abs(n)}{ws}"
                 for n, zeros, ws in parts]
        line = f"{sides[0]},{sides[1]} ->{sides[2]},{sides[3]}"
        _same_reading(line, k)
        _same_reading(f"{line}\n{line}\n", k)  # a duplicate on line 2



_INT_PAIR = re.compile(r"\s*(-?[0-9]{1,18})\s*,\s*(-?[0-9]{1,18})\s*")


def _side_index(s, k):
    p = k.p
    m = _INT_PAIR.fullmatch(s)
    if m is not None:
        return int(m[1]) % p * p + int(m[2]) % p
    pt = _parse_pair(s, k)
    return pt.x1.rep * p + pt.x2.rep


def _table_by_sides(text, k):
    """The table reader as it was before one match per line: every line
    split at '->', an integer-pair side read by a match of its own and
    any other side by the element parser."""
    p = k.p
    raw, line_of = [None] * (p * p), [0] * (p * p)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: missing '->'")
        lhs, rhs = line.split("->", 1)
        try:
            src, dst = _side_index(lhs, k), _side_index(rhs, k)
        except BQError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
        if line_of[src]:
            raise ParseError(f"line {lineno}: point ({src // p}, {src % p})"
                             f" already mapped on line {line_of[src]}")
        line_of[src] = lineno
        raw[src] = dst
    return raw


class TestOneMatchPerLine:
    @pytest.mark.parametrize("text", [
        "0,0 -> 1,2 # trailing\n1,1 -> 2,2#x -> y\n",
        "-1,-2 -> -14,-27\n13,40 -> 26,100\n-13,-0 -> 99,-99\n",
        "\t3 ,\t4->  5 ,6\t\n 4, 4 ->5,5\n\t\n5 , 5\t->\t6 , 6\n",
        "1,2 -> 3,4\n14,15 -> 0,0\n",         # a duplicate, both integer
        "1,2 -> 3,4\n1/1,2 -> 0,0\n",         # integer, then the parser's
        "1, 2 -> (3), 4\n14,2 -> 0,0\n",      # the parser's, then integer
        "0,0 -> 1,2\n1/2,0 -> 3,4\n2,2 -> -1,-1\n1, 5 -> 2*3, 1\n",
        "0,0 -> 1,2\n2,2 -> -1,-1\n3,r1 -> 0,0\n",
        "0,0 -> 1,2\n3,3 -> 4\n",
        "0,0 -> 1,2\n0,1 - > 1,1\n",
        "0,0 -> 1,2 -> 3,4\n",
        "0,0 -> 1,2\n0,1 -> 1/13,1\n",
    ])
    def test_same_table_or_error_as_reading_by_sides(self, gf13, text):
        got = _same_reading(text, gf13)
        assert got == _reading(_table_by_sides, text, gf13)

    def test_mixed_full_file(self):
        k = PrimeField(29)
        raw = [(5 * i + 3) % 841 for i in range(841)]
        lines = format_table_lines(MapTable(k, raw)).splitlines()
        for j in range(0, len(lines), 3):  # every third line in element syntax
            lhs, rhs = lines[j].split(" -> ")
            a, b = rhs.split(",")
            lines[j] = f"{lhs} -> {a} + 29, 2*{b} - {b}  # moved to the parser"
        text = "\n".join(lines) + "\n"
        assert _same_reading(text, k) == raw
        assert _reading(_table_by_sides, text, k) == raw


_INT = r"\s*(-?[0-9]{1,18})\s*"
_INT_LINE = re.compile(f"{_INT},{_INT}->{_INT},{_INT}")


def _table_by_line_match(text, k):
    """The table reader as it was before blocks: one match reads an
    all-integer line, the element parser any other line."""
    p = k.p
    raw, line_of = [None] * (p * p), [0] * (p * p)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _INT_LINE.fullmatch(line)
        if m is not None:
            src = int(m[1]) % p * p + int(m[2]) % p
            dst = int(m[3]) % p * p + int(m[4]) % p
        elif "->" not in line:
            raise ParseError(f"line {lineno}: missing '->'")
        else:
            try:
                src, dst = (pt.x1.rep * p + pt.x2.rep for pt in
                            (_parse_pair(side, k) for side in line.split("->", 1)))
            except BQError as exc:
                exc.args = (f"line {lineno}: {exc}",)
                raise
        if line_of[src]:
            raise ParseError(f"line {lineno}: point ({src // p}, {src % p})"
                             f" already mapped on line {line_of[src]}")
        line_of[src] = lineno
        raw[src] = dst
    return raw


class _Residues(dict):
    """x mod p times a scale, keyed by the digits of x: each residue from
    the start, any other integer of at most 18 digits once it is met."""

    def __init__(self, p, scale):
        super().__init__((str(r), r * scale) for r in range(p))
        self.p, self.scale = p, scale

    def __missing__(self, digits):
        if re.fullmatch("-?[0-9]{1,18}", digits) is None:
            raise KeyError(digits)
        value = self[digits] = int(digits) % self.p * self.scale
        return value


def _table_by_residue_cache(text, k):
    """The table reader as it was before it kept to canonical residues:
    one split whose coordinates are any integers of at most 18 digits,
    else one match per all-integer line and the element parser for any
    other line."""
    p = k.p
    raw = [None] * (p * p)
    pairs = _integer_block(text.splitlines(), _Residues(p, p), _Residues(p, 1))
    if pairs is not None:
        srcs, dsts = pairs
        for src, dst in zip(srcs, dsts):
            raw[src] = dst
        if p * p - raw.count(None) == len(srcs):
            return raw
    return _table_by_line_match(text, k)


_BLOCK = 64


def _table_by_block_reader(text, k):
    """The table reader as it was with blocks: 64 lines tokenized at once,
    a block that fails read line by line, and the text read again line by
    line on any error or repeated point, to name its line."""
    lines = text.splitlines()
    raw = _table_by_blocks(lines, k)
    return _table_by_line_match(text, k) if raw is None else raw


def _table_by_blocks(lines, k):
    p = k.p
    raw = [None] * (p * p)
    rows, cols = _Residues(p, p), _Residues(p, 1)
    mapped = 0
    for start in range(0, len(lines), _BLOCK):
        block = lines[start:start + _BLOCK]
        pairs = _integer_block(block, rows, cols)
        if pairs is None:
            try:
                pairs = _block_by_lines(block, rows, cols, k)
            except BQError:
                return None
        srcs, dsts = pairs
        mapped += len(srcs)
        for src, dst in zip(srcs, dsts):
            raw[src] = dst
    return raw if p * p - raw.count(None) == mapped else None


def _integer_block(block, rows, cols):
    if "#" in "".join(block):
        block = [line.split("#", 1)[0] for line in block]
    lines = list(filter(str.strip, block))
    m = len(lines)
    text = " | ".join(lines)
    if text.count(" -> ") != m:
        text = text.replace("->", " -> ")
    tokens = text.replace(",", " , ").split()
    if (len(tokens) != 8 * m - 1 or tokens[1::4].count(",") != 2 * m
            or tokens[3::8].count("->") != m):
        return None if m else ([], [])
    row, col = rows.__getitem__, cols.__getitem__
    try:
        return (list(map(operator.add, map(row, tokens[0::8]), map(col, tokens[2::8]))),
                list(map(operator.add, map(row, tokens[4::8]), map(col, tokens[6::8]))))
    except KeyError:
        return None


def _block_by_lines(block, rows, cols, k):
    p = k.p
    srcs, dsts = [], []
    for line in block:
        pairs = _integer_block([line], rows, cols)
        if pairs is None:
            line = line.split("#", 1)[0].strip()
            if "->" not in line:
                raise ParseError("missing '->'")
            src, dst = (pt.x1.rep * p + pt.x2.rep for pt in
                        (_parse_pair(side, k) for side in line.split("->", 1)))
            pairs = [src], [dst]
        srcs += pairs[0]
        dsts += pairs[1]
    return srcs, dsts


# every separator that str.splitlines splits at
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


def _full_table(p, seed):
    """The lines of a random table over GF(p), in ``format_table_lines``
    order, and the table they give."""
    rng = random.Random(seed)
    raw = [rng.randrange(p * p) for _ in range(p * p)]
    return format_table_lines(MapTable(PrimeField(p), raw)).splitlines(), raw


def _split_line(line):
    lhs, rhs = line.split(" -> ")
    return [int(v) for v in lhs.split(",") + rhs.split(",")]


def _spell(values, forms):
    """A table line from four integers, each through a form of its own."""
    x1, x2, y1, y2 = (form(v) for form, v in zip(forms, values))
    return f"{x1},{x2} -> {y1},{y2}"


# Lines around the 32nd, 64th and 128th, where a reader that cuts the
# text into chunks (such as the block reader above) would cut it, and
# the last lines of a GF(13) file.
_AT = [0, 1, 31, 32, 62, 63, 64, 65, 127, 128, 129, 167, 168]


class TestBlockReading:
    """Whole files give the table, or the error, of the line-by-line
    readers, of the block reader and of the residue-cache reader."""

    @pytest.mark.parametrize("end", _LINE_ENDS)
    def test_every_line_end(self, end):
        lines, raw = _full_table(13, 1)
        assert _same_reading(end.join(lines) + end, PrimeField(13)) == raw
        assert _same_reading(end.join(lines), PrimeField(13)) == raw

    def test_mixed_line_ends(self):
        lines, raw = _full_table(29, 2)
        rng = random.Random(5)
        text = "".join(line + rng.choice(_LINE_ENDS) for line in lines)
        assert _same_reading(text, PrimeField(29)) == raw

    @pytest.mark.parametrize("note", [
        "  # a comment after the data",
        "# -> 1,2 | 3,4",
        "\t#",
        "#, , , -> ->",
    ])
    def test_comments_after_data(self, note):
        lines, raw = _full_table(13, 3)
        text = "".join(f"{line}{note}\n" for line in lines)
        assert _same_reading(text, PrimeField(13)) == raw

    @pytest.mark.parametrize("filler", ["", " ", "\t \t", "\u3000", "\x1f", "# only a comment",
                                        "   # indented comment"])
    def test_blank_and_comment_lines(self, filler):
        lines, raw = _full_table(13, 4)
        for j in reversed(_AT):
            lines[j:j] = [filler, filler]
        text = "\n".join([filler] + lines + [filler]) + "\n"
        assert _same_reading(text, PrimeField(13)) == raw

    def test_whitespace_around_tokens(self):
        lines, raw = _full_table(13, 5)
        spaced = [f"\t{line.replace(',', ' ,  ').replace(' -> ', '->  ')} " if j % 2 else
                  line.replace(" -> ", "\u3000->\u3000") for j, line in enumerate(lines)]
        assert _same_reading("\n".join(spaced), PrimeField(13)) == raw

    @pytest.mark.parametrize("form", [
        lambda v: str(v + 13),                # residues >= p
        lambda v: str(v - 13),                # negatives
        lambda v: str(v - 13 * 10**6),
        lambda v: f"{v:05d}",                 # leading zeros
        lambda v: f"-0{13 - v}",
        lambda v: str(v + 13 * 10**16),       # 18 digits
        lambda v: str(v - 13 * 10**16),
        lambda v: str(v + 13 * 10**17),       # 19 digits: the element parser's
        lambda v: "0" * 18 + str(v),
    ])
    def test_integers_other_than_residues(self, form):
        lines, raw = _full_table(13, 6)
        for j in _AT:  # one coordinate changed, then all four
            forms = [str] * 4
            forms[j % 4] = form
            lines[j] = _spell(_split_line(lines[j]), forms)
        lines[100] = _spell(_split_line(lines[100]), [form] * 4)
        assert _same_reading("\n".join(lines) + "\n", PrimeField(13)) == raw
        every = [_spell(_split_line(line), [form] * 4) for line in lines]
        assert _same_reading("\n".join(every) + "\n", PrimeField(13)) == raw

    @pytest.mark.parametrize("first, again", [
        (0, 1), (2, 9), (5, 60), (63, 64), (0, 168), (30, 140), (129, 130), (167, 168),
    ])
    @pytest.mark.parametrize("spelling", ["same", "shifted", "expression"])
    def test_repeated_points(self, first, again, spelling):
        lines, _ = _full_table(13, 7)
        x1, x2, _, _ = _split_line(lines[first])
        y1, y2 = (3, 4)
        lines[again] = {
            "same": f"{x1},{x2} -> {y1},{y2}",
            "shifted": f"{x1 - 13},{x2 + 26} -> {y1},{y2}",
            "expression": f"({x1}), {x2} + 0 -> {y1},{y2}",
        }[spelling]
        got = _same_reading("\n".join(lines) + "\n", PrimeField(13))
        assert got == (ParseError, f"line {again + 1}: point ({x1}, {x2}) already mapped"
                                   f" on line {first + 1}")

    def test_first_error_in_line_order(self):
        lines, _ = _full_table(13, 8)
        lines[100] = lines[3]   # repeats line 4
        lines[120] = "1,2 3,4"  # missing '->', after the repeat
        got = _same_reading("\n".join(lines), PrimeField(13))
        assert got[1].startswith("line 101: point")
        lines[100], lines[3] = lines[120], lines[100]
        assert _same_reading("\n".join(lines), PrimeField(13)) == (
            ParseError, "line 101: missing '->'")

    @pytest.mark.parametrize("fault", [
        lambda line: line.replace(" -> ", " "),          # missing '->'
        lambda line: line.replace(" -> ", " - > "),
        lambda line: line.replace(" -> ", " <- "),        # seven tokens, no '->'
        lambda line: line.replace(",", " - "),            # seven tokens, no ','
        lambda line: line.replace(" -> ", " ->> "),
        lambda line: line + " 5",                         # a token too many
        lambda line: line + ",",
        lambda line: line + " | 1,2 -> 3,4",
        lambda line: line.rsplit(",", 1)[0],             # a token too few
        lambda line: line.replace(",", " ", 1),
        lambda line: line.replace(",", ",,", 1),
        lambda line: line.replace(" -> ", " -> -> "),
        lambda line: "|" + line,
        lambda line: line.replace(",", "/0,", 1),         # zero denominator
        lambda line: line.replace(",", " r1,", 1),
        lambda line: line.replace(",", "\u0661,", 1),  # a digit that is not ASCII
        lambda line: line.replace(",", "_0,", 1),
        lambda line: "+" + line,
    ])
    def test_faulty_lines(self, fault):
        lines, _ = _full_table(13, 9)
        for j in _AT:
            faulty = lines[:j] + [fault(lines[j])] + lines[j + 1:]
            got = _same_reading("\n".join(faulty) + "\n", PrimeField(13))
            assert isinstance(got, tuple) and got[1].startswith(f"line {j + 1}: ")

    @pytest.mark.parametrize("rewrite", [
        lambda a, b, c, d: f"{a}, {b} -> ({c}), {d}",
        lambda a, b, c, d: f"{a} + 13,{b} -> {c}*1,{d} - 0",
        lambda a, b, c, d: f"{a}/1,{b} -> {c},-(-{d})",
        lambda a, b, c, d: f"{a},{b}->{c},{d}",           # an arrow without spaces
        lambda a, b, c, d: f"{a},{b} ->{c},{d}",
    ])
    def test_expression_lines(self, rewrite):
        lines, raw = _full_table(13, 10)
        for j in _AT:
            lines[j] = rewrite(*_split_line(lines[j]))
        assert _same_reading("\n".join(lines), PrimeField(13)) == raw

    def test_a_file_larger_than_any_bench_table(self):
        """GF(61): 3,721 lines, then a repeat and a fault near the end."""
        k = PrimeField(61)
        lines, raw = _full_table(61, 11)
        assert _same_reading("\n".join(lines) + "\n", k) == raw
        x1, x2, _, _ = _split_line(lines[40])
        moved = lines[3690]
        lines[3690] = f"{x1},{x2} -> 1,1"
        lines[3700] = lines[3700].replace(" -> ", " ")
        assert _same_reading("\n".join(lines) + "\n", k) == (
            ParseError, f"line 3691: point ({x1}, {x2}) already mapped on line 41")
        lines[3690] = moved
        assert _same_reading("\n".join(lines), k) == (ParseError, "line 3701: missing '->'")

    @given(st.data())
    def test_random_files(self, data):
        """Line kinds drawn at random, most sources distinct, any line end."""
        k = PrimeField(13)
        count = data.draw(st.integers(0, 140))  # past two block ends
        sources = data.draw(st.permutations(range(169)))
        kinds = st.sampled_from(["plain"] * 8 + ["shifted", "expression", "note",
                                                  "blank", "comment", "repeat", "fault"])
        lines = []
        for j in range(count):
            kind = data.draw(kinds)
            src = sources[j % 169]
            if kind == "repeat" and j:
                src = sources[data.draw(st.integers(0, j - 1)) % 169]
            x1, x2 = divmod(src, 13)
            y1, y2 = data.draw(st.integers(-20, 40)), data.draw(st.integers(-20, 40))
            line = {
                "shifted": f"{x1 + 13},{x2 - 26} -> {y1},{y2}",
                "expression": f"{x1}, ({x2}) -> {y1}, {y2}",
                "note": f"{x1},{x2} -> {y1},{y2} # ->",
                "blank": " ",
                "comment": "# x -> y",
                "fault": data.draw(st.sampled_from([f"{x1},{x2} -> {y1},{y2},",
                                                    f"{x1} {x2} -> {y1} {y2} 0",
                                                    f"{x1},{x2} {y1},{y2}"])),
            }.get(kind, f"{x1},{x2} -> {y1},{y2}")
            lines.append(line + data.draw(st.sampled_from(_LINE_ENDS)))
        text = "".join(lines)
        got = _same_reading(text, k)
        assert got == _reading(_table_by_sides, text, k)


# ------------------------------------------ any text: a value or a BQError

_PIECES = ["GF", "Q", "(", ")", "[", "]", "sqrt ", "i", "r1", "r2", "13", "17",
           "0", "2", "-", "+", "*", "/", ",", " . ", "translate", "rot", "lambda",
           "hom", "id", "conj", "@", "swap", "xi", "->", "#", "\n", " ",
           "²", "r²", "١٣", "５", "1³"]
_TEXTS = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_PIECES), max_size=14).map("".join),
)


class TestAnyText:
    @given(_TEXTS)
    def test_field_descriptors(self, text):
        try:
            parse_field(text)
        except BQError:
            pass

    @given(_TEXTS)
    def test_elements_points_and_maps(self, text):
        for k in (Q, PrimeField(13), QS2I):
            for parse in (parse_element, parse_point, parse_map):
                try:
                    parse(text, k)
                except BQError:
                    pass

    @given(_TEXTS)
    def test_table_lines(self, text):
        k = PrimeField(13)
        got = _reading(parse_table_lines, text, k)
        assert got == _reading(_table_by_residue_cache, text, k)
        try:
            parse_table_lines(text, Q)
        except BQError:
            pass
