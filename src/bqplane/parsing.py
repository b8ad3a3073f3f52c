"""Parsers and printers for the toolkit's input language.

Grammar summary (whitespace insensitive):

    field     := 'Q' | 'GF' '(' INT ')' | field '[' 'sqrt' element ']'
                 | field '[' 'i' ']'          # shorthand for [sqrt -1]
    element   := ['-'] term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := INT ['/' INT] | RADICAL | '(' element ')'
    RADICAL   := 'r' INT | 'i'                # i names the level with d = -1
    INT       := [0-9]+                       # ASCII digits only
    point     := '(' element ',' element ')'
    mapexpr   := atom (' . ' atom)*           # 'a . b' applies b first
    atom      := 'translate' '(' element ',' element ')'
               | 'rot' '(' element ',' element ')'
               | 'refl' '(' element ',' element ')'
               | 'lambda' '(' element ')'
               | 'hom' '(' ('id' | 'conj' '@' INT) ')'
               | 'swap' | 'xi' | 'eta'

Map-table files over GF(p) carry one line per domain point, ``x1,x2 ->
y1,y2``, in element syntax; blank lines and '#' comments are ignored.
They are read into, and printed from, tables of point indices x1*p + x2.
Parentheses nest at most 100 deep.

Printing is canonical and parse(print(x)) round-trips exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlreadySquare,
    BQError,
    FieldNotFinite,
    InvalidField,
    NotOrthogonal,
    ParseError,
    ZeroRadicand,
)
from .fields import (
    FieldElement,
    FieldTower,
    LevelConjugation,
    PrimeField,
    Q,
    QuadExt,
    embed,
    format_element,
    tower_levels,
)
from .geometry import Point, point_index

_SYMBOLS = "+-*/()[],.@"
_DIGITS = "0123456789"  # str.isdigit would also take '²' or '١'
_MAX_NESTING = 100  # open parentheses, well inside the recursion limit


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | symbol itself | 'end'
    text: str
    pos: int


def _tokenize(s: str) -> list[_Token]:
    out = []
    idx = 0
    n = len(s)
    while idx < n:
        ch = s[idx]
        if ch.isspace():
            idx += 1
            continue
        if ch in _DIGITS:
            start = idx
            while idx < n and s[idx] in _DIGITS:
                idx += 1
            out.append(_Token("int", s[start:idx], start))
            continue
        if ch.isalpha() or ch == "_":
            start = idx
            while idx < n and (s[idx].isalnum() or s[idx] == "_"):
                idx += 1
            out.append(_Token("name", s[start:idx], start))
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, idx))
            idx += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", idx)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def done(self):
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.pos)

    def expect_int(self) -> int:
        t = self.expect("int")
        return _int_value(t.text, t.pos)

    def nested(self, t: _Token):
        """Count one more open parenthesis at token t."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", t.pos)


def _int_value(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


def _is_radical_name(name: str) -> bool:
    return name == "i" or (name[0] == "r" and len(name) > 1
                           and all(ch in _DIGITS for ch in name[1:]))


# ------------------------------------------------------------- elements

def _radical_element(k: FieldTower, name: str, pos: int) -> FieldElement:
    levels = tower_levels(k)
    if name == "i":
        for layer in levels:
            if layer.d == -1:
                return embed(layer.radical, k)
        raise ParseError(f"'i' is not a radical of {k}", pos)
    level = _int_value(name[1:], pos)
    for layer in levels:
        if layer.level == level:
            return embed(layer.radical, k)
    raise ParseError(f"radical {name!r} is not a level of {k}", pos)


def _parse_rational(p: _Parser) -> Fraction:
    num = p.expect_int()
    if p.peek().kind == "/":
        p.next()
        den_tok = p.expect("int")
        den = _int_value(den_tok.text, den_tok.pos)
        if den == 0:
            raise ParseError("zero denominator", den_tok.pos)
        return Fraction(num, den)
    return Fraction(num)


def _parse_factor(p: _Parser, k: FieldTower) -> FieldElement:
    t = p.peek()
    if t.kind == "int":
        return k(_parse_rational(p))
    if t.kind == "name":
        p.next()
        if _is_radical_name(t.text):
            if isinstance(k, PrimeField):
                raise ParseError(f"no radicals over {k}", t.pos)
            return _radical_element(k, t.text, t.pos)
        raise ParseError(f"unknown name {t.text!r}", t.pos)
    if t.kind == "(":
        p.next()
        p.nested(t)
        e = _parse_element_expr(p, k)
        p.expect(")")
        p.depth -= 1
        return e
    raise ParseError(f"expected an element, found {t.text or 'end of input'!r}", t.pos)


def _parse_term(p: _Parser, k: FieldTower) -> FieldElement:
    e = _parse_factor(p, k)
    while p.peek().kind == "*":
        p.next()
        e = e * _parse_factor(p, k)
    return e


def _parse_element_expr(p: _Parser, k: FieldTower) -> FieldElement:
    negate = False
    if p.peek().kind == "-":
        p.next()
        negate = True
    e = _parse_term(p, k)
    if negate:
        e = -e
    while p.peek().kind in ("+", "-"):
        op = p.next().kind
        rhs = _parse_term(p, k)
        e = e + rhs if op == "+" else e - rhs
    return e


def parse_element(s: str, k: FieldTower) -> FieldElement:
    """Parse sum-of-products element syntax into k."""
    p = _Parser(s)
    e = _parse_element_expr(p, k)
    p.done()
    return e


# --------------------------------------------------------------- fields

def _parse_field_at(p: _Parser) -> FieldTower:
    t = p.next()
    if t.kind == "name" and t.text == "Q":
        k: FieldTower = Q
    elif t.kind == "name" and t.text == "GF":
        p.expect("(")
        prime = p.expect_int()
        p.expect(")")
        k = PrimeField(prime)
    else:
        raise ParseError(f"expected 'Q' or 'GF', found {t.text or 'end of input'!r}", t.pos)
    while p.peek().kind == "[":
        p.next()
        inner = p.peek()
        if inner.kind == "name" and inner.text == "i":
            p.next()
            d = k(-1)
        elif inner.kind == "name" and inner.text == "sqrt":
            p.next()
            d = _parse_element_expr(p, k)
        else:
            raise ParseError(
                f"expected 'sqrt' or 'i', found {inner.text or 'end of input'!r}", inner.pos)
        p.expect("]")
        try:
            k = QuadExt(k, d)
        except (AlreadySquare, ZeroRadicand) as exc:
            raise InvalidField(str(exc)) from exc
    return k


def parse_field(s: str) -> FieldTower:
    """Parse a field descriptor such as ``Q``, ``GF(13)``, ``Q[sqrt 2][i]``."""
    p = _Parser(s)
    k = _parse_field_at(p)
    p.done()
    return k


# --------------------------------------------------------------- points

def parse_point(s: str, k: FieldTower) -> Point:
    p = _Parser(s)
    p.expect("(")
    x1 = _parse_element_expr(p, k)
    p.expect(",")
    x2 = _parse_element_expr(p, k)
    p.expect(")")
    p.done()
    return Point(x1, x2)


def format_point(pt: Point) -> str:
    return f"({format_element(pt.x1)}, {format_element(pt.x2)})"


# ------------------------------------------------------ map expressions

_MAP_ARITY = {
    "translate": 2,
    "rot": 2,
    "refl": 2,
    "lambda": 1,
    "hom": "hom",
    "swap": 0,
    "xi": 0,
    "eta": 0,
}


@dataclass(frozen=True)
class MapAtom:
    """One primitive in a map expression; args are FieldElements except
    for hom, where args are the conjugated levels (none for the identity)."""

    kind: str
    args: tuple

    def __str__(self):
        if self.kind == "hom":
            return str(LevelConjugation(*self.args))
        if not self.args:
            return self.kind
        return f"{self.kind}({', '.join(format_element(a) for a in self.args)})"


@dataclass(frozen=True)
class MapExpression:
    """A composition chain; ``parts[-1]`` is applied first."""

    parts: tuple[MapAtom, ...]

    def __str__(self):
        return " . ".join(str(p) for p in self.parts)


def _parse_map_atom(p: _Parser, k: FieldTower) -> MapAtom:
    t = p.expect("name")
    kind = t.text
    if kind not in _MAP_ARITY:
        raise ParseError(f"unknown map {kind!r}", t.pos)
    arity = _MAP_ARITY[kind]
    if arity == 0:
        return MapAtom(kind, ())
    p.expect("(")
    if arity == "hom":
        inner = p.expect("name")
        if inner.text == "id":
            atom = MapAtom("hom", ())
        elif inner.text == "conj":
            p.expect("@")
            atom = MapAtom("hom", (p.expect_int(),))
        else:
            raise ParseError(f"expected 'id' or 'conj', found {inner.text!r}", inner.pos)
    else:
        args = [_parse_element_expr(p, k)]
        for _ in range(arity - 1):
            p.expect(",")
            args.append(_parse_element_expr(p, k))
        atom = MapAtom(kind, tuple(args))
        if kind in ("rot", "refl"):
            a, b = args
            if a * a + b * b != k.one:
                raise NotOrthogonal(
                    f"{kind}({format_element(a)}, {format_element(b)}) "
                    "needs a^2 + b^2 = 1")
    p.expect(")")
    return atom


def parse_map(s: str, k: FieldTower) -> MapExpression:
    """Parse a dotted map expression; arguments are elements of k."""
    p = _Parser(s)
    parts = [_parse_map_atom(p, k)]
    while p.peek().kind == ".":
        p.next()
        parts.append(_parse_map_atom(p, k))
    p.done()
    return MapExpression(tuple(parts))


# ------------------------------------------------------- map table files

def parse_table_lines(text: str, k: FieldTower) -> list[int | None]:
    """Parse ``x1,x2 -> y1,y2`` lines over GF(p) into the raw images of a
    ``MapTable``, None where no line maps the point; a source point given
    twice is rejected, and every error names its line.

    A text whose lines all hold four canonical residues (``0`` to
    ``p-1``, as ``format_table_lines`` writes them), each point given
    once, is tokenized by one split.  Any other text is read line by line
    by the element parser, which names the first faulty line (and a
    repeated point's earlier line)."""
    if not isinstance(k, PrimeField):
        raise FieldNotFinite("map tables need a finite field")
    lines = text.splitlines()
    p = k.p
    pairs = _integer_lines(lines, p)
    if pairs is not None:
        raw: list[int | None] = [None] * (p * p)
        srcs, dsts = pairs
        for src, dst in zip(srcs, dsts):
            raw[src] = dst
        if p * p - raw.count(None) == len(srcs):
            return raw
    return _table_by_lines(lines, k)


def _integer_lines(lines: list[str], p: int) -> tuple[list[int], list[int]] | None:
    """The source and image indices of the lines, or None unless each
    line that is not blank or a comment holds ``x1,x2 -> y1,y2`` in
    canonical residues, looked up by their digits.

    With its commas and arrow spaced apart, such a line is the seven
    tokens x1 , x2 -> y1 , y2, and the lines are joined by a '|' token,
    so the text's 8m - 1 tokens hold ',' at every position 1 and 5 mod
    8, '->' at 3 mod 8 and coordinates at the even positions.  None of
    these is '|', so the m - 1 joins take the positions 7 mod 8, and
    each line holds exactly its seven tokens."""
    if "#" in "".join(lines):
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(filter(str.strip, lines))
    m = len(lines)
    text = " | ".join(lines)
    if text.count(" -> ") != m:  # an arrow that touches its neighbours
        text = text.replace("->", " -> ")
    tokens = text.replace(",", " , ").split()
    if (len(tokens) != 8 * m - 1 or tokens[1::4].count(",") != 2 * m
            or tokens[3::8].count("->") != m):
        return None if m else ([], [])
    row = {str(r): r * p for r in range(p)}.__getitem__
    col = {str(r): r for r in range(p)}.__getitem__
    try:  # x1*p + x2 and y1*p + y2
        return (list(map(operator.add, map(row, tokens[0::8]), map(col, tokens[2::8]))),
                list(map(operator.add, map(row, tokens[4::8]), map(col, tokens[6::8]))))
    except KeyError:  # a coordinate that is no canonical residue
        return None


def _table_by_lines(lines: list[str], k: PrimeField) -> list[int | None]:
    """The raw images, each line read by the element parser; refuses the
    first faulty line and the first point mapped twice, naming both its
    lines."""
    p = k.p
    raw: list[int | None] = [None] * (p * p)
    line_of = [0] * (p * p)
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: missing '->'")
        try:
            src, dst = (point_index(_parse_pair(side, k)) for side in line.split("->", 1))
        except BQError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
        if line_of[src]:
            raise ParseError(f"line {lineno}: point ({src // p}, {src % p})"
                             f" already mapped on line {line_of[src]}")
        line_of[src] = lineno
        raw[src] = dst
    return raw


def _parse_pair(s: str, k: FieldTower) -> Point:
    p = _Parser(s)
    x1 = _parse_element_expr(p, k)
    p.expect(",")
    x2 = _parse_element_expr(p, k)
    p.done()
    return Point(x1, x2)


def format_table_lines(table) -> str:
    """The lines of a ``MapTable``, sorted by the coordinates' text (so
    ``0,10`` comes before ``0,2``)."""
    p, raw = table.field.p, table.raw
    order = sorted(range(p * p), key=lambda i: (str(i // p), str(i % p)))
    return "".join(f"{i // p},{i % p} -> {raw[i] // p},{raw[i] % p}\n" for i in order)
