"""Parsers and printers for the toolkit's input language.

Grammar summary (whitespace insensitive):

    field     := 'Q' | 'GF' '(' INT ')' | field '[' 'sqrt' element ']'
                 | field '[' 'i' ']'          # shorthand for [sqrt -1]
    element   := ['-'] term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := INT ['/' INT] | RADICAL | '(' element ')'
    RADICAL   := 'r'<level> | 'i'             # i names the level with d = -1
    point     := '(' element ',' element ')'
    mapexpr   := atom (' . ' atom)*           # 'a . b' applies b first
    atom      := 'translate' '(' element ',' element ')'
               | 'rot' '(' element ',' element ')'
               | 'refl' '(' element ',' element ')'
               | 'lambda' '(' element ')'
               | 'hom' '(' ('id' | 'conj' '@' INT) ')'
               | 'swap' | 'xi' | 'eta'

Map-table files carry one line per domain point, ``x1,x2 -> y1,y2``, in
element syntax; blank lines and '#' comments are ignored.

Printing is canonical and parse(print(x)) round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlreadySquare,
    InvalidField,
    NotOrthogonal,
    ParseError,
    ZeroRadicand,
)
from .fields import (
    FieldElement,
    FieldTower,
    PrimeField,
    Q,
    QuadExt,
    format_element,
    from_coeff_vector,
    tower_levels,
)
from .geometry import Point

_SYMBOLS = "+-*/()[],.@"


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
        if ch.isdigit():
            start = idx
            while idx < n and s[idx].isdigit():
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


# ------------------------------------------------------------- elements

def _radical_element(k: FieldTower, name: str, pos: int) -> FieldElement:
    levels = tower_levels(k)
    if name == "i":
        for layer in levels:
            if layer.d == -1:
                return _level_monomial(k, layer.level)
        raise ParseError(f"'i' is not a radical of {k}", pos)
    level = int(name[1:])
    for layer in levels:
        if layer.level == level:
            return _level_monomial(k, level)
    raise ParseError(f"radical {name!r} is not a level of {k}", pos)


def _level_monomial(k: FieldTower, level: int) -> FieldElement:
    vec = [Fraction(0)] * (1 << k.depth)
    vec[1 << (level - 1)] = Fraction(1)
    return from_coeff_vector(k, vec)


def _parse_rational(p: _Parser) -> Fraction:
    t = p.expect("int")
    num = int(t.text)
    if p.peek().kind == "/":
        p.next()
        den_tok = p.expect("int")
        den = int(den_tok.text)
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
        if t.text == "i" or (t.text[0] == "r" and t.text[1:].isdigit()):
            if isinstance(k, PrimeField):
                raise ParseError(f"no radicals over {k}", t.pos)
            return _radical_element(k, t.text, t.pos)
        raise ParseError(f"unknown name {t.text!r}", t.pos)
    if t.kind == "(":
        p.next()
        e = _parse_element_expr(p, k)
        p.expect(")")
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
        prime_tok = p.expect("int")
        p.expect(")")
        k = PrimeField(int(prime_tok.text))
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


def format_field(k: FieldTower) -> str:
    return k.describe()


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
    for hom, where args is ('id',) or ('conj', level)."""

    kind: str
    args: tuple

    def __str__(self):
        if self.kind == "hom":
            if self.args[0] == "id":
                return "hom(id)"
            return f"hom(conj@{self.args[1]})"
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
            atom = MapAtom("hom", ("id",))
        elif inner.text == "conj":
            p.expect("@")
            level = int(p.expect("int").text)
            atom = MapAtom("hom", ("conj", level))
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


def format_map(expr: MapExpression) -> str:
    return str(expr)


# ------------------------------------------------------- map table files

def parse_table_lines(text: str, k: FieldTower) -> dict[Point, Point]:
    """Parse ``x1,x2 -> y1,y2`` lines into a point-image mapping; a
    source point given twice is rejected."""
    table: dict[Point, Point] = {}
    line_of: dict[Point, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: missing '->'")
        lhs, rhs = line.split("->", 1)
        try:
            src = _parse_pair(lhs, k)
            dst = _parse_pair(rhs, k)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if src in line_of:
            raise ParseError(f"line {lineno}: point {format_point(src)}"
                             f" already mapped on line {line_of[src]}")
        line_of[src] = lineno
        table[src] = dst
    return table


def _parse_pair(s: str, k: FieldTower) -> Point:
    p = _Parser(s)
    x1 = _parse_element_expr(p, k)
    p.expect(",")
    x2 = _parse_element_expr(p, k)
    p.done()
    return Point(x1, x2)


def format_table_lines(table: dict[Point, Point]) -> str:
    lines = []
    for src in sorted(table, key=lambda pt: (str(pt.x1), str(pt.x2))):
        dst = table[src]
        lines.append(f"{format_element(src.x1)},{format_element(src.x2)}"
                     f" -> {format_element(dst.x1)},{format_element(dst.x2)}")
    return "\n".join(lines) + "\n"
