"""The tower kernel against an oracle that shares no code with it: sympy
polynomial reduction.

An element of a depth-n tower is a polynomial in its radicals r_1 ... r_n
of degree at most 1 in each.  A product of two is reduced modulo the
relations r_L^2 - d_L(r_1, ..., r_(L-1)), in lex order with the top level
largest.  Their leading terms r_L^2 are pairwise coprime, so they are a
Groebner basis (Buchberger's first criterion) and ``sympy.reduced`` gives
the unique normal form.  ``_prod``, ``_mul``, ``_row``, ``_scaled_rows``,
``_times_i``, ``_half`` and ``_inv`` must give that normal form's
coefficients, compared as values: two ``Poly`` objects of equal value can
still differ in their domains.

``sqrt_in_field`` is checked on squares whose values the oracle reduces,
and ``apply_hom`` as the substitution r_L -> -r_L at each conjugated level
followed by the reduction; a conjugation is multiplicative exactly when
that substitution sends every relation into the ideal they generate.
``format_element`` is read by ``sympy.sympify``, with r_L, or i for a
level whose radicand is -1, naming each radical, and ``parse_element``
must read the same text back.  ``_mul`` and ``_inv`` also get one draw each
at depths 4, 5 and 6, where one reduction takes up to about a second.

``real_sign`` is checked against a 50-digit mpmath evaluation under the
embedding that sends each radical to the positive root of its radicand's
value, on elements drawn as above and on ones shifted by a rational
within 10^-6 of their value.
"""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from bqplane.errors import FieldMismatch, NoImaginaryUnit
from bqplane.fields import (
    FieldElement,
    LevelConjugation,
    TowerRep,
    _reduced,
    apply_hom,
    hom_signs,
    is_automorphism,
    is_real_tower,
    real_sign,
    sqrt_in_field,
    tower_levels,
)
from bqplane.parsing import format_element, parse_element, parse_field

SPECS = [
    "Q[sqrt 2]",
    "Q[sqrt -3/5]",
    "Q[sqrt 2][i]",
    "Q[sqrt 2/3][sqrt -5/7]",
    "Q[sqrt 2][sqrt 1 + r1]",
    "Q[sqrt 2][sqrt 3][i]",
    "Q[sqrt -2/3][sqrt 5/7][sqrt -11]",
    "Q[sqrt 2][sqrt 1 + r1][i]",
]
DRAWS = 6


class Oracle:
    """A tower's elements as sympy polynomials, and their normal form."""

    def __init__(self, k):
        self.k = k
        self.gens = sympy.symbols(f"r1:{k.depth + 1}")
        self.monos = [sympy.Mul(*(g for L, g in enumerate(self.gens) if m >> L & 1))
                      for m in range(1 << k.depth)]
        self.basis = [g ** 2 - self.expr(layer.d.rep)
                      for g, layer in zip(self.gens, tower_levels(k))]

    def expr(self, rep, den=None):
        """The polynomial of nums/den over this tower's radicals (a base
        rep names the monomials of its own, lower, levels)."""
        den = rep.den if den is None else den
        nums = rep.nums if isinstance(rep, TowerRep) else rep
        return sum(sympy.Rational(n, den) * m for n, m in zip(nums, self.monos))

    def normal_form(self, e) -> dict:
        """The coefficients of e modulo the relations, by monomial."""
        order = tuple(reversed(self.gens))
        _, rem = sympy.reduced(sympy.expand(e), self.basis, *order, order="lex")
        return _values(sympy.Poly(rem, *self.gens))

    def value(self, nums, den) -> dict:
        return _values(sympy.Poly(self.expr(nums, den), *self.gens))

    def of(self, x) -> dict:
        return self.value(x.rep.nums, x.rep.den)

    def element(self, coeffs: dict):
        """The tower element with these coefficients by monomial."""
        fracs = [Fraction(0)] * (1 << self.k.depth)
        for exps, c in coeffs.items():
            fracs[sum(e << L for L, e in enumerate(exps))] = c
        den = math.lcm(*(c.denominator for c in fracs))
        return FieldElement(self.k, _reduced([int(c * den) for c in fracs], den))


def _values(poly) -> dict:
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict(native=False).items() if c}


ORACLES = {spec: Oracle(parse_field(spec)) for spec in SPECS}


def _operand(rng, k, kind):
    width = 1 << k.depth
    if kind == "zero":
        nums = [0] * width
    elif kind == "rational":
        nums = [rng.randint(-50, 50) or 1] + [0] * (width - 1)
    elif kind == "sparse":
        keep = rng.randrange(width)
        nums = [rng.randint(-50, 50) if m in (0, keep) else 0 for m in range(width)]
    else:
        nums = [rng.randint(-50, 50) for _ in range(width)]
    return _reduced(nums, rng.randint(1, 30))


KINDS = ["dense", "dense", "sparse", "rational", "zero"]


def _draws(spec):
    rng = random.Random(spec)
    k = ORACLES[spec].k
    for _ in range(DRAWS):
        yield (_operand(rng, k, rng.choice(KINDS)) for _ in range(5))


@pytest.mark.parametrize("spec", SPECS)
def test_prod_and_mul(spec):
    o = ORACLES[spec]
    for a, b, *_ in _draws(spec):
        want = o.normal_form(o.expr(a) * o.expr(b))
        assert o.value(*o.k._prod(a, b)) == want
        got = o.k._mul(a, b)
        assert o.value(got.nums, got.den) == want


@pytest.mark.parametrize("spec", SPECS)
def test_row(spec):
    o = ORACLES[spec]
    for a, x, b, y, t in _draws(spec):
        got = o.k._row(a, x, b, y, t)
        want = o.normal_form(o.expr(a) * o.expr(x) + o.expr(b) * o.expr(y) + o.expr(t))
        assert o.value(got.nums, got.den) == want


@pytest.mark.parametrize("spec", SPECS)
def test_rational_row(spec):
    """Rational a and b: the one-pass branch of ``_row``."""
    o = ORACLES[spec]
    rng = random.Random(spec)
    for _ in range(DRAWS):
        a, b = (_operand(rng, o.k, "rational") for _ in range(2))
        x, y, t = (_operand(rng, o.k, rng.choice(KINDS)) for _ in range(3))
        got = o.k._row(a, x, b, y, t)
        want = o.normal_form(o.expr(a) * o.expr(x) + o.expr(b) * o.expr(y) + o.expr(t))
        assert o.value(got.nums, got.den) == want


@pytest.mark.parametrize("spec", SPECS)
def test_scaled_rows(spec):
    """Both rows (a*x + b*y + t)/den with integer a, b and numerators t,
    x and y conjugated at each level set first, as the substitution."""
    o = ORACLES[spec]
    rng = random.Random(spec + "rows")
    width = 1 << o.k.depth
    for levels in [()] + _level_sets(o.k):
        sub = {o.gens[L - 1]: -o.gens[L - 1] for L in levels}
        signs = hom_signs(LevelConjugation(*levels), o.k) if levels else None
        for x, y, *_ in _draws(spec):
            den = rng.randint(1, 30)
            rows = [(rng.randint(-9, 9), rng.randint(-9, 9),
                     [rng.randint(-50, 50) for _ in range(width)]) for _ in range(2)]
            gx, gy = (o.expr(e).subs(sub, simultaneous=True) for e in (x, y))
            for got, (a, b, t) in zip(o.k._scaled_rows(den, rows, x, y, signs), rows):
                want = o.normal_form((a * gx + b * gy) / den + o.expr(t, den))
                assert o.value(got.nums, got.den) == want, levels
                assert got == _reduced(got.nums, got.den)


@pytest.mark.parametrize("spec", SPECS)
def test_times_i_and_half(spec):
    """Over a tower topped by i, ``_times_i`` is the product with the top
    radical, reduced; elsewhere it refuses.  ``_half`` is the product
    with 1/2, reduced."""
    o = ORACLES[spec]
    for a, *_ in _draws(spec):
        half = o.k._half(a)
        assert o.value(half.nums, half.den) == o.normal_form(o.expr(a) / 2)
        assert half == _reduced(half.nums, half.den)
        if not o.k.describe().endswith("[i]"):
            with pytest.raises(NoImaginaryUnit, match="has no canonical i"):
                o.k._times_i(a)
            continue
        got = o.k._times_i(a)
        assert o.value(got.nums, got.den) == o.normal_form(o.expr(a) * o.gens[-1])
        assert got == _reduced(got.nums, got.den)


@pytest.mark.parametrize("spec", SPECS)
def test_inv(spec):
    o = ORACLES[spec]
    for a, *_ in _draws(spec):
        if not any(a.nums):
            continue
        inv = o.k._inv(a)
        assert o.normal_form(o.expr(a) * o.expr(inv)) == {(0,) * o.k.depth: 1}


def _negate(s):
    """s with its coefficient signs flipped, by value."""
    return {m: -c for m, c in s.items()}


@pytest.mark.parametrize("spec", SPECS)
def test_sqrt_of_squares(spec):
    """A square y^2, formed by the oracle, returns +-y, whose square the
    oracle reduces to y^2; y is also a single top-level radical term, the
    branch with no rational part."""
    o = ORACLES[spec]
    rng = random.Random(spec)
    top = 1 << (o.k.depth - 1)
    for y in [_operand(rng, o.k, kind) for kind in KINDS] + [
            _reduced([rng.randint(-9, 9) or 1 if m & top else 0
                      for m in range(1 << o.k.depth)], rng.randint(1, 9))]:
        want = o.value(y.nums, y.den)
        square = o.normal_form(o.expr(y) ** 2)
        s = sqrt_in_field(o.element(square))
        assert s is not None
        assert o.of(s) in (want, _negate(want))
        assert o.normal_form(o.expr(s.rep) ** 2) == square


@pytest.mark.parametrize("spec", SPECS)
def test_a_returned_sqrt_squares_back(spec):
    o = ORACLES[spec]
    rng = random.Random(spec + "sqrt")
    for _ in range(DRAWS):
        x = FieldElement(o.k, _operand(rng, o.k, rng.choice(KINDS)))
        s = sqrt_in_field(x)
        if s is not None:
            assert o.normal_form(o.expr(s.rep) ** 2) == o.of(x)


def _level_sets(k):
    return [levels for n in range(1, k.depth + 1)
            for levels in itertools.combinations(range(1, k.depth + 1), n)]


@pytest.mark.parametrize("spec", SPECS)
def test_apply_hom_is_the_radical_substitution(spec):
    """Each level set's conjugation is r_L -> -r_L at those levels, then
    the reduction; where every relation maps into the ideal, the
    conjugation is an automorphism and keeps products."""
    o = ORACLES[spec]
    for levels in _level_sets(o.k):
        h = LevelConjugation(*levels)
        sub = {o.gens[L - 1]: -o.gens[L - 1] for L in levels}
        lawful = all(o.normal_form(r.subs(sub, simultaneous=True)) == {}
                     for r in o.basis)
        assert is_automorphism(h, o.k) == lawful, levels
        for a, b, *_ in _draws(spec):
            x, y = FieldElement(o.k, a), FieldElement(o.k, b)
            image = o.expr(a).subs(sub, simultaneous=True)
            assert o.of(apply_hom(h, x)) == o.normal_form(image), levels
            if lawful:
                both = o.normal_form(image * o.expr(b).subs(sub, simultaneous=True))
                assert o.of(apply_hom(h, x * y)) == both, levels


@pytest.mark.parametrize("spec", SPECS)
def test_printed_text_is_the_value(spec):
    """The printed text, read by sympy, reduces to the oracle's value, and
    the element parser reads it back to the same element."""
    o = ORACLES[spec]
    names = {"i" if o.expr(layer.d.rep) == -1 else f"r{L}": g
             for L, (g, layer) in enumerate(zip(o.gens, tower_levels(o.k)), start=1)}
    for draw in _draws(spec):
        for rep in draw:
            x = FieldElement(o.k, rep)
            text = format_element(x)
            assert o.normal_form(sympy.sympify(text, locals=names)) == o.of(x), text
            assert parse_element(text, o.k) == x, text


DEEP_SPECS = [
    "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]",
    "Q[sqrt 2][sqrt 3/5][sqrt 7][sqrt -11/13][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][sqrt 5/4][sqrt 3 + r1*r3][i]",
]


@pytest.mark.parametrize("spec", DEEP_SPECS)
def test_deep_mul_and_inv(spec):
    """One dense draw each of ``_mul`` and ``_inv`` at depths 4, 5 and 6."""
    o = Oracle(parse_field(spec))
    rng = random.Random(spec)
    a, b = (_operand(rng, o.k, "dense") for _ in range(2))
    got = o.k._mul(a, b)
    assert o.value(got.nums, got.den) == o.normal_form(o.expr(a) * o.expr(b))
    inv = o.k._inv(a)
    assert o.normal_form(o.expr(a) * o.expr(inv)) == {(0,) * o.k.depth: 1}


# the real towers among SPECS, and real ones whose radicands mix signs or
# nearly cancel (10/7 - sqrt 2 is about 0.014)
REAL_SPECS = [spec for spec in SPECS if is_real_tower(parse_field(spec))] + [
    "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2]",
    "Q[sqrt 2][sqrt 10/7 - r1]",
    "Q[sqrt 2/3][sqrt 3 - 2*r1][sqrt 1 - r1*r2 + r2]",
]
# towers with no real embedding, one of them only by its nested radicand's sign
NOT_REAL_SPECS = [spec for spec in SPECS if not is_real_tower(parse_field(spec))] + [
    "Q[sqrt 2][sqrt 1 - r1]",
]


def _embedded(k, rep):
    """rep's value under the positive-root embedding of k's radicals."""
    roots = []
    for layer in tower_levels(k):
        d = _evaluate(layer.d.rep, roots)
        assert d > 0, layer
        roots.append(mpmath.sqrt(d))
    return _evaluate(rep, roots)


def _evaluate(rep, roots):
    total = mpmath.mpf(0)
    for m, n in enumerate(rep.nums):
        if n:
            total += n * mpmath.fprod(r for L, r in enumerate(roots) if m >> L & 1)
    return total / rep.den


@pytest.mark.parametrize("spec", REAL_SPECS)
def test_real_sign_is_the_sign_of_the_embedded_value(spec):
    k = parse_field(spec)
    rng = random.Random(spec + "sign")
    with mpmath.workdps(50):
        for _ in range(DRAWS):
            for kind in KINDS:
                x = FieldElement(k, _operand(rng, k, kind))
                value = _embedded(k, x.rep)
                near = x - k(Fraction(int(mpmath.nint(value * 10**6)), 10**6))
                for y in (x, near, -near):
                    v = _embedded(k, y.rep)
                    if y.is_zero:
                        assert real_sign(y) == 0
                        continue
                    assert abs(v) > mpmath.mpf(10) ** -30, (str(y), v)
                    assert real_sign(y) == (1 if v > 0 else -1), (str(y), v)


@pytest.mark.parametrize("spec", NOT_REAL_SPECS)
def test_real_sign_refuses_a_tower_with_no_real_embedding(spec):
    k = parse_field(spec)
    assert not is_real_tower(k)
    with pytest.raises(FieldMismatch, match="has no real embedding"):
        real_sign(FieldElement(k, _operand(random.Random(spec), k, "dense")))
