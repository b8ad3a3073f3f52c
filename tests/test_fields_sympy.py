"""The tower kernel against an oracle that shares no code with it: sympy
polynomial reduction.

An element of a depth-n tower is a polynomial in its radicals r_1 ... r_n
of degree at most 1 in each.  A product of two is reduced modulo the
relations r_L^2 - d_L(r_1, ..., r_(L-1)), in lex order with the top level
largest.  Their leading terms r_L^2 are pairwise coprime, so they are a
Groebner basis (Buchberger's first criterion) and ``sympy.reduced`` gives
the unique normal form.  ``_prod``, ``_mul``, ``_row`` and ``_inv`` must
give that normal form's coefficients, compared as values: two ``Poly``
objects of equal value can still differ in their domains.
"""

import random
from fractions import Fraction

import pytest
import sympy

from bqplane.fields import TowerRep, _reduced, tower_levels
from bqplane.parsing import parse_field

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
def test_inv(spec):
    o = ORACLES[spec]
    for a, *_ in _draws(spec):
        if not any(a.nums):
            continue
        inv = o.k._inv(a)
        assert o.normal_form(o.expr(a) * o.expr(inv)) == {(0,) * o.k.depth: 1}
