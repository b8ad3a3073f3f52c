"""Differential tests of the tower multiply and of ``random_element``
against the code they replaced.

A tower whose radicands are all rational multiplies in one XOR
convolution over its monomials; only levels at or above a nested
radicand still multiply by halves.  Before, every tower multiplied by
halves, recursing one level at a time.  That recursion is kept here,
test-local, as the oracle: ``_imul`` (the scaled integer product), and
through it ``_mul`` and ``_inv``, must give identical integers and reps
on dense and sparse vectors.  ``_prod`` now scales the other operand
when one is rational (zero included), and ``_row`` (a*x + b*y + t) makes
one reduction where three products and sums made one each; both must
agree with the oracle's products and sums, integer for integer up to
the oracle's product scale.

A depth-2 product is the XOR convolution written out for its four
monomials, and must equal the general loop it used to take.  ``_row``
with rational a and b scales x and y in its one pass instead of building
two ``_prod`` lists; the ``_prod``-based formula is kept as its oracle.

``random_element`` used to build each coefficient as a ``Fraction`` and
join them with ``from_coeff_vector``, then drew integer pairs with
``rng.randint``; it now calls ``rng.getrandbits`` as randint does.  Both
old samplers must give the same reps and leave the generator in the
same state.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane.errors import DivisionByZero
from bqplane.fields import (
    RANDOM_SIZE,
    FieldElement,
    PrimeField,
    Q,
    TowerRep,
    _reduced,
    random_element,
)
from bqplane.parsing import parse_field
from helpers import from_coeff_vector


# ------------------------------------------------------------- oracles

def _old_scales(k):
    """(lo_scale, d_nums, prod_scale) of the recursive kernel at k's top
    level: the low half of a product is lo_scale*x0*y0 + d_nums*x1*y1,
    with d_nums one int for a rational radicand."""
    if k.depth == 0:
        return 1, 1, 1
    dn, dd = k.d.rep.nums, k.d.rep.den
    nested = any(dn[1:])
    inner = _old_scales(k.base)[2]
    lo = dd * inner if nested else dd
    return lo, (dn if nested else dn[0]), lo * inner


def _old_combine(h, *terms):
    out = [0] * h
    for c, u in terms:
        if u is not None:
            out = [p + c * q for p, q in zip(out, u)]
    return out


def _old_imul(k, x, y):
    """x*y times prod_scale, by halves at every level."""
    if k.depth == 0:
        return [x[0] * y[0]]
    c, dn, _ = _old_scales(k)
    h = len(x) >> 1
    if h == 1:
        x0, x1 = x
        y0, y1 = y
        return [c * x0 * y0 + dn * x1 * y1, c * (x0 * y1 + x1 * y0)]
    base = k.base
    x0, x1, y0, y1 = x[:h], x[h:], y[:h], y[h:]
    nx0, nx1, ny0, ny1 = any(x0), any(x1), any(y0), any(y1)
    p11 = _old_imul(base, x1, y1) if nx1 and ny1 else None
    if p11 is not None and not isinstance(dn, int):
        p11, dn = _old_imul(base, dn, p11), 1
    lo = _old_combine(h, (c, _old_imul(base, x0, y0) if nx0 and ny0 else None), (dn, p11))
    return lo + _old_combine(h, (c, _old_imul(base, x0, y1) if nx0 and ny1 else None),
                             (c, _old_imul(base, x1, y0) if nx1 and ny0 else None))


def _old_mul(k, a, b):
    return _reduced(_old_imul(k, a.nums, b.nums), a.den * b.den * _old_scales(k)[2])


def _old_inv(k, a):
    if k.depth == 0:
        (n,), d = a.nums, a.den
        if not n:
            raise DivisionByZero("division by zero in Q")
        return TowerRep((d,), n) if n > 0 else TowerRep((-d,), -n)
    x, h = a.nums, len(a.nums) >> 1
    if any(x[h:]):
        conj = x[:h] + tuple(-n for n in x[h:])
        norm = _old_imul(k, x, conj)[:h]
    elif any(x):
        conj, norm = None, x[:h]
    else:
        raise DivisionByZero(f"division by zero in {k}")
    inv = _old_inv(k.base, _reduced(norm, 1))
    w, e = inv.nums, inv.den
    nums = w + (0,) * h if conj is None else _old_imul(k, conj, w + (0,) * h)
    return _reduced([a.den * n for n in nums], e)


def _loop_imul(w, x, y):
    """The general XOR convolution with monomial weights w."""
    out = [0] * len(x)
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            for j, b in ys:
                out[i ^ j] += a * b * w[i & j]
    return out


def _prod_row(k, a, x, b, y, t):
    """a*x + b*y + t from two ``_prod`` lists and one reduction."""
    (u, ud), (v, vd) = k._prod(a, x), k._prod(b, y)
    den = math.lcm(ud, vd, t.den)
    fu, fv, ft = den // ud, den // vd, den // t.den
    return _reduced([p * fu + q * fv + s * ft for p, q, s in zip(u, v, t.nums)], den)


def _randint_random_element(k, rng):
    pairs = [(rng.randint(-RANDOM_SIZE, RANDOM_SIZE), rng.randint(1, RANDOM_SIZE))
             for _ in range(1 << k.depth)]
    den = math.lcm(*(d for _, d in pairs))
    return FieldElement(k, _reduced([n * (den // d) for n, d in pairs], den))


def _old_random_element(k, rng):
    if isinstance(k, PrimeField):
        return k(rng.randrange(k.p))
    return from_coeff_vector(k, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                 for _ in range(1 << k.depth)])


# ------------------------------------------------------------- towers

RATIONAL_TOWERS = [
    "Q[sqrt 2/3]",
    "Q[sqrt 2][i]",
    "Q[sqrt 2/3][sqrt -5/7][i]",
    "Q[sqrt 2][sqrt 3][sqrt 5][i]",
    "Q[sqrt 2][sqrt 3/5][sqrt 7][sqrt -11/13][i]",
]
# nested levels with rational ones below and above them
NESTED_TOWERS = [
    "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][sqrt 5/4][sqrt 3 + r1*r3][i]",
]
TOWERS = {spec: parse_field(spec) for spec in RATIONAL_TOWERS + NESTED_TOWERS}


@st.composite
def numerators(draw, k):
    """Dense integer vectors, or sparse ones whose coefficients survive
    only on monomials that agree with a drawn ``shift`` outside a drawn
    level set ``free`` (one zero half at every level outside it)."""
    width = 1 << k.depth
    vec = draw(st.lists(st.integers(-10**6, 10**6), min_size=width, max_size=width))
    if draw(st.booleans()):
        free = draw(st.integers(0, width - 1))
        shift = draw(st.integers(0, width - 1)) & ~free
        vec = [c if idx & ~free == shift else 0 for idx, c in enumerate(vec)]
    return tuple(vec)


@st.composite
def reps(draw, k):
    return _reduced(draw(numerators(k)), draw(st.integers(1, 10**4)))


@st.composite
def operands(draw, k):
    """Dense or sparse reps, or rational and zero ones."""
    kind = draw(st.sampled_from(["vector", "rational", "zero"]))
    if kind == "vector":
        return draw(reps(k))
    n = draw(st.integers(-10**6, 10**6)) if kind == "rational" else 0
    return _reduced((n,) + (0,) * ((1 << k.depth) - 1), draw(st.integers(1, 10**4)))


@st.composite
def rationals(draw, k):
    """Rational reps, zero included, over any denominator."""
    n = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6)))
    return _reduced((n,) + (0,) * ((1 << k.depth) - 1), draw(st.integers(1, 10**4)))


def _old_row(k, a, x, b, y, t):
    return k._add(k._add(_old_mul(k, a, x), _old_mul(k, b, y)), t)


class TestFlatMultiply:
    def test_weights_only_below_nested_levels(self):
        for spec in RATIONAL_TOWERS:
            assert TOWERS[spec]._weights is not None
        nested = TOWERS[NESTED_TOWERS[0]]
        assert nested._weights is None and nested.base._weights is None
        assert nested.base.base._weights == (1, 2, 3, 6)

    @pytest.mark.parametrize("spec", RATIONAL_TOWERS + NESTED_TOWERS)
    def test_product_scale(self, spec):
        k = TOWERS[spec]
        while k.depth:
            assert k._prod_scale == _old_scales(k)[2]
            k = k.base

    @pytest.mark.parametrize("spec", RATIONAL_TOWERS + NESTED_TOWERS)
    @given(data=st.data())
    def test_imul_matches_recursion(self, spec, data):
        k = TOWERS[spec]
        x, y = data.draw(numerators(k)), data.draw(numerators(k))
        assert list(k._imul(x, y)) == _old_imul(k, x, y)

    @pytest.mark.parametrize("spec", RATIONAL_TOWERS + NESTED_TOWERS)
    @given(data=st.data())
    def test_mul_and_inv_match_recursion(self, spec, data):
        k = TOWERS[spec]
        a, b = data.draw(reps(k)), data.draw(reps(k))
        assert k._mul(a, b) == _old_mul(k, a, b)
        if any(b.nums):
            assert k._inv(b) == _old_inv(k, b)
            assert k._mul(a, k._inv(b)) == _old_mul(k, a, _old_inv(k, b))
        else:
            with pytest.raises(DivisionByZero):
                k._inv(b)


class TestDepthTwoProduct:
    SPECS = ["Q[sqrt 2][i]", "Q[sqrt 2/3][sqrt -5/7]"]
    VECTORS = [(0, 0, 0, 0), (0, 0, 0, -3), (5, 0, 0, 0), (0, -2, 7, 0),
               (-1, -1, -1, -1), (4, -9, 0, 6), (0, 11, 0, -13)]

    @pytest.mark.parametrize("spec", SPECS)
    @given(data=st.data())
    def test_matches_the_loop(self, spec, data):
        k = parse_field(spec)
        x, y = data.draw(numerators(k)), data.draw(numerators(k))
        assert k._imul(x, y) == _loop_imul(k._weights, x, y)

    @pytest.mark.parametrize("spec", SPECS)
    def test_zero_sparse_and_negative_operands(self, spec):
        k = parse_field(spec)
        for x in self.VECTORS:
            for y in self.VECTORS:
                assert k._imul(x, y) == _loop_imul(k._weights, x, y), (x, y)


class TestProductAndRow:
    SPECS = ["Q"] + RATIONAL_TOWERS + NESTED_TOWERS

    @pytest.mark.parametrize("spec", SPECS)
    @given(data=st.data())
    def test_prod_matches_recursion(self, spec, data):
        k = parse_field(spec)
        a, b = data.draw(operands(k)), data.draw(operands(k))
        nums, den = k._prod(a, b)
        old, scale = _old_imul(k, a.nums, b.nums), _old_scales(k)[2]
        if any(a.nums[1:]) and any(b.nums[1:]):
            assert (list(nums), den) == (old, a.den * b.den * scale)
        else:  # a rational operand scales: the oracle's integers over its scale
            assert ([n * scale for n in nums], den) == (old, a.den * b.den)
        assert k._mul(a, b) == _reduced(nums, den) == _old_mul(k, a, b)

    @pytest.mark.parametrize("spec", SPECS)
    @given(data=st.data())
    def test_row_matches_products_and_sums(self, spec, data):
        k = parse_field(spec)
        a, x, b, y, t = (data.draw(operands(k)) for _ in range(5))
        got = k._row(a, x, b, y, t)
        assert got == _old_row(k, a, x, b, y, t)
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1

    @pytest.mark.parametrize("spec", SPECS)
    @given(data=st.data())
    def test_rational_row_matches_prod_lists(self, spec, data):
        k = parse_field(spec)
        a, b = data.draw(rationals(k)), data.draw(rationals(k))
        x, y, t = (data.draw(operands(k)) for _ in range(3))
        assert k._row(a, x, b, y, t) == _prod_row(k, a, x, b, y, t)

    def test_rational_row_unequal_denominators(self):
        for spec in ("Q", "Q[sqrt 2][i]"):
            k = parse_field(spec)
            pad = (0,) * ((1 << k.depth) - 1)
            a, b, x, y, t = (_reduced((n,) + pad, d) for n, d in
                             [(3, 4), (-5, 6), (7, 9), (1, 10), (-11, 15)])
            got = k._row(a, x, b, y, t)
            assert got == _prod_row(k, a, x, b, y, t) == _old_row(k, a, x, b, y, t)
            assert (got.nums[0], got.den) == (-7, 30)  # 7/12 - 1/12 - 11/15

    @pytest.mark.parametrize("p", [13, 61, 100000037])
    @given(data=st.data())
    def test_prime_row_is_the_residue_formula(self, p, data):
        k = PrimeField(p)
        a, x, b, y, t = (data.draw(st.integers(0, p - 1)) for _ in range(5))
        assert k._row(a, x, b, y, t) == (a * x + b * y + t) % p
        assert k._row(a, x, b, y, t) == k._add(k._add(k._mul(a, x), k._mul(b, y)), t)


class TestRandomElement:
    @pytest.mark.parametrize("spec", ["Q", "Q[sqrt 2]", "Q[sqrt 2][i]",
                                      "Q[sqrt 2/3][sqrt -5/7][i]", "GF(13)"])
    def test_same_reps_and_generator_state(self, spec):
        k = parse_field(spec)
        for seed in range(5):
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(50):
                a, b = random_element(k, got), _old_random_element(k, want)
                assert isinstance(a, FieldElement) and a.tower is k
                assert a.rep == b.rep
            assert got.getstate() == want.getstate()

    @pytest.mark.parametrize("spec", ["Q", "Q[sqrt 2]", "Q[sqrt 2][i]",
                                      "Q[sqrt 2][sqrt 3][i]", "GF(13)"])
    def test_same_draws_as_randint(self, spec):
        k = parse_field(spec)
        draw = _randint_random_element if k.characteristic == 0 else _old_random_element
        for seed in range(5):
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert random_element(k, got).rep == draw(k, want).rep
            assert got.getstate() == want.getstate()

    def test_reps_are_canonical(self):
        k = TOWERS["Q[sqrt 2/3][sqrt -5/7][i]"]
        rng = random.Random(3)
        for _ in range(200):
            rep = random_element(k, rng).rep
            assert rep.den > 0 and math.gcd(rep.den, *rep.nums) == 1
        assert random_element(Q, random.Random(0)).tower is Q
