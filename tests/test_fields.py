import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane.errors import (
    AlreadySquare,
    DivisionByZero,
    FieldMismatch,
    InvalidField,
    InvalidLevel,
    NoImaginaryPresentation,
    ZeroRadicand,
)
from bqplane.fields import (
    Composite,
    Identity,
    LevelConjugation,
    PrimeField,
    Q,
    QuadExt,
    adjoin_sqrt,
    apply_hom,
    catalog_homomorphisms,
    coeff_vector,
    compose_homs,
    embed,
    ensure_sqrt,
    format_element,
    from_coeff_vector,
    hom_check,
    hom_from_levels,
    imaginary_unit,
    probe_elements,
    random_element,
    re_im,
    sqrt_in_field,
    tower_levels,
)
from bqplane.parsing import parse_field

QI = QuadExt(Q, -1)
QS2 = QuadExt(Q, 2)
QS2I = QuadExt(QS2, -1)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def elements(k):
    """Strategy for elements of k via rational coefficient vectors."""
    if isinstance(k, PrimeField):
        return st.integers(0, k.p - 1).map(k)
    width = 2 ** len(tower_levels(k))
    vecs = st.lists(fractions, min_size=width, max_size=width)
    return vecs.map(lambda v: from_coeff_vector(k, v))


class TestElementArithmetic:
    @given(elements(QS2I), elements(QS2I), elements(QS2I))
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(elements(QS2I), elements(QS2I))
    def test_division_inverts_multiplication(self, a, b):
        if not b.is_zero:
            assert (a * b) / b == a

    @given(elements(PrimeField(13)), elements(PrimeField(13)))
    def test_prime_field_division(self, a, b):
        if not b.is_zero:
            assert (a / b) * b == a

    @given(elements(QS2I))
    def test_negation_and_subtraction(self, a):
        assert a - a == QS2I.zero
        assert a + (-a) == QS2I.zero
        assert QS2I.zero - a == -a

    def test_mixed_coercion(self):
        a = QS2I(Fraction(1, 2))
        assert a + 1 == QS2I(Fraction(3, 2))
        assert 1 + a == a + 1
        assert 2 * a == QS2I.one
        assert a - Fraction(1, 2) == QS2I.zero
        assert (1 - a) == a
        assert Fraction(1, 4) / a == a

    def test_powers(self):
        x = QS2I(Fraction(3, 2))
        assert x ** 0 == QS2I.one
        assert x ** 3 == x * x * x
        assert QS2I.zero ** 0 == QS2I.one

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QS2I.one / QS2I.zero

    def test_cross_tower_operations_rejected(self):
        with pytest.raises(FieldMismatch):
            QI.one + QS2.one


class TestCoefficientVectors:
    @given(elements(QS2I))
    def test_round_trip(self, a):
        assert from_coeff_vector(QS2I, coeff_vector(a)) == a

    def test_monomial_positions(self):
        # index bit L-1 set <=> the level-L radical divides the monomial
        r1 = from_coeff_vector(QS2I, [0, 1, 0, 0])
        i = from_coeff_vector(QS2I, [0, 0, 1, 0])
        assert r1 * r1 == QS2I(2)
        assert i * i == QS2I(-1)
        assert coeff_vector(r1 * i) == [0, 0, 0, 1]


class TestTowerConstruction:
    def test_prime_field_validation(self):
        with pytest.raises(InvalidField):
            PrimeField(6)
        with pytest.raises(InvalidField):
            PrimeField(5)
        with pytest.raises(InvalidField):
            PrimeField(19)
        assert PrimeField(19, allow_3_mod_4=True).p == 19

    def test_adjoin_rejects_squares_and_zero(self):
        with pytest.raises(AlreadySquare):
            QuadExt(Q, 4)
        with pytest.raises(AlreadySquare):
            QuadExt(QS2, 2)
        with pytest.raises(ZeroRadicand):
            QuadExt(Q, 0)

    def test_adjoin_sqrt_returns_lift(self):
        ext, lift = adjoin_sqrt(Q, 3)
        x = lift(Q(Fraction(2, 5)))
        assert x.tower is ext or x.tower == ext
        assert x == ext(Fraction(2, 5))

    def test_tower_levels_innermost_first(self):
        levels = tower_levels(QS2I)
        assert [lvl.d for lvl in levels] == [2, -1]
        assert levels[-1] == QS2I

    def test_embed_and_mismatch(self):
        x = QS2(Fraction(1, 3))
        lifted = embed(x, QS2I)
        assert lifted.tower == QS2I
        assert lifted * QS2I(3) == QS2I.one
        with pytest.raises(FieldMismatch):
            embed(QI.one, QS2)


class TestSquareRoots:
    @pytest.mark.parametrize("p", [13, 17])
    def test_exhaustive_against_brute_force(self, p):
        k = PrimeField(p)
        squares = {(v * v) % p for v in range(p)}
        for v in range(p):
            r = sqrt_in_field(k(v))
            if v in squares:
                assert r is not None and r * r == k(v)
                # canonical pick: the smaller of the two residues
                assert r.rep == min(r.rep, (p - r.rep) % p)
            else:
                assert r is None

    def test_tower_roots_canonical_sign(self):
        r = sqrt_in_field(QS2(2))
        assert r is not None and r * r == QS2(2)
        assert coeff_vector(r) == [0, 1]  # +sqrt(2), not the negative root
        i = sqrt_in_field(QI(-1))
        assert i is not None and i * i == QI(-1)
        assert coeff_vector(i) == [0, 1]

    def test_rational_cases(self):
        assert sqrt_in_field(Q(Fraction(9, 4))) == Q(Fraction(3, 2))
        assert sqrt_in_field(Q(2)) is None
        assert sqrt_in_field(Q(-1)) is None

    def test_ensure_sqrt_in_place_and_extension(self):
        field, lift, root = ensure_sqrt(Q, Q(9))
        assert field is Q and root == Q(3)
        field, lift, root = ensure_sqrt(Q, Q(5))
        assert isinstance(field, QuadExt) and field.d == 5
        assert root * root == lift(Q(5))

    def test_ensure_sqrt_positive_branch(self):
        field, _, root = ensure_sqrt(QS2, QS2(2), positive=True)
        assert field == QS2 and coeff_vector(root) == [0, 1]


class TestImaginaryPresentation:
    def test_imaginary_unit_presence(self, gf13):
        i = imaginary_unit(gf13)
        assert i is not None and i * i == gf13(-1)
        i = imaginary_unit(QI)
        assert i * i == QI(-1)
        assert imaginary_unit(QS2) is None
        assert imaginary_unit(Q) is None

    @given(elements(QS2I))
    def test_re_im_splits(self, x):
        a, b = re_im(x)
        assert a.tower == QS2 and b.tower == QS2
        i = imaginary_unit(QS2I)
        assert embed(a, QS2I) + i * embed(b, QS2I) == x

    def test_re_im_needs_top_level_i(self):
        with pytest.raises(NoImaginaryPresentation):
            re_im(QS2.one)


class TestHomomorphisms:
    def test_catalog_order(self):
        cat = catalog_homomorphisms(QS2I)
        assert cat[0] == Identity()
        assert cat[1:3] == [LevelConjugation(1), LevelConjugation(2)]
        assert isinstance(cat[3], Composite)
        assert len(cat) == 4

    def test_catalog_skips_moved_radicands(self):
        # sqrt(1 + sqrt 2): conjugating level 1 moves the level-2 radicand,
        # so only the outer conjugation survives the validity filter
        k = QuadExt(QS2, QS2(1) + from_coeff_vector(QS2, [0, 1]))
        cat = catalog_homomorphisms(k)
        assert cat == [Identity(), LevelConjugation(2)]

    def test_catalog_on_prime_field(self, gf13):
        assert catalog_homomorphisms(gf13) == [Identity()]

    def test_compose_is_symmetric_difference(self):
        c1, c2 = LevelConjugation(1), LevelConjugation(2)
        assert compose_homs(c1, c1) == Identity()
        assert compose_homs(c1, c2) == hom_from_levels([1, 2])
        both = compose_homs(c1, c2)
        assert compose_homs(both, c2) == c1

    @given(elements(QS2I), elements(QS2I))
    def test_conjugations_are_ring_maps(self, x, y):
        for h in catalog_homomorphisms(QS2I):
            assert apply_hom(h, x + y) == apply_hom(h, x) + apply_hom(h, y)
            assert apply_hom(h, x * y) == apply_hom(h, x) * apply_hom(h, y)

    def test_conjugation_action(self):
        r1 = from_coeff_vector(QS2I, [0, 1, 0, 0])
        i = from_coeff_vector(QS2I, [0, 0, 1, 0])
        assert apply_hom(LevelConjugation(1), r1) == -r1
        assert apply_hom(LevelConjugation(1), i) == i
        assert apply_hom(LevelConjugation(2), i) == -i
        with pytest.raises(InvalidLevel):
            apply_hom(LevelConjugation(3), i)

    def test_hom_check_exhaustive(self, gf13):
        rep = hom_check(Identity(), gf13, "exhaustive")
        assert rep.ok and rep.pairs_checked == 13 * 13
        assert rep.failures == []

    def test_hom_check_sampled(self):
        rep = hom_check(LevelConjugation(2), QS2I, 150, seed=3)
        assert rep.ok and rep.pairs_checked == 150

    def test_hom_check_of_nothing_is_not_ok(self):
        rep = hom_check(Identity(), QS2I, 0)
        assert rep.pairs_checked == 0 and not rep.failures
        assert not rep.ok and not rep

    def test_hom_check_exhaustive_needs_finite_field(self):
        with pytest.raises(InvalidField):
            hom_check(Identity(), QI, "exhaustive")

    def test_hom_check_flags_fake_maps(self, gf13):
        squaring = lambda e: e * e  # multiplicative, not additive
        rep = hom_check(squaring, gf13, "exhaustive")
        assert not rep.ok
        assert any(law == "additivity" for _, _, law in rep.failures)

        shifted = lambda e: e + gf13.one
        rep = hom_check(shifted, gf13, 50, seed=0)
        assert not rep.ok and rep.failures

    def test_hom_check_counts_only_pairs_reached(self):
        # e + 1 fails additivity on every pair, so the cap of 10 failures
        # is reached after a handful of the 50 sampled pairs
        rep = hom_check(lambda e: e + 1, PrimeField(13), 50, seed=0)
        assert len(rep.failures) == 10
        assert 5 <= rep.pairs_checked <= 10
        gf13 = PrimeField(13)
        rng = random.Random(0)
        sampled = [(random_element(gf13, rng), random_element(gf13, rng))
                   for _ in range(50)]
        reached = sampled[:rep.pairs_checked]
        assert {(x, y) for x, y, _ in rep.failures} == set(reached)


class TestProbes:
    def test_probe_set_is_deterministic(self):
        a = probe_elements(QS2I, random.Random(5), 40)
        b = probe_elements(QS2I, random.Random(5), 40)
        assert a == b and len(a) == 40

    def test_probe_set_contains_basis(self):
        probes = probe_elements(QS2I, random.Random(0), 30)
        basis = [from_coeff_vector(QS2I, [1 if j == n else 0 for j in range(4)])
                 for n in range(4)]
        for mono in basis:
            assert mono in probes

    def test_prime_field_probes(self, gf13):
        assert probe_elements(gf13, random.Random(0), 5) == [gf13(v) for v in range(5)]


# ------------------------------------------------------ schoolbook oracle
#
# The tower product and inverse before the sparse kernel: four base
# products and a full base product by the radicand at every level, with
# no zero skipping and no rational scaling.  Patched onto QuadExt, they
# make every level of a tower compute schoolbook.

def _schoolbook_mul(self, a, b):
    base = self.base
    d = self.d.rep
    return (
        base._add(base._mul(a[0], b[0]), base._mul(base._mul(a[1], b[1]), d)),
        base._add(base._mul(a[0], b[1]), base._mul(a[1], b[0])),
    )


def _schoolbook_inv(self, a):
    base = self.base
    d = self.d.rep
    norm = base._sub(base._mul(a[0], a[0]),
                     base._mul(d, base._mul(a[1], a[1])))
    if base._is_zero(norm):
        raise DivisionByZero(f"division by zero in {self}")
    ninv = base._inv(norm)
    return (base._mul(a[0], ninv), base._neg(base._mul(a[1], ninv)))


def schoolbook(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuadExt, "_mul", _schoolbook_mul)
        mp.setattr(QuadExt, "_inv", _schoolbook_inv)
        return fn(*args)


# Depth 1-6: rational radicands, nested ones and [i] on top.
KERNEL_TOWERS = [
    "Q[sqrt 2]",
    "Q[i]",
    "Q[sqrt 2][i]",
    "Q[sqrt 2][sqrt 1 + r1]",
    "Q[sqrt 2][sqrt 1 + r1][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][sqrt 3 + r3][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][sqrt 5/4][sqrt 3 + r1*r3][i]",
]
_BUILT_ONCE = {spec: parse_field(spec) for spec in KERNEL_TOWERS}


@st.composite
def sparse_elements(draw, k):
    """Elements with zero halves: coefficients survive only on monomials
    that agree with a drawn monomial ``shift`` outside a drawn level set
    ``free``, so at every level outside ``free`` one half is zero."""
    width = 1 << k.depth
    vec = draw(st.lists(st.one_of(st.just(Fraction(0)), fractions),
                        min_size=width, max_size=width))
    free = draw(st.integers(0, width - 1))
    shift = draw(st.integers(0, width - 1)) & ~free
    vec = [c if idx & ~free == shift else Fraction(0)
           for idx, c in enumerate(vec)]
    return from_coeff_vector(k, vec)


def _assert_same(x, y):
    if x is None or y is None:
        assert x is None and y is None
        return
    assert x.rep == y.rep
    assert hash(x) == hash(y)
    assert format_element(x) == format_element(y)


class TestSparseKernel:
    @pytest.mark.parametrize("spec", KERNEL_TOWERS)
    @given(data=st.data())
    def test_matches_schoolbook(self, spec, data):
        k = _BUILT_ONCE[spec]
        a = data.draw(sparse_elements(k))
        b = data.draw(sparse_elements(k))
        _assert_same(a * b, schoolbook(operator.mul, a, b))
        if b:
            _assert_same(a / b, schoolbook(operator.truediv, a, b))
        square = a * a
        _assert_same(sqrt_in_field(square), schoolbook(sqrt_in_field, square))
        _assert_same(sqrt_in_field(a), schoolbook(sqrt_in_field, a))

    def test_distinct_towers_differ(self):
        built = list(_BUILT_ONCE.values())
        for n, k in enumerate(built):
            for other in built[n + 1:]:
                assert k != other and not k == other

    @pytest.mark.parametrize("spec", KERNEL_TOWERS)
    @given(data=st.data())
    def test_tower_built_twice(self, spec, data):
        once, again = _BUILT_ONCE[spec], parse_field(spec)
        assert again is not once
        assert again == once and once == again
        assert hash(again) == hash(once)
        a = data.draw(sparse_elements(once))
        b = data.draw(sparse_elements(once))
        a2 = from_coeff_vector(again, coeff_vector(a))
        b2 = from_coeff_vector(again, coeff_vector(b))
        assert a2 == a and hash(a2) == hash(a)
        assert a2 * b == a * b2 and hash(a2 * b) == hash(a * b2)
        _assert_same(a2 * b2, a * b)
