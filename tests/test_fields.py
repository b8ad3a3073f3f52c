import functools
import math
import random
from dataclasses import dataclass
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
    DomainSpec,
    FieldElement,
    FieldTower,
    LevelConjugation,
    PrimeField,
    Q,
    QuadExt,
    TowerRep,
    apply_hom,
    basis_monomials,
    coeff_vector,
    compose_homs,
    embed,
    ensure_sqrt,
    format_element,
    imaginary_unit,
    is_automorphism,
    is_f_of_i,
    probe_elements,
    random_element,
    re_im,
    real_sign,
    sqrt_in_field,
    tower_levels,
)
from bqplane.parsing import parse_element, parse_field
from helpers import catalog_homomorphisms, from_coeff_vector

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

    def test_fraction_outside_prime_field_is_unequal(self, gf13):
        # 1/13 is no element of GF(13), so no element equals it
        assert not gf13(1) == Fraction(1, 13)
        assert gf13(1) != Fraction(1, 13)
        assert gf13(0) != Fraction(13, 26 * 13)
        assert gf13(7) == Fraction(1, 2) and gf13(1) == Fraction(14, 1)


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

    def test_prime_field_reduces_residues(self):
        k = PrimeField(100000037)
        x = k(3)
        assert k(3 + k.p) == k(3) and (x * x).rep == 9

    def test_adjoin_rejects_squares_and_zero(self):
        with pytest.raises(AlreadySquare):
            QuadExt(Q, 4)
        with pytest.raises(AlreadySquare):
            QuadExt(QS2, 2)
        with pytest.raises(ZeroRadicand):
            QuadExt(Q, 0)

    def test_negative_radicand_settled_only_over_real_towers(self):
        # no negative element of a real tower is a square, so these adjoin
        # without a square-root search; over Q[i] and Q[sqrt -2] the search
        # still finds the roots of -1, -4 and -2
        for base, d in ((Q, -1), (QS2, -2), (QS2, QS2(-3) + QS2.radical)):
            assert QuadExt(base, d).d == d
        for base, d in ((QI, -1), (QI, -4), (QuadExt(Q, -2), -2)):
            with pytest.raises(AlreadySquare):
                QuadExt(base, d)

    def test_ensure_sqrt_extension_is_the_checked_one(self):
        x = QS2(3) + QS2.radical
        field, root = ensure_sqrt(QS2, x)
        ext = QuadExt(QS2, x)
        assert field == ext and field.depth == ext.depth == 2
        assert field._weights == ext._weights and field.one_rep == ext.one_rep
        assert root == field.radical and root * root == field(x)
        with pytest.raises(InvalidField, match="prime fields are out of scope"):
            ensure_sqrt(PrimeField(13), 2)

    def test_extension_embeds_base_elements(self):
        ext = QuadExt(Q, 3)
        x = ext(Q(Fraction(2, 5)))
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
        field, root = ensure_sqrt(Q, Q(9))
        assert field is Q and root == Q(3)
        field, root = ensure_sqrt(Q, Q(5))
        assert isinstance(field, QuadExt) and field.d == 5
        assert root * root == field(Q(5))

    def test_ensure_sqrt_positive_branch(self):
        field, root = ensure_sqrt(QS2, QS2(2))
        assert field == QS2 and coeff_vector(root) == [0, 1]

    @pytest.mark.parametrize("n", range(1, 12))
    def test_ensure_sqrt_positive_under_cancellation(self, n):
        # (a - b sqrt 2)^n = A - B sqrt 2 for these convergents is tiny while
        # A and B grow like (2a)^n, so a float evaluation can lose its sign;
        # 239 - 169 sqrt 2 < 0, so its odd powers have a negative
        # canonical root
        r = QS2.radical
        for t in (QS2(577) - 408 * r, QS2(239) - 169 * r):
            for x in (t ** n, -t ** n):
                field, root = ensure_sqrt(QS2, x * x)
                assert field == QS2 and root * root == x * x
                assert real_sign(root) == 1


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
        assert cat[0] == LevelConjugation()
        assert cat[1:3] == [LevelConjugation(1), LevelConjugation(2)]
        assert cat[3] == LevelConjugation(1, 2)
        assert str(cat[3]) == "hom(conj@1) . hom(conj@2)"
        assert len(cat) == 4

    def test_catalog_skips_moved_radicands(self):
        # sqrt(1 + sqrt 2): conjugating level 1 moves the level-2 radicand,
        # so only the outer conjugation survives the validity filter
        k = QuadExt(QS2, QS2(1) + from_coeff_vector(QS2, [0, 1]))
        cat = catalog_homomorphisms(k)
        assert cat == [LevelConjugation(), LevelConjugation(2)]

    def test_catalog_on_prime_field(self, gf13):
        assert catalog_homomorphisms(gf13) == [LevelConjugation()]

    def test_compose_is_symmetric_difference(self):
        c1, c2 = LevelConjugation(1), LevelConjugation(2)
        assert compose_homs(c1, c1) == LevelConjugation()
        assert compose_homs(c1, c2) == LevelConjugation(1, 2)
        both = compose_homs(c1, c2)
        assert compose_homs(both, c2) == c1
        # one encoding per level set, whatever order the levels come in
        assert LevelConjugation(2, 1) == both and hash(LevelConjugation(2, 1)) == hash(both)
        assert str(LevelConjugation(2, 1)) == str(both) == "hom(conj@1) . hom(conj@2)"
        assert str(compose_homs(both, both)) == "hom(id)"

    # 5 + r1*r2 is fixed by conj@1 . conj@2, though by neither level alone
    @pytest.mark.parametrize("k", [QS2I, parse_field("Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]")],
                             ids=["QS2I", "nested"])
    @given(data=st.data())
    def test_conjugations_are_ring_maps(self, k, data):
        x, y = data.draw(elements(k)), data.draw(elements(k))
        for h in catalog_homomorphisms(k):
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

    @pytest.mark.parametrize("kind", ["exhastive", "exhaustve", "sample", ""])
    def test_misspelled_domain_kind_refused(self, kind):
        with pytest.raises(ValueError, match="domain kind"):
            DomainSpec(kind)


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

    @pytest.mark.parametrize("seed", [0, 1, 1729])
    def test_rational_probes_stop_at_the_111_drawable_values(self, seed):
        # random_element over Q draws n/d with |n| <= 9 and 1 <= d <= 9: 111
        # values, so 200 probes cannot all be distinct
        drawable = {Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)}
        probes = probe_elements(Q, random.Random(seed), 200)
        assert len(drawable) == len(probes) == 111
        assert {Fraction(x.rep.nums[0], x.rep.den) for x in probes} == drawable


# ---------------------------------------------- three-class hom oracle
#
# The homomorphism encoding before the level set: separate identity,
# single-conjugation and composite classes, reduced to a frozenset of
# levels by ``conjugated_levels`` whenever they were used.

@dataclass(frozen=True)
class _OldIdentity:
    def __str__(self):
        return "hom(id)"


@dataclass(frozen=True)
class _OldLevelConjugation:
    level: int

    def __str__(self):
        return f"hom(conj@{self.level})"


@dataclass(frozen=True)
class _OldComposite:
    parts: tuple

    def __str__(self):
        return " . ".join(str(p) for p in self.parts) if self.parts else "hom(id)"


def _old_conjugated_levels(h) -> frozenset[int]:
    if isinstance(h, _OldIdentity):
        return frozenset()
    if isinstance(h, _OldLevelConjugation):
        return frozenset((h.level,))
    acc: frozenset[int] = frozenset()
    for part in h.parts:
        acc ^= _old_conjugated_levels(part)
    return acc


def _old_hom_from_levels(levels):
    levels = sorted(set(levels))
    if not levels:
        return _OldIdentity()
    if len(levels) == 1:
        return _OldLevelConjugation(levels[0])
    return _OldComposite(tuple(_OldLevelConjugation(L) for L in levels))


def _old_compose_homs(h1, h2):
    return _old_hom_from_levels(_old_conjugated_levels(h1) ^ _old_conjugated_levels(h2))


def _old_conjugate_rep(rep, level):
    """One level at a time: negate the numerators whose index has bit
    level-1 set."""
    bit = 1 << (level - 1)
    return TowerRep(tuple(-n if i & bit else n for i, n in enumerate(rep.nums)), rep.den)


def _old_apply_hom(h, x):
    levels = _old_conjugated_levels(h)
    if not levels:
        return x
    k = x.tower
    for L in levels:
        if not 1 <= L <= k.depth:
            raise InvalidLevel(f"level {L} not in 1..{k.depth} for {k}")
    rep = x.rep
    for L in sorted(levels):
        rep = _old_conjugate_rep(rep, L)
    return FieldElement(k, rep)


def _old_conjugation_is_automorphism(k, level):
    """The rule of one level at a time: negating ``level`` is kept iff
    every radicand adjoined above it is fixed by the negation."""
    for layer in tower_levels(k):
        if layer.level > level and layer.d.tower.depth >= level:
            if apply_hom(LevelConjugation(level), layer.d) != layer.d:
                return False
    return True


def _old_catalog(k):
    """Compositions of the levels that are valid alone."""
    if not isinstance(k, QuadExt):
        return [_OldIdentity()]
    valid = [L for L in range(1, k.depth + 1) if _old_conjugation_is_automorphism(k, L)]
    out = [_OldIdentity()]
    for mask in range(1, 1 << len(valid)):
        out.append(_old_hom_from_levels(
            [valid[i] for i in range(len(valid)) if mask >> i & 1]))
    out.sort(key=lambda h: (len(_old_conjugated_levels(h)),
                            sorted(_old_conjugated_levels(h))))
    return out


# Depth 1-4; "Q[sqrt 2][sqrt 1 + r1]" moves its level-2 radicand under
# the level-1 conjugation, so that level drops out of the catalog.
HOM_TOWERS = [
    "Q[sqrt 2]",
    "Q[sqrt 2][i]",
    "Q[sqrt 2][sqrt 1 + r1]",
    "Q[sqrt 2][sqrt 3][i]",
    "Q[sqrt 2][sqrt 1 + r1][i]",
    "Q[sqrt 2][sqrt 3][sqrt 5][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][i]",
]


class TestLevelSetCatalog:
    @pytest.mark.parametrize("spec", HOM_TOWERS + ["GF(13)"])
    def test_matches_three_class_catalog(self, spec):
        k = parse_field(spec)
        new, old = catalog_homomorphisms(k), _old_catalog(k)
        assert [str(h) for h in new] == [str(h) for h in old]
        for h_new, h_old in zip(new, old):
            assert h_new.levels == _old_conjugated_levels(h_old)
            for x in probe_elements(k, random.Random(7), 40):
                _assert_same(apply_hom(h_new, x), _old_apply_hom(h_old, x))
        by_str = {str(h): h for h in new}
        for a_new, a_old in zip(new, old):
            for b_new, b_old in zip(new, old):
                got = compose_homs(a_new, b_new)
                want = _old_compose_homs(a_old, b_old)
                assert str(got) == str(want)
                assert got == by_str[str(want)]

    def test_full_depth_four_catalog_size(self):
        k = parse_field("Q[sqrt 2][sqrt 3][sqrt 5][i]")
        assert len(catalog_homomorphisms(k)) == 16


# ------------------------------------------- multiplicativity oracle
#
# A level set is an automorphism exactly when apply_hom is multiplicative
# on every pair of basis monomials: apply_hom is Q-linear, so those
# products decide it on all of k.  The oracle never asks which radicands
# are fixed.

def _multiplicative_on_monomials(h, k):
    basis = basis_monomials(k)
    return all(apply_hom(h, a * b) == apply_hom(h, a) * apply_hom(h, b)
               for a in basis for b in basis)


def _level_sets(k):
    return [LevelConjugation(*(L for L in range(1, k.depth + 1) if mask >> (L - 1) & 1))
            for mask in range(1 << k.depth)]


def _oracle_catalog(k):
    found = [h for h in _level_sets(k) if _multiplicative_on_monomials(h, k)]
    return sorted(found, key=lambda h: (len(h.levels), sorted(h.levels)))


class TestAutomorphismOracle:
    # 5 + r1*r2 is fixed by conj@1 . conj@2 though by neither level alone,
    # and r1 in Q(2^(1/4), i) is moved by conj@1
    @pytest.mark.parametrize("spec, size", [(spec, None) for spec in HOM_TOWERS] + [
        ("Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]", 8),
        ("Q[sqrt 2][sqrt r1][i]", 4),
    ])
    def test_catalog_is_every_multiplicative_level_set(self, spec, size):
        k = parse_field(spec)
        cat = catalog_homomorphisms(k)
        assert cat == _oracle_catalog(k)
        assert size is None or len(cat) == size
        for h in _level_sets(k):
            assert is_automorphism(h, k) == (h in cat)

    def test_levels_outside_the_tower_are_refused(self, gf13):
        assert not is_automorphism(LevelConjugation(1), Q)
        assert not is_automorphism(LevelConjugation(1), gf13)
        assert not is_automorphism(LevelConjugation(1, 3), QS2I)
        assert not is_automorphism(LevelConjugation(0), QS2I)
        assert is_automorphism(LevelConjugation(), Q)


# ---------------------------------------------------- Fraction-tree oracle
#
# The characteristic-0 kernel before flat integer reps: Q on Fraction
# reps (``_FQ``), and over it a pair (a, b) of base reps per level, the
# schoolbook product with every product of a zero half left out, and
# rational radicands scaling the leaves instead of multiplying.
# ``_tree_tower(k)`` mirrors a tower (Q included) with this kernel; its
# elements are FieldElements, so the operators run it.

class _FractionQ(FieldTower):
    characteristic = 0
    zero_rep = Fraction(0)
    one_rep = Fraction(1)

    def _coerce(self, v):
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if not a:
            raise DivisionByZero("division by zero in Q")
        return 1 / a

    def _is_zero(self, a):
        return not a

    def describe(self):
        return "Q"


_FQ = _FractionQ()


class _TreeExt(FieldTower):
    characteristic = 0

    def __init__(self, base, d):
        self.base = base
        self.d = d
        self.depth = base.depth + 1
        self.zero_rep = (base.zero_rep, base.zero_rep)
        self.one_rep = (base.one_rep, base.zero_rep)
        coeffs = _leaves(d)
        self._rational_d = None if any(coeffs[1:]) else coeffs[0]

    def _coerce(self, v):
        return (self.base._coerce(v), self.base.zero_rep)

    def _add(self, a, b):
        return (self.base._add(a[0], b[0]), self.base._add(a[1], b[1]))

    def _sub(self, a, b):
        return (self.base._sub(a[0], b[0]), self.base._sub(a[1], b[1]))

    def _neg(self, a):
        return (self.base._neg(a[0]), self.base._neg(a[1]))

    def _scale(self, a, q):
        return (_scale(self.base, a[0], q), _scale(self.base, a[1], q))

    def _times_d(self, x):
        if self._rational_d is not None:
            return _scale(self.base, x, self._rational_d)
        return self.base._mul(x, self.d.rep)

    def _plus(self, x, y):
        if x is None:
            return self.base.zero_rep if y is None else y
        return x if y is None else self.base._add(x, y)

    def _mul(self, a, b):
        base = self.base
        is_zero = base._is_zero
        a0, a1 = a
        b0, b1 = b
        a0z, a1z, b0z, b1z = is_zero(a0), is_zero(a1), is_zero(b0), is_zero(b1)
        lo = self._plus(
            None if a0z or b0z else base._mul(a0, b0),
            None if a1z or b1z else self._times_d(base._mul(a1, b1)))
        hi = self._plus(
            None if a0z or b1z else base._mul(a0, b1),
            None if a1z or b0z else base._mul(a1, b0))
        return (lo, hi)

    def _inv(self, a):
        base = self.base
        a0, a1 = a
        if base._is_zero(a1):
            if base._is_zero(a0):
                raise DivisionByZero(f"division by zero in {self}")
            return (base._inv(a0), a1)
        norm = base._sub(base._mul(a0, a0), self._times_d(base._mul(a1, a1)))
        ninv = base._inv(norm)
        return (base._mul(a0, ninv), base._neg(base._mul(a1, ninv)))

    def _is_zero(self, a):
        return self.base._is_zero(a[0]) and self.base._is_zero(a[1])


def _scale(k, rep, q):
    return rep * q if k is _FQ else k._scale(rep, q)


_TREE_TOWERS = {}


def _tree_tower(k):
    if not isinstance(k, QuadExt):
        return _FQ
    if k not in _TREE_TOWERS:
        base = _tree_tower(k.base)
        _TREE_TOWERS[k] = _TreeExt(base, _to_tree(base, coeff_vector(k.d)))
    return _TREE_TOWERS[k]


def _to_tree(t, vec):
    """The element of the tree tower t with coefficient vector vec."""
    def build(t, chunk):
        if not isinstance(t, _TreeExt):
            return Fraction(chunk[0])
        half = len(chunk) // 2
        return (build(t.base, chunk[:half]), build(t.base, chunk[half:]))
    return FieldElement(t, build(t, vec))


def _tree(x):
    return _to_tree(_tree_tower(x.tower), coeff_vector(x))


def _leaves(y):
    def flat(t, rep):
        if not isinstance(t, _TreeExt):
            return [rep]
        return flat(t.base, rep[0]) + flat(t.base, rep[1])
    return flat(y.tower, y.rep)


def _tree_halves(y):
    return FieldElement(y.tower.base, y.rep[0]), FieldElement(y.tower.base, y.rep[1])


def _tree_conjugate(t, rep, level):
    if t.depth == level:
        return (rep[0], t.base._neg(rep[1]))
    return (_tree_conjugate(t.base, rep[0], level),
            _tree_conjugate(t.base, rep[1], level))


def _tree_apply_hom(h, y):
    rep = y.rep
    for L in h.levels:
        rep = _tree_conjugate(y.tower, rep, L)
    return FieldElement(y.tower, rep)


def _tree_embed(y, t):
    rep, depth = y.rep, y.tower.depth
    while t.depth > depth:
        depth += 1
        rep = (rep, _tree_level(t, depth).base.zero_rep)
    return FieldElement(t, rep)


def _tree_level(t, depth):
    while t.depth > depth:
        t = t.base
    return t


def _tree_canonical_sign(y):
    for c in _leaves(y):
        if c:
            return y if c > 0 else -y
    return y


def _tree_sqrt(y):
    t = y.tower
    if not isinstance(t, _TreeExt):
        v = y.rep
        if v < 0:
            return None
        rn, rd = math.isqrt(v.numerator), math.isqrt(v.denominator)
        if rn * rn == v.numerator and rd * rd == v.denominator:
            return FieldElement(t, Fraction(rn, rd))
        return None
    a, b = _tree_halves(y)
    if b.is_zero:
        ra = _tree_sqrt(a)
        if ra is not None:
            return _tree_canonical_sign(FieldElement(t, (ra.rep, t.base.zero_rep)))
        rb = _tree_sqrt(a / t.d)
        if rb is not None:
            return _tree_canonical_sign(FieldElement(t, (t.base.zero_rep, rb.rep)))
        return None
    s = _tree_sqrt(a * a - t.d * b * b)
    if s is None:
        return None
    for cand in (s, -s):
        u = _tree_sqrt((a + cand) / 2)
        if u is not None and not u.is_zero:
            root = FieldElement(t, (u.rep, (b / (2 * u)).rep))
            if root * root == y:
                return _tree_canonical_sign(root)
    return None


def _tree_real_sign(y):
    t = y.tower
    if not isinstance(t, _TreeExt):
        return (y.rep > 0) - (y.rep < 0)
    a, b = _tree_halves(y)
    sa, sb = _tree_real_sign(a), _tree_real_sign(b)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa * _tree_real_sign(a * a - b * b * t.d)


# Depth 0-6: Q, rational radicands, nested ones and [i] on top.
KERNEL_TOWERS = [
    "Q",
    "Q[sqrt 2]",
    "Q[i]",
    "Q[sqrt 2][i]",
    "Q[sqrt 2][sqrt 1 + r1]",
    "Q[sqrt 2][sqrt 1 + r1][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][sqrt 3 + r3][i]",
    "Q[sqrt 2][sqrt 1 + r1][sqrt 3][sqrt 5/4][sqrt 3 + r1*r3][i]",
]
@functools.cache
def _built_once(spec):
    return parse_field(spec)


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


def _assert_matches(x, y):
    """x from the kernel equals y from the tree oracle."""
    if x is None or y is None:
        assert x is None and y is None
        return
    assert coeff_vector(x) == _leaves(y)
    _assert_same(x, from_coeff_vector(x.tower, _leaves(y)))


def _real_subfield(k):
    return k.base if is_f_of_i(k) else k


class TestSparseKernel:
    @pytest.mark.parametrize("spec", KERNEL_TOWERS)
    @given(data=st.data())
    def test_matches_schoolbook(self, spec, data):
        k = _built_once(spec)
        a = data.draw(sparse_elements(k))
        b = data.draw(sparse_elements(k))
        ta, tb = _tree(a), _tree(b)
        _assert_matches(a * b, ta * tb)
        _assert_matches(a + b, ta + tb)
        _assert_matches(a - b, ta - tb)
        if b:
            _assert_matches(a / b, ta / tb)
        square = a * a
        _assert_matches(sqrt_in_field(square), _tree_sqrt(ta * ta))
        _assert_matches(sqrt_in_field(a), _tree_sqrt(ta))
        levels = st.sets(st.integers(1, k.depth)) if k.depth else st.just(())
        h = LevelConjugation(*data.draw(levels))
        _assert_matches(apply_hom(h, a), _tree_apply_hom(h, ta))
        low = data.draw(st.sampled_from([Q] + tower_levels(k)))
        c = data.draw(sparse_elements(low)) if low is not Q else Q(data.draw(fractions))
        _assert_matches(embed(c, k), _tree_embed(_tree(c), _tree_tower(k)))
        e = data.draw(sparse_elements(_real_subfield(k)))
        assert real_sign(e) == _tree_real_sign(_tree(e))

    def test_distinct_towers_differ(self):
        built = [_built_once(spec) for spec in KERNEL_TOWERS]
        for n, k in enumerate(built):
            for other in built[n + 1:]:
                assert k != other and not k == other

    # Q is one object; only extensions are built anew by parse_field.
    @pytest.mark.parametrize("spec", KERNEL_TOWERS[1:])
    @given(data=st.data())
    def test_tower_built_twice(self, spec, data):
        once, again = _built_once(spec), parse_field(spec)
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



# The Fraction formatter that format_element replaced, kept as the
# oracle for its output.
def _old_radical_names(k):
    return ["i" if layer.d == -1 else f"r{layer.level}" for layer in tower_levels(k)]


def _old_format_coeff_term(c, mono):
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def _old_format_element(x):
    k = x.tower
    if isinstance(k, PrimeField):
        return str(x.rep)
    names = _old_radical_names(k)
    terms = []
    for idx, c in enumerate(coeff_vector(x)):
        if c == 0:
            continue
        mono = "*".join(names[L] for L in range(k.depth) if idx >> L & 1)
        terms.append(_old_format_coeff_term(c, mono))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _old_describe(k):
    if not isinstance(k, QuadExt):
        return k.describe()
    if k.d == -1:
        return f"{_old_describe(k.base)}[i]"
    return f"{_old_describe(k.base)}[sqrt {_old_format_element(k.d)}]"


FORMAT_TOWERS = KERNEL_TOWERS + ["Q[sqrt -3/7][sqrt 5]"]

# zero, +-1, small fractions and huge denominators
format_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    fractions,
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(10 ** 20, 10 ** 25)),
)


class TestFormatOracle:
    @pytest.mark.parametrize("spec", FORMAT_TOWERS)
    @given(data=st.data())
    def test_matches_fraction_formatter(self, spec, data):
        k = _built_once(spec)
        width = 1 << k.depth
        vec = data.draw(st.lists(format_coefficients, min_size=width, max_size=width))
        x = from_coeff_vector(k, vec)
        text = format_element(x)
        assert text == _old_format_element(x)
        assert parse_element(text, k) == x
        assert format_element(-x) == _old_format_element(-x)

    @pytest.mark.parametrize("spec", FORMAT_TOWERS)
    def test_basis_and_edge_values(self, spec):
        k = _built_once(spec)
        values = basis_monomials(k) + [k.zero, k.one, -k.one, k(Fraction(-7, 10 ** 21))]
        for b in basis_monomials(k):
            values += [-b, 3 * b, b / -5, b + Fraction(1, 2)]
        for x in values:
            assert format_element(x) == _old_format_element(x)
            assert parse_element(format_element(x), k) == x

    @pytest.mark.parametrize("spec", FORMAT_TOWERS)
    def test_describe_unchanged(self, spec):
        k = _built_once(spec)
        assert k.describe() == _old_describe(k) == spec

    def test_prime_field_prints_the_residue(self):
        k = PrimeField(13)
        assert [format_element(k(v)) for v in (0, 1, 12, -1)] == ["0", "1", "12", "12"]


def real_value(x: FieldElement) -> float:
    """Float image of x on a real tower, an independent oracle for
    ``real_sign`` away from zero."""
    k = x.tower
    if isinstance(k, QuadExt):
        a = real_value(FieldElement(k.base, x.rep[0]))
        b = real_value(FieldElement(k.base, x.rep[1]))
        return a + b * math.sqrt(real_value(k.d))
    return float(coeff_vector(x)[0])


class TestRealSign:
    def test_exact_near_zero(self):
        r = QS2.radical
        # continued-fraction convergents of sqrt 2: 577/408 from above,
        # 239/169 from below
        assert real_sign(QS2(577) - 408 * r) == 1
        assert real_sign(408 * r - 577) == -1
        assert real_sign(QS2(239) - 169 * r) == -1
        assert real_sign(169 * r - 239) == 1
        assert real_sign(r * r - 2) == 0 and real_sign(QS2.zero) == 0
        assert real_sign(Q(Fraction(-1, 10 ** 30))) == -1

    def test_nested_radicand(self):
        # sqrt(3 + sqrt 2) - 1 - sqrt 2 / 2 is about 0.39
        k = QuadExt(QS2, QS2(3) + QS2.radical)
        x = k.radical - 1 - k(QS2.radical) / 2
        assert real_sign(x) == 1 and real_sign(-x) == -1

    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
    def test_matches_float_away_from_zero(self, coeffs):
        k = QuadExt(QuadExt(Q, 2), 3)
        x = from_coeff_vector(k, [Fraction(c) for c in coeffs])
        value = real_value(x)
        assert (real_sign(x) == 0) == x.is_zero
        if abs(value) > 1e-6:
            assert real_sign(x) == (1 if value > 0 else -1)

    def test_needs_a_real_embedding(self):
        with pytest.raises(FieldMismatch):
            real_sign(QI.one)
        with pytest.raises(FieldMismatch):
            real_sign(PrimeField(13).one)


# ------------------------------------------------ probe-stream oracle
#
# The probe set as it was built before it stopped at random_element's
# last new value: every fixed probe first, then draws until ``count``
# distinct probes are found (forever, if fewer exist).  The fixed part
# never reads the rng, so it is built once per tower.

@functools.cache
def _old_fixed_probes(k):
    probes: list[FieldElement] = []
    seen = set()

    def push(e):
        key = (e.tower, e.rep)
        if key not in seen:
            seen.add(key)
            probes.append(e)

    dim = 1 << k.depth
    basis = [from_coeff_vector(k, [int(i == idx) for i in range(dim)]) for idx in range(dim)]
    for e in basis:
        push(e)
    for i, a in enumerate(basis):
        for b in basis[i:]:
            push(a + b)
            push(a * b)
    return tuple(probes), frozenset(seen)


def _old_probe_elements(k, rng, count):
    fixed, seen = _old_fixed_probes(k)
    probes, seen = list(fixed), set(seen)
    while len(probes) < count:
        e = random_element(k, rng)
        if (e.tower, e.rep) not in seen:
            seen.add((e.tower, e.rep))
            probes.append(e)
    return probes[:count]


PROBE_TOWERS = sorted(set(FORMAT_TOWERS + HOM_TOWERS) | {
    "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]",
    "Q[sqrt 2][sqrt r1][i]",
})


class TestProbeStreamOracle:
    @pytest.mark.parametrize("spec", PROBE_TOWERS)
    def test_same_probes_and_rng_state(self, spec):
        k = _built_once(spec)
        for seed in (0, 5, 1729):
            for count in range(1, 61):
                new_rng, old_rng = random.Random(seed), random.Random(seed)
                new = probe_elements(k, new_rng, count)
                old = _old_probe_elements(k, old_rng, count)
                assert [x.rep for x in new] == [x.rep for x in old]
                assert all(x.tower is k for x in new)
                assert new_rng.getstate() == old_rng.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 1729])
    def test_rationals_up_to_the_last_drawable_value(self, seed):
        # 111 probes exist over Q, so the old loop still ends at 111
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        assert probe_elements(Q, new_rng, 111) == _old_probe_elements(Q, old_rng, 111)
        assert new_rng.getstate() == old_rng.getstate()
