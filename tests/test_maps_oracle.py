"""Differential test of the map normal form against the map classes it
replaced.

Expression maps used to be elaborated into four classes (orthogonal
affine, semi-affine, general affine and an opaque list of stages), with a
four-case ``compose`` falling back to stage lists and a four-case
``invert`` that could not invert those.  Every expression map is now one
normal form x -> M gamma(x) + t.  The old classes, their ``compose``,
``invert`` and expression elaboration are kept here, test-local, as the
oracle: on seeded expressions of every atom kind, using only catalog
levels for ``hom``, the normal form must send seeded points where the
oracle does, under evaluation, composition and inversion.

An affine map used to apply its matrix as four products and two sums
and then add its translation, with a reduction per operation; each
image coordinate is now one row with one reduction.  That written
formula is kept here too, and the rows must equal it, including the
refusal of a point from another field.  An affine map then made its two
rows through ``affine_row``, and a semi-affine map applied gamma even
when it was the identity; both evaluations must equal those calls.

A semi-affine map used to apply gamma to its point as two elements and
then make each image coordinate one ``_row``; it now derives its rows
once and folds gamma's coefficient signs into one pass per coordinate.
That path is kept here as the oracle, over rational and tower-valued M
and t and every catalog gamma.  xi and eta used to multiply by the
field's i and by 1/2 and i/2; they now swap numerator halves with a
sign and double a denominator, and must equal those products.

A unit vector from a parameter t used to divide both of its numerators
by 1 + t^2; it now inverts 1 + t^2 once.  The two-division formula is
kept here, and must agree with it, refusal of 1 + t^2 = 0 included.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from bqplane import maps
from bqplane.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidLevel,
    NoImaginaryUnit,
    NotOrthogonal,
    ZeroParameter,
    ZeroScale,
)
from bqplane.fields import (
    FieldElement,
    LevelConjugation,
    PrimeField,
    apply_hom,
    compose_homs,
    imaginary_unit,
    random_element,
)
from bqplane.geometry import Point, all_points, eta, point, random_point, xi
from bqplane.parsing import MapAtom, MapExpression, parse_field
from helpers import catalog_homomorphisms


# ------------------------------------------------------------- oracle

@dataclass(frozen=True)
class OrthoMatrix2:
    q11: object
    q12: object
    q21: object
    q22: object

    def __post_init__(self):
        one = self.q11.tower.one
        zero = self.q11.tower.zero
        if (self.q11 * self.q11 + self.q21 * self.q21 != one
                or self.q12 * self.q12 + self.q22 * self.q22 != one
                or self.q11 * self.q12 + self.q21 * self.q22 != zero):
            raise NotOrthogonal("fails the orthogonality equations")

    def apply(self, x):
        return Point(self.q11 * x.x1 + self.q12 * x.x2,
                     self.q21 * x.x1 + self.q22 * x.x2)

    def transpose(self):
        return OrthoMatrix2(self.q11, self.q21, self.q12, self.q22)

    def matmul(self, other):
        return OrthoMatrix2(
            self.q11 * other.q11 + self.q12 * other.q21,
            self.q11 * other.q12 + self.q12 * other.q22,
            self.q21 * other.q11 + self.q22 * other.q21,
            self.q21 * other.q12 + self.q22 * other.q22,
        )


@dataclass(frozen=True)
class AffineOrthoMap:
    linear: OrthoMatrix2
    translation: Point

    def __call__(self, x):
        return self.linear.apply(x) + self.translation


def identity_map(k):
    return AffineOrthoMap(OrthoMatrix2(k.one, k.zero, k.zero, k.one), point(k, 0, 0))


@dataclass(frozen=True)
class SemiAffineMap:
    outer: AffineOrthoMap
    gamma: LevelConjugation

    def __call__(self, x):
        return self.outer(Point(apply_hom(self.gamma, x.x1),
                                apply_hom(self.gamma, x.x2)))


@dataclass(frozen=True)
class AffineMap2:
    m11: object
    m12: object
    m21: object
    m22: object
    translation: Point

    def __call__(self, x):
        return Point(self.m11 * x.x1 + self.m12 * x.x2 + self.translation.x1,
                     self.m21 * x.x1 + self.m22 * x.x2 + self.translation.x2)

    def determinant(self):
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ComposedMap:
    stages: tuple

    def __call__(self, x):
        for stage in reversed(self.stages):
            x = stage(x)
        return x


def _general_parts(m):
    if isinstance(m, AffineOrthoMap):
        q = m.linear
        return (q.q11, q.q12, q.q21, q.q22), m.translation
    if isinstance(m, AffineMap2):
        return (m.m11, m.m12, m.m21, m.m22), m.translation
    return None


def _hom_affine(h, m):
    q = m.linear
    return AffineOrthoMap(
        OrthoMatrix2(apply_hom(h, q.q11), apply_hom(h, q.q12),
                     apply_hom(h, q.q21), apply_hom(h, q.q22)),
        Point(apply_hom(h, m.translation.x1), apply_hom(h, m.translation.x2)))


def compose(m1, m2):
    if isinstance(m1, AffineOrthoMap) and isinstance(m2, AffineOrthoMap):
        return AffineOrthoMap(m1.linear.matmul(m2.linear),
                              m1.linear.apply(m2.translation) + m1.translation)
    if isinstance(m1, AffineOrthoMap) and isinstance(m2, SemiAffineMap):
        return SemiAffineMap(compose(m1, m2.outer), m2.gamma)
    if isinstance(m1, SemiAffineMap) and isinstance(m2, AffineOrthoMap):
        return SemiAffineMap(compose(m1.outer, _hom_affine(m1.gamma, m2)), m1.gamma)
    if isinstance(m1, SemiAffineMap) and isinstance(m2, SemiAffineMap):
        return SemiAffineMap(
            compose(m1.outer, _hom_affine(m1.gamma, m2.outer)),
            compose_homs(m1.gamma, m2.gamma))
    g1, g2 = _general_parts(m1), _general_parts(m2)
    if g1 is not None and g2 is not None:
        (a11, a12, a21, a22), t1 = g1
        (b11, b12, b21, b22), t2 = g2
        return AffineMap2(
            a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22,
            Point(a11 * t2.x1 + a12 * t2.x2 + t1.x1,
                  a21 * t2.x1 + a22 * t2.x2 + t1.x2))
    stages1 = m1.stages if isinstance(m1, ComposedMap) else (m1,)
    stages2 = m2.stages if isinstance(m2, ComposedMap) else (m2,)
    return ComposedMap(stages1 + stages2)


def invert(m):
    if isinstance(m, AffineOrthoMap):
        qt = m.linear.transpose()
        inv_t = qt.apply(m.translation)
        return AffineOrthoMap(qt, Point(-inv_t.x1, -inv_t.x2))
    if isinstance(m, SemiAffineMap):
        return SemiAffineMap(_hom_affine(m.gamma, invert(m.outer)), m.gamma)
    if isinstance(m, AffineMap2):
        det = m.determinant()
        if det.is_zero:
            raise DivisionByZero("affine map is singular")
        n11, n12 = m.m22 / det, -m.m12 / det
        n21, n22 = -m.m21 / det, m.m11 / det
        t = m.translation
        return AffineMap2(n11, n12, n21, n22,
                          Point(-(n11 * t.x1 + n12 * t.x2),
                                -(n21 * t.x1 + n22 * t.x2)))
    raise TypeError(f"cannot invert {m!r}")


def _atom_to_map(atom, k):
    kind = atom.kind
    zero_pt = point(k, 0, 0)
    if kind == "translate":
        return AffineOrthoMap(identity_map(k).linear, point(k, *atom.args))
    if kind == "rot":
        a, b = k(atom.args[0]), k(atom.args[1])
        return AffineOrthoMap(OrthoMatrix2(a, -b, b, a), zero_pt)
    if kind == "refl":
        a, b = k(atom.args[0]), k(atom.args[1])
        return AffineOrthoMap(OrthoMatrix2(a, b, b, -a), zero_pt)
    if kind == "swap":
        return AffineOrthoMap(OrthoMatrix2(k.zero, k.one, k.one, k.zero), zero_pt)
    if kind == "hom":
        for level in atom.args:
            if not 1 <= level <= k.depth:
                raise InvalidLevel(f"conj@{level} invalid for {k}")
        return SemiAffineMap(identity_map(k), LevelConjugation(*atom.args))
    if kind == "lambda":
        z = k(atom.args[0])
        if z.is_zero:
            raise ZeroScale("lambda(0) is not a map")
        return AffineMap2(k.one / z, k.zero, k.zero, z, zero_pt)
    i = imaginary_unit(k)
    if i is None:
        raise NoImaginaryUnit(f"{kind} needs i in {k}")
    if kind == "xi":
        return AffineMap2(k.one, i, k.one, -i, zero_pt)
    half = k.one / 2
    return AffineMap2(half, half, -i * half, i * half, zero_pt)


def oracle_from_expression(expr, k):
    built = [_atom_to_map(atom, k) for atom in expr.parts]
    m = built[0]
    for nxt in built[1:]:
        m = compose(m, nxt)
    return m


# ------------------------------------------------------------- inputs

FIELDS = ["GF(13)", "Q[i]", "Q[sqrt 2][i]", "Q[sqrt 2][sqrt 3][i]",
          # depth 4, where conj@1 is not an automorphism (1 + sqrt 2 moves)
          "Q[sqrt 2][sqrt (1 + r1)][sqrt 3][i]"]
KINDS = ("translate", "rot", "refl", "swap", "hom", "lambda", "xi", "eta")
EXPRESSIONS = 24
POINTS = 3


def _nonzero(k, rng):
    while True:
        z = random_element(k, rng)
        if not z.is_zero:
            return z


def _unit(k, rng):
    while True:
        try:
            return maps.unit_from_parameter(k, random_element(k, rng))
        except ZeroParameter:
            continue


def _random_atom(k, rng, kind):
    if kind == "translate":
        return MapAtom(kind, (random_element(k, rng), random_element(k, rng)))
    if kind in ("rot", "refl"):
        u = _unit(k, rng)
        return MapAtom(kind, (u.x1, u.x2))
    if kind == "hom":
        levels = sorted(rng.choice(catalog_homomorphisms(k)).levels)
        return MapAtom(kind, tuple(levels[:1]))  # one level per atom
    if kind == "lambda":
        return MapAtom(kind, (_nonzero(k, rng),))
    return MapAtom(kind, ())


def _expressions(k, seed):
    """Seeded expressions of 1-5 atoms; the first eight start with each
    kind in turn, so every kind is present."""
    rng = random.Random(seed)
    out = []
    for n in range(EXPRESSIONS):
        kinds = [rng.choice(KINDS) for _ in range(rng.randint(1, 5))]
        if n < len(KINDS):
            kinds[0] = KINDS[n]
        out.append(MapExpression(tuple(_random_atom(k, rng, kind) for kind in kinds)))
    return out


def _cases(spec, seed):
    k = parse_field(spec)
    rng = random.Random(seed)
    cases = []
    for expr in _expressions(k, seed):
        pts = [random_point(k, rng) for _ in range(POINTS)]
        cases.append((expr, maps.map_from_expression(expr, k),
                      oracle_from_expression(expr, k), pts))
    return k, cases


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("spec", FIELDS)
def test_evaluation_matches_oracle(spec):
    k, cases = _cases(spec, seed=1)
    assert {atom.kind for expr, *_ in cases for atom in expr.parts} == set(KINDS)
    if k.depth:
        assert any(atom.kind == "hom" and atom.args
                   for expr, *_ in cases for atom in expr.parts)
    for expr, new, old, pts in cases:
        for x in pts:
            assert new(x) == old(x), (str(expr), x)


@pytest.mark.parametrize("spec", FIELDS)
def test_compose_matches_oracle(spec):
    k, cases = _cases(spec, seed=2)
    for (e1, new1, old1, pts), (e2, new2, old2, _) in zip(cases, cases[1:] + cases[:1]):
        new, old = maps.compose(new1, new2), compose(old1, old2)
        for x in pts:
            assert new(x) == old(x) == old1(old2(x)), (str(e1), str(e2), x)


@pytest.mark.parametrize("spec", FIELDS)
def test_invert_round_trips(spec):
    k, cases = _cases(spec, seed=3)
    inverted = 0
    for expr, new, old, pts in cases:
        back = maps.invert(new)
        for x in pts:
            assert back(old(x)) == x and old(back(x)) == x, (str(expr), x)
        if not isinstance(old, ComposedMap):  # the oracle could not invert those
            old_back = invert(old)
            inverted += 1
            for x in pts:
                assert back(x) == old_back(x), (str(expr), x)
        assert maps.invert(back) == new
    assert inverted


def test_fast_path_equals_generic_table_over_gf13():
    k = PrimeField(13)
    pts = all_points(k)
    for seed in (4, 5):
        for expr in _expressions(k, seed):
            new = maps.map_from_expression(expr, k)
            old = oracle_from_expression(expr, k)
            generic = [img.x1.rep * 13 + img.x2.rep for img in (new(x) for x in pts)]
            assert maps.raw_image_table(new, k) == tuple(generic), str(expr)
            assert generic == [img.x1.rep * 13 + img.x2.rep
                               for img in (old(x) for x in pts)], str(expr)


# -------------------------------------------------------- affine rows

ROW_FIELDS = ["Q[sqrt 2][i]", "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]", "GF(13)"]


def _written_affine(m, x):
    q = m.linear
    return Point(q.q11 * x.x1 + q.q12 * x.x2, q.q21 * x.x1 + q.q22 * x.x2) + m.translation


def _entry(k, rng):
    """A dense, rational or zero element."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_element(k, rng)
    return k(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) if kind == 1 else k.zero


@pytest.mark.parametrize("spec", ROW_FIELDS)
def test_affine_rows_match_the_written_formula(spec):
    k = parse_field(spec)
    rng = random.Random(6)
    origin = point(k, 0, 0)
    for _ in range(60):
        m = maps.AffineMap(maps.Matrix2(*(_entry(k, rng) for _ in range(4))),
                           Point(_entry(k, rng), _entry(k, rng)))
        for _ in range(3):
            x = Point(_entry(k, rng), _entry(k, rng))
            got = m(x)
            assert got == _written_affine(m, x) and got.tower is k
            assert m.linear.apply(x) == _written_affine(maps.AffineMap(m.linear, origin), x)


@pytest.mark.parametrize("spec", ROW_FIELDS)
def test_point_from_another_field_is_refused_as_before(spec):
    k = parse_field(spec)
    m = maps.AffineMap(maps.rotation_matrix(k(Fraction(3, 5)), k(Fraction(4, 5))), point(k, 1, 2))
    for other in (PrimeField(17), parse_field("Q[sqrt 2]")):
        x = point(other, 1, 2)
        with pytest.raises(FieldMismatch) as new:
            m(x)
        with pytest.raises(FieldMismatch) as old:
            _written_affine(m, x)
        assert str(new.value) == str(old.value) == f"operands from different fields: {k} vs {other}"
        with pytest.raises(FieldMismatch, match="operands from different fields"):
            m.linear.apply(x)


def _row_call(m, x):
    """An AffineMap evaluated through ``affine_row``."""
    q, t = m.linear, m.translation
    return Point(maps.affine_row(q.q11, q.q12, x, t.x1), maps.affine_row(q.q21, q.q22, x, t.x2))


@pytest.mark.parametrize("spec", ["Q"] + ROW_FIELDS)
def test_map_evaluation_matches_affine_row(spec):
    k = parse_field(spec)
    rng = random.Random(9)
    homs = catalog_homomorphisms(k)
    for _ in range(40):
        m = maps.AffineMap(maps.Matrix2(*(_entry(k, rng) for _ in range(4))),
                           Point(_entry(k, rng), _entry(k, rng)))
        gamma = rng.choice(homs)
        semi = maps.SemiAffineMap(m, gamma)
        for _ in range(3):
            x = Point(_entry(k, rng), _entry(k, rng))
            assert m(x) == _row_call(m, x)
            gx = Point(apply_hom(gamma, x.x1), apply_hom(gamma, x.x2))
            assert semi(x) == _row_call(m, gx) and semi(x).tower is k
    for other in (PrimeField(17), parse_field("Q[sqrt 3]")):
        x = point(other, 1, 2)
        for f in (m, maps.SemiAffineMap(m)):
            with pytest.raises(FieldMismatch) as new:
                f(x)
            with pytest.raises(FieldMismatch) as old:
                _row_call(m, x)
            assert str(new.value) == str(old.value)


# ------------------------------------------------- unit from parameter

def _unit_two_divisions(k, t):
    """The unit vector as it was computed, with one division per coordinate."""
    t = k(t)
    denom = k.one + t * t
    if denom.is_zero:
        raise ZeroParameter(f"1 + t^2 = 0 at t = {t}")
    return Point((k.one - t * t) / denom, (2 * t) / denom)


@pytest.mark.parametrize("spec", ["Q", "Q[sqrt 2][i]", "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]"])
def test_unit_from_parameter_matches_two_divisions(spec):
    k = parse_field(spec)
    rng = random.Random(8)
    i = imaginary_unit(k)
    params = [0, 1, -1, Fraction(1, 2), Fraction(-7, 3)] + [random_element(k, rng) for _ in range(40)]
    params += [] if i is None else [i, -i]  # 1 + t^2 = 0
    refused = 0
    for t in params:
        try:
            want = _unit_two_divisions(k, t)
        except ZeroParameter as exc:
            with pytest.raises(ZeroParameter) as new:
                maps.unit_from_parameter(k, t)
            assert str(new.value) == str(exc)
            refused += 1
            continue
        got = maps.unit_from_parameter(k, t)
        assert got == want and got.tower is k
        assert got.x1 * got.x1 + got.x2 * got.x2 == k.one
    assert refused == (0 if i is None else 2)


# ------------------------------------------- rows with gamma folded in

DIFF_FIELDS = ["Q", "Q[i]", "Q[sqrt 2][i]", "Q[sqrt 2][sqrt 3][i]",
               "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]", "GF(13)"]


def _old_semi_call(m, x):
    """outer(gamma(x)) as evaluated before the map rows: gamma applied to
    each coordinate as an element, then each image coordinate one ``_row``."""
    if m.gamma.levels:
        x = Point(apply_hom(m.gamma, x.x1), apply_hom(m.gamma, x.x2))
    q, t = m.outer.linear, m.outer.translation
    k = q.tower
    if x.tower is not k and x.tower != k:
        raise FieldMismatch(f"operands from different fields: {k} vs {x.tower}")
    return Point(FieldElement(k, k._row(q.q11.rep, x.x1.rep, q.q12.rep, x.x2.rep, t.x1.rep)),
                 FieldElement(k, k._row(q.q21.rep, x.x1.rep, q.q22.rep, x.x2.rep, t.x2.rep)))


def _rational(k, rng):
    return k(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


@pytest.mark.parametrize("spec", DIFF_FIELDS)
def test_map_rows_match_the_gamma_point_path(spec):
    """Rational and tower-valued M, rational and tower-valued t, every
    catalog gamma: the rows equal gamma's point followed by ``_row``."""
    k = parse_field(spec)
    rng = random.Random(spec)
    homs = catalog_homomorphisms(k)
    for n in range(24):
        draw = _rational if n % 2 else _entry  # even n: dense, rational or zero entries
        outer = maps.AffineMap(maps.Matrix2(*(draw(k, rng) for _ in range(4))),
                               Point(_entry(k, rng), _entry(k, rng)))
        for gamma in homs:
            m = maps.SemiAffineMap(outer, gamma)
            for _ in range(4):
                x = random_point(k, rng) if rng.randrange(2) else Point(_entry(k, rng),
                                                                        _entry(k, rng))
                got = m(x)
                assert got == _old_semi_call(m, x) and got.tower is k, (str(m.outer.linear), gamma)
                if not gamma.levels:
                    assert outer(x) == got


def _old_xi(x):
    """xi as it was: the product with the field's i."""
    i = imaginary_unit(x.tower)
    if i is None:
        raise NoImaginaryUnit(f"{x.tower} has no canonical i with i*i = -1")
    ix2 = i * x.x2
    return Point(x.x1 + ix2, x.x1 - ix2)


def _old_eta(x):
    """eta as it was: products with 1/2 and i/2."""
    k = x.tower
    i = imaginary_unit(k)
    if i is None:
        raise NoImaginaryUnit(f"{k} has no canonical i with i*i = -1")
    half = k(Fraction(1, 2))
    return Point(half * (x.x1 + x.x2), i * half * (x.x2 - x.x1))


@pytest.mark.parametrize("spec", DIFF_FIELDS)
def test_xi_eta_match_the_products_with_i(spec):
    k = parse_field(spec)
    rng = random.Random(spec + "xi")
    pts = (all_points(k) if isinstance(k, PrimeField)
           else [random_point(k, rng) for _ in range(150)]
           + [Point(_entry(k, rng), _entry(k, rng)) for _ in range(50)])
    for x in pts:
        for new, old in ((xi, _old_xi), (eta, _old_eta)):
            if imaginary_unit(k) is None:
                for f in (new, old):
                    with pytest.raises(NoImaginaryUnit) as exc:
                        f(x)
                    assert str(exc.value) == f"{k} has no canonical i with i*i = -1"
                continue
            got = new(x)
            assert got == old(x) and got.tower is k, str(x)
