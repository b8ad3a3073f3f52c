"""Plane maps in one normal form, finite map tables, and the verdict
scans over them.

Every expression map is a ``SemiAffineMap``: x -> M gamma(x) + t, where
the ``AffineMap`` record (M, t) holds any invertible 2x2 ``Matrix2`` and
gamma is a catalog ``LevelConjugation`` (a level set that fixes every
radicand) applied coordinatewise; a run of adjacent ``hom`` atoms is one
gamma.  These are the semi-affine maps of the fundamental theorem of
affine geometry, and the form the paper decomposes every unit-distance
preserver into.  An ``AffineMap`` derives its two rows once, on first use
(integers over one denominator when M is rational), so a call is one pass
per image coordinate with gamma's coefficient signs folded in.
``compose`` and ``invert`` are one formula each on it; orthogonality of M
is a checked predicate, not a separate class.  ``MapTable`` carries a map
of a finite plane as data.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    InvalidLevel,
    NoImaginaryUnit,
    NotOrthogonal,
    ZeroParameter,
)
from .fields import (  # EXHAUSTIVE and sample_domain are re-exported
    EXHAUSTIVE,
    Check,
    DomainSpec,
    FieldElement,
    FieldTower,
    LevelConjugation,
    PrimeField,
    apply_hom,
    compose_homs,
    hom_signs,
    imaginary_unit,
    is_automorphism,
    random_element,
    sample_domain,
    sqrt_in_field,
)
from .geometry import Point, all_points, eta, lambda_map, phi, point, point_index, random_point, xi
from .parsing import MapAtom, MapExpression


# ------------------------------------------------------------- matrices

@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over one field."""

    q11: FieldElement
    q12: FieldElement
    q21: FieldElement
    q22: FieldElement

    @property
    def tower(self) -> FieldTower:
        return self.q11.tower

    def apply(self, x: Point) -> Point:
        zero = self.tower.zero
        return Point(affine_row(self.q11, self.q12, x, zero),
                     affine_row(self.q21, self.q22, x, zero))

    def matmul(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.q11 * other.q11 + self.q12 * other.q21,
            self.q11 * other.q12 + self.q12 * other.q22,
            self.q21 * other.q11 + self.q22 * other.q21,
            self.q21 * other.q12 + self.q22 * other.q22,
        )

    def inverse(self) -> "Matrix2":
        det = self.q11 * self.q22 - self.q12 * self.q21
        if det.is_zero:
            raise DivisionByZero(f"{self} is singular")
        r = 1 / det
        return Matrix2(self.q22 * r, -self.q12 * r, -self.q21 * r, self.q11 * r)

    def is_orthogonal(self) -> bool:
        """Exactly orthonormal columns."""
        one, zero = self.tower.one, self.tower.zero
        return (self.q11 * self.q11 + self.q21 * self.q21 == one
                and self.q12 * self.q12 + self.q22 * self.q22 == one
                and self.q11 * self.q12 + self.q21 * self.q22 == zero)

    def entries(self):
        return (self.q11, self.q12, self.q21, self.q22)

    def __str__(self):
        return f"[[{self.q11}, {self.q12}], [{self.q21}, {self.q22}]]"


def affine_row(a: FieldElement, b: FieldElement, x: Point, t: FieldElement) -> FieldElement:
    """a*x1 + b*x2 + t over one field with one reduction: an affine image coordinate."""
    k = a.tower
    if x.tower is not k and x.tower != k:
        raise FieldMismatch(f"operands from different fields: {k} vs {x.tower}")
    return FieldElement(k, k._row(a.rep, x.x1.rep, b.rep, x.x2.rep, t.rep))


def orthogonal_matrix(q11, q12, q21, q22) -> Matrix2:
    """The matrix of the given entries, refused unless orthogonal."""
    m = Matrix2(q11, q12, q21, q22)
    if not m.is_orthogonal():
        raise NotOrthogonal(f"{m} fails the orthogonality equations")
    return m


def identity_matrix(k: FieldTower) -> Matrix2:
    return Matrix2(k.one, k.zero, k.zero, k.one)


def rotation_matrix(a: FieldElement, b: FieldElement) -> Matrix2:
    return orthogonal_matrix(a, -b, b, a)


def reflection_matrix(a: FieldElement, b: FieldElement) -> Matrix2:
    return orthogonal_matrix(a, b, b, -a)


# ------------------------------------------------------------- map forms

@dataclass(frozen=True)
class AffineMap:
    """x -> M x + t."""

    linear: Matrix2
    translation: Point

    def __post_init__(self):
        if self.linear.tower != self.translation.tower:
            raise FieldMismatch("matrix and translation fields differ")

    @functools.cached_property
    def _rows(self) -> tuple:
        """(den, (row1, row2)): the rows (a, b, t) of M x + t, derived on first
        use.  For a rational M over a flat tower, integers a, b and numerators
        t over one common denominator den; else den is None, rows of reps."""
        q, t1, t2 = self.linear, self.translation.x1.rep, self.translation.x2.rep
        reps = [e.rep for e in q.entries()]
        if isinstance(q.tower, PrimeField) or any(any(r.nums[1:]) for r in reps):
            return None, ((reps[0], reps[1], t1), (reps[2], reps[3], t2))
        den = math.lcm(t1.den, t2.den, *(r.den for r in reps))
        a, b, c, d = (r.nums[0] * (den // r.den) for r in reps)
        return den, ((a, b, [n * (den // t1.den) for n in t1.nums]),
                     (c, d, [n * (den // t2.den) for n in t2.nums]))

    def __call__(self, x: Point) -> Point:
        return self._apply(x)

    def _apply(self, x: Point, gamma: LevelConjugation = LevelConjugation()) -> Point:
        """M gamma(x) + t: the field is checked first, then each image
        coordinate is one row with gamma's signs folded in."""
        k, x1, x2 = self.linear.q11.tower, x.x1, x.x2
        if x1.tower is not k and x1.tower != k:
            raise FieldMismatch(f"operands from different fields: {k} vs {x.tower}")
        signs = hom_signs(gamma, k) if gamma.levels else None
        den, rows = self._rows
        if den is not None:
            y1, y2 = k._scaled_rows(den, rows, x1.rep, x2.rep, signs)
            return Point(FieldElement(k, y1), FieldElement(k, y2))
        u, v = apply_hom(gamma, x1).rep, apply_hom(gamma, x2).rep  # GF(p), or M not rational
        return Point(*(FieldElement(k, k._row(a, u, b, v, t)) for a, b, t in rows))


def identity_map(k: FieldTower) -> AffineMap:
    return AffineMap(identity_matrix(k), point(k, 0, 0))


def _hom_matrix(h: LevelConjugation, m: Matrix2) -> Matrix2:
    return Matrix2(*(apply_hom(h, e) for e in m.entries()))


@dataclass(frozen=True)
class SemiAffineMap:
    """The normal form x -> outer(gamma(x1), gamma(x2)) = M gamma(x) + t."""

    outer: AffineMap
    gamma: LevelConjugation = LevelConjugation()

    def __call__(self, x: Point) -> Point:
        return self.outer._apply(x, self.gamma)


def linear_map(m: Matrix2) -> SemiAffineMap:
    return SemiAffineMap(AffineMap(m, point(m.tower, 0, 0)))


def translation_map(k: FieldTower, tx, ty) -> SemiAffineMap:
    return SemiAffineMap(AffineMap(identity_matrix(k), point(k, tx, ty)))


def swap_affine(k: FieldTower) -> SemiAffineMap:
    return linear_map(Matrix2(k.zero, k.one, k.one, k.zero))


@dataclass
class MapTable:
    """Total image table over GF(p)^2 as point indices (``point_index``):
    ``raw[idx]`` is the index of the image of the point idx names."""

    field: PrimeField
    raw: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.field, PrimeField):
            raise FieldNotFinite("map tables need a finite field")
        n = self.field.p ** 2
        raw = self.raw = tuple(self.raw)
        types = set(map(type, raw))
        if len(raw) != n or type(None) in types:
            raise FieldMismatch(
                f"table must cover all {n} points of {self.field}^2")
        if types != {int} or min(raw) < 0 or max(raw) >= n:  # bool is no int here
            raise FieldMismatch("table image outside the field")

    def __call__(self, x: Point) -> Point:
        k = self.field
        if x.tower is not k and x.tower != k:
            raise FieldMismatch(f"point {x} is not in the table's field {k}")
        return all_points(k)[self.raw[point_index(x)]]


# -------------------------------------------------- compose and inverse
#
# Both formulas need gamma(M x) = gamma(M) gamma(x), which holds because
# every gamma is a field automorphism (expressions only admit catalog
# conjugations), and invert needs gamma = gamma^-1, which holds because
# level conjugations are involutions.

def compose(m1: SemiAffineMap, m2: SemiAffineMap) -> SemiAffineMap:
    """m2 first, then m1: (M1 g1(M2), M1 g1(t2) + t1, g1 g2)."""
    g1, q1 = m1.gamma, m1.outer.linear
    return SemiAffineMap(
        AffineMap(q1.matmul(_hom_matrix(g1, m2.outer.linear)),
                  m1(m2.outer.translation)),
        compose_homs(g1, m2.gamma))


def invert(m: SemiAffineMap) -> SemiAffineMap:
    """(g(M^-1), -g(M^-1 t), g)."""
    g, inv = m.gamma, m.outer.linear.inverse()
    shift = inv.apply(m.outer.translation)
    shift = Point(-apply_hom(g, shift.x1), -apply_hom(g, shift.x2))
    return SemiAffineMap(AffineMap(_hom_matrix(g, inv), shift), g)


# --------------------------------------------------------- unit vectors

def unit_from_parameter(k: FieldTower, t) -> Point:
    """The unit vector ((1-t^2)/(1+t^2), 2t/(1+t^2))."""
    t = k(t)
    t2 = t * t
    denom = k.one + t2
    if denom.is_zero:
        raise ZeroParameter(f"1 + t^2 = 0 at t = {t}")
    inv = k.one / denom
    return Point((k.one - t2) * inv, (2 * t) * inv)


def unit_circle(k: PrimeField) -> list[Point]:
    """All solutions of a^2 + b^2 = 1 in GF(p)^2, ascending (a, b)."""
    if not isinstance(k, PrimeField):
        raise FieldNotFinite("unit circle enumeration needs a finite field")
    out = []
    for a in range(k.p):
        b = sqrt_in_field(k(1 - a * a))
        if b is None:
            continue
        if b.is_zero:
            out.append(point(k, a, 0))
        else:
            lo, hi = sorted((b.rep, k.p - b.rep))
            out.append(point(k, a, lo))
            out.append(point(k, a, hi))
    return out


# ------------------------------------------------------- group census

def enumerate_orthogonal_group(k: PrimeField) -> list[Matrix2]:
    """All exactly orthogonal 2x2 matrices over GF(p).

    Deterministic order: identity first, then ascending lexicographic on
    (q11, q21, reflection flag).
    """
    if not isinstance(k, PrimeField):
        raise FieldNotFinite("orthogonal group enumeration needs a finite field")
    mats = []
    for c in unit_circle(k):
        a, b = c.x1, c.x2  # a^2 + b^2 = 1, so both matrices are orthogonal
        mats.append((Matrix2(a, -b, b, a), 0))
        mats.append((Matrix2(a, b, b, -a), 1))
    ident = identity_matrix(k)
    rest = [(m, flag) for m, flag in mats if m != ident]
    rest.sort(key=lambda pair: (pair[0].q11.rep, pair[0].q21.rep, pair[1]))
    return [ident] + [m for m, _ in rest]


# -------------------------------------------------------- verdict scans

def _sample_unit_pair(k: FieldTower, rng: random.Random) -> tuple[Point, Point]:
    x = random_point(k, rng)
    while True:
        t = random_element(k, rng)
        try:
            u = unit_from_parameter(k, t)
        except ZeroParameter:
            continue
        return x, x + u


def preserves_unit_distance(m, k: FieldTower, domain: DomainSpec) -> Check:
    """Check phi(m x, m y) = 1 on pairs at squared distance exactly 1;
    stops at the MAX_WITNESSES-th witness (x, y, phi of the images)."""
    if domain.exhaustive_over(k):
        image = {x: m(x) for x in all_points(k)}.__getitem__
        offsets = unit_circle(k)
        pairs = ((x, x + c) for x in all_points(k) for c in offsets)
    else:
        image = m
        rng = random.Random(domain.seed)
        pairs = (_sample_unit_pair(k, rng) for _ in range(domain.samples))
    check = Check("unit_distance", domain)
    for x, y in pairs:
        check.checked += 1
        value = phi(image(x), image(y))
        if value != 1 and check.note(str(x), str(y), str(value)):
            break
    return check


# ------------------------------------------- Lorentz-route case matrices

def _lorentz_case_matrix(a, sigma: LevelConjugation, k: FieldTower, s: int) -> Matrix2:
    a = k(a)
    i = imaginary_unit(k)
    if i is None:
        raise NoImaginaryUnit(f"{k} has no canonical i")
    si = apply_hom(sigma, i)
    if a.is_zero:
        raise ZeroParameter("case matrices need a != 0")
    inv = 1 / a
    big, small = (a + inv) / 2, (a - inv) / 2
    # orthogonal: big^2 - small^2 = 1 and sigma(i)^2 = -1
    return Matrix2(big, s * small * si, -small * i, -s * big * i * si)


def lorentz_case1_matrix(a: FieldElement, sigma: LevelConjugation, k: FieldTower) -> Matrix2:
    """Orthogonal matrix reconstructing a product-form map whose
    normalization fixes coordinates (no swap)."""
    return _lorentz_case_matrix(a, sigma, k, 1)


def lorentz_case2_matrix(a: FieldElement, sigma: LevelConjugation, k: FieldTower) -> Matrix2:
    """Variant for the swapped normalization case."""
    return _lorentz_case_matrix(a, sigma, k, -1)


# ------------------------------------------------- expression elaboration

def map_from_expression(expr: MapExpression, k: FieldTower) -> SemiAffineMap:
    """The normal form of a parsed expression over k.  A run of adjacent
    hom atoms is one gamma, checked whole: its parts need not be automorphisms."""
    parts = []
    for is_hom, run in itertools.groupby(expr.parts, lambda atom: atom.kind == "hom"):
        parts += [_hom_run_map(list(run), k)] if is_hom else [_atom_to_map(a, k) for a in run]
    return functools.reduce(compose, parts)


def _hom_run_map(atoms: list[MapAtom], k: FieldTower) -> SemiAffineMap:
    """The map of adjacent hom atoms: each level must exist in k, and
    their composite must be an automorphism of k."""
    levels = [level for atom in atoms for level in atom.args]
    h = functools.reduce(compose_homs, map(LevelConjugation, levels), LevelConjugation())
    if not all(1 <= level <= k.depth for level in levels) or not is_automorphism(h, k):
        run = " . ".join(f"conj@{level}" for level in levels)
        raise InvalidLevel(f"{run} is not a catalog automorphism of {k}")
    return SemiAffineMap(identity_map(k), h)


def _matrix_of(fn, k: FieldTower) -> Matrix2:
    """The matrix of a linear point function: its images of (1, 0) and
    (0, 1) are the columns."""
    e1, e2 = fn(point(k, 1, 0)), fn(point(k, 0, 1))
    return Matrix2(e1.x1, e2.x1, e1.x2, e2.x2)


def _atom_to_map(atom: MapAtom, k: FieldTower) -> SemiAffineMap:
    kind, args = atom.kind, atom.args
    if kind == "translate":
        return translation_map(k, *args)
    if kind == "swap":
        return swap_affine(k)
    if kind == "rot":
        return linear_map(rotation_matrix(k(args[0]), k(args[1])))
    if kind == "refl":
        return linear_map(reflection_matrix(k(args[0]), k(args[1])))
    if kind == "lambda":
        z = k(args[0])
        return linear_map(_matrix_of(lambda x: lambda_map(z, x), k))
    if kind in ("xi", "eta"):
        return linear_map(_matrix_of(xi if kind == "xi" else eta, k))
    raise ValueError(f"unknown atom kind {kind!r}")


# ---------------------------------------------------- raw prime tables

def index_table(p: int, a: int, b: int, c: int, d: int, tx: int, ty: int
                ) -> tuple[int, ...]:
    """The image table of x -> [[a, b], [c, d]] x + (tx, ty) over GF(p): row
    x1 = x slices hi and lo at a*x and c*x, which adds those terms mod p."""
    hi, lo = [v % p * p for v in range(2 * p)], [v % p for v in range(2 * p)]
    steps = [((b * y + tx) % p, (d * y + ty) % p) for y in range(p)]
    return tuple(itertools.chain.from_iterable(
        [h[u] + l[w] for u, w in steps]
        for h, l in ((hi[a * x % p:], lo[c * x % p:]) for x in range(p))))


def raw_image_table(m, k: PrimeField) -> tuple[int, ...]:
    """Image table as point indices (``point_index``): a table's own
    indices, in machine integers for a normal form with gamma = id, by
    applying m point by point (p^2 calls, each image in k) for anything else."""
    if isinstance(m, MapTable) and m.field == k:
        return m.raw
    p = k.p
    if isinstance(m, SemiAffineMap) and not m.gamma.levels:
        t = m.outer.translation
        return index_table(p, *(e.rep for e in m.outer.linear.entries()), t.x1.rep, t.x2.rep)
    images = [m(pt) for pt in all_points(k)]
    if any(img.tower is not k and img.tower != k for img in images):
        raise FieldMismatch(f"map images leave {k}")
    return tuple(map(point_index, images))
