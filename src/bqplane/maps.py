"""Plane maps: exact orthogonal/affine maps, coordinatewise-homomorphism
maps, finite map tables, and the verdict scans over them.

``AffineOrthoMap`` is the canonical distance-preserving shape (orthogonal
linear part plus translation); ``SemiAffineMap`` precomposes one with a
coordinatewise field homomorphism, which is the general unit-distance-
preserving form this toolkit decomposes into.  ``AffineMap2`` carries the
non-orthogonal linear maps (xi, eta, lambda scalings) used by the
product-form route.
"""

from __future__ import annotations

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
    ZeroScale,
)
from .fields import (  # EXHAUSTIVE and sample_domain are re-exported
    EXHAUSTIVE,
    Check,
    DomainSpec,
    FieldElement,
    FieldTower,
    LevelConjugation,
    PrimeField,
    Q,
    apply_hom,
    compose_homs,
    imaginary_unit,
    random_element,
    sample_domain,
    sqrt_in_field,
)
from .geometry import Point, all_points, phi, point, random_point
from .parsing import MapAtom, MapExpression


# ------------------------------------------------------------- matrices

@dataclass(frozen=True)
class OrthoMatrix2:
    """2x2 matrix with exactly orthonormal columns, checked at construction."""

    q11: FieldElement
    q12: FieldElement
    q21: FieldElement
    q22: FieldElement

    def __post_init__(self):
        one = self.q11.tower.one
        zero = self.q11.tower.zero
        if (self.q11 * self.q11 + self.q21 * self.q21 != one
                or self.q12 * self.q12 + self.q22 * self.q22 != one
                or self.q11 * self.q12 + self.q21 * self.q22 != zero):
            raise NotOrthogonal(
                f"[[{self.q11}, {self.q12}], [{self.q21}, {self.q22}]] "
                "fails the orthogonality equations")

    @property
    def tower(self) -> FieldTower:
        return self.q11.tower

    def apply(self, x: Point) -> Point:
        return Point(self.q11 * x.x1 + self.q12 * x.x2,
                     self.q21 * x.x1 + self.q22 * x.x2)

    def transpose(self) -> "OrthoMatrix2":
        return OrthoMatrix2(self.q11, self.q21, self.q12, self.q22)

    def matmul(self, other: "OrthoMatrix2") -> "OrthoMatrix2":
        return OrthoMatrix2(
            self.q11 * other.q11 + self.q12 * other.q21,
            self.q11 * other.q12 + self.q12 * other.q22,
            self.q21 * other.q11 + self.q22 * other.q21,
            self.q21 * other.q12 + self.q22 * other.q22,
        )

    def entries(self):
        return (self.q11, self.q12, self.q21, self.q22)

    def __str__(self):
        return f"[[{self.q11}, {self.q12}], [{self.q21}, {self.q22}]]"


def identity_matrix(k: FieldTower) -> OrthoMatrix2:
    return OrthoMatrix2(k.one, k.zero, k.zero, k.one)


def rotation_matrix(a: FieldElement, b: FieldElement) -> OrthoMatrix2:
    return OrthoMatrix2(a, -b, b, a)


def reflection_matrix(a: FieldElement, b: FieldElement) -> OrthoMatrix2:
    return OrthoMatrix2(a, b, b, -a)


# ----------------------------------------------------------- map classes

@dataclass(frozen=True)
class AffineOrthoMap:
    """x -> Q x + t with Q exactly orthogonal; preserves phi on all pairs."""

    linear: OrthoMatrix2
    translation: Point

    def __post_init__(self):
        if self.linear.tower != self.translation.tower:
            raise FieldMismatch("matrix and translation fields differ")

    def __call__(self, x: Point) -> Point:
        return self.linear.apply(x) + self.translation


def identity_map(k: FieldTower) -> AffineOrthoMap:
    return AffineOrthoMap(identity_matrix(k), point(k, 0, 0))


def translation_map(k: FieldTower, tx, ty) -> AffineOrthoMap:
    return AffineOrthoMap(identity_matrix(k), point(k, tx, ty))


def swap_affine(k: FieldTower) -> AffineOrthoMap:
    return AffineOrthoMap(OrthoMatrix2(k.zero, k.one, k.one, k.zero),
                          point(k, 0, 0))


@dataclass(frozen=True)
class SemiAffineMap:
    """x -> outer((gamma(x1), gamma(x2))): the canonical decomposed form."""

    outer: AffineOrthoMap
    gamma: LevelConjugation

    def __call__(self, x: Point) -> Point:
        return self.outer(Point(apply_hom(self.gamma, x.x1),
                                apply_hom(self.gamma, x.x2)))


@dataclass(frozen=True)
class AffineMap2:
    """General affine map x -> M x + t, no orthogonality constraint."""

    m11: FieldElement
    m12: FieldElement
    m21: FieldElement
    m22: FieldElement
    translation: Point

    def __call__(self, x: Point) -> Point:
        return Point(self.m11 * x.x1 + self.m12 * x.x2 + self.translation.x1,
                     self.m21 * x.x1 + self.m22 * x.x2 + self.translation.x2)

    def determinant(self) -> FieldElement:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ComposedMap:
    """Fallback composition; stages[-1] is applied first."""

    stages: tuple

    def __call__(self, x: Point) -> Point:
        for stage in reversed(self.stages):
            x = stage(x)
        return x


@dataclass
class MapTable:
    """Total image table over a finite field's point grid."""

    field: PrimeField
    images: dict[Point, Point]

    def __post_init__(self):
        if not isinstance(self.field, PrimeField):
            raise FieldNotFinite("map tables need a finite field")
        pts = all_points(self.field)
        if set(self.images) != set(pts):
            raise FieldMismatch(
                f"table must cover all {len(pts)} points of {self.field}^2")
        for img in self.images.values():
            if img.tower != self.field:
                raise FieldMismatch("table image outside the field")

    def __call__(self, x: Point) -> Point:
        return self.images[x]


# -------------------------------------------------- compose and inverse

def _general_parts(m):
    if isinstance(m, AffineOrthoMap):
        q = m.linear
        return (q.q11, q.q12, q.q21, q.q22), m.translation
    if isinstance(m, AffineMap2):
        return (m.m11, m.m12, m.m21, m.m22), m.translation
    return None


def _hom_affine(h: LevelConjugation, m: AffineOrthoMap) -> AffineOrthoMap:
    q = m.linear
    return AffineOrthoMap(
        OrthoMatrix2(apply_hom(h, q.q11), apply_hom(h, q.q12),
                     apply_hom(h, q.q21), apply_hom(h, q.q22)),
        Point(apply_hom(h, m.translation.x1), apply_hom(h, m.translation.x2)))


def compose(m1, m2):
    """The map applying m2 first, then m1; specialized shapes are kept
    closed (affine with affine, affine with semi-affine, ...)."""
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
        # gamma is an involution, so the inverse is gamma(outer^-1) o (gamma, gamma)
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
    if isinstance(m, MapTable):
        inv = {img: src for src, img in m.images.items()}
        if len(inv) != len(m.images):
            raise FieldMismatch("table is not injective")
        return MapTable(m.field, inv)
    raise TypeError(f"cannot invert {m!r}")


# --------------------------------------------------------- unit vectors

def unit_from_parameter(k: FieldTower, t) -> Point:
    """The unit vector ((1-t^2)/(1+t^2), 2t/(1+t^2))."""
    t = k(t)
    denom = k.one + t * t
    if denom.is_zero:
        raise ZeroParameter(f"1 + t^2 = 0 at t = {t}")
    return Point((k.one - t * t) / denom, (2 * t) / denom)


def rational_unit_vector(t) -> Point:
    """Pythagorean unit vector over Q from the half-angle parameter t."""
    return unit_from_parameter(Q, t)


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

def enumerate_orthogonal_group(k: PrimeField) -> list[OrthoMatrix2]:
    """All exactly orthogonal 2x2 matrices over GF(p).

    Deterministic order: identity first, then ascending lexicographic on
    (q11, q21, reflection flag).
    """
    if not isinstance(k, PrimeField):
        raise FieldNotFinite("orthogonal group enumeration needs a finite field")
    mats = []
    for c in unit_circle(k):
        a, b = c.x1, c.x2
        mats.append((rotation_matrix(a, b), 0))
        mats.append((reflection_matrix(a, b), 1))
    ident = identity_matrix(k)
    rest = [(m, flag) for m, flag in mats if m != ident]
    rest.sort(key=lambda pair: (pair[0].q11.rep, pair[0].q21.rep, pair[1]))
    return [ident] + [m for m, _ in rest]


def enumerate_canonical_maps(k: PrimeField) -> list[AffineOrthoMap]:
    """Every translation composed with every orthogonal matrix; the
    reference census for the preserver search."""
    out = []
    for t in all_points(k):
        for q in enumerate_orthogonal_group(k):
            out.append(AffineOrthoMap(q, t))
    return out


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


def _sample_rational_phi_pair(k: FieldTower, rng: random.Random) -> tuple[Point, Point]:
    # X plus a rational multiple of a unit vector keeps phi in the prime
    # subfield: phi = r^2.
    x, y = _sample_unit_pair(k, rng)
    u = y - x
    r = k(rng.randint(-9, 9))
    return x, x + Point(r * u.x1, r * u.x2)


def preserves_phi(m, k: FieldTower, domain: DomainSpec) -> Check:
    """Check phi preservation; stops at the MAX_WITNESSES-th witness.

    For AffineOrthoMap every pair is quantified; for maps involving a
    homomorphism only pairs whose phi lies in the prime subfield are,
    which is the strongest claim the decomposed form supports.
    """
    if domain.exhaustive_over(k):
        pts = all_points(k)
        image = {x: m(x) for x in pts}.__getitem__
        pairs = ((x, y) for x in pts for y in pts)
    else:
        image = m
        rng = random.Random(domain.seed)
        if isinstance(m, AffineOrthoMap):
            pairs = ((random_point(k, rng), random_point(k, rng))
                     for _ in range(domain.samples))
        else:
            pairs = (_sample_rational_phi_pair(k, rng) for _ in range(domain.samples))
    check = Check("phi", domain)
    for x, y in pairs:
        check.checked += 1
        if phi(image(x), image(y)) != phi(x, y) and check.note(str(x), str(y)):
            break
    return check


# ------------------------------------------- Lorentz-route case matrices

def _half_sum_terms(a: FieldElement):
    k = a.tower
    if a.is_zero:
        raise ZeroParameter("case matrices need a != 0")
    big = a / 2 + k.one / (2 * a)
    small = a / 2 - k.one / (2 * a)
    return big, small


def lorentz_case1_matrix(a: FieldElement, sigma: LevelConjugation, k: FieldTower) -> OrthoMatrix2:
    """Orthogonal matrix reconstructing a product-form map whose
    normalization fixes coordinates (no swap)."""
    a = k(a)
    i = imaginary_unit(k)
    if i is None:
        raise NoImaginaryUnit(f"{k} has no canonical i")
    si = apply_hom(sigma, i)
    big, small = _half_sum_terms(a)
    return OrthoMatrix2(big, small * si, -small * i, -big * i * si)


def lorentz_case2_matrix(a: FieldElement, sigma: LevelConjugation, k: FieldTower) -> OrthoMatrix2:
    """Variant for the swapped normalization case."""
    a = k(a)
    i = imaginary_unit(k)
    if i is None:
        raise NoImaginaryUnit(f"{k} has no canonical i")
    si = apply_hom(sigma, i)
    big, small = _half_sum_terms(a)
    return OrthoMatrix2(big, -small * si, -small * i, big * i * si)


# ------------------------------------------------- expression elaboration

def map_from_expression(expr: MapExpression, k: FieldTower):
    """Build a concrete map from a parsed expression over k."""
    built = [_atom_to_map(atom, k) for atom in expr.parts]
    m = built[0]
    for nxt in built[1:]:
        m = compose(m, nxt)
    return m


def _atom_to_map(atom: MapAtom, k: FieldTower):
    kind = atom.kind
    if kind == "translate":
        return translation_map(k, atom.args[0], atom.args[1])
    if kind == "rot":
        return AffineOrthoMap(rotation_matrix(k(atom.args[0]), k(atom.args[1])),
                              point(k, 0, 0))
    if kind == "refl":
        return AffineOrthoMap(reflection_matrix(k(atom.args[0]), k(atom.args[1])),
                              point(k, 0, 0))
    if kind == "swap":
        return swap_affine(k)
    if kind == "hom":
        for level in atom.args:
            if not 1 <= level <= k.depth:
                raise InvalidLevel(f"conj@{level} invalid for {k}")
        return SemiAffineMap(identity_map(k), LevelConjugation(*atom.args))
    if kind == "lambda":
        z = k(atom.args[0])
        if z.is_zero:
            raise ZeroScale("lambda(0) is not a map")
        return AffineMap2(k.one / z, k.zero, k.zero, z, point(k, 0, 0))
    if kind == "xi":
        i = imaginary_unit(k)
        if i is None:
            raise NoImaginaryUnit(f"xi needs i in {k}")
        return AffineMap2(k.one, i, k.one, -i, point(k, 0, 0))
    if kind == "eta":
        i = imaginary_unit(k)
        if i is None:
            raise NoImaginaryUnit(f"eta needs i in {k}")
        half = k.one / 2
        return AffineMap2(half, half, -i * half, i * half, point(k, 0, 0))
    raise ValueError(f"unknown atom kind {kind!r}")


# ---------------------------------------------------- raw prime tables

def raw_image_table(m, k: PrimeField) -> list[int]:
    """Image table as point indices (idx = x1*p + x2); fast paths for the
    structured map shapes, generic application otherwise."""
    p = k.p
    if isinstance(m, AffineOrthoMap):
        q = m.linear
        a, b = q.q11.rep, q.q12.rep
        c, d = q.q21.rep, q.q22.rep
        tx, ty = m.translation.x1.rep, m.translation.x2.rep
        return [((a * x + b * y + tx) % p) * p + (c * x + d * y + ty) % p
                for x in range(p) for y in range(p)]
    if isinstance(m, SemiAffineMap) and not m.gamma.levels:
        return raw_image_table(m.outer, k)
    return [img.x1.rep * p + img.x2.rep
            for img in (m(pt) for pt in all_points(k))]


def table_from_raw(k: PrimeField, raw: list[int]) -> MapTable:
    pts = all_points(k)
    return MapTable(k, {pts[i]: pts[raw[i]] for i in range(len(pts))})
