"""Points of the plane k^2 and the quadratic/bilinear forms on them.

``phi`` is the squared-distance form, ``psi`` the imaginary pairing of
two points over a tower presented as F(i), and ``lm_distance`` the
product form that ``xi``/``eta`` intertwine with ``phi``.  All values
are exact field elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, NoImaginaryUnit, ZeroScale
from .fields import (
    FieldElement,
    FieldTower,
    PrimeField,
    imaginary_unit,
    random_element,
    re_im,
)


@dataclass(frozen=True)
class Point:
    """A point (x1, x2) with both coordinates in one field."""

    x1: FieldElement
    x2: FieldElement

    def __post_init__(self):
        if self.x1.tower != self.x2.tower:
            raise FieldMismatch(
                f"point coordinates in different fields: {self.x1.tower} vs {self.x2.tower}")

    @property
    def tower(self) -> FieldTower:
        return self.x1.tower

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x1 - other.x1, self.x2 - other.x2)

    def __str__(self):
        return f"({self.x1}, {self.x2})"


def point(k: FieldTower, a, b) -> Point:
    return Point(k(a), k(b))


def phi(x: Point, y: Point) -> FieldElement:
    """Squared-distance form (x1-y1)^2 + (x2-y2)^2."""
    d1 = x.x1 - y.x1
    d2 = x.x2 - y.x2
    return d1 * d1 + d2 * d2


def psi(x: Point, y: Point) -> FieldElement:
    """Imaginary pairing Im(x1)Im(y1) + Im(x2)Im(y2).

    Requires the coordinate field to be presented as F(i); the value
    lives in the real subfield F.
    """
    _, bx1 = re_im(x.x1)
    _, bx2 = re_im(x.x2)
    _, by1 = re_im(y.x1)
    _, by2 = re_im(y.x2)
    return bx1 * by1 + bx2 * by2


def lm_distance(x: Point, y: Point) -> FieldElement:
    """Product form (x1-y1)*(x2-y2)."""
    return (x.x1 - y.x1) * (x.x2 - y.x2)


def _unit(k: FieldTower) -> FieldElement:
    i = imaginary_unit(k)
    if i is None:
        raise NoImaginaryUnit(f"{k} has no canonical i with i*i = -1")
    return i


def xi(x: Point) -> Point:
    """Coordinate change (x1 + i x2, x1 - i x2); phi = lm after xi."""
    i = _unit(x.tower)
    return Point(x.x1 + i * x.x2, x.x1 - i * x.x2)


def eta(x: Point) -> Point:
    """Inverse of xi: (x1/2 + x2/2, (i/2)(x2 - x1))."""
    k = x.tower
    i = _unit(k)
    half = k(Fraction(1, 2))
    return Point(half * (x.x1 + x.x2), i * half * (x.x2 - x.x1))


def lambda_map(z: FieldElement, x: Point) -> Point:
    """The product-form-preserving scaling (x1/z, z*x2)."""
    if z.is_zero:
        raise ZeroScale("lambda scaling needs z != 0")
    return Point(x.x1 / z, z * x.x2)


def swap_map(x: Point) -> Point:
    return Point(x.x2, x.x1)


# --------------------------------------------------------- enumerations

def all_points(k: PrimeField) -> list[Point]:
    """All p^2 points of GF(p)^2 in row-major order, cached on the field."""
    cache = getattr(k, "_point_cache", None)
    if cache is None:
        cache = [Point(k(a), k(b)) for a in range(k.p) for b in range(k.p)]
        k._point_cache = cache
    return cache


def random_point(k: FieldTower, rng: random.Random, *, size: int = 9) -> Point:
    return Point(random_element(k, rng, size=size),
                 random_element(k, rng, size=size))


# ------------------------------------------------- transform identities

_IDENTITY_NAMES = (
    "phi_matches_lm_after_xi",
    "lm_matches_phi_after_eta",
    "eta_after_xi_is_id",
    "xi_after_eta_is_id",
)


@dataclass
class IdentityCheck:
    name: str
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.violations


@dataclass
class TransformIdentityReport:
    field: str
    mode: str
    checks: list[IdentityCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _note(check: IdentityCheck, *witness: Point) -> None:
    # keep the first 10 witnesses in scan order
    if len(check.violations) < 10:
        check.violations.append(tuple(str(x) for x in witness))


def _identity_violations(pairs, pts) -> list[IdentityCheck]:
    """Check the two form identities on every pair and the two inverse
    identities on every point; each distinct point is mapped through xi
    and eta once per call."""
    images: dict[Point, tuple[Point, Point]] = {}

    def image(x: Point) -> tuple[Point, Point]:
        got = images.get(x)
        if got is None:
            got = images[x] = (xi(x), eta(x))
        return got

    checks = [IdentityCheck(name, 0, []) for name in _IDENTITY_NAMES]
    phi_lm, lm_phi, eta_xi, xi_eta = checks
    for x, y in pairs:
        xi_x, eta_x = image(x)
        xi_y, eta_y = image(y)
        phi_lm.checked += 1
        if phi(x, y) != lm_distance(xi_x, xi_y):
            _note(phi_lm, x, y)
        lm_phi.checked += 1
        if lm_distance(x, y) != phi(eta_x, eta_y):
            _note(lm_phi, x, y)
    for x in pts:
        xi_x, eta_x = image(x)
        eta_xi.checked += 1
        if eta(xi_x) != x:
            _note(eta_xi, x)
        xi_eta.checked += 1
        if xi(eta_x) != x:
            _note(xi_eta, x)
    return checks


def verify_transform_identities(
    k: FieldTower,
    mode: str = "exhaustive",
    *,
    samples: int = 200,
    seed: int = 0,
) -> TransformIdentityReport:
    """Certify the four xi/eta identities on k^2.

    mode "exhaustive" scans all point pairs of a finite field; mode
    "samples" checks seeded random pairs over any field presenting i.
    A check that covered nothing is not ok.
    """
    _unit(k)  # fail early with NoImaginaryUnit
    if mode == "exhaustive":
        if not isinstance(k, PrimeField):
            raise FieldMismatch("exhaustive identity scan needs a finite field")
        pts = all_points(k)
        pairs = ((x, y) for x in pts for y in pts)
        return TransformIdentityReport(
            str(k), "exhaustive", _identity_violations(pairs, pts))
    rng = random.Random(seed)
    pairs = [(random_point(k, rng), random_point(k, rng)) for _ in range(samples)]
    pts = [x for x, _ in pairs]
    checks = _identity_violations(pairs, pts)
    return TransformIdentityReport(str(k), f"samples({samples},seed={seed})", checks)
