"""Points of the plane k^2 and the quadratic/bilinear forms on them.

``phi`` is the squared-distance form, ``psi`` the imaginary pairing of
two points over a tower presented as F(i), and ``lm_distance`` the
product form that ``xi``/``eta`` intertwine with ``phi``.  All values
are exact field elements.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import FieldMismatch, NoImaginaryUnit, ZeroScale
from .fields import (
    EXHAUSTIVE,
    MAX_WITNESSES,
    Check,
    DomainSpec,
    FieldElement,
    FieldTower,
    PrimeField,
    imaginary_unit,
    random_element,
    re_im,
)


class Point:
    """A point (x1, x2) with both coordinates in one field."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: FieldElement, x2: FieldElement):
        if x1.tower is not x2.tower and x1.tower != x2.tower:
            raise FieldMismatch(
                f"point coordinates in different fields: {x1.tower} vs {x2.tower}")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Point, (self.x1, self.x2)

    def __eq__(self, other):
        if other.__class__ is Point:
            return (self.x1, self.x2) == (other.x1, other.x2)
        return NotImplemented

    def __hash__(self):
        return hash((self.x1, self.x2))

    def __repr__(self):
        return f"Point(x1={self.x1!r}, x2={self.x2!r})"

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
    d1, d2 = x.x1 - y.x1, x.x2 - y.x2
    k = d1.tower
    return FieldElement(k, k._row(d1.rep, d1.rep, d2.rep, d2.rep, k.zero_rep))


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
    ix2 = _unit(x.tower) * x.x2
    return Point(x.x1 + ix2, x.x1 - ix2)


def eta(x: Point) -> Point:
    """Inverse of xi: (x1/2 + x2/2, (i/2)(x2 - x1))."""
    k = x.tower
    scales = getattr(k, "_eta_scales", None)
    if scales is None:
        half = k(Fraction(1, 2))
        scales = k._eta_scales = (half, _unit(k) * half)
    half, i_half = scales
    return Point(half * (x.x1 + x.x2), i_half * (x.x2 - x.x1))


def lambda_map(z: FieldElement, x: Point) -> Point:
    """The product-form-preserving scaling (x1/z, z*x2)."""
    if z.is_zero:
        raise ZeroScale("lambda scaling needs z != 0")
    return Point(x.x1 / z, z * x.x2)


# --------------------------------------------------------- enumerations

def all_points(k: PrimeField) -> list[Point]:
    """All p^2 points of GF(p)^2 in row-major order, cached on the field:
    ``all_points(k)[idx]`` is the point of index idx (see ``point_index``)."""
    cache = getattr(k, "_point_cache", None)
    if cache is None:
        cache = [Point(k(a), k(b)) for a in range(k.p) for b in range(k.p)]
        k._point_cache = cache
    return cache


def point_index(x: Point) -> int:
    """The index x1*p + x2 of a point of GF(p)^2, the format of every GF(p)
    table; ``all_points`` is its inverse."""
    return x.x1.rep * x.x1.tower.p + x.x2.rep


def random_point(k: FieldTower, rng: random.Random) -> Point:
    return Point(random_element(k, rng), random_element(k, rng))


# ------------------------------------------------- transform identities

_IDENTITY_NAMES = (
    "phi_matches_lm_after_xi",
    "lm_matches_phi_after_eta",
    "eta_after_xi_is_id",
    "xi_after_eta_is_id",
)


@dataclass
class TransformIdentityReport:
    field: str
    mode: str
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _identity_checks(domain: DomainSpec, pairs, pts) -> list[Check]:
    """Check the two form identities on every pair and the two inverse
    identities on every point, counting every case; each distinct point
    is mapped through xi and eta once per call."""
    images: dict[Point, tuple[Point, Point]] = {}

    def image(x: Point) -> tuple[Point, Point]:
        got = images.get(x)
        if got is None:
            got = images[x] = (xi(x), eta(x))
        return got

    checks = [Check(name, domain) for name in _IDENTITY_NAMES]
    phi_lm, lm_phi, eta_xi, xi_eta = checks
    for x, y in pairs:
        xi_x, eta_x = image(x)
        xi_y, eta_y = image(y)
        phi_lm.checked += 1
        if phi(x, y) != lm_distance(xi_x, xi_y):
            phi_lm.note(str(x), str(y))
        lm_phi.checked += 1
        if lm_distance(x, y) != phi(eta_x, eta_y):
            lm_phi.note(str(x), str(y))
    for x in pts:
        xi_x, eta_x = image(x)
        eta_xi.checked += 1
        if eta(xi_x) != x:
            eta_xi.note(str(x))
        xi_eta.checked += 1
        if xi(eta_x) != x:
            xi_eta.note(str(x))
    return checks


def _residue_identity_checks(k: PrimeField) -> list[Check]:
    """The same four checks over every pair and point of GF(p)^2, on
    ``point_index`` indices.

    xi and eta are called once per point, and phi and lm_distance once
    per difference vector d = x - y (both forms read only x - y).  A
    form's row over all y is one tuple slice and a row read after xi or
    eta is that row permuted, so each of the 2p^2 row pairs of the p^4
    pair scan is one tuple compare.  Counts, witnesses and witness order
    are those of ``_identity_checks`` over all pairs.
    """
    p = k.p
    pts = all_points(k)
    origin = pts[0]

    xi_at, eta_at = ([point_index(f(x)) for x in pts] for f in (xi, eta))

    def rows(form):  # per x2: form(d1, x2 - y2), d1 = p-1..0, y2 = 0..p-1
        of = [form(d, origin).rep for d in pts]
        seq = [tuple(of[d1 * p + (x2 - y2) % p] for _ in (0, 1)
                     for d1 in range(p - 1, -1, -1) for y2 in range(p))
               for x2 in range(p)]

        def row(i: int) -> tuple:  # twice over, so one slice per x1
            start = (p - 1 - i // p) * p
            return seq[i % p][start:start + p * p]
        return row

    phi_row, lm_row = rows(phi), rows(lm_distance)
    by_xi, by_eta = itemgetter(*xi_at), itemgetter(*eta_at)

    checks = [Check(name, EXHAUSTIVE) for name in _IDENTITY_NAMES]
    phi_lm, lm_phi, eta_xi, xi_eta = checks

    def note_row(check: Check, x: Point, got: tuple, want: tuple):
        if got == want or len(check.witnesses) >= MAX_WITNESSES:
            return
        for y, g, w in zip(pts, got, want):
            if g != w and check.note(str(x), str(y)):
                return

    for i, x in enumerate(pts):
        note_row(phi_lm, x, phi_row(i), by_xi(lm_row(xi_at[i])))
        note_row(lm_phi, x, lm_row(i), by_eta(phi_row(eta_at[i])))
    phi_lm.checked = lm_phi.checked = len(pts) ** 2
    for i, x in enumerate(pts):
        if eta_at[xi_at[i]] != i:
            eta_xi.note(str(x))
        if xi_at[eta_at[i]] != i:
            xi_eta.note(str(x))
    eta_xi.checked = xi_eta.checked = len(pts)
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
    "samples" checks ``samples`` seeded random pairs over any field
    presenting i.  The checks keep the first witnesses of each identity
    and count every case; a check that covered nothing is not ok.
    """
    # DomainSpec refuses a mode other than these two with ValueError
    domain = EXHAUSTIVE if mode == "exhaustive" else DomainSpec(mode, samples, seed)
    _unit(k)  # fail early with NoImaginaryUnit
    if domain.exhaustive_over(k):
        checks = _residue_identity_checks(k)
    else:
        rng = random.Random(seed)
        pairs = [(random_point(k, rng), random_point(k, rng)) for _ in range(samples)]
        checks = _identity_checks(domain, pairs, [x for x, _ in pairs])
    return TransformIdentityReport(str(k), domain.describe(), checks)
