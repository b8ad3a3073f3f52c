"""Points of the plane k^2 and the quadratic/bilinear forms on them.

``phi`` is the squared-distance form, ``psi`` the imaginary pairing of
two points over a tower presented as F(i), and ``lm_distance`` the
product form that ``xi``/``eta`` intertwine with ``phi``; those two
multiply by i and halve through the field kernel (``_times_i``, ``_half``).
All values are exact field elements.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
from operator import itemgetter

from .errors import FieldMismatch, ZeroScale
from .fields import (
    EXHAUSTIVE,
    MAX_WITNESSES,
    Check,
    DomainSpec,
    FieldElement,
    FieldTower,
    PrimeField,
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


def xi(x: Point) -> Point:
    """Coordinate change (x1 + i x2, x1 - i x2); phi = lm after xi."""
    k, x1 = x.tower, x.x1.rep
    ix2 = k._times_i(x.x2.rep)
    return Point(FieldElement(k, k._add(x1, ix2)), FieldElement(k, k._sub(x1, ix2)))


def eta(x: Point) -> Point:
    """Inverse of xi: ((x1 + x2)/2, i (x2 - x1)/2)."""
    k, x1, x2 = x.tower, x.x1.rep, x.x2.rep
    return Point(FieldElement(k, k._half(k._add(x1, x2))),
                 FieldElement(k, k._half(k._times_i(k._sub(x2, x1)))))


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


def _identity_checks(domain: DomainSpec, pairs: list[tuple[Point, Point]]) -> list[Check]:
    """Check the two form identities on every pair (x, y) and the two
    inverse identities on its first point x, in one pass over the pairs;
    each check counts every pair and keeps its witnesses in pair order."""
    checks = [Check(name, domain) for name in _IDENTITY_NAMES]
    phi_lm, lm_phi, eta_xi, xi_eta = checks
    for x, y in pairs:
        xi_x, eta_x = xi(x), eta(x)
        if phi(x, y) != lm_distance(xi_x, xi(y)):
            phi_lm.note(str(x), str(y))
        if lm_distance(x, y) != phi(eta_x, eta(y)):
            lm_phi.note(str(x), str(y))
        if eta(xi_x) != x:
            eta_xi.note(str(x))
        if xi(eta_x) != x:
            xi_eta.note(str(x))
    for check in checks:
        check.checked = len(pairs)
    return checks


def _residue_identity_checks(k: PrimeField) -> list[Check]:
    """The same four checks over GF(p)^2, the form identities on every
    pair and the inverse identities on every point, on ``point_index``
    indices.

    xi and eta are called once per point, and phi and lm_distance once
    per difference vector d = x - y (both forms read only x - y).  A
    form's row over all y is one tuple slice and a row read after xi or
    eta is that row permuted, so each of the 2p^2 row pairs of the p^4
    pair scan is one tuple compare.  Counts, witnesses and witness order
    are those of checking each pair, then each point, in ``all_points``
    order.
    """
    p = k.p
    pts = all_points(k)
    origin = pts[0]

    xi_at, eta_at = ([point_index(f(x)) for x in pts] for f in (xi, eta))

    def rows(form):  # per x2: form(d1, x2 - y2), d1 = p-1..0, y2 = 0..p-1
        back = [form(d, origin).rep for d in reversed(pts)]
        # per d1 = p-1..0: form(d1, d2) for d2 = p-1..0, twice over, so
        # that d2 = x2..0, p-1..x2+1 is the slice from p-1-x2
        cycles = [back[i:i + p] * 2 for i in range(0, p * p, p)]
        seq = [tuple(chain.from_iterable(c[p - 1 - x2:2 * p - 1 - x2] for c in cycles)) * 2
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
    k._times_i(k.one_rep)  # fail early with NoImaginaryUnit
    if domain.exhaustive_over(k):
        checks = _residue_identity_checks(k)
    else:
        rng = random.Random(seed)
        pairs = [(random_point(k, rng), random_point(k, rng)) for _ in range(samples)]
        checks = _identity_checks(domain, pairs)
    return TransformIdentityReport(str(k), domain.describe(), checks)
