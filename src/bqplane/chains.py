"""Unit-distance chains: sequences of points with squared distance
exactly 1 between consecutive entries.

Two builders are provided.  ``build_real_chain`` connects two points
with real coordinates, either by extending the field with the square
roots the straight-line walk needs (auto_extend) or, over Q only, by an
exact constructive decomposition into Pythagorean unit steps
(rational_only).  ``build_lemma3_chain`` connects a point with nonzero
imaginary part to (i, i) while certifying a nonzero imaginary pairing on
every edge; it is the chain the unit-distance rigidity argument rides on.

Step counts and square-root branches are chosen by the exact real order
(``real_sign``), and every emitted edge is certified exactly by
``verify_chain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FactoringExhausted,
    FieldMismatch,
    NoImaginaryPresentation,
    PrimaryBranchUnavailable,
    SearchExhausted,
)
from .fields import (
    FieldElement,
    FieldTower,
    Q,
    QuadExt,
    _join,
    ensure_sqrt,
    is_f_of_i,
    is_real_tower,
    rational_value,
    re_im,
    real_sign,
    sqrt_in_field,
)
from .geometry import Point, phi, point, psi
from .ntheory import factorint, sqrt_mod


@dataclass
class Chain:
    """An ordered list of points, all in one field, claimed unit-distance."""

    points: list[Point]
    field: FieldTower
    reported_edge_bound: int | None = None

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a chain needs at least two points")
        for p in self.points:
            if p.tower != self.field:
                raise FieldMismatch("chain point outside the chain's field")

    def __len__(self):
        return len(self.points)


@dataclass
class EdgeRecord:
    """Exact per-edge record: phi must be 1; psi_value is the imaginary
    pairing when the field presents one."""

    index: int
    phi_ok: bool
    psi_ok: bool | None
    phi_value: FieldElement
    psi_value: FieldElement | None


@dataclass
class ChainReport:
    edges: list[EdgeRecord]
    require_psi: bool

    @property
    def ok(self) -> bool:
        for e in self.edges:
            if not e.phi_ok:
                return False
            if self.require_psi and not e.psi_ok:
                return False
        return True


def verify_chain(c: Chain, *, require_psi: bool = False) -> ChainReport:
    """Recompute every edge exactly; with require_psi also demand the
    imaginary pairing be nonzero on each edge."""
    has_i = is_f_of_i(c.field)
    if require_psi and not has_i:
        raise NoImaginaryPresentation(
            f"{c.field} has no i presentation for psi certificates")
    records = []
    for idx in range(len(c.points) - 1):
        x, y = c.points[idx], c.points[idx + 1]
        pv = phi(x, y)
        sv = psi(x, y) if has_i else None
        records.append(EdgeRecord(idx, pv == 1, None if sv is None else not sv.is_zero,
                                  pv, sv))
    return ChainReport(records, require_psi)


# ------------------------------------------------------------ auto mode

def _strip_imaginary(s: Point, t: Point):
    """Move points given over F(i) with zero imaginary parts down to F."""
    k = s.tower
    if is_f_of_i(k):
        coords = []
        for e in (s.x1, s.x2, t.x1, t.x2):
            re, im = re_im(e)
            if not im.is_zero:
                raise FieldMismatch("chain endpoints must have real coordinates")
            coords.append(re)
        return Point(coords[0], coords[1]), Point(coords[2], coords[3])
    return s, t


def _lift_point(p: Point, field: FieldTower) -> Point:
    return Point(field(p.x1), field(p.x2))


def _two_step(s: Point, t: Point, h: FieldElement) -> Chain:
    """S -> M -> T over h's field, M at height h*|ST| off the midpoint.

    Both edges are unit when h^2 = (4 - D) / (4 D) for D = phi(S, T), so
    the closure needs that square root only, no sqrt(D).
    """
    k = h.tower
    s, t = _lift_point(s, k), _lift_point(t, k)
    diff = t - s
    half = k(Fraction(1, 2))
    mid = Point(s.x1 + half * diff.x1, s.x2 + half * diff.x2)
    m = Point(mid.x1 - h * diff.x2, mid.x2 + h * diff.x1)
    return Chain([s, m, t], k, reported_edge_bound=2)


STEP_BUDGET = 10_000


def _auto_extend_chain(s: Point, t: Point, budget: int = STEP_BUDGET) -> Chain:
    k = s.tower
    if not is_real_tower(k):
        raise FieldMismatch(f"{k} is not a real tower")
    dist2 = phi(s, t)
    # the walk below reports max(2, ceil(sqrt(dist2))) edges
    if real_sign(dist2 - budget ** 2) > 0:
        raise SearchExhausted(f"the straight walk needs more than the budget of {budget} steps")
    if dist2.is_zero:
        step = point(k, 1, 0)
        return Chain([s, s + step, s], k, reported_edge_bound=2)
    if dist2 == 1:
        return Chain([s, t], k, reported_edge_bound=1)
    # the fewest unit steps along the segment that leave at most 2 for
    # the closing two-circle step, so the closing height stays real
    steps_along = 0
    while real_sign(dist2 - (steps_along + 2) ** 2) > 0:
        steps_along += 1
    if steps_along == 0:
        return _two_step(s, t, ensure_sqrt(k, (4 - dist2) / (4 * dist2))[1])
    k1, root = ensure_sqrt(k, dist2)
    s1, t1 = _lift_point(s, k1), _lift_point(t, k1)
    diff = t1 - s1
    u = Point(diff.x1 / root, diff.x2 / root)
    remainder = root - steps_along  # in (1, 2] by choice of steps_along
    k2, h = ensure_sqrt(k1, k1.one - remainder * remainder / 4)
    u2 = _lift_point(u, k2)
    s2 = _lift_point(s1, k2)
    t2 = _lift_point(t1, k2)
    rem2 = k2(remainder)
    pts = [s2]
    for j in range(1, steps_along + 1):
        jj = k2(j)
        pts.append(Point(s2.x1 + jj * u2.x1, s2.x2 + jj * u2.x2))
    last = pts[-1]
    half_rem = rem2 / 2
    m = Point(last.x1 + half_rem * u2.x1 - h * u2.x2,
              last.x2 + half_rem * u2.x2 + h * u2.x1)
    pts.append(m)
    pts.append(t2)
    return Chain(pts, k2, reported_edge_bound=steps_along + 2)


# -------------------------------------------------------- rational mode

def _two_squares(p: int, k: int) -> tuple[int, int]:
    """A primitive representation p^k = e^2 + f^2 for a prime p = 1 mod 4,
    via Gaussian-integer powers of the prime's representation."""
    # find p = a^2 + b^2 by the Hermite-Serret walk
    a, b = p, sqrt_mod(p - 1, p)
    while b * b > p:
        a, b = b, a % b
    a, b = b, a % b
    assert a * a + b * b == p
    e, f = a, b
    ge, gf = 1, 0
    for _ in range(k):
        ge, gf = ge * e - gf * f, ge * f + gf * e
    ge, gf = abs(ge), abs(gf)
    assert ge * ge + gf * gf == p ** k and math.gcd(ge, gf) == 1
    return ge, gf


def _axis_plan(v: Fraction, factors: dict[int, int]
               ) -> tuple[list[tuple[int, Fraction, Fraction]], int]:
    """Plan one axis: rhombus batches realizing each prime-power part of
    the denominator, whose factorization is ``factors``, plus the
    leftover integer displacement.

    Each batch is (signed rhombus count, long leg, short leg) where the
    legs are the components of the Pythagorean unit step; one rhombus is
    two unit steps whose short legs cancel, moving 2*long_leg along the
    axis.
    """
    batches = []
    remaining = v
    for q_prime, mult in factors.items():
        q = q_prime ** mult
        rest = v.denominator // q
        c = v.numerator * pow(rest, -1, q) % q
        if c > q // 2:
            c -= q
        e, f = _two_squares(q_prime, mult)
        leg_long = Fraction(e * e - f * f, q)
        leg_short = Fraction(2 * e * f, q)
        # one rhombus moves 2*leg_long; solve for the count mod q
        s0 = c * pow(2 * (e * e - f * f), -1, q) % q
        if s0 > q // 2:
            s0 -= q
        batches.append((s0, leg_long, leg_short))
        remaining -= 2 * s0 * leg_long
    assert remaining.denominator == 1, "fractional part not fully realized"
    return batches, remaining.numerator


def _axis_steps(plan, whole: int) -> tuple[list, list]:
    """An x-axis plan's unit steps (dx, dy): its rhombi, then its whole steps."""
    rhombi = []
    for count, leg_long, leg_short in plan:
        leg = leg_long if count >= 0 else -leg_long
        rhombi += [(leg, leg_short), (leg, -leg_short)] * abs(count)
    return rhombi, [(Fraction(1 if whole >= 0 else -1), Fraction(0))] * abs(whole)


def _rational_chain_steps(v1: Fraction, v2: Fraction, factors, budget: int
                          ) -> list[tuple[Fraction, Fraction]]:
    """Unit steps (as (dx, dy) pairs) summing exactly to (v1, v2), given
    the factorizations of their denominators; y's are x's, swapped."""
    plan_x, whole_x = _axis_plan(v1, factors[0])
    plan_y, whole_y = _axis_plan(v2, factors[1])
    cost = sum(2 * abs(n) for n, _, _ in plan_x + plan_y) + abs(whole_x) + abs(whole_y)
    if cost > budget:
        raise SearchExhausted(
            f"constructive chain needs {cost} steps, budget {budget}")
    rhombi_x, steps_x = _axis_steps(plan_x, whole_x)
    rhombi_y, steps_y = ([(dy, dx) for dx, dy in part] for part in _axis_steps(plan_y, whole_y))
    return rhombi_x + rhombi_y + steps_x + steps_y


def _rational_only_chain(s: Point, t: Point, budget: int) -> Chain:
    if s.tower != Q or t.tower != Q:
        raise FieldMismatch("rational_only chains need endpoints over Q")
    v1 = rational_value(t.x1 - s.x1)
    v2 = rational_value(t.x2 - s.x2)
    if v1 == 0 and v2 == 0:
        return Chain([s, s + point(Q, 1, 0), s], Q, reported_edge_bound=2)
    factors = []
    unfactored = []
    for coord in (v1, v2):
        try:
            primes, rest = factorint(coord.denominator), []
        except FactoringExhausted as exc:
            primes, rest = exc.factors, exc.cofactors
        # a divisor d > 1 of the denominator that is even or 3 mod 4
        # certifies infeasibility, whether or not d is prime
        if any(d % 4 != 1 for d in [*primes, *rest]):
            raise SearchExhausted(
                f"displacement ({v1}, {v2}) is unreachable by rational unit steps: "
                "coordinate denominators must factor into primes = 1 mod 4 "
                "(rational unit vectors have no other denominators)",
                retriable=False)
        factors.append(primes)
        unfactored += rest
    if unfactored:
        raise SearchExhausted(
            f"displacement ({v1}, {v2}): the denominator part"
            f" {', '.join(map(str, unfactored))} is not factored within the"
            " factoring effort cap, so reachability by rational unit steps"
            " is undecided")
    dist2 = v1 * v1 + v2 * v2
    if dist2 == 1:
        return Chain([s, t], Q, reported_edge_bound=1)
    # None when (4 - D) / (4 D) is no rational square, so for every D > 4
    h = sqrt_in_field(Q((4 - dist2) / (4 * dist2)))
    if h is not None:
        return _two_step(s, t, h)
    steps = _rational_chain_steps(v1, v2, factors, budget)
    pts = [s]
    for dx, dy in steps:
        pts.append(Point(pts[-1].x1 + Q(dx), pts[-1].x2 + Q(dy)))
    assert pts[-1] == t, "constructive steps failed to land on the target"
    return Chain(pts, Q, reported_edge_bound=len(steps))


def build_real_chain(s: Point, t: Point, mode: str = "auto_extend", *,
                     budget: int = STEP_BUDGET) -> Chain:
    """Connect s to t by exact unit steps.

    mode "auto_extend": walk the segment in unit steps, adjoining the
    square roots the direction and the final two-circle closure need.
    mode "rational_only": endpoints over Q, all intermediate points
    rational; raises SearchExhausted, non-retriable when a divisor of a
    coordinate denominator that is even or 3 mod 4 shows no rational
    chain exists, retriable when the bounded factoring leaves part of a
    denominator unsplit.  In both modes a chain that needs more than
    ``budget`` steps raises a retriable SearchExhausted.
    """
    if s.tower != t.tower:
        raise FieldMismatch("endpoints in different fields")
    s, t = _strip_imaginary(s, t)
    if mode == "auto_extend":
        return _auto_extend_chain(s, t, budget)
    if mode == "rational_only":
        return _rational_only_chain(s, t, budget)
    raise ValueError(f"unknown chain mode {mode!r}")


# ------------------------------------------------------- connector chain

def build_lemma3_chain(x: Point, *, budget: int = STEP_BUDGET
                       ) -> tuple[Chain, list[EdgeRecord]]:
    """Chain from a point with nonzero imaginary part to (i, i), with the
    imaginary pairing certified nonzero on every edge: the certificates
    are the edge records of ``verify_chain(chain, require_psi=True)``.

    The first coordinate must have a nonzero imaginary part; when only
    the second does, the construction runs on swapped coordinates and
    swaps back (the target is symmetric).  Fully real points have no
    such chain and raise PrimaryBranchUnavailable; a real walk of more
    than ``budget`` steps raises a retriable SearchExhausted.
    """
    k = x.tower
    if not is_f_of_i(k):
        raise NoImaginaryPresentation(f"{k} must be presented as F(i)")
    a1, b1 = re_im(x.x1)
    a2, b2 = re_im(x.x2)
    swapped = False
    if b1.is_zero:
        if b2.is_zero:
            raise PrimaryBranchUnavailable(
                f"{x} has no imaginary part; no pairing-certified chain exists")
        a1, b1, a2, b2 = a2, b2, a1, b1
        swapped = True
    f1, s1 = ensure_sqrt(k.base, 1 + b2 * b2)
    f2, s2 = ensure_sqrt(f1, 1 + (b1 - 1) * (b1 - 1))
    f3, s3 = ensure_sqrt(f2, 2)

    start = Point(f3(a1) + f3(s1), f3(a2) + f3(s2))
    goal = Point(s3, f3.zero)
    real_chain = _auto_extend_chain(start, goal, budget)
    f4 = real_chain.field
    a1, b1, a2, b2, s1 = (f4(e) for e in (a1, b1, a2, b2, s1))

    top = QuadExt(f4, -1)
    i = top.radical

    def cx(re_part: FieldElement, im_part: FieldElement) -> FieldElement:
        return FieldElement(top, _join(re_part.rep, im_part.rep))

    pts = [Point(cx(a1, b1), cx(a2, b2)),
           Point(cx(a1 + s1, b1), top(a2))]
    for real_pt in real_chain.points:
        pts.append(Point(cx(real_pt.x1, f4.one), top(real_pt.x2)))
    pts.append(Point(i, i))
    if swapped:
        pts = [Point(p.x2, p.x1) for p in pts]
    chain = Chain(pts, top,
                  reported_edge_bound=(real_chain.reported_edge_bound or 0) + 4)
    return chain, verify_chain(chain, require_psi=True).edges
