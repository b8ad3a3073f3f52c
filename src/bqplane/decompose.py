"""Decomposition of unit-distance-preserving maps into the canonical
form: an affine map with orthogonal linear part composed with a
coordinatewise field homomorphism.

Two independent routes produce the same certified triple (J, gamma,
branch).  The frame route normalizes by the affine-orthogonal map J
sending the images of (0,0), (1,0), (0,1) back to the canonical frame
and reads gamma off the normalized map.  The Lorentz route conjugates by
the xi/eta change of coordinates, rescales by lambda(a), splits the kept
from the swapped product form, reads gamma off the surviving coordinate
and rebuilds the map from the case matrices; it never touches the frame
construction.  Agreement of the two routes on a domain is therefore
meaningful evidence, not a tautology.

``search_unit_preservers`` closes the loop over a finite plane: it
enumerates every self-map of GF(p)^2 that preserves unit distance by
backtracking over the unit-distance graph, and feeds each find through
the decomposition.  A find that fails to decompose would falsify the
canonical-form claim at that prime; it is reported as an anomaly with a
full witness table, never discarded.

Over GF(p) each route reads f once, as its image table of point indices
(``geometry.point_index``), and decomposes it in residues: every point is
verified, gamma must fix each of the p residues (additivity and
gamma(1) = 1 force gamma(n) = n; ``_read_prime_gamma``), and the rebuilt
normal form's table must equal f's; matrix, table and J are residues.
Over infinite towers each route evaluates f on the seeded probe set
described by the DomainSpec (basis monomials, their pairwise sums and
products, then random elements), which is this library's documented
evidence standard, and ``_read_gamma`` certifies gamma's laws there;
with fewer probe pairs than samples, each law pair and frame rebuild
point is checked once.  Every affine table over GF(p), the rebuilt
normal form's and the census's alike, is one ``maps.index_table``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass

from .errors import (
    BQError,
    BranchUndetermined,
    CaseUndetermined,
    FieldMismatch,
    FrameNotOrthonormal,
    LorentzNormalizationFailed,
    NoImaginaryPresentation,
    NoImaginaryUnit,
    NotAHomomorphism,
    ProductFormViolation,
)
from .fields import (
    EXHAUSTIVE,
    DomainSpec,
    FieldElement,
    FieldTower,
    LevelConjugation,
    PrimeField,
    apply_hom,
    basis_monomials,
    imaginary_unit,
    is_automorphism,
    is_f_of_i,
    probe_elements,
    tower_levels,
)
from .geometry import Point, eta, phi, point, random_point, xi
from .maps import (
    AffineMap,
    MapTable,
    Matrix2,
    SemiAffineMap,
    affine_row,
    index_table,
    invert,
    lorentz_case1_matrix,
    lorentz_case2_matrix,
    raw_image_table,
    unit_circle,
)

# ------------------------------------------------------------- results

@dataclass
class DecompositionResult:
    """Certified triple (J, gamma, branch): on the verified domain the
    input map equals invert(J) composed with the coordinatewise gamma.
    J is a normal form with orthogonal matrix and gamma = id."""

    normalizer: SemiAffineMap
    gamma: LevelConjugation
    branch: str  # "theta" | "zeta" | "not_applicable"
    verified_on: DomainSpec
    field: FieldTower
    route: str = "frame"
    lorentz_case: int | None = None
    lorentz_scale: FieldElement | None = None

    def reconstruction(self) -> SemiAffineMap:
        return SemiAffineMap(invert(self.normalizer).outer, self.gamma)

    def to_record(self) -> dict:
        q = self.normalizer.outer.linear
        t = self.normalizer.outer.translation
        rec = {
            "route": self.route,
            "field": str(self.field),
            "normalizer_matrix": [[str(q.q11), str(q.q12)],
                                  [str(q.q21), str(q.q22)]],
            "normalizer_translation": [str(t.x1), str(t.x2)],
            "gamma": str(self.gamma),
            "branch": self.branch,
            "verified_on": self.verified_on.describe(),
        }
        if self.route == "lorentz":
            rec["lorentz_case"] = self.lorentz_case
            rec["lorentz_scale"] = str(self.lorentz_scale)
        return rec


def _oracle(f):
    if callable(f):
        return f
    raise TypeError(f"map oracle must be callable, got {type(f).__name__}")


# ----------------------------------------------------- frame normalizer

def normalizer_from_images(f0: Point, f1: Point, f2: Point) -> SemiAffineMap:
    """The affine-orthogonal J sending the frame images f0, f1, f2 back
    to (0,0), (1,0), (0,1).

    The squared distances between the images must be exactly (1, 1, 2);
    that is what makes the difference vectors an orthonormal pair and the
    construction valid.  A violation means the source map cannot preserve
    unit distance.
    """
    d01, d02, d12 = phi(f0, f1), phi(f0, f2), phi(f1, f2)
    if d01 != 1 or d02 != 1 or d12 != 2:
        raise FrameNotOrthonormal(
            f"frame image distances ({d01}, {d02}, {d12}) differ from (1, 1, 2)")
    u = f1 - f0
    v = f2 - f0
    q = Matrix2(u.x1, u.x2, v.x1, v.x2)  # orthonormal rows u, v
    shift = q.apply(f0)
    return SemiAffineMap(AffineMap(q, Point(-shift.x1, -shift.x2)))


# ------------------------------------------------------ verification

def _verified_domain(domain: DomainSpec, k: FieldTower) -> DomainSpec:
    """The domain a decomposition over k is verified on: every point of
    GF(p) whatever was asked for, else the requested sample.  An
    exhaustive domain over a tower is refused (FieldNotFinite), and so
    is an empty sample: a decomposition verified on nothing is no
    verdict."""
    if not domain.exhaustive_over(k) and domain.samples < 1:
        raise ValueError(
            f"a sampled domain needs at least 1 sample, got {domain.samples}")
    return EXHAUSTIVE if isinstance(k, PrimeField) else domain


def _index_pairs(rng: random.Random, n: int, count: int):
    """``count`` seeded index pairs below n.  When fewer exist (n * n <
    count, as over Q at a large sample), each comes once and the draws end
    when all n * n are seen: a deterministic check repeated cannot differ."""
    ids, seen = range(n), set()
    pairs = ((rng.choice(ids), rng.choice(ids)) for _ in range(count))
    return pairs if n * n >= count else itertools.islice(
        (uv for uv in pairs if not (uv in seen or seen.add(uv))), n * n)


def _read_prime_gamma(table: list[int], k: PrimeField) -> LevelConjugation:
    """Certify gamma over GF(p) from its p residues, table[x] = gamma(x).

    gamma is lawful exactly when it is the identity, since additivity and
    gamma(1) = 1 force gamma(n) = n * gamma(1) = n; so the first unfixed
    residue m names the first pair of the row-major law scan that fails:
    (0, 0) when m = 0, else (1, m - 1), as gamma(m) != 1 + gamma(m - 1).
    """
    if table[1] != 1:
        raise NotAHomomorphism("gamma(1) != 1", witness=k.one)
    m = next((x for x, gx in enumerate(table) if gx != x), None)
    if m is not None:
        x, y = (0, 0) if m == 0 else (1, m - 1)
        raise NotAHomomorphism(
            f"additivity fails at ({x}, {y})", witness=(k(x), k(y)))
    return LevelConjugation()


def _read_gamma(gamma_eval, k: FieldTower, domain: DomainSpec) -> LevelConjugation:
    """Read the homomorphism gamma off one coordinate map over a tower and
    certify its laws on a sampled domain.

    The laws are spot-checked on the seeded probe set with genuine
    witnesses, then gamma is read off the generators (r_L -> -r_L
    conjugates level L, r_L -> r_L fixes it), must be an automorphism,
    and is re-verified once on every basis monomial (which a small
    sample's probes leave out) and every probe.
    """
    count = domain.samples
    rng = random.Random(domain.seed)
    probes = probe_elements(k, rng, count)
    cache: dict[FieldElement, FieldElement] = {}

    def ev(x: FieldElement) -> FieldElement:
        got = cache.get(x)
        if got is None:
            got = gamma_eval(x)
            if got.tower != k:
                raise FieldMismatch("extracted value left the field")
            cache[x] = got
        return got

    one = k.one
    if ev(one) != one:
        raise NotAHomomorphism("gamma(1) != 1", witness=one)
    for u, v in _index_pairs(rng, len(probes), count):  # distinct probes: indices name values
        x, y = probes[u], probes[v]
        if ev(x + y) != ev(x) + ev(y):
            raise NotAHomomorphism(
                f"additivity fails at ({x}, {y})", witness=(x, y))
        if ev(x * y) != ev(x) * ev(y):
            raise NotAHomomorphism(
                f"multiplicativity fails at ({x}, {y})", witness=(x, y))
    layers = tower_levels(k)
    levels = []
    for layer in layers:
        r = k(layer.radical)
        if ev(r) == -r:
            levels.append(layer.level)
        elif ev(r) != r:
            raise NotAHomomorphism(
                "generator images match no catalog homomorphism", witness=r)
    match = LevelConjugation(*levels)
    if not is_automorphism(match, k):
        moved = next(d for d in (k(layer.d) for layer in layers) if apply_hom(match, d) != d)
        raise NotAHomomorphism(
            "generator images match no catalog homomorphism", witness=moved)
    basis = basis_monomials(k)
    for x in basis + probes[len(basis):]:  # the probes open with the basis
        if ev(x) != apply_hom(match, x):
            raise NotAHomomorphism(
                f"disagrees at {x} with the homomorphism fixed by its "
                "generator images", witness=x)
    return match


# ------------------------------------------------------- branch probe

def detect_branch(g, k: FieldTower) -> str:
    """Which homomorphic extension the normalized map follows at (i, i):
    "theta" keeps i, "zeta" conjugates it.  Any other image proves the
    map is not a unit-distance preserver."""
    if not is_f_of_i(k):
        raise NoImaginaryPresentation(f"{k} has no F(i) presentation")
    i0 = imaginary_unit(k)
    img = _oracle(g)(Point(i0, i0))
    if img == Point(i0, i0):
        return "theta"
    if img == Point(-i0, -i0):
        return "zeta"
    raise BranchUndetermined(
        f"g((i, i)) = ({img.x1}, {img.x2}) matches neither (i, i) nor (-i, -i)")


# ------------------------------------------------------ frame pipeline

def decompose(f, k: FieldTower, domain: DomainSpec = EXHAUSTIVE
              ) -> DecompositionResult:
    """Frame-route decomposition: build J from the images of the frame,
    read gamma off J composed with f, check that f equals the rebuilt
    normal form invert(J) o gamma, and detect the branch when the field
    presents i.  Prime fields are verified exhaustively regardless of the
    requested domain."""
    domain = _verified_domain(domain, k)
    if domain == EXHAUSTIVE:
        return _frame_on_table(raw_image_table(_oracle(f), k), k)
    ev = _oracle(f)
    normalizer = normalizer_from_images(
        ev(point(k, 0, 0)), ev(point(k, 1, 0)), ev(point(k, 0, 1)))

    def g(x: Point) -> Point:
        return normalizer(ev(x))

    zero, q, t = k.zero, normalizer.outer.linear, normalizer.outer.translation
    # gamma reads g((x, 0)).x1, so only J's first row is applied
    gamma = _read_gamma(lambda x: affine_row(q.q11, q.q12, ev(Point(x, zero)), t.x1),
                        k, domain)

    def draw():
        rng = random.Random(domain.seed + 1)
        probes = probe_elements(k, rng, domain.samples)
        return (Point(probes[u], probes[v])
                for u, v in _index_pairs(rng, len(probes), domain.samples))

    recon = SemiAffineMap(invert(normalizer).outer, gamma)
    x = next((x for x in draw() if recon(x) != ev(x)), None)
    if x is not None:
        y = g(x)
        raise ProductFormViolation(
            f"normalized map sends ({x.x1}, {x.x2}) to ({y.x1}, {y.x2}), "
            "not coordinatewise", witness=x)
    branch = "not_applicable"
    if is_f_of_i(k):
        branch = detect_branch(g, k)
    return DecompositionResult(normalizer, gamma, branch, domain, k)


# ---------------------------------------------------- Lorentz pipeline

def decompose_lorentz(f, k: FieldTower, domain: DomainSpec = EXHAUSTIVE
                      ) -> DecompositionResult:
    """Lorentz-route decomposition, structurally independent of the
    frame route.

    After translating f((0,0)) to the origin, the conjugate
    xi o f o eta preserves Lorentz-Minkowski distance 1; its image of
    (1,1) gives the scale a with a*b = 1, and rescaling by lambda(a)
    leaves either the kept product form (sigma, sigma) (case 1) or the
    swapped one (case 2), separated by probing (2, 0).  The map is then
    rebuilt from the case matrix and sigma and must agree with f on the
    whole domain.
    """
    domain = _verified_domain(domain, k)
    i0 = imaginary_unit(k)
    if i0 is None:
        raise NoImaginaryUnit(f"{k} has no i; the Lorentz route needs one")
    if domain == EXHAUSTIVE:
        return _lorentz_on_table(raw_image_table(_oracle(f), k), k)
    ev = _oracle(f)
    t0 = ev(point(k, 0, 0))

    def big_f(x: Point) -> Point:
        img = ev(eta(x))
        return xi(Point(img.x1 - t0.x1, img.x2 - t0.x2))

    ab = big_f(point(k, 1, 1))
    a, b = ab.x1, ab.x2
    if a.is_zero or a * b != k.one:
        raise LorentzNormalizationFailed(
            f"normalized image of (1,1) gives a*b = {a * b}, not 1")

    a_inv = k.one / a

    def big_g(x: Point) -> Point:  # lambda(a) after big_f, with 1/a found once
        y = big_f(x)
        return Point(y.x1 * a_inv, a * y.x2)

    two, zero = k(2), k.zero
    probe = big_g(point(k, 2, 0))
    if probe == Point(two, zero):
        case = 1
    elif probe == Point(zero, two):
        case = 2
    else:
        raise CaseUndetermined(
            f"rescaled map sends (2, 0) to ({probe.x1}, {probe.x2}), "
            "matching neither product form")

    # sigma reads big_g((x, 0)) in one coordinate: the case's row (c1, c2) of
    # lambda(a) o xi on f(eta((x, 0))) - t0, with linear eta((x, 0)) = x * eta((1, 0))
    c1, c2 = (a_inv, i0 * a_inv) if case == 1 else (a, -i0 * a)
    shift, e1 = -affine_row(c1, c2, t0, zero), eta(point(k, 1, 0))
    sigma = _read_gamma(lambda x: affine_row(c1, c2, ev(Point(e1.x1 * x, e1.x2 * x)), shift),
                        k, domain)
    case_matrix = (lorentz_case1_matrix if case == 1
                   else lorentz_case2_matrix)(a, sigma, k)
    outer = AffineMap(case_matrix, t0)

    def draw():
        rng = random.Random(domain.seed + 2)
        return (random_point(k, rng) for _ in range(domain.samples))

    recon = SemiAffineMap(outer, sigma)
    x = next((x for x in draw() if recon(x) != ev(x)), None)
    if x is not None:
        raise ProductFormViolation(
            f"case-{case} reconstruction disagrees at ({x.x1}, {x.x2})",
            witness=x)
    branch = "theta" if apply_hom(sigma, i0) == i0 else "zeta"  # a tower with i is F(i)
    return DecompositionResult(invert(SemiAffineMap(outer)), sigma, branch, domain, k,
                               route="lorentz", lorentz_case=case,
                               lorentz_scale=a)


# ------------------------------------------------------ GF(p) tables

def _frame_on_table(raw: tuple[int, ...], k: PrimeField) -> DecompositionResult:
    """The frame route on a GF(p) image table, in residues: J is
    x -> Q (x - f(0)) with rows u = f(1,0) - f(0), v = f(0,1) - f(0); the
    frame distances make Q orthogonal, so invert(J) is y -> Q^T y + f(0)."""
    p = k.p
    (a0, b0), (a1, b1), (a2, b2) = (divmod(raw[idx], p) for idx in (0, p, 1))
    u1, u2, v1, v2 = a1 - a0, b1 - b0, a2 - a0, b2 - b0
    dist = ((u1 * u1 + u2 * u2) % p, (v1 * v1 + v2 * v2) % p,
            ((a2 - a1) ** 2 + (b2 - b1) ** 2) % p)
    if dist != (1, 1, 2):
        raise FrameNotOrthonormal(f"frame image distances {dist} differ from (1, 1, 2)")

    def g(idx: int) -> tuple[int, int]:  # J(f(x)) for the point x of index idx
        fa, fb = raw[idx] // p - a0, raw[idx] % p - b0
        return (u1 * fa + u2 * fb) % p, (v1 * fa + v2 * fb) % p

    gamma = _read_prime_gamma([g(x * p)[0] for x in range(p)], k)
    recon = index_table(p, u1, v1, u2, v2, a0, b0)
    if recon != raw:
        idx = next(idx for idx, img in enumerate(recon) if img != raw[idx])
        (x1, x2), (y1, y2) = divmod(idx, p), g(idx)
        raise ProductFormViolation(f"normalized map sends ({x1}, {x2}) to ({y1}, {y2}), "
                                   "not coordinatewise", witness=point(k, x1, x2))
    j = AffineMap(Matrix2(k(u1), k(u2), k(v1), k(v2)),
                  point(k, -(u1 * a0 + u2 * b0), -(v1 * a0 + v2 * b0)))
    return DecompositionResult(SemiAffineMap(j), gamma, "not_applicable", EXHAUSTIVE, k)


def _lorentz_on_table(raw: tuple[int, ...], k: PrimeField) -> DecompositionResult:
    """The Lorentz route on a GF(p) image table, in residues, with its
    own xi and eta on the residues i and 1/2, and J from its case matrix."""
    p, i, half = k.p, imaginary_unit(k).rep, (k.p + 1) // 2
    t0a, t0b = divmod(raw[0], p)

    def big_g(x1: int, x2: int, a: int = 1, a_inv: int = 1) -> tuple[int, int]:
        # lambda(a) o xi o (f - f(0)) o eta, as residues
        img = raw[(x1 + x2) * half % p * p + (x2 - x1) * i * half % p]
        fa, fb = img // p - t0a, img % p - t0b
        return (fa + i * fb) * a_inv % p, (fa - i * fb) * a % p

    a, b = big_g(1, 1)
    if a * b % p != 1:
        raise LorentzNormalizationFailed(
            f"normalized image of (1,1) gives a*b = {a * b % p}, not 1")
    a_inv = pow(a, -1, p)
    case = {(2, 0): 1, (0, 2): 2}.get(probe := big_g(2, 0, a, a_inv))
    if case is None:
        raise CaseUndetermined(f"rescaled map sends (2, 0) to ({probe[0]}, {probe[1]}), "
                               "matching neither product form")
    sigma = _read_prime_gamma([big_g(x, 0, a, a_inv)[case - 1] for x in range(p)], k)
    # the orthogonal case matrix M = [[big, s small i], [-small i, s big]] at
    # sigma = id, so J = invert(x -> M x + t0) is x -> M^T (x - t0)
    s = 1 if case == 1 else -1
    big, small = (a + a_inv) * half % p, (a - a_inv) * half % p
    m11, m12, m21, m22 = big, s * small * i % p, -small * i % p, s * big % p
    recon = index_table(p, m11, m12, m21, m22, t0a, t0b)
    if recon != raw:
        x1, x2 = divmod(next(idx for idx, img in enumerate(recon) if img != raw[idx]), p)
        raise ProductFormViolation(f"case-{case} reconstruction disagrees at ({x1}, {x2})",
                                   witness=point(k, x1, x2))
    j = AffineMap(Matrix2(k(m11), k(m21), k(m12), k(m22)),
                  point(k, -(m11 * t0a + m21 * t0b), -(m12 * t0a + m22 * t0b)))
    return DecompositionResult(SemiAffineMap(j), sigma, "not_applicable", EXHAUSTIVE, k,
                               route="lorentz", lorentz_case=case, lorentz_scale=k(a))


# ------------------------------------------------------ preserver search

@dataclass
class Anomaly:
    """A found preserver that failed decomposition: a would-be
    counterexample to the canonical-form claim, with its full table."""

    table: MapTable
    reason: str


@dataclass
class SearchCensus:
    p: int
    expected: int
    found: list[MapTable]
    anomalies: list[Anomaly]
    complete: bool
    nodes: int    # nodes of the search tree up to the end or the budget
    visited: int  # of those, the nodes the DFS walked one by one

    @property
    def total_found(self) -> int:
        return len(self.found)

    @property
    def ok(self) -> bool:
        """No anomalies, and either every expected preserver was found or,
        for a budget-limited census, at least one was: a census that
        found nothing checked nothing."""
        if self.anomalies:
            return False
        if self.complete:
            return self.total_found == self.expected
        return self.total_found > 0


def _neighbors(p: int, offs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Each point's unit neighbours x + u, in the order of offs."""
    return list(zip(*(index_table(p, 1, 0, 0, 1, dx, dy) for dx, dy in offs)))


def _search_order(neigh: list[tuple[int, ...]]
                  ) -> tuple[list[int], list[list[int]]]:
    """Static assignment order for the backtracking search: (0,0) first,
    then always the point with the most already-ordered unit-neighbors
    (ties by point index), popped from a lazy heap of the keys
    -score * n + idx.  Also returns, per position, the positions of each
    point's earlier-ordered neighbors, which is exactly the set of
    constraints available when that position gets its image."""
    n = len(neigh)
    score = [0] * n
    placed = [False] * n
    heap = list(range(n))  # every key at score 0, sorted, so a heap
    order: list[int] = []
    while heap:
        neg, v = divmod(heapq.heappop(heap), n)
        if placed[v] or -neg != score[v]:
            continue  # placed, or a stale key: scores only grow
        placed[v] = True
        order.append(v)
        for w in neigh[v]:
            if not placed[w]:
                score[w] += 1
                heapq.heappush(heap, w - score[w] * n)
    pos_of = [0] * n
    for i, v in enumerate(order):
        pos_of[v] = i
    earlier = [sorted(pos_of[w] for w in neigh[v] if pos_of[w] < i)
               for i, v in enumerate(order)]
    return order, earlier


def _rotations(p: int, offs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """For each unit offset u, in the order of offs, the (rc, rs) of
    R = rot(u) rot(u0)^-1 = rot(rc, rs), where u0 is the lowest-index unit
    offset and rot(c, s) = [[c, -s], [s, c]]; so R u0 = u.  As
    rc + i rs = (c + i s)(c0 - i s0), rc^2 + rs^2 = 1: R has determinant 1
    and keeps x1^2 + x2^2, so it permutes the points and maps the unit
    circle onto itself."""
    c0, s0 = min(offs)
    return [((c * c0 + s * s0) % p, (s * c0 - c * s0) % p) for c, s in offs]


def _walk(img: list[int], masks: list[int], seed: list[int],
          more: list[tuple[int, ...]], cm: int, stop: int
          ) -> tuple[int, list[list[int]], bool]:
    """The static-order DFS below images img[0], img[1] of positions 0, 1
    and the position-2 candidates cm: (nodes, finds by position in the
    order found, whether it stopped at its node number stop, never at 0).

    Position pos + 1 takes the AND of the masks of its earlier
    neighbours' images, seed[pos] and more[pos]; each position after 0
    has one, as (1, 0) and (0, 1) make the unit graph connected."""
    n = len(masks)
    mpos = [0] * n   # per position: the mask of the image's unit circle
    mpos[0], mpos[1] = masks[img[0]], masks[img[1]]
    stack = [0] * n  # untried candidates of the positions below pos
    finds: list[list[int]] = []
    nodes = 0
    last = n - 1
    pos = 2  # cm: the untried candidates of pos, never pushed empty
    while True:
        if not cm:
            pos -= 1
            if pos < 2:
                return nodes, finds, False
            cm = stack[pos]
            continue
        low = cm & -cm
        cm ^= low
        nodes += 1
        if nodes == stop:
            return nodes, finds, True
        v = low.bit_length() - 1
        img[pos] = v
        if pos == last:
            finds.append(img[:])
            continue
        mpos[pos] = masks[v]
        nxt = mpos[seed[pos]]
        for e in more[pos]:
            nxt &= mpos[e]
        if nxt:
            stack[pos] = cm
            pos += 1
            cm = nxt


def _mirror(p: int, offs: list[tuple[int, int]]) -> tuple[int, ...]:
    """x -> 2<x, u0> u0 - x, u0 = (c, s) the lowest-index unit offset: the
    reflection (<u0, u0> = 1) that fixes (0,0) and u0."""
    c, s = min(offs)
    return index_table(p, 2 * c * c - 1, 2 * c * s, 2 * c * s, 2 * s * s - 1, 0, 0)


def _pair_census(p: int, offs: list[tuple[int, int]], neigh: list[tuple[int, ...]],
                 earlier: list[list[int]], stop: int
                 ) -> tuple[list[list[int]], int, int, bool]:
    """The DFS over every pair of images of positions 0 and 1, one child
    (image of position 2) at a time, walking only the children that no
    earlier child maps onto (see ``search_unit_preservers``): (finds by
    position in DFS order, nodes, nodes walked, complete)."""
    n = p * p
    # distinct offsets give distinct neighbours, so the sum is their union
    masks = [sum(1 << v for v in row) for row in neigh]
    seed = [e[0] for e in earlier[1:]] + [0]
    more = [tuple(e[1:]) for e in earlier[1:]] + [()]
    rots = _rotations(p, offs)
    sigma = _mirror(p, offs)
    img = [0] * n
    kids: dict[int, tuple[int, list[list[int]]]] = {}  # first pair: v -> child
    first: tuple[int, list[list[int]]] | None = None  # the first pair subtree
    finds: list[list[int]] = []
    nodes = mapped = 0
    for a in range(n):
        nodes += 1
        if nodes == stop:
            return finds, nodes, nodes - mapped, False
        a1, a2 = divmod(a, p)
        for b, (rc, rs) in sorted(zip(neigh[a], rots)):  # the DFS order of b
            nodes += 1
            if nodes == stop:
                return finds, nodes, nodes - mapped, False
            img[0], img[1] = a, b
            if first is None:  # child w is the mirror of child sigma[w]
                table, plan = sigma, [
                    (w, sigma[w]) for w in range(n)
                    if all(masks[img[e]] >> w & 1 for e in earlier[2])]
            else:  # J maps the first pair's child v onto the child J(v)
                table = index_table(p, rc, -rs, rs, rc, a1, a2)
                if not stop or nodes + first[0] < stop:
                    finds.extend(sorted([table[x] for x in f] for f in first[1]))
                    nodes += first[0]
                    mapped += first[0]
                    continue
                plan = sorted((table[v], v) for v in kids)
            for w, v in plan:
                src = kids.get(v)
                if src is not None and (not stop or nodes + src[0] < stop):
                    sub, got, cut = src[0], sorted(
                        [table[x] for x in f] for f in src[1]), False
                    mapped += sub
                else:
                    sub, got, cut = _walk(img, masks, seed, more, 1 << w,
                                          stop - nodes if stop else 0)
                finds.extend(got)
                nodes += sub
                if cut:
                    return finds, nodes, nodes - mapped, False
                if first is None:
                    kids[w] = (sub, got)
            if first is None:  # below its nodes 1 and 2; no find precedes
                first = (nodes - 2, finds[:])
    return finds, nodes, nodes - mapped, True


def search_unit_preservers(p: int, budget: int | None = None
                           ) -> SearchCensus:
    """Enumerate every unit-distance-preserving self-map of GF(p)^2 by
    backtracking, then decompose each find.

    Only the unit-distance constraint is propagated: each point's
    candidate images are the intersection of the unit circles around the
    images of its already-assigned unit-neighbors.  Nothing about
    injectivity or affinity is assumed, so the search is a genuine
    falsification harness for the canonical-form count p^2 * 2(p-1).  A
    node budget stops the search early with the census marked
    incomplete; whatever was found is still decomposed, and any find
    that fails to decompose becomes an anomaly entry.

    Positions 0 and 1 are (0,0) and its unit neighbour (0,1); they take
    every pair of images (a, b) with b - a a unit vector, in DFS order.
    A bijection J with J(circle(y)) = circle(J(y)) makes J o f a
    preserver exactly when f is, so J maps a subtree node for node onto
    another, with the same node count and the finds mapped through J and
    sorted (lexicographic order of the images by position is the DFS
    leaf order).  J(x) = a + R x, with R = rot(b - a) rot(u0)^-1 a
    rotation that keeps the unit circle and u0 the lowest-index unit
    vector, maps the first pair subtree, (0, u0), onto that of (a, b),
    and its child v (image v of position 2) onto the child J(v); the
    reflection sigma(x) = 2<x, u0> u0 - x fixes 0 and u0 and maps the
    first pair's child v onto its child sigma(v).  So only the first
    pair's children with v <= sigma(v) are walked, and of the pair the
    budget cuts, child by child in the order of J(v), only the one where
    the stop falls.  ``nodes``, ``complete`` and the finds in order are
    those of the full walk; ``visited`` counts the nodes walked one by
    one.  Each find, walked or mapped, is decomposed.
    """
    k = PrimeField(p)
    n = p * p
    offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(k)]
    neigh = _neighbors(p, offs)
    order, earlier = _search_order(neigh)
    stop = 0 if budget is None else budget + 1  # nodes never equals 0
    found_pos, nodes, visited, complete = _pair_census(p, offs, neigh,
                                                       earlier, stop)
    expected = n * 2 * (p - 1)
    found: list[MapTable] = []
    anomalies: list[Anomaly] = []
    pos_of = sorted(range(n), key=order.__getitem__)  # point index -> position
    for by_pos in found_pos:
        table = MapTable(k, [by_pos[e] for e in pos_of])
        found.append(table)
        try:
            decompose(table, k)
        except BQError as exc:
            anomalies.append(Anomaly(table, f"{type(exc).__name__}: {exc}"))
    return SearchCensus(p, expected, found, anomalies, complete, nodes,
                        visited)
