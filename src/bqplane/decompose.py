"""Decomposition of unit-distance-preserving maps into the canonical
form: an affine map with orthogonal linear part composed with a
coordinatewise field homomorphism.

Two independent routes produce the same certified triple (J, gamma,
branch).  The frame route normalizes by the affine-orthogonal map J
sending the images of (0,0), (1,0), (0,1) back to the canonical frame,
then reads gamma off the normalized map and checks the homomorphism laws
and the product form directly.  The Lorentz route conjugates by the
xi/eta change of coordinates, rescales by lambda(a), splits the kept
from the swapped product form, and rebuilds the map from the case
matrices; it never touches the frame construction.  Agreement of the two
routes on a domain is therefore meaningful evidence, not a tautology.

``search_unit_preservers`` closes the loop over a finite plane: it
enumerates every self-map of GF(p)^2 that preserves unit distance by
backtracking over the unit-distance graph, and feeds each find through
the decomposition.  A find that fails to decompose would falsify the
canonical-form claim at that prime; it is reported as an anomaly with a
full witness table, never discarded.

Finite fields are always verified exhaustively.  Over infinite towers
"verified" means: on the seeded probe set described by the DomainSpec
(basis monomials, their pairwise sums and products, then random
elements), which is this library's documented evidence standard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BQError,
    BranchUndetermined,
    CaseUndetermined,
    FieldMismatch,
    FieldNotFinite,
    FrameNotOrthonormal,
    LorentzNormalizationFailed,
    NoImaginaryPresentation,
    NoImaginaryUnit,
    NotAHomomorphism,
    ProductFormViolation,
)
from .fields import (
    FieldElement,
    FieldTower,
    Homomorphism,
    Identity,
    PrimeField,
    QuadExt,
    apply_hom,
    basis_monomials,
    catalog_homomorphisms,
    imaginary_unit,
    probe_elements,
)
from .geometry import Point, all_points, eta, lambda_map, phi, point, random_point, xi
from .maps import (
    EXHAUSTIVE,
    AffineOrthoMap,
    DomainSpec,
    MapTable,
    OrthoMatrix2,
    SemiAffineMap,
    invert,
    lorentz_case1_matrix,
    lorentz_case2_matrix,
    raw_image_table,
    table_from_raw,
)

# ------------------------------------------------------------- results

@dataclass
class DecompositionResult:
    """Certified triple (J, gamma, branch): on the verified domain the
    input map equals invert(J) composed with the coordinatewise gamma."""

    normalizer: AffineOrthoMap
    gamma: Homomorphism
    branch: str  # "theta" | "zeta" | "not_applicable"
    verified_on: DomainSpec
    field: FieldTower
    route: str = "frame"
    lorentz_case: int | None = None
    lorentz_scale: FieldElement | None = None

    def reconstruction(self) -> SemiAffineMap:
        return SemiAffineMap(invert(self.normalizer), self.gamma)

    def to_record(self) -> dict:
        q = self.normalizer.linear
        t = self.normalizer.translation
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


@dataclass
class HomExtraction:
    """Outcome of reading a homomorphism off a normalized map."""

    hom: Homomorphism
    law_pairs: int
    points_checked: int
    complete: bool


def _oracle(f):
    if callable(f):
        return f
    raise TypeError(f"map oracle must be callable, got {type(f).__name__}")


# ----------------------------------------------------- frame normalizer

def normalizer_from_images(f0: Point, f1: Point, f2: Point) -> AffineOrthoMap:
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
    q = OrthoMatrix2(u.x1, u.x2, v.x1, v.x2)  # rows u, v
    shift = q.apply(f0)
    return AffineOrthoMap(q, Point(-shift.x1, -shift.x2))


# ------------------------------------------------ homomorphism reading

def _check_prime_hom_table(table: list[int], k: PrimeField) -> int:
    """Exhaustive law check of a GF(p) value table.  A table that is
    additive, multiplicative, and unital is necessarily the identity."""
    p = k.p
    if table[1] != 1:
        raise NotAHomomorphism("gamma(1) != 1", witness=k.one)
    for x in range(p):
        gx = table[x]
        for y in range(p):
            if table[(x + y) % p] != (gx + table[y]) % p:
                raise NotAHomomorphism(
                    f"additivity fails at ({x}, {y})", witness=(k(x), k(y)))
            if table[x * y % p] != gx * table[y] % p:
                raise NotAHomomorphism(
                    f"multiplicativity fails at ({x}, {y})", witness=(k(x), k(y)))
    assert table == list(range(p)), "lawful unital table must be the identity"
    return p * p


def _require_samples(domain: DomainSpec) -> None:
    """A sampled domain must name at least one probe; a decomposition
    verified on nothing is no verdict."""
    if domain.kind == "samples" and domain.samples < 1:
        raise ValueError(
            f"a sampled domain needs at least 1 sample, got {domain.samples}")


def _tower_hom_from_eval(gamma_eval, k: FieldTower, domain: DomainSpec
                         ) -> tuple[Homomorphism, int]:
    """Probe-set extraction over an infinite tower: law spot checks with
    genuine witnesses, then a catalog match pinned on the monomial basis
    and re-verified on every probe."""
    if domain.kind == "exhaustive":
        raise FieldNotFinite(
            f"exhaustive homomorphism checking needs a finite field, not {k}")
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
    pairs = 0
    for _ in range(count):
        x, y = rng.choice(probes), rng.choice(probes)
        if ev(x + y) != ev(x) + ev(y):
            raise NotAHomomorphism(
                f"additivity fails at ({x}, {y})", witness=(x, y))
        if ev(x * y) != ev(x) * ev(y):
            raise NotAHomomorphism(
                f"multiplicativity fails at ({x}, {y})", witness=(x, y))
        pairs += 1
    monomials = basis_monomials(k)
    match = None
    for h in catalog_homomorphisms(k):
        if all(ev(m) == apply_hom(h, m) for m in monomials):
            match = h
            break
    if match is None:
        witness = next(
            (m for m in monomials
             if all(ev(m) != apply_hom(h, m) for h in catalog_homomorphisms(k))),
            None)
        raise NotAHomomorphism(
            "generator images match no catalog homomorphism", witness=witness)
    for x in probes:
        if ev(x) != apply_hom(match, x):
            raise NotAHomomorphism(
                f"disagrees at {x} with the homomorphism fixed by its "
                "generator images", witness=x)
    return match, pairs


def extract_homomorphism(g, k: FieldTower, domain: DomainSpec = EXHAUSTIVE
                         ) -> HomExtraction:
    """Read gamma(x) := g((x, 0)).x1 off a normalized map, certify the
    homomorphism laws, and check the product form g((x1,x2)) =
    (gamma(x1), gamma(x2)).

    Over a prime field the whole check is exhaustive and the only lawful
    gamma is the identity.  Over towers the laws and the product form are
    checked on the seeded probe set and gamma is matched against the
    conjugation catalog.
    """
    _require_samples(domain)
    ev = _oracle(g)
    zero = k.zero

    def gamma_eval(x: FieldElement) -> FieldElement:
        return ev(Point(x, zero)).x1

    if isinstance(k, PrimeField):
        p = k.p
        table = [gamma_eval(k(x)).rep for x in range(p)]
        law_pairs = _check_prime_hom_table(table, k)
        for pt in all_points(k):
            img = ev(pt)
            want = Point(k(table[pt.x1.rep]), k(table[pt.x2.rep]))
            if img != want:
                raise ProductFormViolation(
                    f"g(({pt.x1}, {pt.x2})) = ({img.x1}, {img.x2}) "
                    "is not coordinatewise", witness=pt)
        return HomExtraction(Identity(), law_pairs, p * p, True)

    hom, law_pairs = _tower_hom_from_eval(gamma_eval, k, domain)
    rng = random.Random(domain.seed + 1)
    count = domain.samples
    probes = probe_elements(k, rng, count)
    checked = 0
    for _ in range(count):
        pt = Point(rng.choice(probes), rng.choice(probes))
        img = ev(pt)
        want = Point(apply_hom(hom, pt.x1), apply_hom(hom, pt.x2))
        if img != want:
            raise ProductFormViolation(
                f"g(({pt.x1}, {pt.x2})) = ({img.x1}, {img.x2}) "
                "is not coordinatewise", witness=pt)
        checked += 1
    return HomExtraction(hom, law_pairs, checked, False)


# ------------------------------------------------------- branch probe

def detect_branch(g, k: FieldTower) -> str:
    """Which homomorphic extension the normalized map follows at (i, i):
    "theta" keeps i, "zeta" conjugates it.  Any other image proves the
    map is not a unit-distance preserver."""
    if not (isinstance(k, QuadExt) and k.d == -1):
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
    extract gamma from J composed with f, detect the branch when the
    field presents i.  Prime fields are verified exhaustively regardless
    of the requested domain."""
    _require_samples(domain)
    ev = _oracle(f)
    if isinstance(k, PrimeField):
        raw = raw_image_table(ev, k)
        return _decompose_prime_raw(raw, k)
    f0 = ev(point(k, 0, 0))
    fx = ev(point(k, 1, 0))
    fy = ev(point(k, 0, 1))
    normalizer = normalizer_from_images(f0, fx, fy)

    def g(x: Point) -> Point:
        return normalizer(ev(x))

    ext = extract_homomorphism(g, k, domain)
    branch = "not_applicable"
    if isinstance(k, QuadExt) and k.d == -1:
        branch = detect_branch(g, k)
    return DecompositionResult(normalizer, ext.hom, branch, domain, k)


def _decompose_prime_raw(raw: list[int], k: PrimeField) -> DecompositionResult:
    """Exhaustive frame-route decomposition on a raw index table; all of
    the arithmetic stays in machine integers."""
    p = k.p
    a0, b0 = divmod(raw[0], p)
    ax, bx = divmod(raw[p], p)   # image of (1, 0)
    ay, by = divmod(raw[1], p)   # image of (0, 1)

    def d2(xa, xb, ya, yb):
        return ((xa - ya) ** 2 + (xb - yb) ** 2) % p

    frame = (d2(a0, b0, ax, bx), d2(a0, b0, ay, by), d2(ax, bx, ay, by))
    if frame != (1, 1, 2 % p):
        raise FrameNotOrthonormal(
            f"frame image distances {frame} differ from (1, 1, 2)")
    u1, u2 = (ax - a0) % p, (bx - b0) % p
    v1, v2 = (ay - a0) % p, (by - b0) % p
    g = [0] * (p * p)
    for idx, img in enumerate(raw):
        fa, fb = divmod(img, p)
        da, db = fa - a0, fb - b0
        g[idx] = ((u1 * da + u2 * db) % p) * p + (v1 * da + v2 * db) % p
    gamma = [g[x * p] // p for x in range(p)]
    _check_prime_hom_table(gamma, k)
    for idx in range(p * p):
        x1, x2 = divmod(idx, p)
        if g[idx] != gamma[x1] * p + gamma[x2]:
            ia, ib = divmod(g[idx], p)
            raise ProductFormViolation(
                f"normalized map sends ({x1}, {x2}) to ({ia}, {ib}), "
                "not coordinatewise", witness=point(k, x1, x2))
    q = OrthoMatrix2(k(u1), k(u2), k(v1), k(v2))
    shift = q.apply(point(k, a0, b0))
    normalizer = AffineOrthoMap(q, Point(-shift.x1, -shift.x2))
    return DecompositionResult(normalizer, Identity(), "not_applicable",
                               EXHAUSTIVE, k)


# ---------------------------------------------------- Lorentz pipeline

def _domain_points(k: FieldTower, domain: DomainSpec) -> list[Point]:
    if domain.kind == "exhaustive":
        if not isinstance(k, PrimeField):
            raise FieldNotFinite(
                f"exhaustive domain needs a finite field, not {k}")
        return all_points(k)
    rng = random.Random(domain.seed + 2)
    return [random_point(k, rng)
            for _ in range(domain.samples)]


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
    _require_samples(domain)
    i0 = imaginary_unit(k)
    if i0 is None:
        raise NoImaginaryUnit(f"{k} has no i; the Lorentz route needs one")
    ev = _oracle(f)
    if isinstance(k, PrimeField):
        raw = raw_image_table(ev, k)
        return _lorentz_prime_raw(raw, k)
    t0 = ev(point(k, 0, 0))

    def big_f(x: Point) -> Point:
        img = ev(eta(x))
        return xi(Point(img.x1 - t0.x1, img.x2 - t0.x2))

    ab = big_f(point(k, 1, 1))
    a, b = ab.x1, ab.x2
    if a.is_zero or a * b != k.one:
        raise LorentzNormalizationFailed(
            f"normalized image of (1,1) gives a*b = {a * b}, not 1")

    def big_g(x: Point) -> Point:
        return lambda_map(a, big_f(x))

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

    def sigma_eval(x: FieldElement) -> FieldElement:
        img = big_g(Point(x, zero))
        return img.x1 if case == 1 else img.x2

    sigma, _ = _tower_hom_from_eval(sigma_eval, k, domain)
    case_matrix = (lorentz_case1_matrix if case == 1
                   else lorentz_case2_matrix)(a, sigma, k)
    outer = AffineOrthoMap(case_matrix, t0)
    recon = SemiAffineMap(outer, sigma)
    for x in _domain_points(k, domain):
        if recon(x) != ev(x):
            raise ProductFormViolation(
                f"case-{case} reconstruction disagrees at ({x.x1}, {x.x2})",
                witness=x)
    branch = "not_applicable"
    if isinstance(k, QuadExt) and k.d == -1:
        branch = "theta" if apply_hom(sigma, i0) == i0 else "zeta"
    return DecompositionResult(invert(outer), sigma, branch, domain, k,
                               route="lorentz", lorentz_case=case,
                               lorentz_scale=a)


def _lorentz_prime_raw(raw: list[int], k: PrimeField) -> DecompositionResult:
    """Exhaustive Lorentz-route decomposition on a raw index table."""
    p = k.p
    i_int = imaginary_unit(k).rep
    inv2 = pow(2, p - 2, p)
    t0a, t0b = divmod(raw[0], p)

    def f_at(x1: int, x2: int) -> tuple[int, int]:
        # eta, then the origin-normalized map, then xi
        e1 = (x1 + x2) * inv2 % p
        e2 = (x2 - x1) * i_int * inv2 % p
        fa, fb = divmod(raw[e1 * p + e2], p)
        fa, fb = fa - t0a, fb - t0b
        return (fa + i_int * fb) % p, (fa - i_int * fb) % p

    a, b = f_at(1, 1)
    if a == 0 or a * b % p != 1:
        raise LorentzNormalizationFailed(
            f"normalized image of (1,1) gives a*b = {a * b % p}, not 1")
    ainv = pow(a, p - 2, p)

    def g_at(x1: int, x2: int) -> tuple[int, int]:
        w1, w2 = f_at(x1, x2)
        return w1 * ainv % p, w2 * a % p

    probe = g_at(2, 0)
    if probe == (2, 0):
        case = 1
    elif probe == (0, 2):
        case = 2
    else:
        raise CaseUndetermined(
            f"rescaled map sends (2, 0) to {probe}, matching neither "
            "product form")
    coord = 0 if case == 1 else 1
    sigma = [g_at(x, 0)[coord] for x in range(p)]
    _check_prime_hom_table(sigma, k)
    big = (a + ainv) * inv2 % p
    small = (a - ainv) * inv2 % p
    if case == 1:
        m11, m12 = big, small * i_int % p
        m21, m22 = -small * i_int % p, big
    else:
        m11, m12 = big, -small * i_int % p
        m21, m22 = -small * i_int % p, -big % p
    for idx in range(p * p):
        x1, x2 = divmod(idx, p)
        want = ((m11 * x1 + m12 * x2 + t0a) % p) * p \
            + (m21 * x1 + m22 * x2 + t0b) % p
        if want != raw[idx]:
            raise ProductFormViolation(
                f"case-{case} reconstruction disagrees at ({x1}, {x2})",
                witness=point(k, x1, x2))
    matrix = OrthoMatrix2(k(m11), k(m12), k(m21), k(m22))
    outer = AffineOrthoMap(matrix, point(k, t0a, t0b))
    return DecompositionResult(invert(outer), Identity(), "not_applicable",
                               EXHAUSTIVE, k, route="lorentz",
                               lorentz_case=case, lorentz_scale=k(a))


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
    nodes: int

    @property
    def total_found(self) -> int:
        return len(self.found)

    @property
    def ok(self) -> bool:
        if self.anomalies:
            return False
        return not self.complete or self.total_found == self.expected


def _neighbors(p: int, offs: list[tuple[int, int]]) -> list[list[int]]:
    n = p * p
    neigh: list[list[int]] = [[] for _ in range(n)]
    for x1 in range(p):
        for x2 in range(p):
            idx = x1 * p + x2
            for dx, dy in offs:
                neigh[idx].append(((x1 + dx) % p) * p + (x2 + dy) % p)
    return neigh


def _search_order(neigh: list[list[int]]
                  ) -> tuple[list[int], list[list[int]]]:
    """Static assignment order for the backtracking search: (0,0) first,
    then always the point with the most already-ordered unit-neighbors
    (ties by point index).  Also returns, per position, the positions of
    each point's earlier-ordered neighbors, which is exactly the set of
    constraints available when that position gets its image."""
    n = len(neigh)
    order = [0]
    placed = [False] * n
    placed[0] = True
    score = [0] * n
    for v in neigh[0]:
        score[v] += 1
    for _ in range(n - 1):
        best = -1
        for idx in range(n):
            if not placed[idx] and (best < 0 or score[idx] > score[best]):
                best = idx
        order.append(best)
        placed[best] = True
        for v in neigh[best]:
            if not placed[v]:
                score[v] += 1
    pos_of = {v: i for i, v in enumerate(order)}
    earlier = [sorted(pos_of[w] for w in neigh[v] if pos_of[w] < i)
               for i, v in enumerate(order)]
    return order, earlier


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
    """
    k = PrimeField(p)
    n = p * p
    offs = [(dx, dy) for dx in range(p) for dy in range(p)
            if (dx * dx + dy * dy) % p == 1]
    masks = []
    for x1 in range(p):
        for x2 in range(p):
            m = 0
            for dx, dy in offs:
                m |= 1 << (((x1 + dx) % p) * p + (x2 + dy) % p)
            masks.append(m)
    neigh = _neighbors(p, offs)
    order, earlier = _search_order(neigh)
    full = (1 << n) - 1
    img = [0] * n
    stack = [0] * n
    stack[0] = full
    found_raw: list[list[int]] = []
    nodes = 0
    complete = True
    pos = 0
    while pos >= 0:
        cm = stack[pos]
        if not cm:
            pos -= 1
            continue
        low = cm & -cm
        stack[pos] = cm ^ low
        nodes += 1
        if budget is not None and nodes > budget:
            complete = False
            break
        img[order[pos]] = low.bit_length() - 1
        if pos + 1 == n:
            found_raw.append(img[:])
            continue
        nxt = full
        for e in earlier[pos + 1]:
            nxt &= masks[img[order[e]]]
        pos += 1
        stack[pos] = nxt
    expected = n * 2 * (p - 1)
    found: list[MapTable] = []
    anomalies: list[Anomaly] = []
    for raw in found_raw:
        table = table_from_raw(k, raw)
        found.append(table)
        try:
            _decompose_prime_raw(raw, k)
        except BQError as exc:
            anomalies.append(Anomaly(table, f"{type(exc).__name__}: {exc}"))
    return SearchCensus(p, expected, found, anomalies, complete, nodes)
