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

Both routes end in the same two verification steps, shared over every
field: one reader certifies gamma's laws (``_read_gamma``), and one scan
checks that f equals the rebuilt normal form (``_first_disagreement``).
Only the verified domain picks how they run.  GF(p) is verified
exhaustively in machine integers: the law table of the p residues, then
the raw index tables (idx = x1*p + x2) of f and the normal form, compared
in row-major order.  Over infinite towers "verified" means: on the
seeded probe set described by the DomainSpec (basis monomials, their
pairwise sums and products, then random elements), which is this
library's documented evidence standard.
"""

from __future__ import annotations

import heapq
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


def _read_gamma(gamma_eval, k: FieldTower, domain: DomainSpec) -> LevelConjugation:
    """Read the homomorphism gamma off one coordinate map and certify its
    laws on a verified domain.

    Over GF(p) the law table of the p residues is checked exhaustively in
    machine integers; a table that is additive, multiplicative and unital
    is the identity.  Over a tower the laws are spot-checked on the
    seeded probe set with genuine witnesses, then gamma is read off the
    generators (r_L -> -r_L conjugates level L, r_L -> r_L fixes it), must
    be an automorphism, and is re-verified on every basis monomial (which
    a small sample's probes leave out) and every probe.
    """
    if domain == EXHAUSTIVE:
        p = k.p
        table = [gamma_eval(k(x)).rep for x in range(p)]
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
        return LevelConjugation()
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
    for _ in range(count):
        x, y = rng.choice(probes), rng.choice(probes)
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
    for x in basis_monomials(k) + probes:
        if ev(x) != apply_hom(match, x):
            raise NotAHomomorphism(
                f"disagrees at {x} with the homomorphism fixed by its "
                "generator images", witness=x)
    return match


def _first_disagreement(want, got, k: FieldTower, domain: DomainSpec, draw
                        ) -> Point | None:
    """The first point of a verified domain where the maps ``want`` and
    ``got`` differ, or None: over GF(p) in row-major order of their raw
    index tables, over a tower among the points ``draw()`` yields (each
    route seeds its own)."""
    if domain == EXHAUSTIVE:
        pairs = zip(raw_image_table(want, k), raw_image_table(got, k))
        return next((point(k, *divmod(idx, k.p))
                     for idx, (w, g) in enumerate(pairs) if w != g), None)
    return next((x for x in draw() if want(x) != got(x)), None)


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
    ev = _oracle(f)
    normalizer = normalizer_from_images(
        ev(point(k, 0, 0)), ev(point(k, 1, 0)), ev(point(k, 0, 1)))

    def g(x: Point) -> Point:
        return normalizer(ev(x))

    zero = k.zero
    gamma = _read_gamma(lambda x: g(Point(x, zero)).x1, k, domain)

    def draw():
        rng = random.Random(domain.seed + 1)
        probes = probe_elements(k, rng, domain.samples)
        return (Point(rng.choice(probes), rng.choice(probes))
                for _ in range(domain.samples))

    recon = SemiAffineMap(invert(normalizer).outer, gamma)
    x = _first_disagreement(recon, ev, k, domain, draw)
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

    def sigma_eval(x: FieldElement) -> FieldElement:
        img = big_g(Point(x, zero))
        return img.x1 if case == 1 else img.x2

    sigma = _read_gamma(sigma_eval, k, domain)
    case_matrix = (lorentz_case1_matrix if case == 1
                   else lorentz_case2_matrix)(a, sigma, k)
    outer = AffineMap(case_matrix, t0)

    def draw():
        rng = random.Random(domain.seed + 2)
        return (random_point(k, rng) for _ in range(domain.samples))

    x = _first_disagreement(SemiAffineMap(outer, sigma), ev, k, domain, draw)
    if x is not None:
        raise ProductFormViolation(
            f"case-{case} reconstruction disagrees at ({x.x1}, {x.x2})",
            witness=x)
    branch = "not_applicable"
    if is_f_of_i(k):
        branch = "theta" if apply_hom(sigma, i0) == i0 else "zeta"
    return DecompositionResult(invert(SemiAffineMap(outer)), sigma, branch, domain, k,
                               route="lorentz", lorentz_case=case,
                               lorentz_scale=a)


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


def _rotations(p: int, offs: list[tuple[int, int]]
               ) -> dict[tuple[int, int], list[int]]:
    """For each unit offset u, the point permutation x -> R x with
    R = rot(u) rot(u0)^-1, where u0 is the lowest-index unit offset and
    rot(c, s) = [[c, -s], [s, c]]; so R u0 = u.  An R that does not map
    the unit offsets onto themselves is left out.  One that does is
    invertible, as a line meets the unit circle in at most 2 of its
    p - 1 >= 12 points."""
    unit = {c * p + s for c, s in offs}
    c0, s0 = divmod(min(unit), p)
    rots = {}
    for c, s in offs:
        rc, rs = (c * c0 + s * s0) % p, (s * c0 - c * s0) % p
        rot = [((rc * x - rs * y) % p) * p + (rs * x + rc * y) % p
               for x in range(p) for y in range(p)]
        if {rot[o] for o in unit} == unit:
            rots[(c, s)] = rot
    return rots


def _walk(img: list[int], masks: list[int], seed: list[int],
          more: list[tuple[int, ...]], stop: int
          ) -> tuple[int, list[list[int]], bool]:
    """The static-order DFS below the pair img[0], img[1] of images of
    positions 0 and 1: (nodes, finds by position in the order found,
    whether the walk stopped at its node number stop; 0 never stops).

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
    pos = 2
    cm = mpos[seed[1]]  # untried candidates of pos, never pushed empty
    for e in more[1]:
        cm &= mpos[e]
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


def _pair_census(p: int, offs: list[tuple[int, int]], neigh: list[list[int]],
                 earlier: list[list[int]], stop: int
                 ) -> tuple[list[list[int]], int, int, bool]:
    """The DFS over every pair of images of positions 0 and 1, walking
    the first pair subtree and any the budget cuts, and mapping the rest
    onto the first (see ``search_unit_preservers``): (finds by position in
    DFS order, nodes, nodes walked, complete)."""
    n = p * p
    # distinct offsets give distinct neighbours, so the sum is their union
    masks = [sum(1 << v for v in row) for row in neigh]
    seed = [e[0] for e in earlier[1:]] + [0]
    more = [tuple(e[1:]) for e in earlier[1:]] + [()]
    rots = _rotations(p, offs)
    img = [0] * n
    first: tuple[int, list[list[int]]] | None = None  # below (0, u0)
    finds: list[list[int]] = []
    nodes = mapped = 0
    for a in range(n):
        nodes += 1
        if nodes == stop:
            return finds, nodes, nodes - mapped, False
        a1, a2 = divmod(a, p)
        for b, u in sorted(zip(neigh[a], offs)):  # the DFS order of b
            nodes += 1
            if nodes == stop:
                return finds, nodes, nodes - mapped, False
            rot = rots.get(u)
            if (first is not None and rot is not None
                    and (not stop or nodes + first[0] < stop)):
                finds.extend(sorted(
                    [((rot[x] // p + a1) % p) * p + (rot[x] + a2) % p
                     for x in f] for f in first[1]))
                nodes += first[0]
                mapped += first[0]
                continue
            img[0], img[1] = a, b
            sub, walked, cut = _walk(img, masks, seed, more,
                                     stop - nodes if stop else 0)
            finds.extend(walked)
            nodes += sub
            if cut:
                return finds, nodes, nodes - mapped, False
            if first is None:
                first = (sub, walked)
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
    Only the first pair subtree, (0, u0) with u0 the lowest-index unit
    vector, and a subtree that the budget cuts are walked.  Every other
    subtree is the image of the first under J(x) = a + R x, with
    R = rot(b - a) rot(u0)^-1 a rotation that keeps the unit circle:
    J is a bijection with J(circle(y)) = circle(J(y)), so J o f is a
    preserver exactly when f is, and J maps the first subtree node for
    node onto the subtree of (a, b).  That subtree has the same node
    count, and its finds are the images of the first subtree's, sorted:
    lexicographic order of the images by position is the DFS leaf order.
    So ``nodes``, ``complete`` and the finds in order are those of the
    full walk; ``visited`` counts the nodes walked one by one.  Each find,
    walked or mapped, is decomposed.
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
