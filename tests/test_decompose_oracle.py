"""Differential tests of the GF(p) decomposition routes and of the
preserver search against the code they replaced.

Over GF(p) both routes decompose the map's image table in residues.
The machine-integer pipelines they had before they shared the tower
code are kept here, test-local, as oracles that share no code with the
routes: on canonical maps the records must be equal, and on every table
one image away from a canonical map (and on a sample of tables with one
or two moved images at p = 29) both must refuse with the same exception
type, message and witness.

The preserver search loop was rewritten to keep per-position image
masks and to skip empty domains, and then to walk only the first subtree
of the images of positions 0 and 1 and map the others onto it; its loop
from before both changes is kept here as an oracle for the node count,
the completeness flag and the finds in order.  The O(n^2) scan that built
the static order before it became a heap is kept as the oracle of the
order.  The census's neighbour, rotation, mirror and translated-rotation
tables were written out index by index before they became
``index_table`` calls; those expressions are kept as the tables' oracles.

The Lorentz route's sigma probe over towers used to evaluate the whole
composite big_g((x, 0)): eta, f, the t0 shift, xi and lambda(a); it is
now one affine row of f(eta((x, 0))).  Over GF(p) its rebuilt table and
J were built from field elements, the case matrix and ``invert``; they
are now residues and M^T.  Both former versions are kept here, and the
new ones must equal them: the row on seeded probes of three towers, in
both cases and at a rational and a non-rational scale, and the rebuild on
every canonical GF(13) table and on perturbed ones.

Over towers ``_read_gamma`` checked the laws on the seeded probe pairs
first, then read gamma off the generators; it now reads the generators
first and checks agreement with gamma at each pair's sum and product.
The former read is kept here, and on seeded callables both must accept
the same ones with the same gamma and refuse the same ones.
"""

import random
from fractions import Fraction

import pytest

from bqplane.decompose import (
    DecompositionResult,
    _index_pairs,
    _lorentz_on_table,
    _mirror,
    _neighbors,
    _pair_census,
    _read_gamma,
    _read_prime_gamma,
    _rotations,
    _search_order,
    _walk,
    _walk_back,
    decompose,
    decompose_lorentz,
)
from bqplane.errors import (
    BQError,
    CaseUndetermined,
    FrameNotOrthonormal,
    LorentzNormalizationFailed,
    NotAHomomorphism,
    ProductFormViolation,
)
from bqplane.errors import FieldMismatch
from bqplane.fields import (
    EXHAUSTIVE,
    FieldElement,
    LevelConjugation,
    PrimeField,
    Q,
    TowerRep,
    apply_hom,
    basis_monomials,
    hom_signs,
    imaginary_unit,
    is_automorphism,
    probe_elements,
    random_element,
    sample_domain,
    tower_levels,
)
from bqplane.geometry import Point, all_points, eta, point, xi
from bqplane.maps import (
    AffineMap,
    MapTable,
    Matrix2,
    SemiAffineMap,
    enumerate_orthogonal_group,
    index_table,
    invert,
    lorentz_case1_matrix,
    lorentz_case2_matrix,
    map_from_expression,
    raw_image_table,
    unit_circle,
)
from bqplane.parsing import parse_field, parse_map
from helpers import census_tables, enumerate_canonical_maps


# ------------------------------------------------------------- oracles

def _check_prime_hom_table(table, k):
    """Exhaustive law check of a GF(p) value table, kept here so that
    the oracles share no verification code with the routes.  A table
    that is additive, multiplicative, and unital is the identity."""
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


def _decompose_prime_raw(raw, k):
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
    q = Matrix2(k(u1), k(u2), k(v1), k(v2))
    shift = q.apply(point(k, a0, b0))
    normalizer = SemiAffineMap(AffineMap(q, Point(-shift.x1, -shift.x2)))
    return DecompositionResult(normalizer, LevelConjugation(), "not_applicable",
                               EXHAUSTIVE, k)


def _lorentz_prime_raw(raw, k):
    """Exhaustive Lorentz-route decomposition on a raw index table."""
    p = k.p
    i_int = imaginary_unit(k).rep
    inv2 = pow(2, p - 2, p)
    t0a, t0b = divmod(raw[0], p)

    def f_at(x1, x2):
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

    def g_at(x1, x2):
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
    matrix = Matrix2(k(m11), k(m12), k(m21), k(m22))
    outer = SemiAffineMap(AffineMap(matrix, point(k, t0a, t0b)))
    return DecompositionResult(invert(outer), LevelConjugation(), "not_applicable",
                               EXHAUSTIVE, k, route="lorentz",
                               lorentz_case=case, lorentz_scale=k(a))


def _sigma_row_as_before(f, k):
    """The Lorentz route's case and sigma probe over a tower as they were:
    big_g((x, 0)) = lambda(a)(xi(f(eta((x, 0))) - t0)), read in the case's
    coordinate."""
    t0 = f(point(k, 0, 0))

    def big_f(x):
        img = f(eta(x))
        return xi(Point(img.x1 - t0.x1, img.x2 - t0.x2))

    a = big_f(point(k, 1, 1)).x1
    a_inv = k.one / a

    def big_g(x):
        y = big_f(x)
        return Point(y.x1 * a_inv, a * y.x2)

    case = 1 if big_g(point(k, 2, 0)) == point(k, 2, 0) else 2
    return case, lambda x: big_g(Point(x, k.zero)).x1 if case == 1 else big_g(Point(x, k.zero)).x2


def _lorentz_rebuild_as_before(raw, k):
    """The GF(p) Lorentz route as it was before its rebuild stayed in
    residues: the case matrix, the rebuilt table and J from field
    elements, J by ``invert``."""
    p, i, half = k.p, imaginary_unit(k).rep, (k.p + 1) // 2
    t0a, t0b = divmod(raw[0], p)

    def big_g(x1, x2, a=1, a_inv=1):
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
    case_matrix = (lorentz_case1_matrix if case == 1 else lorentz_case2_matrix)(k(a), sigma, k)
    outer = SemiAffineMap(AffineMap(case_matrix, point(k, t0a, t0b)))
    recon = raw_image_table(outer, k)
    if recon != raw:
        x1, x2 = divmod(next(idx for idx, img in enumerate(recon) if img != raw[idx]), p)
        raise ProductFormViolation(f"case-{case} reconstruction disagrees at ({x1}, {x2})",
                                   witness=point(k, x1, x2))
    return DecompositionResult(invert(outer), sigma, "not_applicable", EXHAUSTIVE, k,
                               route="lorentz", lorentz_case=case, lorentz_scale=k(a))


def _neighbors_written(p, offs):
    """Each point's unit neighbours, index by index."""
    neigh = [[] for _ in range(p * p)]
    for x1 in range(p):
        for x2 in range(p):
            for dx, dy in offs:
                neigh[x1 * p + x2].append(((x1 + dx) % p) * p + (x2 + dy) % p)
    return neigh


def _rotations_written(p, offs):
    """Per unit offset u, the table of x -> R x with R u0 = u."""
    c0, s0 = min(offs)
    rots = []
    for c, s in offs:
        rc, rs = (c * c0 + s * s0) % p, (s * c0 - c * s0) % p
        rots.append([((rc * x - rs * y) % p) * p + (rs * x + rc * y) % p
                     for x in range(p) for y in range(p)])
    return rots


def _mirror_written(p, offs):
    """x -> 2<x, u0> u0 - x."""
    c, s = min(offs)
    return [(2 * (x * c + y * s) * c - x) % p * p + (2 * (x * c + y * s) * s - y) % p
            for x in range(p) for y in range(p)]


def _translated_written(p, rot, a1, a2):
    """J(x) = R x + (a1, a2) from the table of R."""
    return [((r // p + a1) % p) * p + (r + a2) % p for r in rot]


def _search_order_scan(neigh):
    """The static order as it was built before the heap: (0,0) first,
    then a scan of every point for the most already-ordered neighbours,
    ties by index; and each position's earlier-neighbour positions."""
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


def _search_prime_raw(p, budget):
    """The preserver search loop as it was before per-position masks:
    (nodes, complete, raw finds in the order found)."""
    k = PrimeField(p)
    n = p * p
    offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(k)]
    neigh = _neighbors_written(p, offs)
    masks = [sum(1 << v for v in row) for row in neigh]
    order, earlier = _search_order_scan(neigh)
    full = (1 << n) - 1
    img = [0] * n
    stack = [0] * n
    stack[0] = full
    found_raw = []
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
            found_raw.append(tuple(img))
            continue
        nxt = full
        for e in earlier[pos + 1]:
            nxt &= masks[img[order[e]]]
        pos += 1
        stack[pos] = nxt
    return nodes, complete, found_raw


ROUTES = [(decompose, _decompose_prime_raw),
          (decompose_lorentz, _lorentz_prime_raw)]


# -------------------------------------------------------------- helpers

def _canonical_expressions(k, count, seed):
    """Seeded canonical maps as expression text: a translation after a
    rotation or a reflection by a unit vector."""
    rng = random.Random(seed)
    mats = enumerate_orthogonal_group(k)
    out = []
    for _ in range(count):
        q = rng.choice(mats)
        kind = "rot" if q.q12 == -q.q21 else "refl"
        tx, ty = rng.randrange(k.p), rng.randrange(k.p)
        out.append(f"translate({tx}, {ty}) . {kind}({q.q11}, {q.q21})")
    return out


def _raw_oracle(raw, k):
    pts = all_points(k)
    return lambda x: pts[raw[x.x1.rep * k.p + x.x2.rep]]


def _outcome(route, f, k):
    try:
        return route(f, k).to_record()
    except BQError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("p, count", [(13, 40), (29, 25)])
def test_records_equal_on_canonical_maps(p, count):
    k = PrimeField(p)
    for text in _canonical_expressions(k, count, seed=p):
        f = map_from_expression(parse_map(text, k), k)
        raw = raw_image_table(f, k)
        table = MapTable(k, raw)
        for route, oracle in ROUTES:
            want = oracle(raw, k).to_record()
            assert route(f, k).to_record() == want, (text, route.__name__)
            assert route(table, k).to_record() == want, (text, route.__name__)
            # GF(p) is verified exhaustively whatever domain is asked for
            assert route(f, k, sample_domain(5)).to_record() == want


def test_every_single_moved_image_refused_as_by_oracle():
    k = PrimeField(13)
    n = k.p * k.p
    text = _canonical_expressions(k, 1, seed=7)[0]
    base = raw_image_table(map_from_expression(parse_map(text, k), k), k)
    kinds = set()
    for idx in range(n):
        for img in range(n):
            if img == base[idx]:
                continue
            raw = list(base)
            raw[idx] = img
            f = _raw_oracle(raw, k)
            for route, oracle in ROUTES:
                want = _outcome(oracle, raw, k)
                assert isinstance(want, tuple), (idx, img, route.__name__)
                assert _outcome(route, f, k) == want, (idx, img, route.__name__)
                kinds.add(want[0])
    # the perturbations reach every refusal of both routes
    assert {c.__name__ for c in kinds} == {
        "FrameNotOrthonormal", "NotAHomomorphism", "ProductFormViolation",
        "LorentzNormalizationFailed", "CaseUndetermined"}


def test_two_moved_images_report_the_first_in_row_major_order():
    # two wrong images give two mismatches once the normal form passes;
    # both routes must report the one the oracle scans first
    k = PrimeField(13)
    n = k.p * k.p
    rng = random.Random(5)
    for text in _canonical_expressions(k, 6, seed=3):
        base = raw_image_table(map_from_expression(parse_map(text, k), k), k)
        for _ in range(40):
            raw = list(base)
            for idx in rng.sample(range(n), 2):
                raw[idx] = rng.choice([v for v in range(n) if v != base[idx]])
            f = _raw_oracle(raw, k)
            for route, oracle in ROUTES:
                assert _outcome(route, f, k) == _outcome(oracle, raw, k), \
                    (text, raw, route.__name__)


@pytest.mark.parametrize("p", [13, 29])
def test_one_pass_gamma_read_refuses_as_the_law_scan(p):
    # every first unfixed residue m: m = 0 is gamma(0) != 0 and m = 1 is
    # gamma(1) != 1; each with several wrong values, before the identity
    # tail or a seeded random one
    k = PrimeField(p)
    rng = random.Random(p)

    def want(table):
        try:
            _check_prime_hom_table(table, k)
        except NotAHomomorphism as exc:
            return type(exc), str(exc), exc.witness
        return None

    def got(table):
        try:
            assert _read_prime_gamma(table, k) == LevelConjugation()
            return None
        except BQError as exc:
            return type(exc), str(exc), getattr(exc, "witness", None)

    tables = [list(range(p))]
    for m in range(p):
        for wrong in rng.sample([v for v in range(p) if v != m], 3):
            head = list(range(m)) + [wrong]
            tables.append(head + list(range(m + 1, p)))
            tables.append(head + [rng.randrange(p) for _ in range(m + 1, p)])
    messages = set()
    for table in tables:
        outcome = want(table)
        assert got(table) == outcome, table
        messages.add(outcome and outcome[1])
    # the identity, gamma(1) != 1, and additivity at (0, 0) and (1, m - 1)
    assert len(messages) == p + 1


def test_moved_images_at_29_refused_as_by_oracle():
    # at p = 29, i and 1/2 are other residues than at 13; half of the
    # moved points are those the routes read before their final scan:
    # the frame, the x1 axis, and eta of (1, 1), (2, 0) and the x1 axis
    k = PrimeField(29)
    p, n = k.p, k.p * k.p
    rng = random.Random(29)
    read = sorted({0, 1, p} | {m * p for m in range(p)}
                  | {(e.x1.rep * p + e.x2.rep)
                     for e in (eta(point(k, x, y))
                               for x, y in [(1, 1)] + [(m, 0) for m in range(p)])})
    kinds = set()
    for text in _canonical_expressions(k, 6, seed=11):
        base = raw_image_table(map_from_expression(parse_map(text, k), k), k)
        for moved in [1] * 30 + [2] * 15:
            raw = list(base)
            for idx in rng.sample(read if rng.random() < 0.5 else range(n), moved):
                raw[idx] = rng.choice([v for v in range(n) if v != base[idx]])
            f = _raw_oracle(raw, k)
            for route, oracle in ROUTES:
                want = _outcome(oracle, raw, k)
                assert isinstance(want, tuple), (text, raw, route.__name__)
                assert _outcome(route, f, k) == want, (text, raw, route.__name__)
                kinds.add(want[0].__name__)
    assert kinds == {"FrameNotOrthonormal", "NotAHomomorphism", "ProductFormViolation",
                     "LorentzNormalizationFailed", "CaseUndetermined"}


def test_decompose_uses_the_frame_scan_wording(gf13):
    raw = list(range(169))
    raw[5], raw[6] = raw[6], raw[5]
    with pytest.raises(ProductFormViolation,
                       match=r"normalized map sends \(0, 5\) to \(0, 6\), "
                             "not coordinatewise") as info:
        decompose(_raw_oracle(raw, gf13), gf13)
    assert info.value.witness == point(gf13, 0, 5)


# At p = 13 the first pair subtree, (0,0) -> (0,0) and (0,1) -> (0,1),
# holds nodes 3 to 37,050: the budgets around 37,050 cut its last node,
# the next pair's node and the first node of the next subtree, which the
# search maps child by child up to the child it walks.  74,098 cuts the
# last node of that next subtree, which must be walked too, and 1,000,000
# crosses about 26 mapped subtrees.  The first pair subtree has two
# children (images of position 2), nodes 3 to 18,526 and 18,527 to
# 37,050, each the mirror of the other: 18,525 to 18,527 cut the last
# node of the walked child and the first two of the mirrored one, and
# 55,574 the last node of the cut pair's first child.  At p = 17 the 16
# children of the first pair subtree start at nodes 3, 35,028, 121,827,
# ...: the budgets cut the second child, the fifth (292,038 to 471,722),
# the first node of the first mirrored child (927,291) and a later
# mirrored child (1,264,480 to 1,382,858).
#
# A cut child whose size S and finds are known is walked back from its
# end when the stop is its node L with 2L > S + 1.  30,000 cuts the
# mirrored child at p = 13 before its find.  46,311 to 46,313 cut the
# second pair's first child (S = 18,524, nodes 37,052 to 55,575) at
# 2L = S - 2, S and S + 2: the first two walk forward, the third back.
# At p = 17, 964,246 to 964,248 cut the first mirrored child (S = 73,915,
# nodes 927,291 to 1,001,205) at 2L = S - 1, S + 1 and S + 3, again the
# third walking back, and 1,001,204 its last node.  3,465,000 cuts the
# second pair's last child, the J-image of the first pair's child 18
# (nodes 3,371,897 to 3,465,507), 506 nodes before its end, and 1,850,000
# the second pair's second child (nodes 1,767,781 to 1,854,579), the
# J-image of child 2, after both its finds, which J puts out of order.
SEARCH_CASES = ([(p, budget) for p in (13, 17, 29, 37)
                 for budget in (0, 1, 1_000, 40_000, 200_000)]
                + [(13, budget) for budget in (37_049, 37_050, 37_051, 74_098,
                                               1_000_000)]
                + [(13, budget) for budget in (18_525, 18_526, 18_527, 55_574)]
                + [(13, budget) for budget in (30_000, 46_311, 46_312, 46_313)]
                + [(17, budget) for budget in (100_000, 300_000, 927_290,
                                               1_300_000, 1_732_754, 1_800_000)]
                + [(17, budget) for budget in (964_246, 964_247, 964_248,
                                               1_001_204, 1_850_000, 3_465_000)])


@pytest.mark.parametrize("p, budget", SEARCH_CASES,
                         ids=[f"{budget}-{p}" for p, budget in SEARCH_CASES])
def test_search_visits_the_oracle_nodes(p, budget, monkeypatch):
    census, tables = census_tables(monkeypatch, p, budget)
    nodes, complete, found = _search_prime_raw(p, budget)
    assert (census.nodes, census.complete) == (nodes, complete)
    assert tables == found


def _census_inputs(p):
    """The unit neighbours and earlier-neighbour positions, and the masks,
    seed and more lists that ``_pair_census`` hands its walks."""
    offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
    neigh = _neighbors(p, offs)
    earlier = _search_order(neigh)[1]
    masks = [sum(1 << v for v in row) for row in neigh]
    seed = [e[0] for e in earlier[1:]] + [0]
    more = [tuple(e[1:]) for e in earlier[1:]] + [()]
    return neigh, earlier, masks, seed, more


def _child_preorder(neigh, earlier, a, b, w):
    """(position, whether a find) of each node of the child w below the
    images a, b of positions 0 and 1, in the forward DFS preorder: each
    position takes, in increasing order, the points on the unit circles
    of all its earlier neighbours' images."""
    n = len(neigh)
    circle = [set(row) for row in neigh]
    img = [a, b, w] + [0] * (n - 3)
    out = [(2, False)]

    def visit(pos):
        for v in sorted(set.intersection(*(circle[img[e]] for e in earlier[pos]))):
            img[pos] = v
            out.append((pos, pos == n - 1))
            if pos < n - 1:
                visit(pos + 1)

    visit(3)
    return out


# (p, pair, child, size): the first pair's mirrored child at p = 13 and
# the second pair's J-image of the first pair's child 2 at p = 17, each
# holding finds
BACK_CHILDREN = [(13, 0, 150, 18_524), (17, 1, 15, 86_799)]


@pytest.mark.parametrize("p, pair, w, size", BACK_CHILDREN)
def test_back_walk_finishes_the_preorder_tail(p, pair, w, size):
    """The first count nodes the back walk finishes are the child's last
    count in preorder: it counts their finds, the stop node's included,
    and steps onto them and the stop node's open ancestors."""
    neigh, earlier, masks, seed, more = _census_inputs(p)
    b = sorted(neigh[0])[pair]
    pre = _child_preorder(neigh, earlier, 0, b, w)
    assert len(pre) == size
    at_finds = [size - i for i, (_, find) in enumerate(pre) if find]
    assert at_finds
    rng = random.Random(p)
    counts = sorted(set(range(1, 200)) | {size - 1, size}
                    | {c + d for c in at_finds for d in (-1, 0, 1)} - {size + 1}
                    | {rng.randint(1, size) for _ in range(6)})
    img = [0, b] + [0] * (p * p - 2)
    for count in counts:
        hits = sum(find for _, find in pre[size - count:])
        visited = count + pre[size - count][0] - 2
        assert _walk_back(img, masks, seed, more, 1 << w, count) == (hits, visited), count


def _walk_back_forward(img, masks, seed, more, cm, count):
    """``_walk_back``'s finds by the forward walk: all the child's finds
    less those before its node size - count + 1."""
    size, every, _ = _walk(img, masks, seed, more, cm, 0)
    _, before, _ = _walk(img, masks, seed, more, cm, size - count + 1)
    return len(every) - len(before), count


def test_search_at_random_budgets(monkeypatch):
    """Seeded budgets over the first 3.5M nodes at p = 17 and the complete
    p = 13 census.  At p = 17 the oracle is the loop before masks.  Over
    p = 13's 75,135,541 nodes that loop would take about a minute a
    budget, so there each back walk is checked against the forward walk
    of the same child, which the fixed cases check against that loop."""
    import bqplane.decompose as module

    rng = random.Random(30)
    for budget in [rng.randrange(3_500_000) for _ in range(3)]:
        census, tables = census_tables(monkeypatch, 17, budget)
        nodes, complete, found = _search_prime_raw(17, budget)
        assert (census.nodes, census.complete) == (nodes, complete), budget
        assert tables == found, budget
    p = 13
    offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
    neigh = _neighbors(p, offs)
    earlier = _search_order(neigh)[1]
    stops = [rng.randrange(75_135_541) + 1 for _ in range(17)]

    def pair_census(stop):  # (finds in the order handed over, nodes, complete)
        finds = []
        nodes, _, complete = _pair_census(p, offs, neigh, earlier, stop, finds.extend)
        return finds, nodes, complete

    back = [pair_census(stop) for stop in stops]
    counts = []

    def replay(*args):
        counts.append(args[-1])
        return _walk_back_forward(*args)

    monkeypatch.setattr(module, "_walk_back", replay)
    for stop, got in zip(stops, back):
        assert got == pair_census(stop), stop
    assert len(counts) >= 5


@pytest.mark.parametrize("p", [13, 17, 29, 37, 41, 53, 61])
def test_heap_order_is_the_scan_order(p):
    offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
    neigh = _neighbors(p, offs)
    assert _search_order(neigh) == _search_order_scan(neigh)


@pytest.mark.parametrize("p", [13, 17, 29, 37, 41, 53, 61])
def test_census_tables_are_the_written_tables(p):
    offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
    assert [list(row) for row in _neighbors(p, offs)] == _neighbors_written(p, offs)
    assert list(_mirror(p, offs)) == _mirror_written(p, offs)
    rng = random.Random(p)
    shifts = [(0, 0), (1, 0), (0, 1), (p - 1, p - 1)] + [
        (rng.randrange(p), rng.randrange(p)) for _ in range(4)]
    for (rc, rs), rot in zip(_rotations(p, offs), _rotations_written(p, offs)):
        assert list(index_table(p, rc, -rs, rs, rc, 0, 0)) == rot
        for a1, a2 in shifts:
            assert (list(index_table(p, rc, -rs, rs, rc, a1, a2))
                    == _translated_written(p, rot, a1, a2))


# (field, map, case, scale): both cases at a rational and a non-rational
# scale; every map's t0 has both coordinates nonzero
LORENTZ_ROWS = [
    (spec, text.format(L=L), case, scale)
    for spec, L, hom in [("Q[sqrt 2][i]", 2, "hom(conj@1)"),
                         ("Q[sqrt 2][sqrt 3][i]", 3, "hom(conj@2)"),
                         ("Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]", 4,
                          "hom(conj@1) . hom(conj@2)")]
    for text, case, scale in [
        ("translate(r1, 1/3) . rot(3/5, 4/5)", 1, "3/5 + 4/5*i"),
        (f"translate(r1, 1/3) . refl(3/5, 4/5) . {hom}", 2, "3/5 + 4/5*i"),
        ("translate(r1, i) . refl(1/2*r1, 1/2*r1) . hom(conj@{L})", 1, "1/2*r1 + 1/2*r1*i"),
        ("translate(r1, i) . rot(1/2*r1, 1/2*r1) . hom(conj@{L})", 2, "1/2*r1 + 1/2*r1*i"),
    ]]


@pytest.mark.parametrize("spec, text, case, scale", LORENTZ_ROWS)
def test_lorentz_sigma_row_is_the_composite(monkeypatch, spec, text, case, scale):
    import bqplane.decompose as module

    k = parse_field(spec)
    f = map_from_expression(parse_map(text, k), k)
    rows = []

    def spy(gamma_eval, k, domain):
        rows.append(gamma_eval)
        return read_gamma(gamma_eval, k, domain)

    read_gamma = module._read_gamma
    monkeypatch.setattr(module, "_read_gamma", spy)
    res = decompose_lorentz(f, k, sample_domain(20))
    assert (res.lorentz_case, str(res.lorentz_scale)) == (case, scale)
    old_case, old_row = _sigma_row_as_before(f, k)
    assert old_case == case and len(rows) == 1
    rng = random.Random(27)
    for x in probe_elements(k, rng, 30) + [random_element(k, rng) for _ in range(10)]:
        assert rows[0](x) == old_row(x), x


def test_lorentz_rebuild_is_the_field_element_rebuild(gf13):
    k = gf13
    n = k.p * k.p
    rng = random.Random(13)
    canonical = [raw_image_table(m, k) for m in enumerate_canonical_maps(k)]
    assert len(canonical) == 4056
    for raw in canonical:
        assert _lorentz_on_table(raw, k).to_record() == _lorentz_rebuild_as_before(raw, k).to_record()
    kinds = set()
    for raw in rng.sample(canonical, 60):
        for _ in range(10):
            moved = list(raw)
            for idx in rng.sample(range(n), rng.choice((1, 1, 2))):
                moved[idx] = rng.choice([v for v in range(n) if v != raw[idx]])
            want = _outcome(_lorentz_rebuild_as_before, tuple(moved), k)
            assert _outcome(_lorentz_on_table, tuple(moved), k) == want, moved
            kinds.add(want[0].__name__ if isinstance(want, tuple) else "decomposed")
    assert {"ProductFormViolation", "NotAHomomorphism", "LorentzNormalizationFailed",
            "CaseUndetermined"} <= kinds


# ------------------------------------------------------ gamma over towers

def _read_gamma_as_before(gamma_eval, k, domain):
    """``_read_gamma`` as it was before it read the generators first:
    gamma(1), the laws on each seeded probe pair, the generator images,
    the automorphism test, then agreement on the basis and the probes."""
    count = domain.samples
    rng = random.Random(domain.seed)
    probes = probe_elements(k, rng, count)
    cache = {}

    def ev(x):
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
    for u, v in _index_pairs(rng, len(probes), count):
        x, y = probes[u], probes[v]
        if ev(x + y) != ev(x) + ev(y):
            raise NotAHomomorphism(f"additivity fails at ({x}, {y})", witness=(x, y))
        if ev(x * y) != ev(x) * ev(y):
            raise NotAHomomorphism(f"multiplicativity fails at ({x}, {y})", witness=(x, y))
    layers = tower_levels(k)
    levels = []
    for layer in layers:
        r = k(layer.radical)
        if ev(r) == -r:
            levels.append(layer.level)
        elif ev(r) != r:
            raise NotAHomomorphism("generator images match no catalog homomorphism", witness=r)
    match = LevelConjugation(*levels)
    if not is_automorphism(match, k):
        moved = next(d for d in (k(layer.d) for layer in layers) if apply_hom(match, d) != d)
        raise NotAHomomorphism("generator images match no catalog homomorphism", witness=moved)
    basis = basis_monomials(k)
    for x in basis + probes[len(basis):]:
        if ev(x) != apply_hom(match, x):
            raise NotAHomomorphism(
                f"disagrees at {x} with the homomorphism fixed by its "
                "generator images", witness=x)
    return match


GAMMA_TOWERS = ["Q[i]", "Q[sqrt 2][i]", "Q[sqrt 2][sqrt 3][i]",
                "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]"]


def _signed(k, signs):
    """The map that multiplies each monomial's coefficient by its sign."""
    return lambda x: FieldElement(k, TowerRep(tuple(map(int.__mul__, x.rep.nums, signs)),
                                              x.rep.den))


def _gamma_callables(k, count, seed):
    """Seeded callables over k, by kind: every sign set's conjugation and
    some with one monomial's sign flipped or drawn at random (these move a
    radicand or a product of radicals), each lawful one perturbed at a
    single probe, basis monomial, pair sum or product, or element outside
    the probes, maps that are not additive, and ones with gamma(1) != 1."""
    rng = random.Random(f"{k}/{count}/{seed}")
    width = 1 << k.depth
    level_sets = [[L for L in range(1, k.depth + 1) if m >> (L - 1) & 1]
                  for m in range(1 << k.depth)]
    signs = [hom_signs(LevelConjugation(*levels), k) if levels else (1,) * width
             for levels in level_sets]
    out = [("sign set", _signed(k, s)) for s in signs]
    for s in rng.sample(signs, min(3, len(signs))):
        j = rng.randrange(width)
        out.append(("monomial flip", _signed(k, s[:j] + (-s[j],) + s[j + 1:])))
        out.append(("random signs", _signed(k, tuple(rng.choice((1, -1)) for _ in s))))
    lawful = [s for levels, s in zip(level_sets, signs)
              if is_automorphism(LevelConjugation(*levels), k)]
    rpr = random.Random(seed)
    probes = probe_elements(k, rpr, count)
    pairs = list(_index_pairs(rpr, len(probes), count))
    for _ in range(6):
        sigma = _signed(k, rng.choice(lawful))
        u, v = rng.choice(pairs)
        x, y = probes[u], probes[v]
        at = rng.choice([rng.choice(probes), rng.choice(basis_monomials(k)), x + y, x * y,
                         random_element(k, rng) + 1000])
        bump = rng.choice([k.one, -k.one, rng.choice(basis_monomials(k))])
        out.append(("one value moved",
                    lambda z, sigma=sigma, at=at, bump=bump: sigma(z) + bump if z == at
                    else sigma(z)))
        out.append(("not additive",  # moves the values whose rational part is not 0 or 1
                    lambda z, sigma=sigma: sigma(z) + k(Fraction(z.rep.nums[0], z.rep.den)) ** 2
                    - k(Fraction(z.rep.nums[0], z.rep.den))))
        out.append(("not multiplicative",  # moves the values over 49, products of sevenths
                    lambda z, sigma=sigma: sigma(z) + k.one if z.rep.den % 49 == 0 else sigma(z)))
        out.append(("gamma(1) != 1",
                    lambda z, sigma=sigma: -sigma(z) if z == k.one else sigma(z)))
        out.append(("gamma(1) != 1", lambda z, sigma=sigma: sigma(z) * 2))
    return out


def _gamma_outcome(read, gamma_eval, k, domain):
    try:
        return read(gamma_eval, k, domain)
    except NotAHomomorphism as exc:
        return exc


def _same_gamma_reads(k, count, seed):
    """Both reads on every seeded callable: the same gamma, or both
    refused, each pair witness of the new read a genuine law failure.
    Returns the new read's outcomes by message head."""
    domain = sample_domain(count, seed=seed)
    seen = set()
    for kind, gamma_eval in _gamma_callables(k, count, seed):
        got = _gamma_outcome(_read_gamma, gamma_eval, k, domain)
        want = _gamma_outcome(_read_gamma_as_before, gamma_eval, k, domain)
        assert type(got) is type(want), (kind, got, want)
        if isinstance(got, LevelConjugation):
            assert got == want, kind
            seen.add("accepted")
            continue
        head = str(got).split(" at ")[0].split(" with ")[0]
        seen.add(head)
        if head in ("additivity fails", "multiplicativity fails"):
            x, y = got.witness
            if head == "additivity fails":
                assert gamma_eval(x + y) != gamma_eval(x) + gamma_eval(y), kind
            else:
                assert gamma_eval(x * y) != gamma_eval(x) * gamma_eval(y), kind
    return seen


@pytest.mark.parametrize("spec", GAMMA_TOWERS)
def test_gamma_read_accepts_what_the_laws_first_read_accepts(spec):
    k = parse_field(spec)
    seen = set()
    for count in (1, 5, 40):
        for seed in (1, 7):
            seen |= _same_gamma_reads(k, count, seed)
    assert {"accepted", "generator images match no catalog homomorphism",
            "disagrees", "additivity fails", "multiplicativity fails"} <= seen


def test_gamma_read_over_q_accepts_what_the_laws_first_read_accepts():
    seen = set()
    for count in (1, 5, 40, 200):
        seen |= _same_gamma_reads(Q, count, 1729)
    assert {"accepted", "disagrees", "additivity fails", "multiplicativity fails"} <= seen
