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
"""

import random

import pytest

from bqplane.decompose import (
    DecompositionResult,
    _lorentz_on_table,
    _mirror,
    _neighbors,
    _read_prime_gamma,
    _rotations,
    _search_order,
    decompose,
    decompose_lorentz,
    search_unit_preservers,
)
from bqplane.errors import (
    BQError,
    CaseUndetermined,
    FrameNotOrthonormal,
    LorentzNormalizationFailed,
    NotAHomomorphism,
    ProductFormViolation,
)
from bqplane.fields import (
    EXHAUSTIVE,
    LevelConjugation,
    PrimeField,
    imaginary_unit,
    probe_elements,
    random_element,
    sample_domain,
)
from bqplane.geometry import Point, all_points, eta, point, xi
from bqplane.maps import (
    AffineMap,
    MapTable,
    Matrix2,
    SemiAffineMap,
    enumerate_canonical_maps,
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
SEARCH_CASES = ([(p, budget) for p in (13, 17, 29, 37)
                 for budget in (0, 1, 1_000, 40_000, 200_000)]
                + [(13, budget) for budget in (37_049, 37_050, 37_051, 74_098,
                                               1_000_000)]
                + [(13, budget) for budget in (18_525, 18_526, 18_527, 55_574)]
                + [(17, budget) for budget in (100_000, 300_000, 927_290,
                                               1_300_000, 1_732_754, 1_800_000)])


@pytest.mark.parametrize("p, budget", SEARCH_CASES,
                         ids=[f"{budget}-{p}" for p, budget in SEARCH_CASES])
def test_search_visits_the_oracle_nodes(p, budget):
    census = search_unit_preservers(p, budget=budget)
    nodes, complete, found = _search_prime_raw(p, budget)
    assert (census.nodes, census.complete) == (nodes, complete)
    assert [t.raw for t in census.found] == found


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
