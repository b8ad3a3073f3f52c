"""Differential tests of the GF(p) decomposition routes and of the
preserver search against the code they replaced.

Over GF(p) both routes used to compute their normal form in machine
integers, apart from the code they share with towers.  They now run the
same normal-form code as over towers and keep machine integers only for
the exhaustive scans.  The old pipelines are kept here, test-local, as
oracles: on canonical maps the records must be equal, and on every table
one image away from a canonical map both must refuse with the same
exception type and message.

The preserver search loop was rewritten to keep per-position image
masks and to skip empty domains, and then to walk only the first subtree
of the images of positions 0 and 1 and map the others onto it; its loop
from before both changes is kept here as an oracle for the node count,
the completeness flag and the finds in order.  The O(n^2) scan that built
the static order before it became a heap is kept as the oracle of the
order.
"""

import random

import pytest

from bqplane.decompose import (
    DecompositionResult,
    _neighbors,
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
    sample_domain,
)
from bqplane.geometry import Point, all_points, point
from bqplane.maps import (
    AffineMap,
    MapTable,
    Matrix2,
    SemiAffineMap,
    enumerate_orthogonal_group,
    invert,
    map_from_expression,
    raw_image_table,
    unit_circle,
)
from bqplane.parsing import parse_map


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
    neigh = _neighbors(p, offs)
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
# search walks instead of mapping.  74,098 cuts the last node of that
# next subtree, which must be walked too, and 1,000,000 crosses about 26
# mapped subtrees.
SEARCH_CASES = ([(p, budget) for p in (13, 17, 29, 37)
                 for budget in (0, 1, 1_000, 40_000, 200_000)]
                + [(13, budget) for budget in (37_049, 37_050, 37_051, 74_098,
                                               1_000_000)])


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
