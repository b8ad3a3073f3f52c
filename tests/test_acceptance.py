"""End-to-end acceptance checks.

Each test certifies one headline property of the toolkit, exactly and at
full stated scale, and records a single PASS/FAIL line (printed in the
terminal summary).  Everything is exact arithmetic; there are no
tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest
import sympy

from bqplane.chains import build_lemma3_chain, build_real_chain, verify_chain
from bqplane.decompose import (
    decompose,
    decompose_lorentz,
    detect_branch,
    normalizer_from_images,
    search_unit_preservers,
)
from bqplane.errors import BranchUndetermined, SearchExhausted
from bqplane.fields import (
    LevelConjugation,
    Q,
    QuadExt,
    from_coeff_vector,
    imaginary_unit,
    random_element,
)
from bqplane.geometry import (
    Point,
    all_points,
    phi,
    point,
    verify_transform_identities,
)
from bqplane.maps import (
    AffineMap,
    Matrix2,
    SemiAffineMap,
    compose,
    enumerate_canonical_maps,
    enumerate_orthogonal_group,
    identity_map,
    lorentz_case1_matrix,
    lorentz_case2_matrix,
    preserves_phi,
    preserves_unit_distance,
    raw_image_table,
    reflection_matrix,
    rotation_matrix,
    sample_domain,
    translation_map,
    unit_from_parameter,
)

QI = QuadExt(Q, -1)
QS2I = QuadExt(QuadExt(Q, 2), -1)


@pytest.fixture(scope="module")
def canonical_maps13(gf13):
    return enumerate_canonical_maps(gf13)


def _identity_matrix(k):
    return Matrix2(k.one, k.zero, k.zero, k.one)


def _transpose(q):
    return Matrix2(q.q11, q.q21, q.q12, q.q22)


def test_01_transform_identities_exhaustive(gf13, acceptance):
    start = time.monotonic()
    rep = verify_transform_identities(gf13)
    elapsed = time.monotonic() - start
    pairs = 169 * 169
    ok = (rep.ok
          and all(not c.witnesses for c in rep.checks)
          and rep.checks[0].checked == pairs
          and elapsed < 10.0)
    line = acceptance(1, ok, f"xi/eta identities exact on all {pairs} "
                             f"GF(13) pairs in {elapsed:.2f}s")
    assert ok, line


def test_02_case_matrix_orthogonality(gf13, acceptance):
    ident13 = _identity_matrix(gf13)
    ok = True
    for a in range(1, 13):
        for build in (lorentz_case1_matrix, lorentz_case2_matrix):
            q = build(gf13(a), LevelConjugation(), gf13)
            ok = ok and q.matmul(_transpose(q)) == ident13
    rng = random.Random(2)
    ident_qi = _identity_matrix(QI)
    checked = 0
    while checked < 50:
        a = random_element(QI, rng)
        if a.is_zero:
            continue
        checked += 1
        for build in (lorentz_case1_matrix, lorentz_case2_matrix):
            q = build(a, LevelConjugation(), QI)
            ok = ok and q.matmul(_transpose(q)) == ident_qi
    line = acceptance(2, ok, "case matrices exactly orthogonal for all 12 "
                             "GF(13) scales and 50 seeded Q(i) scales")
    assert ok, line


def test_03_orthogonal_group_census_vs_brute_force(gf13, acceptance):
    p = 13
    brute = set()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if ((a * a + c * c) % p == 1
                            and (b * b + d * d) % p == 1
                            and (a * b + c * d) % p == 0):
                        brute.add((a, b, c, d))
    ours = {tuple(e.rep for e in m.entries())
            for m in enumerate_orthogonal_group(gf13)}
    ok = ours == brute and len(ours) == 24
    line = acceptance(3, ok, f"orthogonal group census = brute-force scan of "
                             f"all 13^4 matrices ({len(ours)} members, set "
                             "equality)")
    assert ok, line


def test_04_decomposition_round_trip_all_canonical(gf13, canonical_maps13,
                                                   acceptance):
    failures = 0
    for f in canonical_maps13:
        res = decompose(f, gf13)
        if raw_image_table(res.reconstruction(), gf13) != raw_image_table(f, gf13):
            failures += 1
    ok = failures == 0
    line = acceptance(4, ok, f"decompose round-trips all "
                             f"{len(canonical_maps13)} canonical GF(13) maps "
                             f"on all 169 points ({failures} failures)")
    assert ok, line


def test_05_decomposition_routes_cross_validate(gf13, canonical_maps13,
                                                acceptance):
    disagreements = 0
    for f in canonical_maps13:
        frame = decompose(f, gf13).reconstruction()
        lorentz = decompose_lorentz(f, gf13).reconstruction()
        if raw_image_table(frame, gf13) != raw_image_table(lorentz, gf13):
            disagreements += 1
    ok = disagreements == 0
    line = acceptance(5, ok, f"frame and Lorentz decompositions pointwise "
                             f"identical on all {len(canonical_maps13)} "
                             f"canonical maps ({disagreements} disagreements)")
    assert ok, line


def test_06_connector_chain_certificates(acceptance):
    rng = random.Random(6)
    friendly_b2 = [Fraction(0), Fraction(3, 4), Fraction(4, 3), Fraction(5, 12)]
    bad = 0
    for n in range(100):
        a1 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a2 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b1 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        if n % 2 == 0:
            b2 = rng.choice(friendly_b2)  # 1 + b2^2 already a square
        else:
            b2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        x = Point(from_coeff_vector(QI, [a1, b1]),
                  from_coeff_vector(QI, [a2, b2]))
        chain, certs = build_lemma3_chain(x)
        base = chain.field.base
        good = (verify_chain(chain, require_psi=True).ok
                and all(c.phi_value == chain.field.one for c in certs)
                and certs[0].psi_value == base(b1 * b1)
                and certs[1].psi_value == base(b1)
                and all(c.psi_value == base.one for c in certs[2:]))
        if not good:
            bad += 1
    ok = bad == 0
    line = acceptance(6, ok, f"pairing-certified chains reach (i, i) with "
                             f"certificates (Im x1)^2, Im x1, 1, ..., 1 on "
                             f"100 seeded inputs ({bad} bad)")
    assert ok, line


def test_07_rational_chain_with_mixed_denominators(acceptance, mod3_zero_sums):
    """Rational-only chains across mixed denominators, on both sides of
    the feasibility boundary: (7/65, 22/25) is reached, (7/3, 22/5) is
    refused for good.

    Why (7/3, 22/5) has no rational unit chain from the origin:
    every rational point on the unit circle is (a/c, b/c) with
    a^2 + b^2 = c^2 and gcd(a, b, c) = 1.  Squares mod 3 are 0 or 1, so
    a^2 + b^2 = 0 (mod 3) forces a = b = 0 (mod 3); hence 3 never
    divides the reduced denominator of a unit step.  A sum of such steps
    has no 3 in its denominator either, so 7/3 is out of reach from 0
    whatever the budget.
    """
    origin = point(Q, 0, 0)
    start = time.monotonic()

    # reachable: denominators 65 = 5 * 13 and 25, all primes 1 mod 4
    near = Point(Q(Fraction(7, 65)), Q(Fraction(22, 25)))
    try:
        chain = build_real_chain(origin, near, "rational_only")
    except SearchExhausted:
        chain = None
    reached = (chain is not None
               and chain.points[0] == origin
               and chain.points[-1] == near
               and chain.field == Q
               and all(p.tower == Q for p in chain.points)
               and verify_chain(chain).ok
               and len(chain) - 1 <= chain.reported_edge_bound)
    elapsed = time.monotonic() - start

    # unreachable: a proven refusal, never a chain or a budget give-up
    far = (Fraction(7, 3), Fraction(22, 5))
    try:
        build_real_chain(origin, Point(Q(far[0]), Q(far[1])), "rational_only")
    except SearchExhausted as exc:
        refused = exc.retriable is False
    else:
        refused = False

    # the refusal's certificate, independent of the program's own test
    certified = mod3_zero_sums == {(0, 0)} and far[0].denominator % 3 == 0

    ok = reached and refused and certified and elapsed < 60.0
    edges = "no" if chain is None else len(chain) - 1
    line = acceptance(7, ok, f"rational chain to (7/65, 22/25) "
                             f"{'verified' if reached else 'NOT verified'} "
                             f"({edges} edges, {elapsed:.2f}s); "
                             f"(7/3, 22/5) "
                             f"{'refused' if refused else 'NOT refused'} "
                             f"non-retriably; mod-3 certificate "
                             f"{'holds' if certified else 'FAILS'}")
    assert ok, line


def test_08_nonisometry_witness(acceptance):
    level = 1  # the sqrt(2) adjunction
    f = SemiAffineMap(identity_map(QS2I), LevelConjugation(level))
    pres = preserves_unit_distance(f, QS2I, sample_domain(200, seed=0))
    r = from_coeff_vector(QS2I, [0, 1, 0, 0])  # sqrt(2)
    i = imaginary_unit(QS2I)
    x = point(QS2I, 0, 0)
    y = Point((r + QS2I.one) / 2, i * (r - QS2I.one) / 2)
    before = phi(x, y)
    after = phi(f(x), f(y))
    ok = (pres.ok and pres.checked == 200
          and before == r and after == -r)
    line = acceptance(8, ok, "sqrt(2)-conjugation preserves 200 seeded unit "
                             "pairs yet maps a sqrt(2) distance to -sqrt(2)")
    assert ok, line


def test_09_rational_phi_preserved_by_canonical_maps(acceptance):
    rng = random.Random(9)
    gammas = [LevelConjugation(), LevelConjugation(1)]
    bad = 0
    for n in range(20):
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = unit_from_parameter(QI, t)
        matrix = (rotation_matrix if n % 2 else reflection_matrix)(u.x1, u.x2)
        shift = Point(QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
                      QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        m = SemiAffineMap(AffineMap(matrix, shift), gammas[n % 2])
        rep = preserves_phi(m, QI, sample_domain(200, seed=n))
        if not (rep.ok and rep.checked == 200):
            bad += 1
    ok = bad == 0
    line = acceptance(9, ok, "20 seeded canonical maps over Q(i) preserve "
                             "every probed rational squared distance "
                             "(200 pairs each)")
    assert ok, line


def test_10_preserver_search_census(gf13, canonical_maps13, acceptance):
    census = search_unit_preservers(13)
    oracle = {raw_image_table(f, gf13) for f in canonical_maps13}
    found = {t.raw for t in census.found}
    limited = search_unit_preservers(13, budget=50_000)
    ok = (census.complete
          and census.total_found == census.expected == 4056
          and census.nodes == 75_135_541  # the static-order DFS visits exactly these
          and not census.anomalies
          and found == oracle
          and not limited.complete
          and not limited.anomalies)
    line = acceptance(10, ok, f"preserver search found exactly the "
                              f"{census.total_found} canonical maps "
                              f"(set equality, {census.nodes} nodes, "
                              f"{len(census.anomalies)} anomalies; "
                              "budget-limited rerun marked incomplete)")
    assert ok, line


def test_11_branch_detection_accuracy(acceptance):
    rng = random.Random(11)
    i = imaginary_unit(QI)
    correct = 0
    for n in range(100):
        gamma = LevelConjugation() if n < 50 else LevelConjugation(1)
        expect = "theta" if n < 50 else "zeta"
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = unit_from_parameter(QI, t)
        outer = SemiAffineMap(AffineMap(
            (rotation_matrix if n % 2 else reflection_matrix)(u.x1, u.x2),
            Point(QI(rng.randint(-5, 5)), QI(rng.randint(-5, 5)))))
        f = compose(outer, SemiAffineMap(identity_map(QI), gamma))
        j = normalizer_from_images(f(point(QI, 0, 0)), f(point(QI, 1, 0)),
                                   f(point(QI, 0, 1)))
        if detect_branch(lambda x: j(f(x)), QI) == expect:
            correct += 1
    flagged = 0
    target = Point(i, i)
    for n in range(20):
        bad_img = Point(QI(rng.randint(-5, 5)) + i * QI(rng.randint(2, 7)),
                        QI(rng.randint(-5, 5)))

        def corrupted(x, _img=bad_img):
            return _img if x == target else x

        try:
            detect_branch(corrupted, QI)
        except BranchUndetermined:
            flagged += 1
    ok = correct == 100 and flagged == 20
    line = acceptance(11, ok, f"branch detection: {correct}/100 normalized "
                              f"maps labeled correctly, {flagged}/20 "
                              "corrupted tables flagged")
    assert ok, line


def test_12_pairing_identity_and_subtraction_pipeline(acceptance):
    i = imaginary_unit(QI)
    rng = random.Random(12)
    bad = 0
    # the rotated-probe identity behind the pairing argument
    for _ in range(200):
        a1, b1, a2, b2, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(5))
        x = Point(QI(a1) + QI(b1) * i, QI(a2) + QI(b2) * i)
        y = Point(QI(a1 + t * b2), QI(a2 - t * b1))
        if phi(x, y) != QI((t * t - 1) * (b1 * b1 + b2 * b2)):
            bad += 1

    # the two expansions of a rational squared distance, subtracted:
    # symbolic once, then seeded exact-arithmetic replays
    A1, B1, A2, B2, C1, D1, C2, D2 = sympy.symbols(
        "A1 B1 A2 B2 C1 D1 C2 D2")
    e_minus = (A1 - B1 * sympy.I - C1 - D1 * sympy.I) ** 2 \
        + (A2 - B2 * sympy.I - C2 - D2 * sympy.I) ** 2
    e_plus = (A1 + B1 * sympy.I - C1 - D1 * sympy.I) ** 2 \
        + (A2 + B2 * sympy.I - C2 - D2 * sympy.I) ** 2
    collapsed = -4 * (B1 * D1 + B2 * D2) \
        - 4 * sympy.I * (B1 * (A1 - C1) + B2 * (A2 - C2))
    symbolic_ok = sympy.expand(e_minus - e_plus - collapsed) == 0

    for _ in range(50):
        a1, b1, a2, b2, c1, d1, c2, d2 = (
            QI(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            for _ in range(8))
        lhs = (a1 - b1 * i - c1 - d1 * i) ** 2 + (a2 - b2 * i - c2 - d2 * i) ** 2
        rhs = (a1 + b1 * i - c1 - d1 * i) ** 2 + (a2 + b2 * i - c2 - d2 * i) ** 2
        diff = lhs - rhs
        folded = QI(-4) * (b1 * d1 + b2 * d2) \
            - QI(4) * i * (b1 * (a1 - c1) + b2 * (a2 - c2))
        if diff != folded:
            bad += 1

    ok = bad == 0 and symbolic_ok
    line = acceptance(12, ok, "rotated-probe identity exact on 200 tuples; "
                              "subtraction pipeline verified symbolically "
                              "and on 50 exact replays")
    assert ok, line
