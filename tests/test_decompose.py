import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bqplane
from bqplane import fields
from bqplane.decompose import (
    _index_pairs,
    _mirror,
    _neighbors,
    _pair_census,
    _rotations,
    _search_order,
    decompose,
    decompose_lorentz,
    detect_branch,
    normalizer_from_images,
    search_unit_preservers,
)
from bqplane.errors import (
    BQError,
    BranchUndetermined,
    FieldMismatch,
    FieldNotFinite,
    FrameNotOrthonormal,
    NoImaginaryPresentation,
    NoImaginaryUnit,
    NotAHomomorphism,
    ProductFormViolation,
)
from bqplane.fields import (
    EXHAUSTIVE,
    LevelConjugation,
    PrimeField,
    Q,
    QuadExt,
    apply_hom,
    coeff_vector,
    imaginary_unit,
    random_element,
    tower_levels,
)
from bqplane.geometry import (
    Point,
    all_points,
    point,
    random_point,
    verify_transform_identities,
)
from bqplane.maps import (
    MapTable,
    SemiAffineMap,
    compose,
    enumerate_orthogonal_group,
    identity_map,
    index_table,
    map_from_expression,
    preserves_unit_distance,
    raw_image_table,
    rotation_matrix,
    sample_domain,
    translation_map,
    unit_circle,
)
from bqplane.parsing import parse_element, parse_field, parse_map
from helpers import census_tables, enumerate_canonical_maps, from_coeff_vector, preserves_phi

QI = QuadExt(Q, -1)
QS2I = QuadExt(QuadExt(Q, 2), -1)
# 5 + r1*r2 is fixed by conj@1 . conj@2, though by neither level alone
NESTED = parse_field("Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]")
# Q(2^(1/4), i), the splitting field of x^4 - 2
QUARTIC = parse_field("Q[sqrt 2][sqrt r1][i]")


def _expr(text, k):
    return map_from_expression(parse_map(text, k), k)


class TestNormalizer:
    def test_sends_frame_back(self, qi):
        f = _expr("translate(3, -2) . rot(3/5, 4/5)", qi)
        j = normalizer_from_images(f(point(qi, 0, 0)),
                                   f(point(qi, 1, 0)),
                                   f(point(qi, 0, 1)))
        assert j(f(point(qi, 0, 0))) == point(qi, 0, 0)
        assert j(f(point(qi, 1, 0))) == point(qi, 1, 0)
        assert j(f(point(qi, 0, 1))) == point(qi, 0, 1)

    def test_rejects_distorted_frames(self, qi):
        with pytest.raises(FrameNotOrthonormal):
            normalizer_from_images(point(qi, 0, 0), point(qi, 2, 0),
                                   point(qi, 0, 1))


class TestHomExtraction:
    def test_identity_on_normalized_affine(self, qi):
        res = decompose(identity_map(qi), qi, sample_domain(40))
        assert res.gamma == LevelConjugation()
        assert res.verified_on == sample_domain(40)

    def test_reads_conjugation(self):
        g = SemiAffineMap(identity_map(QS2I), LevelConjugation(1))
        res = decompose(g, QS2I, sample_domain(40))
        assert res.gamma == LevelConjugation(1)

    def test_prime_field_is_exhaustive_and_rigid(self, gf13):
        res = decompose(identity_map(gf13), gf13, sample_domain(5))
        assert res.gamma == LevelConjugation() and res.verified_on == EXHAUSTIVE

    def test_swap_is_not_coordinatewise(self, gf13):
        # the frame and the x1 axis are fixed, so only the scan can refuse
        raw = list(range(169))
        raw[2 * 13 + 3], raw[3 * 13 + 2] = raw[3 * 13 + 2], raw[2 * 13 + 3]
        with pytest.raises(ProductFormViolation) as info:
            decompose(MapTable(gf13, raw), gf13)
        assert info.value.witness == point(gf13, 2, 3)

    def test_squaring_fails_the_laws(self, qi):
        def sq(x: Point) -> Point:
            return Point(x.x1 * x.x1, x.x2 * x.x2)

        with pytest.raises(NotAHomomorphism):
            decompose(sq, qi, sample_domain(40))


class TestTowerRefusal:
    """x -> (x1, conj@1(x2)) over Q[sqrt 2][i] fixes the frame and reads
    gamma = id, but is no normal form.  The frame route's witness was
    recorded before the routes shared one gamma reader and one scan."""

    @staticmethod
    def _run(route):
        def f(x: Point) -> Point:
            return Point(x.x1, apply_hom(LevelConjugation(1), x.x2))

        with pytest.raises(BQError) as info:
            route(f, QS2I, sample_domain(40, seed=3))
        return info.value

    def test_frame_route_finds_the_product_form_violation(self):
        exc = self._run(decompose)
        x1 = parse_element("1/3 - 2/3*r1 - 1/4*i - 1/2*r1*i", QS2I)
        x2 = parse_element("-9/7 + 8/5*r1 - 2*i + 7/9*r1*i", QS2I)
        y2 = parse_element("-9/7 - 8/5*r1 - 2*i - 7/9*r1*i", QS2I)
        assert type(exc) is ProductFormViolation
        assert exc.witness == Point(x1, x2)
        assert str(exc) == (f"normalized map sends ({x1}, {x2}) to ({x1}, {y2}), "
                            "not coordinatewise")

    def test_lorentz_route_finds_the_law_violation(self):
        # sigma is read off the generators first, and its image of r1 is
        # neither r1 nor -r1
        exc = self._run(decompose_lorentz)
        assert type(exc) is NotAHomomorphism
        assert exc.witness == parse_element("r1", QS2I)
        assert str(exc) == "generator images match no catalog homomorphism"


class TestZeroSampleDomain:
    @pytest.mark.parametrize("run", [decompose, decompose_lorentz])
    @pytest.mark.parametrize("field", ["QS2I", "gf13"])
    def test_refused_before_any_probe(self, run, field, request):
        k = QS2I if field == "QS2I" else request.getfixturevalue(field)
        f = _expr("translate(1, 0)", k)
        probed = []

        def counted(x: Point) -> Point:
            probed.append(x)
            return f(x)

        with pytest.raises(ValueError, match="at least 1 sample"):
            run(counted, k, sample_domain(0, seed=1))
        assert probed == []


class TestExhaustiveDomainOverTower:
    @pytest.mark.parametrize("scan", [
        lambda f: verify_transform_identities(QI, "exhaustive"),
        lambda f: preserves_unit_distance(f, QI, EXHAUSTIVE),
        lambda f: preserves_phi(f, QI, EXHAUSTIVE),
        lambda f: decompose(f, QI, EXHAUSTIVE),
        lambda f: decompose_lorentz(f, QI, EXHAUSTIVE),
    ], ids=["verify_transform_identities", "preserves_unit_distance",
            "preserves_phi", "decompose", "decompose_lorentz"])
    def test_refused_before_any_probe(self, scan):
        f = _expr("translate(1, 0)", QI)
        probed = []

        def counted(x: Point) -> Point:
            probed.append(x)
            return f(x)

        with pytest.raises(FieldNotFinite):
            scan(counted)
        assert probed == []


class TestBranchDetection:
    def test_theta_and_zeta(self, qi):
        assert detect_branch(identity_map(qi), qi) == "theta"
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        assert detect_branch(conj, qi) == "zeta"

    def test_undetermined_image(self, qi):
        shift = translation_map(qi, 1, 0)
        with pytest.raises(BranchUndetermined):
            detect_branch(shift, qi)

    def test_needs_i_presentation(self, qs2):
        with pytest.raises(NoImaginaryPresentation):
            detect_branch(identity_map(qs2), qs2)


class TestFrameRoute:
    def test_prime_affine_round_trip(self, gf13):
        f = _expr("translate(2, 3) . rot(0, 1)", gf13)
        res = decompose(f, gf13)
        assert res.route == "frame" and res.gamma == LevelConjugation()
        recon = res.reconstruction()
        assert raw_image_table(recon, gf13) == raw_image_table(f, gf13)

    def test_prime_table_round_trip(self, gf13):
        f = _expr("translate(7, 1) . refl(6, 2)", gf13)
        table = MapTable(gf13, raw_image_table(f, gf13))
        res = decompose(table, gf13)
        assert raw_image_table(res.reconstruction(), gf13) == \
            raw_image_table(table, gf13)

    def test_tower_with_conjugation(self):
        f = _expr("translate(1, r1) . rot(3/5, 4/5) . hom(conj@1)", QS2I)
        res = decompose(f, QS2I, sample_domain(40))
        assert res.gamma == LevelConjugation(1)
        assert res.branch == "theta"
        recon = res.reconstruction()
        rng = random.Random(0)
        for _ in range(10):
            vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                   for _ in range(8)]
            x = Point(from_coeff_vector(QS2I, vec[:4]),
                      from_coeff_vector(QS2I, vec[4:]))
            assert recon(x) == f(x)

    def test_conjugating_i_flips_branch(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        res = decompose(conj, qi, sample_domain(30))
        assert res.branch == "zeta" and res.gamma == LevelConjugation(1)

    def test_repeated_checks_are_skipped(self):
        # over Q only 111 probe values exist: at most 111^2 law pairs and
        # 111^2 rebuild points are distinct, whatever the sample count
        f = _expr("rot(3/5, 4/5)", Q)
        calls = 0

        def counted(x: Point) -> Point:
            nonlocal calls
            calls += 1
            return f(x)

        res = decompose(counted, Q, sample_domain(200_000))
        assert res.gamma == LevelConjugation() and res.verified_on == sample_domain(200_000)
        assert calls <= 2 * 111 ** 2

    def test_many_pairs_are_drawn_as_before(self):
        # 40 probes give 1,600 pairs, more than 40 samples: the plain draws
        rng, before = random.Random(3), random.Random(3)
        ids = range(40)
        assert list(_index_pairs(rng, 40, 40)) == [
            (before.choice(ids), before.choice(ids)) for _ in range(40)]
        assert rng.getstate() == before.getstate()

    def test_few_pairs_come_once_and_end_the_draws(self):
        # 11 probes give 121 pairs, fewer than 10^6 samples: each pair once,
        # in the order first drawn, and no rng draw after the last new one
        rng, before = random.Random(3), random.Random(3)
        ids, drawn = range(11), {}
        while len(drawn) < 121:
            drawn.setdefault((before.choice(ids), before.choice(ids)))
        assert list(_index_pairs(rng, 11, 10 ** 6)) == list(drawn)
        assert rng.getstate() == before.getstate()

    def test_corrupted_table_rejected(self, gf13):
        raw = list(raw_image_table(identity_map(gf13), gf13))
        raw[17] = (raw[17] + 40) % 169
        with pytest.raises((FrameNotOrthonormal, NotAHomomorphism,
                            ProductFormViolation, BranchUndetermined)):
            decompose(MapTable(gf13, raw), gf13)

    def test_record_shape(self, gf13):
        res = decompose(_expr("translate(1, 1)", gf13), gf13)
        rec = res.to_record()
        assert rec["route"] == "frame"
        assert set(rec) == {"route", "field", "normalizer_matrix",
                            "normalizer_translation", "gamma", "branch",
                            "verified_on"}


class TestLorentzRoute:
    def test_prime_affine_matches_frame_route(self, gf13):
        f = _expr("translate(2, 3) . rot(0, 1)", gf13)
        frame = decompose(f, gf13)
        lorentz = decompose_lorentz(f, gf13)
        assert lorentz.route == "lorentz"
        assert raw_image_table(lorentz.reconstruction(), gf13) == \
            raw_image_table(frame.reconstruction(), gf13)

    def test_rotation_is_case_one(self, gf13):
        res = decompose_lorentz(_expr("rot(2, 6)", gf13), gf13)
        assert res.lorentz_case == 1 and res.lorentz_scale is not None

    def test_reflection_is_case_two(self, gf13):
        res = decompose_lorentz(_expr("refl(2, 6)", gf13), gf13)
        assert res.lorentz_case == 2

    def test_conjugation_over_tower(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        res = decompose_lorentz(conj, qi, sample_domain(30))
        assert res.branch == "zeta" and res.gamma == LevelConjugation(1)
        assert res.lorentz_case == 2

    def test_identity_is_case_one_scale_one(self, qi):
        res = decompose_lorentz(identity_map(qi), qi, sample_domain(20))
        assert res.lorentz_case == 1 and res.lorentz_scale == qi.one
        assert res.branch == "theta"

    def test_needs_imaginary_unit(self, qs2):
        with pytest.raises(NoImaginaryUnit):
            decompose_lorentz(identity_map(qs2), qs2, sample_domain(10))

    def test_imaginary_unit_found_once_per_field(self, monkeypatch):
        # xi and eta read i at every point; a prime field finds it once
        calls = []
        sqrt_mod = fields.sqrt_mod
        monkeypatch.setattr(fields, "sqrt_mod",
                            lambda a, p: calls.append(p) or sqrt_mod(a, p))
        k = PrimeField(13)
        f = _expr("translate(2, 3) . refl(2, 6)", k)
        res = decompose_lorentz(MapTable(k, raw_image_table(f, k)), k)
        assert res.lorentz_case == 2
        assert calls == [13]

    def test_record_carries_case_fields(self, gf13):
        rec = decompose_lorentz(_expr("rot(2, 6)", gf13), gf13).to_record()
        assert rec["route"] == "lorentz"
        assert "lorentz_case" in rec and "lorentz_scale" in rec

    def test_routes_agree_on_sampled_canonical_maps(self, gf13):
        rng = random.Random(11)
        maps = enumerate_canonical_maps(gf13)
        for f in rng.sample(maps, 25):
            frame = decompose(f, gf13)
            lorentz = decompose_lorentz(f, gf13)
            assert raw_image_table(frame.reconstruction(), gf13) == \
                raw_image_table(lorentz.reconstruction(), gf13) == \
                raw_image_table(f, gf13)


def _radicals(k):
    return [k(layer.radical) for layer in tower_levels(k)]


def _obeys_laws(sigma, k, samples=40, seed=5):
    """sigma is additive and multiplicative on seeded random pairs of k."""
    rng = random.Random(seed)
    for _ in range(samples):
        x, y = random_element(k, rng), random_element(k, rng)
        if sigma(x + y) != sigma(x) + sigma(y) or sigma(x * y) != sigma(x) * sigma(y):
            return False
    return True


def _substitute(images, x):
    """x with each radical r_L replaced by images[L - 1]: the ring map
    those generator images fix, evaluated monomial by monomial."""
    k = x.tower
    out = k.zero
    for idx, c in enumerate(coeff_vector(x)):
        if c:
            term = k(c)
            for bit, img in enumerate(images):
                if idx >> bit & 1:
                    term = term * img
            out = out + term
    return out


@pytest.mark.parametrize("route", [decompose, decompose_lorentz])
class TestGammaFromGeneratorSigns:
    def test_joint_conjugation_round_trips(self, route):
        r1, r2, r3, i = _radicals(NESTED)
        sigma = functools.partial(_substitute, (-r1, -r2, r3, i))
        assert _obeys_laws(sigma, NESTED)
        rot = _expr("rot(3/5, 4/5)", NESTED)

        def f(x: Point) -> Point:
            return rot(Point(sigma(x.x1), sigma(x.x2)))

        res = route(f, NESTED, sample_domain(40, seed=5))
        assert res.gamma == LevelConjugation(1, 2) and res.branch == "theta"
        parsed = _expr("rot(3/5, 4/5) . hom(conj@1) . hom(conj@2)", NESTED)
        assert route(parsed, NESTED, sample_domain(40, seed=5)).gamma == res.gamma
        recon, rng = res.reconstruction(), random.Random(3)
        for _ in range(10):
            x = random_point(NESTED, rng)
            assert recon(x) == f(x) == parsed(x)

    def test_image_off_the_signs_of_r_is_refused_there(self, route):
        # r1 -> -r1, r2 -> r2*i, i -> i is an automorphism of Q(2^(1/4), i),
        # but r2*i is neither r2 nor -r2, so no level set is this gamma
        r1, r2, i = _radicals(QUARTIC)
        sigma = functools.partial(_substitute, (-r1, r2 * i, i))
        assert _obeys_laws(sigma, QUARTIC)
        with pytest.raises(NotAHomomorphism,
                           match="^generator images match no catalog homomorphism$") as info:
            route(lambda x: Point(sigma(x.x1), sigma(x.x2)), QUARTIC, sample_domain(40, seed=5))
        assert info.value.witness == r2

    def test_small_sample_still_checks_every_basis_monomial(self, route):
        # gamma fixes r1, r2 and i but negates r1*r2; one sample's probes are
        # only 1, so the basis monomials are what refuse it
        k = parse_field("Q[sqrt 2][sqrt 3][i]")

        def gamma(x):
            nums = list(x.rep.nums)
            nums[3] = -nums[3]
            return fields.FieldElement(k, fields.TowerRep(tuple(nums), x.rep.den))

        with pytest.raises(NotAHomomorphism, match="^disagrees at r1\\*r2 ") as info:
            route(lambda x: Point(gamma(x.x1), gamma(x.x2)), k, sample_domain(1))
        assert info.value.witness == parse_element("r1*r2", k)

    def test_sign_set_that_moves_a_radicand_is_refused(self, route):
        # the signs r1 -> -r1, r2 -> r2 move the radicand 1 + r1, which
        # the radicand scan refuses at any sample size, one included
        k = parse_field("Q[sqrt 2][sqrt 1 + r1][i]")
        f = SemiAffineMap(identity_map(k), LevelConjugation(1))
        with pytest.raises(NotAHomomorphism,
                           match="^generator images match no catalog homomorphism$") as info:
            route(f, k, sample_domain(1))
        assert info.value.witness == parse_element("1 + r1", k)


class TestPrimeTablesReadOnce:
    """Over GF(p) each route reads the map once, as its image table."""

    ROUTES = [decompose, decompose_lorentz]

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("p", [13, 29])
    def test_a_callable_is_called_p_squared_times(self, route, p):
        k = PrimeField(p)
        f = _expr("translate(3, 5) . refl(0, 1)", k)
        calls = []

        def counted(x: Point) -> Point:
            calls.append(x)
            return f(x)

        assert route(counted, k).to_record() == route(f, k).to_record()
        assert len(calls) == p * p

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("p", [13, 29])
    def test_a_table_is_never_evaluated_point_by_point(self, route, p):
        class Untouchable(MapTable):
            def __call__(self, x):
                raise AssertionError(f"table evaluated at {x}")

        k = PrimeField(p)
        f = _expr("translate(1, 2) . rot(0, 1)", k)
        table = Untouchable(k, raw_image_table(f, k))
        assert route(table, k).to_record() == route(f, k).to_record()

    @pytest.mark.parametrize("route", ROUTES)
    def test_images_in_another_field_are_refused(self, route, gf13, gf17):
        with pytest.raises(FieldMismatch, match=r"map images leave GF\(13\)"):
            route(lambda x: point(gf17, x.x1.rep + 4, x.x2.rep), gf13)

    def test_the_submodule_is_not_shadowed(self):
        import bqplane.decompose as module
        assert module.search_unit_preservers is search_unit_preservers
        assert module.decompose is decompose


# A fresh process's peak RSS growth, in kB, from a census that finds
# nothing to the complete GF(17) census.  It reads VmHWM, the peak of the
# process's own address space: ru_maxrss would start at the spawning
# process's RSS, which it keeps across fork and exec.
CENSUS_PEAK_GROWTH = r"""
import re
from bqplane.decompose import search_unit_preservers

def peak():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\s*(\d+) kB", f.read())[1])

search_unit_preservers(17, budget=0)
before = peak()
census = search_unit_preservers(17)
assert census.complete and census.ok
print(peak() - before)
"""


class TestPreserverSearch:
    def test_budgeted_search_is_marked_incomplete(self):
        census = search_unit_preservers(17, budget=40_000)
        assert census.p == 17
        assert not census.complete
        assert census.nodes == 40_001
        assert census.total_found == 2
        assert census.anomalies == []
        assert census.ok  # incomplete census with no anomalies is consistent

    def test_budget_limited_census_that_found_nothing_fails(self):
        census = search_unit_preservers(13, budget=0)
        assert census.nodes == 1 and not census.complete
        assert census.total_found == 0 and census.anomalies == []
        assert census.ok is False

    def test_found_tables_decompose(self, monkeypatch, gf17):
        census, tables = census_tables(monkeypatch, 17, budget=40_000)
        assert len(tables) == census.total_found == 2
        for raw in tables:
            res = decompose(MapTable(gf17, raw), gf17)
            assert raw_image_table(res.reconstruction(), gf17) == raw

    def test_expected_count_formula(self):
        census = search_unit_preservers(17, budget=1)
        assert census.expected == 17 * 17 * 2 * 16

    def test_visited_counts_only_the_walked_nodes(self):
        # one child of the first pair subtree (18,524 nodes) is walked,
        # and of the child the budget cuts only its last 326 nodes, from
        # the stop on, walked back from its end; the mirrored child, the
        # 26 or so subtrees between and the cut pair's earlier children
        # are mapped
        census = search_unit_preservers(13, budget=1_000_000)
        assert census.nodes == 1_000_001
        assert census.visited < 19_000

    def test_complete_census_walks_one_child_of_each_mirror_pair(self):
        census = search_unit_preservers(13)
        assert census.complete and census.nodes == 75_135_541
        assert census.visited <= 21_000
        p = 17
        offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
        neigh = _neighbors(p, offs)
        sizes = []
        nodes, visited, complete = _pair_census(
            p, offs, neigh, _search_order(neigh)[1], 0, lambda finds: sizes.append(len(finds)))
        assert complete and nodes == 8_012_250_161
        assert visited <= 1_000_000
        assert sum(sizes) == 9_248

    @pytest.mark.parametrize("p", [13, 17, 29, 37, 41, 53, 61])
    def test_census_mirror_keeps_the_first_pair(self, p):
        # the census maps a child of the first pair subtree through this
        # table unchecked: it must be an involution of the points fixing
        # (0,0) and the lowest unit offset, and keep the unit offsets
        offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
        unit = sorted(c * p + s for c, s in offs)
        sigma = _mirror(p, offs)
        assert [sigma[v] for v in sigma] == list(range(p * p))
        assert sigma[0] == 0 and sigma[unit[0]] == unit[0]
        assert sorted(sigma[o] for o in unit) == unit

    @pytest.mark.parametrize("p", [13, 17, 29, 37, 41, 53, 61])
    def test_census_rotations_keep_the_unit_circle(self, p):
        # the census maps its first pair subtree through the table of each
        # (rc, rs) unchecked: each must be a permutation of the points
        # taking the lowest unit offset to its own offset and the unit
        # offsets onto themselves
        offs = [(u.x1.rep, u.x2.rep) for u in unit_circle(PrimeField(p))]
        unit = sorted(c * p + s for c, s in offs)
        rots = _rotations(p, offs)
        assert len(rots) == len(offs)
        for (c, s), (rc, rs) in zip(offs, rots):
            rot = index_table(p, rc, -rs, rs, rc, 0, 0)
            assert sorted(rot) == list(range(p * p))
            assert rot[unit[0]] == c * p + s
            assert sorted(rot[o] for o in unit) == unit

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS of a Linux process")
    def test_complete_census_memory_stays_flat(self):
        # each find is decomposed as it is made and only its frame images
        # are kept, so the complete GF(17) census (9,248 finds of 289
        # images each) peaks within 10 MB of a census that found nothing
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bqplane.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", CENSUS_PEAK_GROWTH], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert int(out.stdout) < 10 * 1024  # kB

    def test_complete_census_of_gf17_is_the_canonical_maps(self, monkeypatch, gf17):
        census, tables = census_tables(monkeypatch, 17)
        assert census.complete and census.ok
        assert census.total_found == census.expected == 9_248
        assert census.anomalies == []
        assert census.nodes == 8_012_250_161
        p = 17
        canonical = {
            tuple(((q.q11.rep * x + q.q12.rep * y + t1) % p) * p
                  + (q.q21.rep * x + q.q22.rep * y + t2) % p
                  for x in range(p) for y in range(p))
            for q in enumerate_orthogonal_group(gf17)
            for t1 in range(p) for t2 in range(p)}
        assert len(canonical) == 9_248
        assert set(tables) == canonical

    @pytest.mark.slow
    def test_complete_census_of_gf29_is_the_canonical_maps(self, monkeypatch):
        # about two minutes: 153,151,640 nodes walked
        p = 29
        ortho = {(q.q11.rep, q.q12.rep, q.q21.rep, q.q22.rep)
                 for q in enumerate_orthogonal_group(PrimeField(p))}
        assert len(ortho) * p * p == 47_096
        module = sys.modules["bqplane.decompose"]
        frame, frames = module._frame_on_table, []

        def spy(raw, k):
            # each table the census decomposes is the canonical map of the
            # orthogonal matrix and translation read off its images of
            # (0,0), (1,0) and (0,1); checked here, without holding 47,096
            # tables
            (t1, t2), (a1, a2), (b1, b2) = (divmod(raw[i], p) for i in (0, p, 1))
            q11, q12, q21, q22 = (a1 - t1) % p, (b1 - t1) % p, (a2 - t2) % p, (b2 - t2) % p
            assert (q11, q12, q21, q22) in ortho
            assert raw == tuple(((q11 * x + q12 * y + t1) % p) * p + (q21 * x + q22 * y + t2) % p
                                for x in range(p) for y in range(p))
            frames.append((raw[0], raw[p], raw[1]))
            return frame(raw, k)

        monkeypatch.setattr(module, "_frame_on_table", spy)
        census = search_unit_preservers(p)
        assert census.complete and census.ok
        assert census.total_found == census.expected == 47_096
        assert census.anomalies == []
        assert census.nodes == 7_042_776_837_909
        # no two finds share their frame images, so the finds are all
        # p^2 * |O(2)| canonical maps
        assert census.found == frames
        assert len(set(census.found)) == 47_096
