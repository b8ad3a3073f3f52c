import random
from fractions import Fraction

import pytest

from bqplane.decompose import (
    decompose,
    decompose_lorentz,
    detect_branch,
    extract_homomorphism,
    normalizer_from_images,
    search_unit_preservers,
)
from bqplane.errors import (
    BranchUndetermined,
    FrameNotOrthonormal,
    NoImaginaryPresentation,
    NoImaginaryUnit,
    NotAHomomorphism,
    ProductFormViolation,
)
from bqplane.fields import (
    Identity,
    LevelConjugation,
    Q,
    QuadExt,
    from_coeff_vector,
    hom_from_levels,
    imaginary_unit,
)
from bqplane.geometry import Point, all_points, point
from bqplane.maps import (
    AffineOrthoMap,
    MapTable,
    SemiAffineMap,
    compose,
    identity_map,
    map_from_expression,
    raw_image_table,
    rotation_matrix,
    sample_domain,
    swap_affine,
    table_from_raw,
    translation_map,
)
from bqplane.parsing import parse_map

QI = QuadExt(Q, -1)
QS2I = QuadExt(QuadExt(Q, 2), -1)


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
        ext = extract_homomorphism(identity_map(qi), qi, sample_domain(40))
        assert ext.hom == Identity()
        assert ext.law_pairs > 0 and ext.points_checked > 0

    def test_reads_conjugation(self):
        g = SemiAffineMap(identity_map(QS2I), LevelConjugation(1))
        ext = extract_homomorphism(g, QS2I, sample_domain(40))
        assert ext.hom == LevelConjugation(1)

    def test_prime_field_is_exhaustive_and_rigid(self, gf13):
        ext = extract_homomorphism(identity_map(gf13), gf13)
        assert ext.hom == Identity() and ext.complete

    def test_swap_is_not_coordinatewise(self, gf13):
        with pytest.raises((NotAHomomorphism, ProductFormViolation)):
            extract_homomorphism(swap_affine(gf13), gf13)

    def test_squaring_fails_the_laws(self, qi):
        def sq(x: Point) -> Point:
            return Point(x.x1 * x.x1, x.x2 * x.x2)

        with pytest.raises((NotAHomomorphism, ProductFormViolation)):
            extract_homomorphism(sq, qi, sample_domain(40))


class TestZeroSampleDomain:
    @pytest.mark.parametrize("run", [decompose, decompose_lorentz,
                                     extract_homomorphism])
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
        assert res.route == "frame" and res.gamma == Identity()
        recon = res.reconstruction()
        assert raw_image_table(recon, gf13) == raw_image_table(f, gf13)

    def test_prime_table_round_trip(self, gf13):
        f = _expr("translate(7, 1) . refl(6, 2)", gf13)
        table = table_from_raw(gf13, raw_image_table(f, gf13))
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

    def test_corrupted_table_rejected(self, gf13):
        raw = raw_image_table(identity_map(gf13), gf13)
        raw[17] = (raw[17] + 40) % 169
        with pytest.raises((FrameNotOrthonormal, NotAHomomorphism,
                            ProductFormViolation, BranchUndetermined)):
            decompose(table_from_raw(gf13, raw), gf13)

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

    def test_record_carries_case_fields(self, gf13):
        rec = decompose_lorentz(_expr("rot(2, 6)", gf13), gf13).to_record()
        assert rec["route"] == "lorentz"
        assert "lorentz_case" in rec and "lorentz_scale" in rec

    def test_routes_agree_on_sampled_canonical_maps(self, gf13):
        rng = random.Random(11)
        from bqplane.maps import enumerate_canonical_maps

        maps = enumerate_canonical_maps(gf13)
        for f in rng.sample(maps, 25):
            frame = decompose(f, gf13)
            lorentz = decompose_lorentz(f, gf13)
            assert raw_image_table(frame.reconstruction(), gf13) == \
                raw_image_table(lorentz.reconstruction(), gf13) == \
                raw_image_table(f, gf13)


class TestPreserverSearch:
    def test_budgeted_search_is_marked_incomplete(self):
        census = search_unit_preservers(17, budget=40_000)
        assert census.p == 17
        assert not census.complete
        assert census.nodes == 40_001
        assert census.total_found == 2
        assert census.anomalies == []
        assert census.ok  # incomplete census with no anomalies is consistent

    def test_found_tables_decompose(self):
        census = search_unit_preservers(17, budget=40_000)
        k = census.found[0].field
        for table in census.found:
            res = decompose(table, k)
            assert raw_image_table(res.reconstruction(), k) == \
                raw_image_table(table, k)

    def test_expected_count_formula(self):
        census = search_unit_preservers(17, budget=1)
        assert census.expected == 17 * 17 * 2 * 16
