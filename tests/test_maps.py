import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane.errors import (
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    InvalidLevel,
    NoImaginaryUnit,
    NotOrthogonal,
    ZeroParameter,
    ZeroScale,
)
from bqplane.fields import (
    Identity,
    LevelConjugation,
    Q,
    QuadExt,
    from_coeff_vector,
    random_element,
)
from bqplane.geometry import Point, all_points, phi, point, random_point
from bqplane.maps import (
    EXHAUSTIVE,
    AffineMap2,
    AffineOrthoMap,
    MapTable,
    OrthoMatrix2,
    SemiAffineMap,
    compose,
    enumerate_canonical_maps,
    enumerate_orthogonal_group,
    identity_map,
    invert,
    lorentz_case1_matrix,
    lorentz_case2_matrix,
    map_from_expression,
    preserves_phi,
    preserves_unit_distance,
    raw_image_table,
    rational_unit_vector,
    reflection_matrix,
    rotation_matrix,
    sample_domain,
    swap_affine,
    table_from_raw,
    translation_map,
    unit_circle,
    unit_from_parameter,
    _sample_rational_phi_pair,
)
from bqplane.parsing import parse_map

QI = QuadExt(Q, -1)

params = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def _identity_matrix(k):
    return OrthoMatrix2(k.one, k.zero, k.zero, k.one)


class TestOrthoMatrices:
    def test_construction_rejects_bad_columns(self, gf13):
        with pytest.raises(NotOrthogonal):
            OrthoMatrix2(gf13(1), gf13(1), gf13(0), gf13(1))
        with pytest.raises(NotOrthogonal):
            rotation_matrix(Q(1), Q(1))

    @given(params)
    def test_rotation_and_reflection_from_unit_params(self, t):
        u = unit_from_parameter(Q, t)
        for m in (rotation_matrix(u.x1, u.x2), reflection_matrix(u.x1, u.x2)):
            assert m.matmul(m.transpose()) == _identity_matrix(Q)

    def test_transpose_is_inverse(self, gf13):
        m = rotation_matrix(gf13(2), gf13(6))  # 4 + 36 = 40 = 1 mod 13
        assert m.matmul(m.transpose()) == _identity_matrix(gf13)
        assert m.transpose().matmul(m) == _identity_matrix(gf13)
        # 5^2 + 1^2 = 26 = 0 mod 13: off the circle, rejected
        with pytest.raises(NotOrthogonal):
            rotation_matrix(gf13(5), gf13(1))

    def test_apply_preserves_phi(self, gf13):
        origin = point(gf13, 0, 0)
        for m in enumerate_orthogonal_group(gf13)[:6]:
            for x in (point(gf13, 1, 2), point(gf13, 7, 11)):
                assert phi(m.apply(x), origin) == phi(x, origin)


class TestUnitVectors:
    @given(params)
    def test_parameter_form_lands_on_circle(self, t):
        u = unit_from_parameter(Q, t)
        assert phi(u, point(Q, 0, 0)) == Q.one

    def test_pythagorean_example(self):
        u = rational_unit_vector(Fraction(1, 2))
        assert u == point(Q, Fraction(3, 5), Fraction(4, 5))

    def test_parameter_pole_rejected(self, gf13):
        with pytest.raises(ZeroParameter):
            unit_from_parameter(gf13, 5)  # 1 + 25 = 0 mod 13

    def test_unit_circle_census(self, gf13):
        circle = unit_circle(gf13)
        origin = point(gf13, 0, 0)
        assert len(circle) == 12
        assert all(phi(c, origin) == gf13.one for c in circle)
        brute = {(a, b) for a in range(13) for b in range(13)
                 if (a * a + b * b) % 13 == 1}
        assert {(c.x1.rep, c.x2.rep) for c in circle} == brute
        assert circle == sorted(circle, key=lambda c: (c.x1.rep, c.x2.rep))

    def test_unit_circle_needs_finite_field(self):
        with pytest.raises(FieldNotFinite):
            unit_circle(Q)


class TestGroupCensus:
    def test_group_order_and_determinism(self, gf13):
        group = enumerate_orthogonal_group(gf13)
        assert len(group) == 24
        assert group[0] == _identity_matrix(gf13)
        assert group == enumerate_orthogonal_group(gf13)

    def test_group_matches_brute_force_at_second_prime(self, gf17):
        # independent census: try all 17^4 integer matrices
        p = 17
        brute = set()
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        if ((a * a + c * c) % p == 1
                                and (b * b + d * d) % p == 1
                                and (a * b + c * d) % p == 0):
                            brute.add((a, b, c, d))
        group = enumerate_orthogonal_group(gf17)
        ours = {tuple(e.rep for e in m.entries()) for m in group}
        assert ours == brute
        assert len(group) == len(brute) == 32

    def test_canonical_maps_are_distinct_and_counted(self, gf13):
        maps = enumerate_canonical_maps(gf13)
        assert len(maps) == 169 * 24
        assert maps[0] == identity_map(gf13)
        tables = {tuple(raw_image_table(m, gf13)) for m in maps}
        assert len(tables) == len(maps)


class TestComposeInvert:
    def test_affine_composition_stays_affine(self, gf13):
        f = translation_map(gf13, 2, 3)
        g = AffineOrthoMap(rotation_matrix(gf13(0), gf13(1)), point(gf13, 0, 0))
        fg = compose(f, g)
        assert isinstance(fg, AffineOrthoMap)
        for x in all_points(gf13)[:20]:
            assert fg(x) == f(g(x))

    def test_inverse_round_trip(self, gf13):
        f = compose(translation_map(gf13, 2, 3),
                    AffineOrthoMap(rotation_matrix(gf13(2), gf13(6)), point(gf13, 1, 1)))
        back = compose(invert(f), f)
        for x in all_points(gf13)[:20]:
            assert back(x) == x

    def test_semiaffine_composition_folds_gammas(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        both = compose(conj, conj)
        assert isinstance(both, SemiAffineMap)
        assert both.gamma == Identity()
        x = point(qi, Fraction(1, 2), Fraction(-2, 3))
        assert both(x) == x

    def test_semiaffine_after_affine(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        shift = translation_map(qi, 1, 0)
        m = compose(conj, shift)
        assert isinstance(m, SemiAffineMap)
        x = Point(from_coeff_vector(qi, [0, 2]), qi(3))
        assert m(x) == conj(shift(x))

    def test_semiaffine_inverse(self, qi):
        f = SemiAffineMap(
            compose(translation_map(qi, 1, 2),
                    AffineOrthoMap(rotation_matrix(qi(0), qi(1)), point(qi, 0, 0))),
            LevelConjugation(1))
        back = invert(f)
        x = point(qi, Fraction(3, 7), Fraction(-1, 2))
        assert back(f(x)) == x and f(back(x)) == x

    def test_general_affine_inverse_and_singularity(self, qi):
        m = AffineMap2(qi(2), qi(1), qi(0), qi(3), point(qi, 1, 1))
        inv = invert(m)
        x = point(qi, 5, -2)
        assert inv(m(x)) == x
        singular = AffineMap2(qi(1), qi(2), qi(2), qi(4), point(qi, 0, 0))
        with pytest.raises(DivisionByZero):
            invert(singular)

    def test_swap_is_self_inverse(self, gf13):
        s = swap_affine(gf13)
        assert compose(s, s) == identity_map(gf13)


class TestMapTables:
    def test_requires_full_coverage(self, gf13):
        pts = all_points(gf13)
        with pytest.raises(FieldMismatch):
            MapTable(gf13, {pts[0]: pts[0]})

    def test_requires_finite_field(self):
        with pytest.raises(FieldNotFinite):
            MapTable(Q, {})

    def test_invert_requires_injectivity(self, gf13):
        pts = all_points(gf13)
        collapsed = MapTable(gf13, {x: pts[0] for x in pts})
        with pytest.raises(FieldMismatch):
            invert(collapsed)

    def test_raw_round_trip(self, gf13):
        f = compose(translation_map(gf13, 4, 9),
                    AffineOrthoMap(reflection_matrix(gf13(6), gf13(2)), point(gf13, 0, 0)))
        raw = raw_image_table(f, gf13)
        table = table_from_raw(gf13, raw)
        assert raw_image_table(table, gf13) == raw
        for x in all_points(gf13)[:20]:
            assert table(x) == f(x)

    def test_raw_fast_paths_match_generic(self, gf13):
        f = compose(translation_map(gf13, 1, 5),
                    AffineOrthoMap(rotation_matrix(gf13(11), gf13(7)), point(gf13, 0, 0)))
        generic = [img.x1.rep * 13 + img.x2.rep
                   for img in (f(x) for x in all_points(gf13))]
        assert raw_image_table(f, gf13) == generic
        wrapped = SemiAffineMap(f, Identity())
        assert raw_image_table(wrapped, gf13) == generic


class TestPreservationScans:
    def test_exhaustive_unit_distance(self, gf13):
        f = compose(translation_map(gf13, 2, 3),
                    AffineOrthoMap(rotation_matrix(gf13(0), gf13(1)), point(gf13, 0, 0)))
        rep = preserves_unit_distance(f, gf13, EXHAUSTIVE)
        assert rep.ok and rep.checked == 169 * 12
        assert rep.property == "unit_distance" and rep.domain == "exhaustive"

    def test_corrupted_table_is_caught(self, gf13):
        raw = raw_image_table(identity_map(gf13), gf13)
        raw[0], raw[1] = raw[5], raw[70]  # break two images
        bad = table_from_raw(gf13, raw)
        rep = preserves_unit_distance(bad, gf13, EXHAUSTIVE)
        assert not rep.ok and rep.witnesses

    def test_sampled_unit_distance_over_tower(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        rep = preserves_unit_distance(conj, qi, sample_domain(50, seed=4))
        assert rep.ok and rep.checked == 50

    def test_phi_scan_full_quantifier(self, gf13):
        f = AffineOrthoMap(reflection_matrix(gf13(0), gf13(1)), point(gf13, 7, 0))
        rep = preserves_phi(f, gf13, EXHAUSTIVE)
        assert rep.ok and rep.checked == 169 * 169

    def test_phi_scan_rejects_scaling(self, qi):
        squeeze = AffineMap2(qi(2), qi.zero, qi.zero, qi(2), point(qi, 0, 0))
        rep = preserves_phi(squeeze, qi, sample_domain(30, seed=0))
        assert not rep.ok

    def test_phi_scan_on_semiaffine(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        rep = preserves_phi(conj, qi, sample_domain(40, seed=1))
        assert rep.ok and rep.checked == 40

    def test_rational_phi_pairs_match_inline_sampler(self, qs2i):
        def reference(k, rng):
            x = random_point(k, rng)
            while True:
                try:
                    u = unit_from_parameter(k, random_element(k, rng))
                except ZeroParameter:
                    continue
                r = k(rng.randint(-9, 9))
                return x, x + Point(r * u.x1, r * u.x2)

        for seed in range(3):
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert _sample_rational_phi_pair(qs2i, got) == reference(qs2i, want)

    def test_zero_samples_is_not_ok(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        for scan in (preserves_unit_distance, preserves_phi):
            rep = scan(conj, qi, sample_domain(0))
            assert rep.checked == 0 and not rep.witnesses and not rep.ok
        with pytest.raises(ValueError):
            sample_domain(-1)


class TestCaseMatrices:
    def test_orthogonal_for_every_nonzero_parameter(self, gf13):
        for a in range(1, 13):
            m1 = lorentz_case1_matrix(gf13(a), Identity(), gf13)
            m2 = lorentz_case2_matrix(gf13(a), Identity(), gf13)
            assert m1.matmul(m1.transpose()) == _identity_matrix(gf13)
            assert m2.matmul(m2.transpose()) == _identity_matrix(gf13)

    def test_orthogonal_over_tower_with_conjugation(self, qi):
        rng = random.Random(9)
        for _ in range(10):
            num = rng.randint(1, 9)
            den = rng.randint(1, 9)
            a = qi(Fraction(num, den))
            m = lorentz_case1_matrix(a, LevelConjugation(1), qi)
            assert m.matmul(m.transpose()) == _identity_matrix(qi)

    def test_zero_parameter_rejected(self, gf13):
        with pytest.raises(ZeroParameter):
            lorentz_case1_matrix(gf13(0), Identity(), gf13)

    def test_needs_imaginary_unit(self, qs2):
        with pytest.raises(NoImaginaryUnit):
            lorentz_case1_matrix(qs2(2), Identity(), qs2)


class TestExpressionElaboration:
    def test_translate_then_rotate(self, gf13):
        expr = parse_map("translate(2, 3) . rot(0, 1)", gf13)
        m = map_from_expression(expr, gf13)
        assert m == AffineOrthoMap(rotation_matrix(gf13(0), gf13(1)),
                                   point(gf13, 2, 3))

    def test_hom_after_translate_conjugates_the_shift(self, qi):
        expr = parse_map("hom(conj@1) . translate(i, 0)", qi)
        m = map_from_expression(expr, qi)
        assert isinstance(m, SemiAffineMap)
        # conj(x + (i, 0)) at x = 0 is (-i, 0)
        img = m(point(qi, 0, 0))
        assert img == Point(from_coeff_vector(qi, [0, -1]), qi.zero)

    def test_eta_xi_collapse_to_identity(self, qi):
        m = map_from_expression(parse_map("eta . xi", qi), qi)
        for x in (point(qi, 1, 2), point(qi, Fraction(1, 3), Fraction(5, 2))):
            assert m(x) == x

    def test_lambda_zero_rejected(self, qi):
        with pytest.raises(ZeroScale):
            map_from_expression(parse_map("lambda(0)", qi), qi)

    def test_conjugation_level_must_exist(self, qi):
        with pytest.raises(InvalidLevel):
            map_from_expression(parse_map("hom(conj@3)", qi), qi)

    def test_xi_needs_imaginary_unit(self):
        with pytest.raises(NoImaginaryUnit):
            map_from_expression(parse_map("xi", Q), Q)

    def test_swap_expression(self, gf13):
        m = map_from_expression(parse_map("swap", gf13), gf13)
        assert m == swap_affine(gf13)
        assert m(point(gf13, 3, 8)) == point(gf13, 8, 3)
