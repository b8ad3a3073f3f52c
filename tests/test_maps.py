import math
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
    LevelConjugation,
    PrimeField,
    Q,
    QuadExt,
    from_coeff_vector,
    imaginary_unit,
)
from bqplane.geometry import Point, all_points, phi, point, random_point
from bqplane.maps import (
    EXHAUSTIVE,
    AffineMap,
    MapTable,
    Matrix2,
    SemiAffineMap,
    compose,
    enumerate_canonical_maps,
    enumerate_orthogonal_group,
    identity_map,
    invert,
    linear_map,
    lorentz_case1_matrix,
    lorentz_case2_matrix,
    map_from_expression,
    orthogonal_matrix,
    preserves_phi,
    preserves_unit_distance,
    raw_image_table,
    reflection_matrix,
    rotation_matrix,
    sample_domain,
    swap_affine,
    translation_map,
    unit_circle,
    unit_from_parameter,
    _sample_rational_phi_pair,
)
from bqplane.parsing import parse_field, parse_map

QI = QuadExt(Q, -1)

params = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def _identity_matrix(k):
    return Matrix2(k.one, k.zero, k.zero, k.one)


def _transpose(m):
    return Matrix2(m.q11, m.q21, m.q12, m.q22)


class TestOrthoMatrices:
    def test_construction_rejects_bad_columns(self, gf13):
        assert not Matrix2(gf13(1), gf13(1), gf13(0), gf13(1)).is_orthogonal()
        with pytest.raises(NotOrthogonal):
            orthogonal_matrix(gf13(1), gf13(1), gf13(0), gf13(1))
        with pytest.raises(NotOrthogonal):
            rotation_matrix(Q(1), Q(1))

    @given(params)
    def test_rotation_and_reflection_from_unit_params(self, t):
        u = unit_from_parameter(Q, t)
        for m in (rotation_matrix(u.x1, u.x2), reflection_matrix(u.x1, u.x2)):
            assert m.matmul(_transpose(m)) == _identity_matrix(Q)
            assert m.is_orthogonal()

    def test_transpose_is_inverse(self, gf13):
        m = rotation_matrix(gf13(2), gf13(6))  # 4 + 36 = 40 = 1 mod 13
        assert m.matmul(_transpose(m)) == _identity_matrix(gf13)
        assert _transpose(m).matmul(m) == _identity_matrix(gf13)
        assert m.inverse() == _transpose(m)
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
        u = unit_from_parameter(Q, Fraction(1, 2))
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
        assert maps[0] == SemiAffineMap(identity_map(gf13))
        tables = {tuple(raw_image_table(m, gf13)) for m in maps}
        assert len(tables) == len(maps)


class TestComposeInvert:
    def test_affine_composition_stays_affine(self, gf13):
        f = translation_map(gf13, 2, 3)
        g = linear_map(rotation_matrix(gf13(0), gf13(1)))
        fg = compose(f, g)
        assert fg.gamma == LevelConjugation() and fg.outer.linear.is_orthogonal()
        for x in all_points(gf13)[:20]:
            assert fg(x) == f(g(x))

    def test_inverse_round_trip(self, gf13):
        f = compose(translation_map(gf13, 2, 3),
                    SemiAffineMap(AffineMap(rotation_matrix(gf13(2), gf13(6)),
                                            point(gf13, 1, 1))))
        back = compose(invert(f), f)
        for x in all_points(gf13)[:20]:
            assert back(x) == x

    def test_semiaffine_composition_folds_gammas(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        both = compose(conj, conj)
        assert isinstance(both, SemiAffineMap)
        assert both.gamma == LevelConjugation()
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
                    linear_map(rotation_matrix(qi(0), qi(1)))).outer,
            LevelConjugation(1))
        back = invert(f)
        x = point(qi, Fraction(3, 7), Fraction(-1, 2))
        assert back(f(x)) == x and f(back(x)) == x

    def test_general_affine_inverse_and_singularity(self, qi):
        m = SemiAffineMap(AffineMap(Matrix2(qi(2), qi(1), qi(0), qi(3)),
                                    point(qi, 1, 1)))
        inv = invert(m)
        x = point(qi, 5, -2)
        assert inv(m(x)) == x
        singular = linear_map(Matrix2(qi(1), qi(2), qi(2), qi(4)))
        with pytest.raises(DivisionByZero):
            invert(singular)

    def test_swap_is_self_inverse(self, gf13):
        s = swap_affine(gf13)
        assert compose(s, s) == SemiAffineMap(identity_map(gf13))


class TestMapTables:
    def test_requires_full_coverage(self, gf13):
        hole = [None] + list(range(1, 169))
        for raw in ([0], [0] * 170, hole):
            with pytest.raises(FieldMismatch,
                               match=r"cover all 169 points of GF\(13\)\^2"):
                MapTable(gf13, raw)

    def test_images_must_be_point_indices(self, gf13):
        for bad in (169, -1, "0", 1.0):
            with pytest.raises(FieldMismatch, match="table image outside the field"):
                MapTable(gf13, [bad] + [0] * 168)

    def test_requires_finite_field(self):
        with pytest.raises(FieldNotFinite, match="map tables need a finite field"):
            MapTable(Q, ())

    def test_point_of_another_field_is_a_mismatch(self, gf13, gf17):
        table = MapTable(gf13, range(169))
        with pytest.raises(FieldMismatch):
            table(point(gf17, 0, 0))
        assert table(point(PrimeField(13), 2, 5)) == point(gf13, 2, 5)

    def test_call_reads_the_raw_entry(self, gf13):
        rng = random.Random(13)
        table = MapTable(gf13, [rng.randrange(169) for _ in range(169)])
        for idx, x in enumerate(all_points(gf13)):
            assert table(x) == point(gf13, *divmod(table.raw[idx], 13))

    def test_raw_round_trip(self, gf13):
        f = compose(translation_map(gf13, 4, 9),
                    linear_map(reflection_matrix(gf13(6), gf13(2))))
        raw = raw_image_table(f, gf13)
        table = MapTable(gf13, list(raw))
        assert table.raw == raw
        assert raw_image_table(table, gf13) is table.raw  # no point evaluated
        for x in all_points(gf13)[:20]:
            assert table(x) == f(x)

    def test_raw_fast_paths_match_generic(self, gf13):
        for f in (compose(translation_map(gf13, 1, 5),
                          linear_map(rotation_matrix(gf13(11), gf13(7)))),
                  map_from_expression(
                      parse_map("xi . lambda(2) . eta . translate(1, 5)", gf13), gf13)):
            generic = tuple(img.x1.rep * 13 + img.x2.rep
                            for img in (f(x) for x in all_points(gf13)))
            assert raw_image_table(f, gf13) == generic


class TestPreservationScans:
    def test_exhaustive_unit_distance(self, gf13):
        f = compose(translation_map(gf13, 2, 3),
                    linear_map(rotation_matrix(gf13(0), gf13(1))))
        rep = preserves_unit_distance(f, gf13, EXHAUSTIVE)
        assert rep.ok and rep.checked == 169 * 12
        assert rep.name == "unit_distance" and rep.domain == EXHAUSTIVE

    def test_corrupted_table_is_caught(self, gf13):
        raw = list(raw_image_table(identity_map(gf13), gf13))
        raw[0], raw[1] = raw[5], raw[70]  # break two images
        bad = MapTable(gf13, raw)
        rep = preserves_unit_distance(bad, gf13, EXHAUSTIVE)
        assert not rep.ok and rep.witnesses

    def test_scans_stop_at_the_tenth_witness(self, gf13):
        # every point sent to (0, 0): each unit pair fails, and every pair
        # fails phi except those of a point with itself
        flat = MapTable(gf13, [0] * 169)
        unit = preserves_unit_distance(flat, gf13, EXHAUSTIVE)
        assert len(unit.witnesses) == 10 and unit.checked == 10
        assert unit.witnesses[0] == ("(0, 0)", "(0, 1)", "0")
        full = preserves_phi(flat, gf13, EXHAUSTIVE)
        assert len(full.witnesses) == 10 and full.checked == 11
        assert full.witnesses[0] == ("(0, 0)", "(0, 1)")

    def test_sampled_unit_distance_over_tower(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        rep = preserves_unit_distance(conj, qi, sample_domain(50, seed=4))
        assert rep.ok and rep.checked == 50

    def test_phi_scan_full_quantifier(self, gf13):
        f = SemiAffineMap(AffineMap(reflection_matrix(gf13(0), gf13(1)), point(gf13, 7, 0)))
        rep = preserves_phi(f, gf13, EXHAUSTIVE)
        assert rep.ok and rep.checked == 169 * 169

    def test_phi_scan_rejects_scaling(self, qi):
        squeeze = linear_map(Matrix2(qi(2), qi.zero, qi.zero, qi(2)))
        rep = preserves_phi(squeeze, qi, sample_domain(30, seed=0))
        assert not rep.ok

    def test_phi_scan_on_semiaffine(self, qi):
        conj = SemiAffineMap(identity_map(qi), LevelConjugation(1))
        rep = preserves_phi(conj, qi, sample_domain(40, seed=1))
        assert rep.ok and rep.checked == 40

    def test_rational_phi_pairs_match_inline_sampler(self, qs2i, gf13):
        # y = x + v with v drawn from the prime subfield's plane, so that
        # phi(x, y) = v1^2 + v2^2 lies in the prime subfield
        def reference(k, rng):
            x = random_point(k, rng)
            if isinstance(k, PrimeField):
                v = [rng.randrange(k.p) for _ in range(2)]
            else:
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            return x, Point(x.x1 + v[0], x.x2 + v[1]), v[0] ** 2 + v[1] ** 2

        for k in (Q, qs2i, gf13):
            for seed in range(3):
                got, want = random.Random(seed), random.Random(seed)
                for _ in range(20):
                    x, y, square = reference(k, want)
                    assert _sample_rational_phi_pair(k, got) == (x, y)
                    assert phi(x, y) == square

    def test_phi_scan_catches_the_thirds_shift(self, qi, mod3_zero_sums):
        # x + (1, 0) when a coordinate of x has a denominator divisible by
        # 3, else x: a rational unit step has a denominator prime to 3, so
        # both ends of a unit pair of Q^2 move alike, yet the map is not
        # affine.  Pairs y = x + r*u stayed in one coset of the unit steps
        # and never saw it.
        seen = []

        def shift(x):
            seen.append(x)
            if x.x1.rep.den % 3 == 0 or x.x2.rep.den % 3 == 0:
                return Point(x.x1 + 1, x.x2)
            return x

        unit = preserves_unit_distance(shift, Q, sample_domain(200, seed=1))
        assert unit.ok and unit.checked == 200
        # The premise on each pair the scan drew, in integers: its step is
        # (a/c, b/c) in lowest terms with a^2 + b^2 = c^2, so acceptance 7's
        # mod-3 certificate leaves 3 out of c, and both ends move alike.
        assert mod3_zero_sums == {(0, 0)} and len(seen) == 400
        moved = 0
        for x, y in zip(seen[::2], seen[1::2]):
            u1, u2 = (Fraction(q.rep.nums[0], q.rep.den) - Fraction(p.rep.nums[0], p.rep.den)
                      for p, q in ((x.x1, y.x1), (x.x2, y.x2)))
            c = math.lcm(u1.denominator, u2.denominator)
            a, b = int(u1 * c), int(u2 * c)
            assert a * a + b * b == c * c and math.gcd(a, b, c) == 1
            assert c % 3 != 0  # else (a % 3, b % 3) = (0, 0) and 3 | gcd(a, b, c)
            thirds = [p.x1.rep.den % 3 == 0 or p.x2.rep.den % 3 == 0 for p in (x, y)]
            assert thirds[0] == thirds[1]
            moved += thirds[0]
        assert 0 < moved < 200
        rep = preserves_phi(shift, Q, sample_domain(200, seed=1))
        assert not rep.ok and rep.witnesses
        third = point(Q, Fraction(1, 3), 0)
        assert phi(shift(point(Q, 0, 0)), shift(third)) == Fraction(16, 9)
        # over Q(i) the same rule breaks the unit pair (0, 0), (5/3, 4i/3)
        far = Point(qi(Fraction(5, 3)), from_coeff_vector(qi, [0, Fraction(4, 3)]))
        assert phi(point(qi, 0, 0), far) == 1
        assert phi(shift(point(qi, 0, 0)), shift(far)) != 1

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
            m1 = lorentz_case1_matrix(gf13(a), LevelConjugation(), gf13)
            m2 = lorentz_case2_matrix(gf13(a), LevelConjugation(), gf13)
            assert m1.matmul(_transpose(m1)) == _identity_matrix(gf13)
            assert m2.matmul(_transpose(m2)) == _identity_matrix(gf13)

    def test_orthogonal_over_tower_with_conjugation(self, qi):
        # conj@1 sends i to -i: case 1 is [[B, -S i], [-S i, -B]] and case
        # 2 is [[B, S i], [-S i, B]] for B, S = (a +- 1/a) / 2
        rng = random.Random(9)
        i = imaginary_unit(qi)
        for _ in range(10):
            num = rng.randint(1, 9)
            den = rng.randint(1, 9)
            a = qi(Fraction(num, den))
            big = qi(Fraction(num * num + den * den, 2 * num * den))
            small = qi(Fraction(num * num - den * den, 2 * num * den))
            m1 = lorentz_case1_matrix(a, LevelConjugation(1), qi)
            m2 = lorentz_case2_matrix(a, LevelConjugation(1), qi)
            assert m1 == Matrix2(big, -small * i, -small * i, -big)
            assert m2 == Matrix2(big, small * i, -small * i, big)
            for m in (m1, m2):
                assert m.matmul(_transpose(m)) == _identity_matrix(qi)

    def test_zero_parameter_rejected(self, gf13):
        with pytest.raises(ZeroParameter):
            lorentz_case1_matrix(gf13(0), LevelConjugation(), gf13)

    def test_needs_imaginary_unit(self, qs2):
        with pytest.raises(NoImaginaryUnit):
            lorentz_case1_matrix(qs2(2), LevelConjugation(), qs2)


class TestExpressionElaboration:
    def test_translate_then_rotate(self, gf13):
        expr = parse_map("translate(2, 3) . rot(0, 1)", gf13)
        m = map_from_expression(expr, gf13)
        assert m == SemiAffineMap(AffineMap(rotation_matrix(gf13(0), gf13(1)),
                                            point(gf13, 2, 3)))

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
        # each level is checked before a run merges: conj@3 . conj@3 would
        # cancel to the identity
        for text in ("hom(conj@3)", "hom(conj@3) . hom(conj@3)"):
            with pytest.raises(InvalidLevel, match=r"^conj@3 .*is not a catalog automorphism"):
                map_from_expression(parse_map(text, qi), qi)

    def test_conjugation_must_be_an_automorphism(self):
        # conj@1 sends the radicand 1 + sqrt 2 to 1 - sqrt 2, whose root
        # is not in the field: no automorphism, so no expression atom
        k = parse_field("Q[sqrt 2][sqrt (1 + r1)][i]")
        for text in ("hom(conj@1)", "hom(conj@1) . lambda(r2)", "hom(conj@2) . hom(conj@1)"):
            with pytest.raises(InvalidLevel, match=r"conj@1 .*Q\[sqrt 2\]"):
                map_from_expression(parse_map(text, k), k)
        assert map_from_expression(parse_map("hom(conj@2) . hom(conj@3)", k), k).gamma \
            == LevelConjugation(2, 3)

    def test_adjacent_conjugations_are_checked_as_one(self):
        # conj@1 and conj@2 each move 5 + r1*r2; together they fix it
        k = parse_field("Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]")
        m = map_from_expression(parse_map("rot(3/5, 4/5) . hom(conj@1) . hom(conj@2)", k), k)
        assert m.gamma == LevelConjugation(1, 2)
        with pytest.raises(InvalidLevel, match=r"^conj@1 is not a catalog automorphism"):
            map_from_expression(parse_map("hom(conj@1)", k), k)
        text = "hom(conj@1) . hom(conj@2) . hom(conj@4) . hom(conj@2)"
        with pytest.raises(InvalidLevel, match=r"^conj@1 \. conj@2 \. conj@4 \. conj@2 is not"):
            map_from_expression(parse_map(text, k), k)

    def test_xi_needs_imaginary_unit(self):
        with pytest.raises(NoImaginaryUnit):
            map_from_expression(parse_map("xi", Q), Q)

    def test_swap_expression(self, gf13):
        m = map_from_expression(parse_map("swap", gf13), gf13)
        assert m == swap_affine(gf13)
        assert m(point(gf13, 3, 8)) == point(gf13, 8, 3)
