import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane.errors import (
    FieldNotFinite,
    NoImaginaryPresentation,
    NoImaginaryUnit,
    ZeroScale,
)
from bqplane import geometry
from bqplane.fields import PrimeField, Q, QuadExt, from_coeff_vector
from bqplane.geometry import (
    Point,
    all_points,
    eta,
    lambda_map,
    lm_distance,
    phi,
    point,
    psi,
    random_point,
    verify_transform_identities,
    xi,
)
from bqplane.maps import swap_affine

QI = QuadExt(Q, -1)

fractions = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


def qi_points():
    return st.builds(
        lambda a, b, c, d: Point(from_coeff_vector(QI, [a, b]),
                                 from_coeff_vector(QI, [c, d])),
        fractions, fractions, fractions, fractions)


class TestForms:
    def test_known_values(self, qi):
        x = point(qi, 1, 2)
        y = point(qi, 4, 6)
        assert phi(x, y) == qi(25)
        assert lm_distance(x, y) == qi(12)
        assert psi(x, y) == Q.zero

    def test_psi_sees_imaginary_parts(self, qi):
        i = from_coeff_vector(qi, [0, 1])
        x = Point(qi(1) + 2 * i, qi(0))
        y = Point(qi(5) + 3 * i, i)
        assert psi(x, y) == Q(6)

    def test_psi_needs_i_presentation(self):
        with pytest.raises(NoImaginaryPresentation):
            psi(point(Q, 0, 0), point(Q, 1, 0))

    @given(qi_points(), qi_points())
    def test_phi_symmetric_and_translation_invariant(self, x, y):
        assert phi(x, y) == phi(y, x)
        t = point(QI, 3, -2)
        shifted_x = Point(x.x1 + t.x1, x.x2 + t.x2)
        shifted_y = Point(y.x1 + t.x1, y.x2 + t.x2)
        assert phi(shifted_x, shifted_y) == phi(x, y)


class TestCoordinateChange:
    @given(qi_points(), qi_points())
    def test_xi_turns_phi_into_product_form(self, x, y):
        assert phi(x, y) == lm_distance(xi(x), xi(y))

    @given(qi_points(), qi_points())
    def test_eta_turns_product_form_into_phi(self, x, y):
        assert lm_distance(x, y) == phi(eta(x), eta(y))

    @given(qi_points())
    def test_xi_eta_mutually_inverse(self, x):
        assert eta(xi(x)) == x
        assert xi(eta(x)) == x

    def test_xi_needs_imaginary_unit(self):
        with pytest.raises(NoImaginaryUnit):
            xi(point(Q, 1, 2))

    @given(qi_points(), qi_points())
    def test_lambda_and_swap_preserve_product_form(self, x, y):
        z = QI(3) / QI(7)
        assert lm_distance(lambda_map(z, x), lambda_map(z, y)) == lm_distance(x, y)
        swap = swap_affine(QI)
        assert lm_distance(swap(x), swap(y)) == lm_distance(x, y)

    def test_lambda_rejects_zero_scale(self, qi):
        with pytest.raises(ZeroScale):
            lambda_map(qi.zero, point(qi, 1, 1))

    def test_swap_involutive(self, qi):
        x = point(qi, 2, 5)
        swap = swap_affine(qi)
        assert swap(x) == point(qi, 5, 2) and swap(swap(x)) == x


class TestPointEnumeration:
    def test_all_points_row_major_and_cached(self, gf13):
        pts = all_points(gf13)
        assert len(pts) == 169
        assert pts[0] == point(gf13, 0, 0)
        assert pts[1] == point(gf13, 0, 1)
        assert pts[13] == point(gf13, 1, 0)
        assert all_points(gf13) is pts

    def test_random_point_deterministic(self, qi):
        a = random_point(qi, random.Random(7))
        b = random_point(qi, random.Random(7))
        assert a == b


class TestIdentityReports:
    def test_exhaustive_scan(self, gf13):
        rep = verify_transform_identities(gf13)
        assert rep.ok and rep.mode == "exhaustive"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["phi_matches_lm_after_xi"].checked == 169 * 169
        assert by_name["eta_after_xi_is_id"].checked == 169

    def test_sampled_scan(self, qi):
        rep = verify_transform_identities(qi, "samples", samples=60, seed=2)
        assert rep.ok
        assert all(c.checked == 60 for c in rep.checks)
        again = verify_transform_identities(qi, "samples", samples=60, seed=2)
        assert [(c.name, c.checked) for c in again.checks] == \
            [(c.name, c.checked) for c in rep.checks]

    def test_zero_samples_is_not_ok(self, qi):
        rep = verify_transform_identities(qi, "samples", samples=0)
        assert all(c.checked == 0 and not c.witnesses for c in rep.checks)
        assert not rep.ok and not any(c.ok for c in rep.checks)

    def test_exhaustive_needs_finite_field(self, qi):
        with pytest.raises(FieldNotFinite):
            verify_transform_identities(qi, "exhaustive")

    @pytest.mark.parametrize("mode", ["exhastive", "sample", "Exhaustive"])
    def test_misspelled_mode_refused(self, gf13, mode):
        with pytest.raises(ValueError, match=f"got '{mode}'"):
            verify_transform_identities(gf13, mode)

    def test_field_without_i_fails_early(self, qs2):
        with pytest.raises(NoImaginaryUnit):
            verify_transform_identities(qs2, "samples")


# ------------------------------------- differential test of the scan

def _reference_identity_checks(pairs, pts):
    """Uncached per-pair recomputation of the four identities through
    geometry.xi/eta, keeping the first 10 witnesses of each in scan order."""
    xi, eta = geometry.xi, geometry.eta
    cases = (
        ("phi_matches_lm_after_xi", pairs,
         lambda x, y: phi(x, y) == lm_distance(xi(x), xi(y))),
        ("lm_matches_phi_after_eta", pairs,
         lambda x, y: lm_distance(x, y) == phi(eta(x), eta(y))),
        ("eta_after_xi_is_id", [(x,) for x in pts], lambda x: eta(xi(x)) == x),
        ("xi_after_eta_is_id", [(x,) for x in pts], lambda x: xi(eta(x)) == x),
    )
    out = []
    for name, items, holds in cases:
        bad = [tuple(str(x) for x in item) for item in items if not holds(*item)]
        out.append((name, len(items), bad[:10]))
    return out


def _scan_and_reference(k, mode, samples=0, seed=0):
    """The scan's (name, checked, violations) beside the reference's."""
    rep = verify_transform_identities(k, mode, samples=samples, seed=seed)
    if mode == "exhaustive":
        pts = all_points(k)
        pairs = [(x, y) for x in pts for y in pts]
    else:
        rng = random.Random(seed)
        pairs = [(random_point(k, rng), random_point(k, rng))
                 for _ in range(samples)]
        pts = [x for x, _ in pairs]
    got = [(c.name, c.checked, c.witnesses) for c in rep.checks]
    return rep, got, _reference_identity_checks(pairs, pts)


QS2I = QuadExt(QuadExt(Q, 2), -1)


class TestScanAgainstReference:
    @pytest.mark.parametrize("k, mode, samples", [
        (PrimeField(13), "exhaustive", 0),
        (PrimeField(17), "exhaustive", 0),
        (QS2I, "samples", 60),
    ], ids=["GF(13)-exhaustive", "GF(17)-exhaustive", "Q[sqrt 2][i]-samples"])
    def test_matches_uncached_scan(self, k, mode, samples):
        rep, got, want = _scan_and_reference(k, mode, samples, seed=2)
        assert rep.ok
        assert got == want

    def test_wrong_xi_is_reported(self, gf13, monkeypatch):
        # i replaced by 1: phi no longer matches the product form
        monkeypatch.setattr(geometry, "xi",
                            lambda x: Point(x.x1 + x.x2, x.x1 - x.x2))
        rep, got, want = _scan_and_reference(gf13, "exhaustive")
        assert not rep.ok
        assert got == want
        assert [len(v) for _, _, v in got] == [10, 0, 10, 10]
        assert [n for _, n, _ in got] == [169 * 169, 169 * 169, 169, 169]

    def test_wrong_eta_is_reported(self, gf13, monkeypatch):
        # eta(x) = (x1 + x2, x2 - x1) drops the halves and i: the product
        # form no longer matches phi, and neither round trip is the identity
        monkeypatch.setattr(geometry, "eta",
                            lambda x: Point(x.x1 + x.x2, x.x2 - x.x1))
        rep, got, want = _scan_and_reference(gf13, "exhaustive")
        assert not rep.ok
        assert got == want
        assert [len(v) for _, _, v in got] == [0, 10, 10, 10]
        assert [n for _, n, _ in got] == [169 * 169, 169 * 169, 169, 169]
