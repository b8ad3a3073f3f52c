import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane.errors import (
    FieldMismatch,
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
    point_index,
    psi,
    random_point,
    verify_transform_identities,
    xi,
)
from bqplane.maps import swap_affine
from bqplane.parsing import parse_field

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

    @pytest.mark.parametrize("p", [13, 29])
    def test_point_index_inverts_all_points(self, p):
        k = PrimeField(p)
        pts = all_points(k)
        assert [point_index(x) for x in pts] == list(range(p * p))
        assert all(pts[point_index(point(k, a, b))] == point(k, a, b)
                   for a in range(p) for b in range(p))

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


# ------------------------ the row-compare scan against the pair-by-pair scan

def _residue_scan_oracle(k):
    """The exhaustive scan as it was before whole-row compares: every row
    built pair by pair from difference indices, through geometry.xi/eta;
    (name, checked, witnesses) per check."""
    xi, eta = geometry.xi, geometry.eta
    p = k.p
    pts = all_points(k)
    origin = pts[0]
    xi_at = [xi(x).x1.rep * p + xi(x).x2.rep for x in pts]
    eta_at = [eta(x).x1.rep * p + eta(x).x2.rep for x in pts]
    phi_of = [phi(d, origin).rep for d in pts]
    lm_of = [lm_distance(d, origin).rep for d in pts]
    coords = [divmod(i, p) for i in range(len(pts))]
    xi_coords = [coords[j] for j in xi_at]
    eta_coords = [coords[j] for j in eta_at]
    wit = [[], [], [], []]

    def note_row(w, x, got, want):
        if got == want or len(w) >= 10:
            return
        for y, g, v in zip(pts, got, want):
            if g != v:
                w.append((str(x), str(y)))
                if len(w) >= 10:
                    return

    for x, (a1, a2), (c1, c2), (e1, e2) in zip(pts, coords, xi_coords, eta_coords):
        diff = [(a1 - b1) % p * p + (a2 - b2) % p for b1, b2 in coords]
        xi_diff = [(c1 - b1) % p * p + (c2 - b2) % p for b1, b2 in xi_coords]
        eta_diff = [(e1 - b1) % p * p + (e2 - b2) % p for b1, b2 in eta_coords]
        note_row(wit[0], x, [phi_of[d] for d in diff], [lm_of[d] for d in xi_diff])
        note_row(wit[1], x, [lm_of[d] for d in diff], [phi_of[d] for d in eta_diff])
    for i, x in enumerate(pts):
        if eta_at[xi_at[i]] != i and len(wit[2]) < 10:
            wit[2].append((str(x),))
        if xi_at[eta_at[i]] != i and len(wit[3]) < 10:
            wit[3].append((str(x),))
    n = len(pts)
    return list(zip(geometry._IDENTITY_NAMES, [n * n, n * n, n, n], wit))


@pytest.mark.parametrize("p, name, broken", [
    (13, "xi", (0,)),
    (13, "eta", (7, 168)),
    (29, "xi", (5, 100, 700)),
    (29, "eta", (840,)),
])
def test_row_scan_reports_as_the_pair_scan(p, name, broken, monkeypatch):
    # xi or eta moved by one step in x1 on a few points: every count and
    # witness, in order, must be the pair-by-pair scan's
    k = PrimeField(p)
    good = getattr(geometry, name)

    def moved(x):
        y = good(x)
        if x.x1.rep * p + x.x2.rep in broken:
            return Point(y.x1 + k.one, y.x2)
        return y

    monkeypatch.setattr(geometry, name, moved)
    rep = verify_transform_identities(k, "exhaustive")
    got = [(c.name, c.checked, c.witnesses) for c in rep.checks]
    assert not rep.ok
    assert got == _residue_scan_oracle(k)


# phi is one row d1*d1 + d2*d2 + 0 with one reduction; it used to be five
# operations, each reduced.  Point is a slotted class; it used to be a
# frozen dataclass.  Both must behave as before.

def _five_op_phi(x, y):
    d1 = x.x1 - y.x1
    d2 = x.x2 - y.x2
    return d1 * d1 + d2 * d2


@pytest.mark.parametrize("spec", ["Q", "GF(13)", "GF(100000037)", "Q[i]", "Q[sqrt 2][i]",
                                  "Q[sqrt 2/3][sqrt -5/7]", "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]"])
def test_phi_matches_the_five_operation_formula(spec):
    k = parse_field(spec)
    rng = random.Random(4)
    pts = [random_point(k, rng) for _ in range(30)] + [point(k, 0, 0), point(k, 3, -4)]
    for x in pts:
        for y in pts[:8]:
            got = phi(x, y)
            assert got == _five_op_phi(x, y) and got.tower is k
            assert got.rep == _five_op_phi(x, y).rep


class TestPoint:
    def test_equality_and_hash_are_the_coordinate_pair(self, qi, gf13):
        x, y = point(qi, 1, 2), point(qi, 1, 2)
        assert x == y and x is not y and hash(x) == hash(y) == hash((x.x1, x.x2))
        assert x != point(qi, 2, 1) and x != point(gf13, 1, 2)
        assert x != (x.x1, x.x2) and (x == (x.x1, x.x2)) is False
        assert Point.__eq__(x, (x.x1, x.x2)) is NotImplemented
        assert len({x, y, point(qi, 2, 1)}) == 2

    def test_repr_str_and_tower(self, qi):
        x = point(qi, Fraction(1, 2), -3)
        assert repr(x) == f"Point(x1={x.x1!r}, x2={x.x2!r})" == "Point(x1=<1/2 : Q[i]>, x2=<-3 : Q[i]>)"
        assert str(x) == "(1/2, -3)" and x.tower is qi

    def test_immutable(self, qi):
        x = point(qi, 1, 2)
        with pytest.raises(FrozenInstanceError):
            x.x1 = qi(5)
        with pytest.raises(FrozenInstanceError):
            del x.x2
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == point(qi, 1, 2) and not hasattr(x, "__dict__")

    def test_copy_and_pickle(self, qi):
        x = point(qi, Fraction(1, 2), -3)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and y.tower == qi
        with pytest.raises(FrozenInstanceError):
            copy.copy(x).x1 = qi(1)

    def test_coordinates_in_one_field(self, qi, gf13):
        with pytest.raises(FieldMismatch, match="point coordinates in different fields: Q\\[i\\] vs GF\\(13\\)"):
            Point(qi(1), gf13(1))
        assert Point(qi(1), QuadExt(Q, -1)(2)).tower == qi
