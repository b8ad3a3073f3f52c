from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bqplane import chains
from bqplane.chains import (
    Chain,
    build_lemma3_chain,
    build_real_chain,
    verify_chain,
)
from bqplane.errors import (
    FieldMismatch,
    NoImaginaryPresentation,
    PrimaryBranchUnavailable,
    SearchExhausted,
)
from bqplane.fields import (
    FieldElement,
    Q,
    QuadExt,
    imaginary_unit,
    re_im,
    real_sign,
    tower_levels,
)
from bqplane.geometry import Point, phi, point
from bqplane.ntheory import isprime
from helpers import from_coeff_vector

QI = QuadExt(Q, -1)

feasible_coord = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 5, 13, 25]))
small_coord = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))

# (10^24 + 49)(3*10^24 + 17), both primes 1 mod 4: too large to split
# within the factoring effort cap, and no divisor certifies infeasibility
SEMIPRIME_1_1 = 3000000000000000000000164000000000000000000000833
# (10^24 + 49)(2*10^24 + 3): the second prime is 3 mod 4, and so is the
# product, which certifies infeasibility without being factored
SEMIPRIME_1_3 = 2000000000000000000000101000000000000000000000147


def _walk_two_squares(p: int, k: int) -> tuple[int, int]:
    """The former _two_squares: sqrt(-1) mod p by a linear scan over g."""
    root = next(r for r in (pow(g, (p - 1) // 4, p) for g in range(2, p))
                if r * r % p == p - 1)
    a, b = p, root
    while b * b > p:
        a, b = b, a % b
    a, b = b, a % b
    ge, gf = 1, 0
    for _ in range(k):
        ge, gf = ge * a - gf * b, ge * b + gf * a
    return abs(ge), abs(gf)


class TestVerifyChain:
    def test_unit_edges_pass(self):
        c = Chain([point(Q, 0, 0), point(Q, 1, 0), point(Q, 1, 1)], Q)
        rep = verify_chain(c)
        assert rep.ok and len(rep.edges) == 2
        assert all(e.phi_ok for e in rep.edges)
        assert all(e.psi_ok is None for e in rep.edges)

    def test_bad_edge_reported_exactly(self):
        c = Chain([point(Q, 0, 0), point(Q, 2, 0)], Q)
        rep = verify_chain(c)
        assert not rep.ok
        assert rep.edges[0].phi_value == Q(4)

    def test_psi_requirement_needs_i(self):
        c = Chain([point(Q, 0, 0), point(Q, 1, 0)], Q)
        with pytest.raises(NoImaginaryPresentation):
            verify_chain(c, require_psi=True)

    def test_real_edges_fail_psi_requirement(self, qi):
        c = Chain([point(qi, 0, 0), point(qi, 1, 0)], qi)
        assert verify_chain(c).ok
        rep = verify_chain(c, require_psi=True)
        assert not rep.ok and rep.edges[0].psi_ok is False

    def test_chain_shape_validation(self, qi):
        with pytest.raises(ValueError):
            Chain([point(Q, 0, 0)], Q)
        with pytest.raises(FieldMismatch):
            Chain([point(Q, 0, 0), point(qi, 1, 0)], Q)


class TestRationalChains:
    def test_unit_target_is_one_edge(self):
        c = build_real_chain(point(Q, 0, 0),
                             Point(Q(Fraction(3, 5)), Q(Fraction(4, 5))),
                             "rational_only")
        assert len(c.points) == 2 and verify_chain(c).ok

    def test_degenerate_endpoints_detour(self):
        s = point(Q, 2, 3)
        c = build_real_chain(s, s, "rational_only")
        assert len(c.points) == 3
        assert c.points[0] == s and c.points[-1] == s
        assert verify_chain(c).ok

    def test_two_step_closure(self):
        t = Point(Q(Fraction(6, 5)), Q(Fraction(8, 5)))
        c = build_real_chain(point(Q, 0, 0), t, "rational_only")
        assert len(c.points) == 3
        assert c.points[-1] == t and verify_chain(c).ok

    def test_longer_target(self):
        t = Point(Q(Fraction(7, 5)), Q(Fraction(24, 5)))
        c = build_real_chain(point(Q, 0, 0), t, "rational_only")
        assert verify_chain(c).ok
        assert c.points[0] == point(Q, 0, 0) and c.points[-1] == t
        assert all(p.tower == Q for p in c.points)
        assert len(c.points) - 1 <= (c.reported_edge_bound or 0)

    def test_infeasible_denominator_is_permanent(self):
        with pytest.raises(SearchExhausted) as exc:
            build_real_chain(point(Q, 0, 0), Point(Q(Fraction(1, 3)), Q(0)),
                             "rational_only")
        assert exc.value.retriable is False

    def test_each_denominator_factored_once(self, monkeypatch):
        calls = []
        factor = chains.factorint

        def counted(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(chains, "factorint", counted)
        t = Point(Q(Fraction(7, 65)), Q(Fraction(22, 25)))
        c = build_real_chain(point(Q, 0, 0), t, "rational_only")
        assert calls == [65, 25]
        assert c.points[-1] == t and verify_chain(c).ok
        calls.clear()
        with pytest.raises(SearchExhausted):
            build_real_chain(point(Q, 0, 0),
                             Point(Q(Fraction(7, 3)), Q(Fraction(22, 5))),
                             "rational_only")
        assert calls == [3]

    def test_two_squares_matches_the_linear_scan(self):
        primes = [p for p in range(5, 10_000, 4) if isprime(p)]
        assert len(primes) == 609
        for p in primes:
            for k in (1, 2, 3):
                assert chains._two_squares(p, k) == _walk_two_squares(p, k), (p, k)

    def test_unsplit_denominator_is_retriable(self):
        with pytest.raises(SearchExhausted) as exc:
            build_real_chain(point(Q, 0, 0),
                             Point(Q(Fraction(7, 5 * SEMIPRIME_1_1)), Q(0)),
                             "rational_only")
        assert exc.value.retriable is True
        assert f"part {SEMIPRIME_1_1} is not factored" in str(exc.value)

    @pytest.mark.parametrize("den", [SEMIPRIME_1_3, 3 * SEMIPRIME_1_1,
                                     2 * SEMIPRIME_1_1])
    def test_divisor_certificate_without_factoring_is_permanent(self, den):
        with pytest.raises(SearchExhausted) as exc:
            build_real_chain(point(Q, 0, 0), Point(Q(Fraction(1, den)), Q(0)),
                             "rational_only")
        assert exc.value.retriable is False

    def test_certificate_on_one_axis_outweighs_the_other_unsplit(self):
        with pytest.raises(SearchExhausted) as exc:
            build_real_chain(point(Q, 0, 0),
                             Point(Q(Fraction(1, SEMIPRIME_1_1)),
                                   Q(Fraction(1, 3))),
                             "rational_only")
        assert exc.value.retriable is False

    def test_budget_exhaustion_is_retriable(self):
        with pytest.raises(SearchExhausted) as exc:
            build_real_chain(point(Q, 0, 0), point(Q, 100, 0),
                             "rational_only", budget=10)
        assert exc.value.retriable is True

    def test_real_points_over_qi_are_stripped(self, qi):
        c = build_real_chain(point(qi, 0, 0), point(qi, 1, 0), "rational_only")
        assert c.field == Q

    def test_imaginary_endpoints_rejected(self, qi):
        i = from_coeff_vector(qi, [0, 1])
        with pytest.raises(FieldMismatch):
            build_real_chain(Point(i, qi.zero), point(qi, 1, 0), "rational_only")

    def test_mixed_fields_rejected(self, qi):
        with pytest.raises(FieldMismatch):
            build_real_chain(point(Q, 0, 0), point(qi, 1, 0), "rational_only")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_real_chain(point(Q, 0, 0), point(Q, 1, 0), "diagonal")

    @given(feasible_coord, feasible_coord)
    def test_feasible_targets_connect_exactly(self, v1, v2):
        s = point(Q, 0, 0)
        t = Point(Q(v1), Q(v2))
        c = build_real_chain(s, t, "rational_only")
        assert c.points[0] == s and c.points[-1] == t
        assert verify_chain(c).ok


class TestAutoExtendChains:
    def test_unit_distance_direct(self):
        c = build_real_chain(point(Q, 0, 0), point(Q, 0, 1))
        assert len(c.points) == 2 and c.field == Q

    def test_sqrt2_closure_stays_rational(self):
        # height sqrt((4-2)/8) = 1/2 needs no extension
        c = build_real_chain(point(Q, 0, 0), point(Q, 1, 1))
        assert c.field == Q and len(c.points) == 3
        assert verify_chain(c).ok

    def test_integer_distance_stays_rational(self):
        c = build_real_chain(point(Q, 0, 0), point(Q, 10, 0))
        assert c.field == Q and verify_chain(c).ok
        assert c.points[-1] == point(Q, 10, 0)

    def test_irrational_distance_extends_tower(self):
        t = point(Q, 1, 2)  # squared distance 5
        c = build_real_chain(point(Q, 0, 0), t)
        assert isinstance(c.field, QuadExt)
        assert verify_chain(c).ok
        k = c.field
        assert c.points[0] == Point(k(0), k(0))
        assert c.points[-1] == Point(k(1), k(2))

    @pytest.mark.parametrize("target", [
        (3, Fraction(1, 10 ** 7)), (4, Fraction(1, 10 ** 9)),
        (2, Fraction(1, 10 ** 12))])
    def test_near_integer_lengths_stay_real(self, target):
        # the length is just above an integer; the step count comes from
        # an exact comparison, so every adjoined radicand is positive
        c = build_real_chain(point(Q, 0, 0), point(Q, *target))
        assert verify_chain(c).ok
        assert c.points[-1] == Point(c.field(target[0]), c.field(target[1]))
        levels = tower_levels(c.field)
        assert levels and all(real_sign(level.d) == 1 for level in levels)

    def test_cancelling_length_stays_real(self, qs2):
        # 1362725501650887306822 - 963592443113182178088 sqrt 2 is
        # 5 + 3.7e-22, and a float evaluation makes it negative; the root
        # of the squared distance is taken with its exact sign, so the
        # closing radicand stays positive
        x = qs2(1362725501650887306822) - 963592443113182178088 * qs2.radical
        c = build_real_chain(point(qs2, 0, 0), Point(x, qs2.zero))
        assert verify_chain(c).ok and len(c.points) == 7
        assert c.points[-1] == Point(c.field(x), c.field.zero)
        assert all(real_sign(level.d) == 1 for level in tower_levels(c.field))

    @given(small_coord, small_coord)
    def test_arbitrary_rational_targets(self, v1, v2):
        s = point(Q, 0, 0)
        c = build_real_chain(s, Point(Q(v1), Q(v2)))
        assert verify_chain(c).ok
        k = c.field
        assert c.points[0] == Point(k(0), k(0))
        assert c.points[-1] == Point(k(v1), k(v2))


class TestConnectorChain:
    def test_generic_point_reaches_target(self, qi):
        x = Point(from_coeff_vector(qi, [1, 2]), from_coeff_vector(qi, [3, 1]))
        chain, certs = build_lemma3_chain(x)
        k = chain.field
        i = imaginary_unit(k)
        assert chain.points[-1] == Point(i, i)
        assert verify_chain(chain, require_psi=True).ok
        base = k.base
        assert certs[0].psi_value == base(4)   # (Im x1)^2
        assert certs[1].psi_value == base(2)   # Im x1
        assert all(c.psi_value == base.one for c in certs[2:])
        assert all(c.phi_value == k.one and c.psi_ok for c in certs)

    def test_start_point_restates_the_input(self, qi):
        # the chain's field interposes real radicals below i, so compare
        # the start point through its real/imaginary parts
        x = Point(from_coeff_vector(qi, [1, 2]), from_coeff_vector(qi, [3, 1]))
        chain, _ = build_lemma3_chain(x)
        base = chain.field.base
        re1, im1 = re_im(chain.points[0].x1)
        re2, im2 = re_im(chain.points[0].x2)
        assert (re1, im1) == (base(1), base(2))
        assert (re2, im2) == (base(3), base(1))

    def test_swapped_fallback_when_first_coordinate_real(self, qi):
        x = Point(qi(3), from_coeff_vector(qi, [0, 2]))
        chain, certs = build_lemma3_chain(x)
        i = imaginary_unit(chain.field)
        assert chain.points[-1] == Point(i, i)
        assert verify_chain(chain, require_psi=True).ok
        assert certs[0].psi_value == chain.field.base(4)

    def test_fully_real_point_has_no_chain(self, qi):
        with pytest.raises(PrimaryBranchUnavailable):
            build_lemma3_chain(point(qi, 2, 3))

    def test_needs_i_presentation(self):
        with pytest.raises(NoImaginaryPresentation):
            build_lemma3_chain(point(Q, 1, 2))

    def test_edge_bound_is_honest(self, qi):
        x = Point(from_coeff_vector(qi, [1, 2]), from_coeff_vector(qi, [3, 1]))
        chain, _ = build_lemma3_chain(x)
        assert len(chain.points) - 1 <= chain.reported_edge_bound

    @pytest.mark.parametrize("coords", [
        ([1, 2], [3, 1]),
        ([3, 0], [0, 2]),  # swapped fallback
        ([0, Fraction(1, 2)], [Fraction(1, 2), Fraction(7, 2)]),  # depth 6
    ])
    def test_points_join_halves_as_arithmetic_would(self, qi, monkeypatch, coords):
        # every point coordinate put together from real and imaginary
        # halves equals top(re) + top(im) * i built by field arithmetic
        joined = []
        join = chains._join

        def spy(a, b):
            joined.append((a, b, join(a, b)))
            return joined[-1][2]

        monkeypatch.setattr(chains, "_join", spy)
        x = Point(from_coeff_vector(qi, coords[0]), from_coeff_vector(qi, coords[1]))
        chain, _ = build_lemma3_chain(x)
        top = chain.field
        real, i = top.base, top.radical
        assert len(joined) == len(chain.points)
        for a, b, rep in joined:
            old = top(FieldElement(real, a)) + top(FieldElement(real, b)) * i
            assert FieldElement(top, rep) == old and hash(old) == hash(FieldElement(top, rep))
