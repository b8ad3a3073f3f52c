"""Reference helpers that only the tests use: tower elements from their
coefficient vectors, the canonical-map census of GF(p), the tables a
preserver census decomposes, the catalog of a tower's level
conjugations, and the phi preservation scan."""

import itertools
import math
import random
import sys
from fractions import Fraction

from bqplane.fields import (
    Check,
    DomainSpec,
    FieldElement,
    FieldTower,
    LevelConjugation,
    PrimeField,
    Q,
    _reduced,
    is_automorphism,
)
from bqplane.geometry import Point, all_points, phi, random_point
from bqplane.maps import AffineMap, SemiAffineMap, enumerate_orthogonal_group


def from_coeff_vector(k: FieldTower, vec) -> FieldElement:
    """The element of k with the rational coefficients vec over the
    monomial basis of its tower: the inverse of ``coeff_vector``."""
    if len(vec) != 1 << k.depth:
        raise ValueError(f"expected {1 << k.depth} coefficients, got {len(vec)}")
    if isinstance(k, PrimeField):
        raise TypeError(f"{k} has no rational coefficient vector")
    vec = [Fraction(c) for c in vec]
    den = math.lcm(*(c.denominator for c in vec))
    return FieldElement(k, _reduced([c.numerator * (den // c.denominator) for c in vec], den))


def catalog_homomorphisms(k: FieldTower) -> list[LevelConjugation]:
    """Every level set that is an automorphism of k (``is_automorphism``):
    the identity first, then by size, each size in lexicographic order."""
    level_sets = (LevelConjugation(*levels)
                  for n in range(k.depth + 1)
                  for levels in itertools.combinations(range(1, k.depth + 1), n))
    return [h for h in level_sets if is_automorphism(h, k)]


def enumerate_canonical_maps(k: PrimeField) -> list[SemiAffineMap]:
    """Every translation composed with every orthogonal matrix; the
    reference census for the preserver search."""
    group = enumerate_orthogonal_group(k)
    return [SemiAffineMap(AffineMap(q, t)) for t in all_points(k) for q in group]


def census_tables(monkeypatch, p: int, budget: int | None = None):
    """``search_unit_preservers(p, budget)`` with a spy on
    ``_frame_on_table``: (the census, every table it decomposed, in
    order).  Its finds must be the images of (0,0), (1,0) and (0,1) of
    the tables that decomposed, in order."""
    module = sys.modules["bqplane.decompose"]
    frame, tables, frames = module._frame_on_table, [], []

    def spy(raw, k):
        tables.append(raw)
        res = frame(raw, k)
        frames.append((raw[0], raw[p], raw[1]))
        return res

    with monkeypatch.context() as patch:
        patch.setattr(module, "_frame_on_table", spy)
        census = module.search_unit_preservers(p, budget)
    assert census.found == frames
    return census, tables


def _sample_rational_phi_pair(k: FieldTower, rng: random.Random) -> tuple[Point, Point]:
    # X plus a random v of the prime subfield's plane keeps phi in the prime
    # subfield, phi = v1^2 + v2^2, and ties Y to no coset of the unit steps.
    x = random_point(k, rng)
    v = random_point(k if isinstance(k, PrimeField) else Q, rng)
    return x, Point(x.x1 + k(v.x1), x.x2 + k(v.x2))


def preserves_phi(m, k: FieldTower, domain: DomainSpec) -> Check:
    """Check phi preservation; stops at the MAX_WITNESSES-th witness.

    For a normal form with orthogonal M and gamma = id every pair is
    quantified; for any other map only pairs whose phi lies in the prime
    subfield are, which is the strongest claim the decomposed form
    supports.
    """
    if domain.exhaustive_over(k):
        pts = all_points(k)
        image = {x: m(x) for x in pts}.__getitem__
        pairs = ((x, y) for x in pts for y in pts)
    else:
        image = m
        rng = random.Random(domain.seed)
        if (isinstance(m, SemiAffineMap) and not m.gamma.levels
                and m.outer.linear.is_orthogonal()):
            pairs = ((random_point(k, rng), random_point(k, rng))
                     for _ in range(domain.samples))
        else:
            pairs = (_sample_rational_phi_pair(k, rng) for _ in range(domain.samples))
    check = Check("phi", domain)
    for x, y in pairs:
        check.checked += 1
        if phi(image(x), image(y)) != phi(x, y) and check.note(str(x), str(y)):
            break
    return check
