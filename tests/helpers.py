"""Reference helpers that only the tests use: the canonical-map census of
GF(p), the catalog of a tower's level conjugations, and the phi
preservation scan."""

import itertools
import random

from bqplane.fields import (
    Check,
    DomainSpec,
    FieldTower,
    LevelConjugation,
    PrimeField,
    Q,
    is_automorphism,
)
from bqplane.geometry import Point, all_points, phi, random_point
from bqplane.maps import AffineMap, SemiAffineMap, enumerate_orthogonal_group


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
