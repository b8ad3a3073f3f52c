"""Differential tests of bqplane.ntheory against sympy, which the package
no longer imports and which serves here only as a test oracle."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp, mr

import bqplane
from bqplane.errors import FactoringExhausted
from bqplane.ntheory import (
    MR_EXACT_BELOW,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    factorint,
    isprime,
    sqrt_mod,
)

# (10^24 + 49)(3*10^24 + 17): both primes are 1 mod 4, and each is far
# above what the rho steps of one factorint call can reach
SEMIPRIME_49 = 3000000000000000000000164000000000000000000000833

# strong pseudoprimes to several bases and Carmichael numbers
PSEUDOPRIMES = [
    561, 1105, 1729, 2047, 2465, 2821, 6601, 8911, 3215031751,
    2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
]


class TestIsPrime:
    def test_every_small_integer(self):
        assert [n for n in range(100_000) if isprime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize("n", PSEUDOPRIMES)
    def test_pseudoprimes_are_composite(self, n):
        assert isprime(n) is False
        assert sympy.isprime(n) is False

    def test_seeded_values_on_both_sides_of_the_exact_bound(self):
        rng = random.Random(20260)
        values = []
        for low, high in ((MR_EXACT_BELOW // 10, MR_EXACT_BELOW),
                          (MR_EXACT_BELOW, MR_EXACT_BELOW * 10),
                          (10 ** 40, 10 ** 60)):
            values += [rng.randrange(low, high) | 1 for _ in range(600)]
            primes = [sympy.nextprime(rng.randrange(low, high)) for _ in range(40)]
            values += primes
            values += [p * q for p, q in zip(primes, primes[1:])]
            values += [p * sympy.nextprime(rng.randrange(10 ** 3, 10 ** 6))
                       for p in primes]
        assert sum(map(sympy.isprime, values)) >= 3 * 40
        assert [n for n in values if isprime(n) != sympy.isprime(n)] == []

    def test_baillie_psw_halves_match_sympy(self):
        # the strong Lucas test is only reached above MR_EXACT_BELOW, so
        # check it and the base-2 test directly where they are cheap; the
        # strong Lucas pseudoprimes below 10^5 must be reported as such
        lucas_liars = []
        for n in range(43 * 43, 100_000, 2):
            if any(n % p == 0 for p in range(3, 43, 2)):
                continue
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n
            assert _strong_probable_prime(n, 2) == mr(n, [2]), n
            if _strong_lucas_probable_prime(n) and not sympy.isprime(n):
                lucas_liars.append(n)
        assert lucas_liars == [5459, 5777, 10877, 16109, 18971, 22499,
                               24569, 25199, 40309, 58519, 75077, 97439]


class TestSqrtMod:
    def test_every_residue_of_every_prime_below_2000(self):
        for p in sympy.primerange(2, 2000):
            for a in range(p):
                r, ref = sqrt_mod(a, p), sympy.sqrt_mod(a, p)
                if ref is None:
                    assert r is None, (a, p)
                else:
                    assert r == min(ref, p - ref), (a, p)


class TestFactorint:
    def test_seeded_inputs_below_1e14(self):
        rng = random.Random(7)
        values = [rng.randrange(1, 10 ** 14) for _ in range(400)]
        values += [sympy.nextprime(rng.randrange(10 ** 6, 10 ** 7))
                   * sympy.nextprime(rng.randrange(10 ** 6, 10 ** 7))
                   for _ in range(40)]
        for n in values:
            got = factorint(n)
            # sympy lists factors found after trial division in the order
            # found; bqplane always sorts, which _axis_plan relies on
            assert got == sympy.factorint(n), n
            assert list(got) == sorted(got), n

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 997, 1009, 65537, 999983,
                                   9999991, 99999989])
    def test_prime_powers(self, p):
        for k in range(1, 8):
            assert list(factorint(p ** k).items()) == [(p, k)]
            assert factorint(p ** k) == sympy.factorint(p ** k)

    def test_one_and_non_positive(self):
        assert factorint(1) == {}
        with pytest.raises(ValueError):
            factorint(0)

    def test_effort_cap_names_the_unsplit_part(self):
        n = 2 ** 3 * 5 * 13 ** 2 * SEMIPRIME_49
        start = time.perf_counter()
        with pytest.raises(FactoringExhausted) as exc:
            factorint(n)
        assert time.perf_counter() - start < 5
        assert exc.value.factors == {2: 3, 5: 1, 13: 2}
        assert exc.value.cofactors == [SEMIPRIME_49]
        assert str(SEMIPRIME_49) in str(exc.value)


def test_cli_import_leaves_sympy_out():
    env = dict(os.environ,
               PYTHONPATH=str(Path(bqplane.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bqplane.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
