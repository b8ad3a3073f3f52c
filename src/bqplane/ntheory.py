"""Integer number theory for the fields and the chains: primality,
square roots modulo a prime and factorization with bounded effort.

``isprime`` is Miller-Rabin with the prime bases 2..41, which is exact
below ``MR_EXACT_BELOW`` (Sorenson and Webster, 2015), and the
Baillie-PSW test (Baillie and Wagstaff, 1980) above it, which has no
known counterexample.  ``sqrt_mod`` is Tonelli-Shanks.  ``factorint``
is trial division, then Pollard's rho with Brent's cycle finding, under
a fixed cap of ``RHO_EFFORT`` rho steps per call, so an argument of any
size is factored or given up on in bounded time; a part it could not
split is reported by ``FactoringExhausted``, never guessed at.
"""

from __future__ import annotations

import math

from .errors import FactoringExhausted

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981
_TRIAL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))
# Brent's rho finds a prime factor q in about sqrt(q) steps, so the cap
# splits off factors up to about 10^10 and, for a 49-digit semiprime it
# cannot split, gives up after about 0.3 s on a 2-core Xeon.
RHO_EFFORT = 1 << 18
_RHO_BATCH = 128


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (odd n, no factor
    below 43)."""
    r = math.isqrt(n)
    if r * r == n:  # no D with (D/n) = -1 exists
        return False
    d = 5
    while _jacobi(d, n) != -1:
        if math.gcd(d, n) > 1:
            return False
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4
    if math.gcd(q, n) > 1:
        return False
    k = n + 1
    s = (k & -k).bit_length() - 1
    half = (n + 1) // 2
    # U_m, V_m and Q^m for m running through the leading bits of k >> s
    u, v, qm = 1, p, q
    for bit in bin(k >> s)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v = (p * u + v) * half % n, (d * u + p * v) * half % n
            qm = qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
        if v == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Whether the integer n is prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def sqrt_mod(a: int, p: int) -> int | None:
    """The smaller square root of a modulo the prime p, or None when a
    is not a square mod p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def _rho_factor(n: int, effort: int) -> tuple[int | None, int]:
    """A proper factor of the odd composite n and the effort left, or
    (None, 0) once ``effort`` rho steps are spent."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            effort -= r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
                effort -= _RHO_BATCH
            if g == 1 and effort <= 0:
                return None, 0
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, effort


def factorint(n: int) -> dict[int, int]:
    """The factorization of the integer n >= 1 as {prime: exponent}, in
    ascending prime order.

    Raises FactoringExhausted, carrying the primes found and the
    composite parts left unsplit, when the rho steps run out.
    """
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    found: dict[int, int] = {}
    rest = n
    for p in _TRIAL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            rest //= p
            found[p] = found.get(p, 0) + 1
    pending = [rest] if rest > 1 else []
    unsplit = []
    effort = RHO_EFFORT
    while pending:
        m = pending.pop()
        if isprime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d, effort = _rho_factor(m, effort) if effort > 0 else (None, 0)
        if d is None:
            unsplit.append(m)
        else:
            pending += [d, m // d]
    found = dict(sorted(found.items()))
    if unsplit:
        raise FactoringExhausted(
            f"{n}: no factor of {', '.join(map(str, sorted(unsplit)))}"
            f" found in {RHO_EFFORT} rho steps",
            found, sorted(unsplit))
    return found
