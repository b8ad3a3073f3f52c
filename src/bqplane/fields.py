"""Exact arithmetic in the toolkit's computable fields.

Three kinds of field are supported: the rationals Q, prime fields GF(p)
with p prime, p = 1 mod 4 and p != 5, and towers of quadratic
extensions built over Q by repeatedly adjoining a square root of a
non-square.  Elements carry canonical representations with decidable
equality, so every geometric identity downstream is checked exactly;
no floating point is used anywhere.  The real order of a real tower is
the exact ``real_sign``.

Field homomorphisms of a tower are generated by "level conjugations",
the maps that negate the coefficient of one adjoined radical.  They
commute and are involutions, so each catalog homomorphism is exactly the
set of levels it conjugates (``LevelConjugation(*levels)``; no levels is
the identity).  The catalog is what the decomposition pipelines match
extracted coordinate maps against.  On a prime field the identity is the
only homomorphism.

Every verdict scan covers a ``DomainSpec`` (all of a finite field, or a
seeded sample) and reports a ``Check``: the cases covered and up to
``MAX_WITNESSES`` counterexamples.  A check of no cases is not ok.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AlreadySquare,
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    InvalidField,
    InvalidLevel,
    NoImaginaryPresentation,
    ZeroRadicand,
)
from .ntheory import isprime, sqrt_mod

EXCLUDED_CHARACTERISTICS = (2, 3, 5)


class FieldElement:
    """An element of a FieldTower, wrapping a canonical representation.

    Representations: Fraction over Q, a residue int over GF(p), and a
    pair ``(a, b)`` of base representations meaning a + b*r over a
    quadratic extension with radical r.  Canonical representations make
    ``==`` and ``hash`` structural.
    """

    __slots__ = ("tower", "rep")

    def __init__(self, tower: "FieldTower", rep):
        self.tower = tower
        self.rep = rep

    def _operand(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.tower == self.tower:
                return other
            raise FieldMismatch(
                f"operands from different fields: {self.tower} vs {other.tower}")
        if isinstance(other, (int, Fraction)):
            return self.tower(other)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._add(self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._sub(self.rep, o.rep))

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._sub(o.rep, self.rep))

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._mul(self.rep, o.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._mul(self.rep, self.tower._inv(o.rep)))

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._mul(o.rep, self.tower._inv(self.rep)))

    def __neg__(self):
        return FieldElement(self.tower, self.tower._neg(self.rep))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return FieldElement(self.tower, self.tower._inv(self.rep)) ** (-n)
        out = self.tower.one
        acc = self
        while n:
            if n & 1:
                out = out * acc
            n >>= 1
            if n:
                acc = acc * acc
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.tower == other.tower and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == self.tower._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.tower, self.rep))

    def __bool__(self):
        return not self.tower._is_zero(self.rep)

    @property
    def is_zero(self) -> bool:
        return self.tower._is_zero(self.rep)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} : {self.tower}>"


class FieldTower:
    """Abstract base for Q, GF(p) and quadratic extension towers."""

    depth = 0

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.tower == self:
                return value
            return embed(value, self)
        return FieldElement(self, self._coerce(value))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, self.zero_rep)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, self.one_rep)

    def __str__(self):
        return self.describe()

    def __repr__(self):
        return self.describe()


class Rationals(FieldTower):
    """The rational numbers with fractions.Fraction representations."""

    characteristic = 0
    zero_rep = Fraction(0)
    one_rep = Fraction(1)

    def _coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    _scale = _mul

    def _inv(self, a):
        if not a:
            raise DivisionByZero("division by zero in Q")
        return 1 / a

    def _is_zero(self, a):
        return not a

    def describe(self):
        return "Q"

    def __eq__(self, other):
        if isinstance(other, FieldTower):
            return isinstance(other, Rationals)
        return NotImplemented

    def __hash__(self):
        return hash("bqplane.Q")


class PrimeField(FieldTower):
    """GF(p) with residue representations in [0, p).

    p must be prime and outside {2, 3, 5}, and p = 1 mod 4 so that -1 is
    a square and the unit circle is full-sized.
    """

    characteristic: int

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or not isprime(p):
            raise InvalidField(f"GF({p}): p must be prime")
        if p in EXCLUDED_CHARACTERISTICS:
            raise InvalidField(f"GF({p}): characteristic {p} is excluded")
        if p % 4 != 1:
            raise InvalidField(f"GF({p}): p must be 1 mod 4")
        self.p = p
        self.characteristic = p
        self.zero_rep = 0
        self.one_rep = 1 % p
        self._elements: dict[int, FieldElement] = {}
        self._i = FieldElement(self, sqrt_mod(p - 1, p))  # the smaller root of -1

    def __call__(self, value) -> FieldElement:
        if isinstance(value, int):
            r = value % self.p
            e = self._elements.get(r)
            if e is None:
                e = self._elements[r] = FieldElement(self, r)
            return e
        return super().__call__(value)

    def _coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {v!r} into GF({self.p})")

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def describe(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        if isinstance(other, FieldTower):
            return isinstance(other, PrimeField) and other.p == self.p
        return NotImplemented

    def __hash__(self):
        return hash(("bqplane.GF", self.p))


class QuadExt(FieldTower):
    """Quadratic extension base(sqrt(d)) with pair representations (a, b).

    The radicand d must be a nonzero non-square of the base; the base
    must have characteristic 0 (extensions of GF(p) are out of scope).
    ``level`` is the 1-based position of this adjunction in the tower.
    """

    characteristic = 0

    def __init__(self, base: FieldTower, d):
        if base.characteristic != 0:
            raise InvalidField("quadratic extensions of prime fields are out of scope")
        d = base(d)
        if d.is_zero:
            raise ZeroRadicand("cannot adjoin sqrt(0)")
        if sqrt_in_field(d) is not None:
            raise AlreadySquare(f"{d} already has a square root in {base}")
        self.base = base
        self.d = d
        self.depth = base.depth + 1
        self.level = self.depth
        self.zero_rep = (base.zero_rep, base.zero_rep)
        self.one_rep = (base.one_rep, base.zero_rep)
        # A rational radicand such as -1 or 5/4 is also kept as a Fraction:
        # products with it scale the 2^k leaves instead of making a full
        # tower product.
        coeffs = coeff_vector(d)
        self._rational_d = None if any(coeffs[1:]) else coeffs[0]
        self._hash = hash(("bqplane.QuadExt", hash(base), d.rep))

    def _coerce(self, v):
        return (self.base._coerce(v), self.base.zero_rep)

    def _add(self, a, b):
        base = self.base
        return (base._add(a[0], b[0]), base._add(a[1], b[1]))

    def _sub(self, a, b):
        base = self.base
        return (base._sub(a[0], b[0]), base._sub(a[1], b[1]))

    def _neg(self, a):
        base = self.base
        return (base._neg(a[0]), base._neg(a[1]))

    def _scale(self, a, q: Fraction):
        base = self.base
        return (base._scale(a[0], q), base._scale(a[1], q))

    def _times_d(self, x):
        """d * x for a base representation x."""
        if self._rational_d is not None:
            return self.base._scale(x, self._rational_d)
        return self.base._mul(x, self.d.rep)

    def _plus(self, x, y):
        """Sum of two base representations, with None standing for zero."""
        if x is None:
            return self.base.zero_rep if y is None else y
        return x if y is None else self.base._add(x, y)

    def _mul(self, a, b):
        # (a0 + a1 r)(b0 + b1 r) = (a0 b0 + d a1 b1) + (a0 b1 + a1 b0) r,
        # leaving out every product with a zero factor.
        base = self.base
        is_zero = base._is_zero
        a0, a1 = a
        b0, b1 = b
        a0z, a1z, b0z, b1z = is_zero(a0), is_zero(a1), is_zero(b0), is_zero(b1)
        lo = self._plus(
            None if a0z or b0z else base._mul(a0, b0),
            None if a1z or b1z else self._times_d(base._mul(a1, b1)))
        hi = self._plus(
            None if a0z or b1z else base._mul(a0, b1),
            None if a1z or b0z else base._mul(a1, b0))
        return (lo, hi)

    def _inv(self, a):
        base = self.base
        a0, a1 = a
        if base._is_zero(a1):
            if base._is_zero(a0):
                raise DivisionByZero(f"division by zero in {self}")
            return (base._inv(a0), a1)
        # norm (a0 + a1 r)(a0 - a1 r) = a0^2 - d a1^2 vanishes only at zero
        # because d is a non-square.
        norm = base._sub(base._mul(a0, a0), self._times_d(base._mul(a1, a1)))
        ninv = base._inv(norm)
        return (base._mul(a0, ninv), base._neg(base._mul(a1, ninv)))

    def _is_zero(self, a):
        base = self.base
        return base._is_zero(a[0]) and base._is_zero(a[1])

    @property
    def radical(self) -> FieldElement:
        """The adjoined square root of d as an element of this tower."""
        return FieldElement(self, (self.base.zero_rep, self.base.one_rep))

    def describe(self):
        if self.d == -1:
            return f"{self.base.describe()}[i]"
        return f"{self.base.describe()}[sqrt {format_element(self.d)}]"

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, FieldTower):
            return (isinstance(other, QuadExt)
                    and other._hash == self._hash
                    and other.d.rep == self.d.rep
                    and other.base == self.base)
        return NotImplemented

    def __hash__(self):
        return self._hash


Q = Rationals()


# ----------------------------------------------------------- embeddings

def tower_levels(k: FieldTower) -> list[QuadExt]:
    """The QuadExt layers of k from the innermost adjunction outward."""
    out: list[QuadExt] = []
    while isinstance(k, QuadExt):
        out.append(k)
        k = k.base
    out.reverse()
    return out


def embed(x: FieldElement, target: FieldTower) -> FieldElement:
    """Lift x into target, which must extend x's tower by adjunctions."""
    wrappers: list[QuadExt] = []
    t = target
    while t != x.tower:
        if not isinstance(t, QuadExt):
            raise FieldMismatch(f"{target} does not extend {x.tower}")
        wrappers.append(t)
        t = t.base
    rep = x.rep
    for layer in reversed(wrappers):
        rep = (rep, layer.base.zero_rep)
    return FieldElement(target, rep)


# ----------------------------------------------------------- square roots

def _flatten_coeffs(k: FieldTower, rep) -> list[Fraction]:
    if isinstance(k, Rationals):
        return [rep]
    if isinstance(k, QuadExt):
        return _flatten_coeffs(k.base, rep[0]) + _flatten_coeffs(k.base, rep[1])
    raise TypeError(f"{k} has no rational coefficient vector")


def coeff_vector(x: FieldElement) -> list[Fraction]:
    """Rational coefficients of x over the monomial basis of its tower.

    Index i holds the coefficient of the product of the radicals at the
    levels L with bit L-1 set in i.
    """
    return _flatten_coeffs(x.tower, x.rep)


def from_coeff_vector(k: FieldTower, vec) -> FieldElement:
    def build(t: FieldTower, chunk):
        if isinstance(t, Rationals):
            return Fraction(chunk[0])
        half = len(chunk) // 2
        return (build(t.base, chunk[:half]), build(t.base, chunk[half:]))

    if len(vec) != 1 << k.depth:
        raise ValueError(f"expected {1 << k.depth} coefficients, got {len(vec)}")
    return FieldElement(k, build(k, list(vec)))


def _canonical_sign(x: FieldElement) -> FieldElement:
    """Flip sign so the leading nonzero rational coefficient is positive."""
    for c in coeff_vector(x):
        if c > 0:
            return x
        if c < 0:
            return -x
    return x


def sqrt_in_field(x: FieldElement) -> FieldElement | None:
    """A square root of x in its own field, or None.

    The returned root is canonical: over GF(p) the smaller residue, over
    characteristic-0 towers the representative whose leading nonzero
    rational coefficient is positive.
    """
    k = x.tower
    if isinstance(k, Rationals):
        v = x.rep
        if v < 0:
            return None
        num, den = v.numerator, v.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return FieldElement(k, Fraction(rn, rd))
        return None
    if isinstance(k, PrimeField):
        r = sqrt_mod(x.rep, k.p)
        return None if r is None else k(r)
    if isinstance(k, QuadExt):
        base = k.base
        a = FieldElement(base, x.rep[0])
        b = FieldElement(base, x.rep[1])
        if b.is_zero:
            ra = sqrt_in_field(a)
            if ra is not None:
                return _canonical_sign(FieldElement(k, (ra.rep, base.zero_rep)))
            rb = sqrt_in_field(a / k.d)
            if rb is not None:
                return _canonical_sign(FieldElement(k, (base.zero_rep, rb.rep)))
            return None
        # (u + v r)^2 = x forces u^2 = (a +/- s)/2 with s^2 = a^2 - d b^2.
        s = sqrt_in_field(a * a - k.d * b * b)
        if s is None:
            return None
        for cand in (s, -s):
            u = sqrt_in_field((a + cand) / 2)
            if u is not None and not u.is_zero:
                v = b / (2 * u)
                root = FieldElement(k, (u.rep, v.rep))
                if root * root == x:
                    return _canonical_sign(root)
        return None
    raise TypeError(f"unsupported field {k}")


def imaginary_unit(k: FieldTower) -> FieldElement | None:
    """The canonical i with i*i = -1, when the field presents one.

    Present for every GF(p) (smaller residue, found once when the field
    is built; p = 1 mod 4) and for towers whose top adjunction is
    sqrt(-1).  Towers are conventionally built with the imaginary
    adjunction last, so only the top level is probed.
    """
    if isinstance(k, PrimeField):
        return k._i
    if isinstance(k, QuadExt) and k.d == -1:
        return k.radical
    return None


def re_im(x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Split x = a + b*i over the real subfield of a tower topped by i."""
    k = x.tower
    if not (isinstance(k, QuadExt) and k.d == -1):
        raise NoImaginaryPresentation(
            f"{k} is not presented as a real tower extended by i")
    return FieldElement(k.base, x.rep[0]), FieldElement(k.base, x.rep[1])


def rational_value(x: FieldElement) -> Fraction:
    if isinstance(x.tower, PrimeField):
        raise FieldMismatch("prime-field element has no rational value")
    vec = coeff_vector(x)
    if any(vec[1:]):
        raise FieldMismatch(f"{x} is not rational")
    return vec[0]


def is_real_tower(k: FieldTower) -> bool:
    """True when every radicand is a positive real (so k orders into R)."""
    if isinstance(k, Rationals):
        return True
    if isinstance(k, QuadExt):
        return is_real_tower(k.base) and real_sign(k.d) > 0
    return False


def real_sign(x: FieldElement) -> int:
    """Exact sign (-1, 0 or 1) of x under the real embedding that sends
    each radical to the positive square root of its radicand: a + b*sqrt(d)
    with signs s = sign(a) != sign(b) has the sign of s * (a^2 - b^2 d),
    one level down."""
    k = x.tower
    if isinstance(k, Rationals):
        return (x.rep > 0) - (x.rep < 0)
    if not (isinstance(k, QuadExt) and real_sign(k.d) > 0):
        raise FieldMismatch(f"{k} has no real embedding")
    a, b = FieldElement(k.base, x.rep[0]), FieldElement(k.base, x.rep[1])
    sa, sb = real_sign(a), real_sign(b)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa * real_sign(a * a - b * b * k.d)


def ensure_sqrt(k: FieldTower, x: FieldElement):
    """The nonnegative square root of x >= 0 in the real tower k, adjoining
    one if needed.

    Returns (field, root): ``field`` is k or the one-step extension
    k(sqrt x), which embeds elements of k when called on them, and
    ``root`` has ``real_sign`` 0 or 1 in ``field``.
    """
    x = k(x)
    r = sqrt_in_field(x)
    if r is not None:
        return k, -r if real_sign(r) < 0 else r
    ext = QuadExt(k, x)
    return ext, ext.radical


# ------------------------------------------------------- verdict scans

MAX_WITNESSES = 10


@dataclass(frozen=True)
class DomainSpec:
    """What a verdict scan covers: every point (or pair) of a finite
    field, or ``samples`` seeded draws."""

    kind: str  # "exhaustive" | "samples"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exhaustive", "samples"):
            raise ValueError(
                f"domain kind must be 'exhaustive' or 'samples', got {self.kind!r}")
        if self.samples < 0:
            raise ValueError(f"sample count must be >= 0, got {self.samples}")

    def exhaustive_over(self, k: FieldTower) -> bool:
        """True when the scan must cover all of k, which then has to be
        finite: an exhaustive domain over an infinite field is refused."""
        if self.kind != "exhaustive":
            return False
        if not isinstance(k, PrimeField):
            raise FieldNotFinite(f"an exhaustive scan needs a finite field, not {k}")
        return True

    def describe(self) -> str:
        if self.kind == "exhaustive":
            return "exhaustive"
        return f"samples({self.samples},seed={self.seed})"


EXHAUSTIVE = DomainSpec("exhaustive")


def sample_domain(samples: int, seed: int = 0) -> DomainSpec:
    return DomainSpec("samples", samples, seed)


@dataclass
class Check:
    """One verdict scan: ``checked`` cases of ``domain`` and the first
    MAX_WITNESSES counterexamples found.  A check that covered nothing
    is not ok."""

    name: str
    domain: DomainSpec
    checked: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.witnesses

    def note(self, *witness) -> bool:
        """Keep the witness while fewer than MAX_WITNESSES are held;
        True once the cap is reached."""
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)
        return len(self.witnesses) >= MAX_WITNESSES


# -------------------------------------------------------- homomorphisms

@dataclass(frozen=True, init=False)
class LevelConjugation:
    """Negate the coefficients of the radicals adjoined at ``levels``.

    With no levels this is the identity.
    """

    levels: frozenset[int]

    def __init__(self, *levels: int):
        object.__setattr__(self, "levels", frozenset(levels))

    def __str__(self):
        if not self.levels:
            return "hom(id)"
        return " . ".join(f"hom(conj@{L})" for L in sorted(self.levels))


def compose_homs(h1: LevelConjugation, h2: LevelConjugation) -> LevelConjugation:
    return LevelConjugation(*(h1.levels ^ h2.levels))


def _conjugate_rep(k: FieldTower, rep, level: int):
    if not isinstance(k, QuadExt):
        raise InvalidLevel(f"level {level} exceeds tower depth")
    if k.depth == level:
        return (rep[0], k.base._neg(rep[1]))
    return (_conjugate_rep(k.base, rep[0], level),
            _conjugate_rep(k.base, rep[1], level))


def apply_hom(h: LevelConjugation, x: FieldElement) -> FieldElement:
    """Apply a catalog homomorphism to x.

    Level conjugations act structurally on the coefficient tree; whether
    the result is multiplicative depends on the tower (see
    ``conjugation_is_automorphism``), and ``hom_check`` certifies it.
    """
    if not h.levels:
        return x
    k = x.tower
    rep = x.rep
    for L in h.levels:
        if not 1 <= L <= k.depth:
            raise InvalidLevel(f"level {L} not in 1..{k.depth} for {k}")
        rep = _conjugate_rep(k, rep, L)
    return FieldElement(k, rep)


def conjugation_is_automorphism(k: FieldTower, level: int) -> bool:
    """Negating level ``level`` is multiplicative iff every radicand
    adjoined above that level is fixed by the negation."""
    if not 1 <= level <= k.depth:
        raise InvalidLevel(f"level {level} not in 1..{k.depth} for {k}")
    for layer in tower_levels(k):
        if layer.level <= level:
            continue
        if layer.d.tower.depth >= level:
            if apply_hom(LevelConjugation(level), layer.d) != layer.d:
                return False
    return True


def catalog_homomorphisms(k: FieldTower) -> list[LevelConjugation]:
    """All homomorphisms in the catalog that are valid for k.

    The identity first, then single conjugations by ascending level, then
    larger compositions in subset order.
    """
    valid = [L for L in range(1, k.depth + 1) if conjugation_is_automorphism(k, L)]
    return [LevelConjugation(*levels)
            for n in range(len(valid) + 1)
            for levels in itertools.combinations(valid, n)]


def hom_check(h, k: FieldTower, domain: DomainSpec) -> Check:
    """Certify additivity and multiplicativity of h on k.

    ``h`` may be a catalog LevelConjugation or any callable on elements.
    ``domain`` is EXHAUSTIVE (every pair of a finite field's elements) or
    a seeded sample of pairs.  Witnesses are (x, y, law) triples; checking
    stops at the MAX_WITNESSES-th, and ``checked`` counts the pairs
    reached.
    """
    if isinstance(h, LevelConjugation):
        fn = lambda e: apply_hom(h, e)
    else:
        fn = h
    if domain.exhaustive_over(k):
        elems = [k(v) for v in range(k.p)]
        pairs = ((x, y) for x in elems for y in elems)
    else:
        rng = random.Random(domain.seed)
        pairs = ((random_element(k, rng), random_element(k, rng))
                 for _ in range(domain.samples))
    check = Check("homomorphism_laws", domain)
    for x, y in pairs:
        check.checked += 1
        if fn(x + y) != fn(x) + fn(y) and check.note(x, y, "additivity"):
            break
        if fn(x * y) != fn(x) * fn(y) and check.note(x, y, "multiplicativity"):
            break
    return check


# ------------------------------------------------------ random elements

RANDOM_SIZE = 9


def random_element(k: FieldTower, rng: random.Random) -> FieldElement:
    """A seeded random element with numerators/denominators up to
    RANDOM_SIZE."""
    if isinstance(k, PrimeField):
        return k(rng.randrange(k.p))
    if isinstance(k, Rationals):
        return k(Fraction(rng.randint(-RANDOM_SIZE, RANDOM_SIZE),
                          rng.randint(1, RANDOM_SIZE)))
    if isinstance(k, QuadExt):
        a = random_element(k.base, rng)
        b = random_element(k.base, rng)
        return FieldElement(k, (a.rep, b.rep))
    raise TypeError(f"unsupported field {k}")


def basis_monomials(k: FieldTower) -> list[FieldElement]:
    """1, each radical, and all products of radicals (char-0 towers)."""
    dim = 1 << k.depth
    out = []
    for idx in range(dim):
        vec = [Fraction(0)] * dim
        vec[idx] = Fraction(1)
        out.append(from_coeff_vector(k, vec))
    return out


def probe_elements(k: FieldTower, rng: random.Random, count: int) -> list[FieldElement]:
    """Deterministic probe set: basis monomials, their pairwise sums and
    products, then seeded random elements up to ``count``."""
    if isinstance(k, PrimeField):
        return [k(v) for v in range(min(count, k.p))]
    probes: list[FieldElement] = []
    seen = set()

    def push(e):
        key = (e.tower, e.rep)
        if key not in seen:
            seen.add(key)
            probes.append(e)

    basis = basis_monomials(k)
    for e in basis:
        push(e)
    for i, a in enumerate(basis):
        for b in basis[i:]:
            push(a + b)
            push(a * b)
    while len(probes) < count:
        push(random_element(k, rng))
    return probes[:count]


# ------------------------------------------------------------ formatting

def radical_names(k: FieldTower) -> list[str]:
    names = []
    for layer in tower_levels(k):
        names.append("i" if layer.d == -1 else f"r{layer.level}")
    return names


def _format_coeff_term(c: Fraction, mono: str) -> str:
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def format_element(x: FieldElement) -> str:
    """Canonical text form, parseable by parsing.parse_element."""
    k = x.tower
    if isinstance(k, PrimeField):
        return str(x.rep)
    names = radical_names(k)
    terms = []
    for idx, c in enumerate(coeff_vector(x)):
        if c == 0:
            continue
        mono = "*".join(names[L] for L in range(k.depth) if idx >> L & 1)
        terms.append(_format_coeff_term(c, mono))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
