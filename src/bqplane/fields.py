"""Exact arithmetic in the toolkit's computable fields.

Three kinds of field are supported: the rationals Q, prime fields GF(p)
with p prime, p = 1 mod 4 and p != 5, and towers of quadratic
extensions built over Q by repeatedly adjoining a square root of a
non-square.  Elements carry canonical representations with decidable
equality: an element of a depth-k tower is 2^k integer numerators over
one positive denominator, and Q is the depth-0 tower, one numerator
over a positive denominator, so Q and its towers share one kernel.
A tower whose radicands are all rational multiplies its numerator
vectors in one pass, an XOR convolution over the monomials with one
integer weight per level set.  From a level with a nested radicand (one
with a radical part, such as sqrt(5 + r1*r2)) up, a product splits into
halves over the level below, down to the rational levels beneath, which
take the one-pass product again.
Every geometric identity downstream is checked exactly; no floating
point is used anywhere.  The real order of a real tower is the exact
``real_sign``.

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
import operator
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

    Representations: a residue int over GF(p), and a TowerRep (2^depth
    integer numerators over one denominator) over Q, the depth-0 tower,
    and its towers of quadratic extensions.  Canonical representations
    make ``==`` and ``hash`` structural.
    """

    __slots__ = ("tower", "rep")

    def __init__(self, tower: "FieldTower", rep):
        self.tower = tower
        self.rep = rep

    def _operand(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.tower is self.tower or other.tower == self.tower:
                return other
            raise FieldMismatch(
                f"operands from different fields: {self.tower} vs {other.tower}")
        if isinstance(other, (int, Fraction)):
            return self.tower(other)
        return None

    def __add__(self, other):
        if other.__class__ is FieldElement and other.tower is self.tower:
            return FieldElement(self.tower, self.tower._add(self.rep, other.rep))
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.tower, self.tower._add(self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is FieldElement and other.tower is self.tower:
            return FieldElement(self.tower, self.tower._sub(self.rep, other.rep))
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
        if other.__class__ is FieldElement and other.tower is self.tower:
            return FieldElement(self.tower, self.tower._mul(self.rep, other.rep))
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
            return ((self.tower is other.tower or self.tower == other.tower)
                    and self.rep == other.rep)
        if isinstance(other, (int, Fraction)):
            try:
                return self.rep == self.tower._coerce(other)
            except DivisionByZero:  # a denominator divisible by p is no element
                return False
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
            if value.tower is self or value.tower == self:
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


class TowerRep:
    """Canonical representation of an element of a tower of depth k >= 0
    (Q is depth 0).

    ``nums`` holds 2^k integer numerators in ``coeff_vector`` order over
    the one positive denominator ``den``, reduced by their joint gcd, so
    equal elements have equal reps.  At depth k >= 1, ``rep[0]`` and
    ``rep[1]`` are the canonical base representations of a and b in
    x = a + b*r.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple, den: int):
        self.nums = nums
        self.den = den

    def __getitem__(self, i: int):
        return _halves(self)[i]

    def __eq__(self, other):
        return isinstance(other, TowerRep) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))


def _reduced(nums, den: int) -> TowerRep:
    """The canonical rep of nums / den, den > 0."""
    g = math.gcd(den, *nums)
    if g == 1:
        return TowerRep(tuple(nums), den)
    return TowerRep(tuple([n // g for n in nums]), den // g)


def _halves(rep: TowerRep):
    """The canonical base reps of a and b in the element a + b*r."""
    h = len(rep.nums) >> 1
    return _reduced(rep.nums[:h], rep.den), _reduced(rep.nums[h:], rep.den)


def _join(a: TowerRep, b: TowerRep) -> TowerRep:
    """The rep of a + b*r from the base reps a and b (inverse of _halves)."""
    g = math.gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    return _reduced([n * fa for n in a.nums] + [n * fb for n in b.nums], a.den * fa)


def _combine(h: int, *terms) -> list[int]:
    """Sum of c*u over the (c, u) terms, u of length h or None for zero."""
    out = None
    for c, u in terms:
        if u is not None:
            u = u if c == 1 else [c * q for q in u]
            out = u if out is None else [p + q for p, q in zip(out, u)]
    return [0] * h if out is None else out


class FlatTower(FieldTower):
    """Q and the towers of quadratic extensions over it, whose elements
    are TowerReps: Q is the depth-0 tower of one numerator.

    Subclasses supply ``_imul(x, y)``, the product of two numerator
    vectors times ``_prod_scale``, and ``_inv``.
    """

    characteristic = 0
    zero_rep = TowerRep((0,), 1)
    one_rep = TowerRep((1,), 1)
    _pad = ()
    _prod_scale = 1
    _weights = (1,)  # Q's monomial weights; see QuadExt.__init__

    def _coerce(self, v):
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"cannot coerce {v!r} into {self}")
        return TowerRep((v.numerator,) + self._pad, v.denominator)

    def _add(self, a, b, sign: int = 1):
        ad, bd = a.den, b.den
        if ad == bd:
            return _reduced([p + sign * q for p, q in zip(a.nums, b.nums)], ad)
        g = math.gcd(ad, bd)
        fa, fb = bd // g, sign * ad // g
        return _reduced([p * fa + q * fb for p, q in zip(a.nums, b.nums)], ad * fa)

    def _sub(self, a, b):
        return self._add(a, b, -1)

    def _neg(self, a):
        return TowerRep(tuple(-p for p in a.nums), a.den)

    def _mul(self, a, b):
        return _reduced(self._imul(a.nums, b.nums), a.den * b.den * self._prod_scale)

    def _is_zero(self, a):
        return not any(a.nums)


class Rationals(FlatTower):
    """The rational numbers, the depth-0 flat tower."""

    def _imul(self, x, y) -> list[int]:
        return [x[0] * y[0]]

    def _inv(self, a):
        (n,), d = a.nums, a.den
        if not n:
            raise DivisionByZero("division by zero in Q")
        return TowerRep((d,), n) if n > 0 else TowerRep((-d,), -n)

    def describe(self):
        return "Q"

    def __eq__(self, other):
        if isinstance(other, FieldTower):
            return isinstance(other, Rationals)
        return NotImplemented

    def __hash__(self):
        return hash("bqplane.Q")


class QuadExt(FlatTower):
    """Quadratic extension base(sqrt(d)) with TowerRep representations.

    The radicand d must be a nonzero non-square of the base; the base
    must have characteristic 0 (extensions of GF(p) are out of scope).
    ``level`` is the 1-based position of this adjunction in the tower.
    """

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
        self._pad = (0,) * ((1 << self.depth) - 1)
        self.zero_rep = TowerRep((0,) + self._pad, 1)
        self.one_rep = TowerRep((1,) + self._pad, 1)
        # _imul(x, y) is x*y times _prod_scale for numerator vectors.  While
        # every radicand up to this level is rational, d_L = n_L/e_L, the
        # monomials multiply as r^i r^j = r^(i^j) prod_{L in i&j} d_L, so the
        # scaled product is one XOR convolution with the weights
        # w[m] = prod_{L in m} n_L * prod_{L not in m} e_L, and _prod_scale
        # = w[0].  From a nested radicand up, products split into halves.
        dn, dd = d.rep.nums, d.rep.den
        nested = any(dn[1:])
        if base._weights is not None and not nested:
            bw = base._weights
            self._weights = tuple(w * dd for w in bw) + tuple(w * dn[0] for w in bw)
            self._prod_scale = self._weights[0]
        else:
            # The low half is _lo_scale*x0*y0 + dn*x1*y1, and a rational
            # radicand (dn one int) scales the vector instead of multiplying it.
            inner = base._prod_scale
            self._weights = None
            self._d_nums = dn if nested else dn[0]
            self._lo_scale = dd * inner if nested else dd
            self._prod_scale = self._lo_scale * inner
        self._hash = hash(("bqplane.QuadExt", hash(base), d.rep))

    def _imul(self, x, y) -> list[int]:
        w = self._weights
        if w is None:
            return self._imul_halves(x, y)
        if len(w) == 2:
            # (x0 + x1 r)(y0 + y1 r) = (x0 y0 + d x1 y1) + (x0 y1 + x1 y0) r
            (x0, x1), (y0, y1), (c, dn) = x, y, w
            return [c * x0 * y0 + dn * x1 * y1, c * (x0 * y1 + x1 * y0)]
        out = [0] * len(x)
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in ys:
                    out[i ^ j] += a * b * w[i & j]
        return out

    def _imul_halves(self, x, y) -> list[int]:
        # (x0 + x1 r)(y0 + y1 r) = (x0 y0 + d x1 y1) + (x0 y1 + x1 y0) r over
        # the base, leaving out every product with a zero half.
        c, dn = self._lo_scale, self._d_nums
        h = len(x) >> 1
        base = self.base
        x0, x1, y0, y1 = x[:h], x[h:], y[:h], y[h:]
        nx0, nx1, ny0, ny1 = any(x0), any(x1), any(y0), any(y1)
        p11 = base._imul(x1, y1) if nx1 and ny1 else None
        if p11 is not None and not isinstance(dn, int):
            p11, dn = base._imul(dn, p11), 1
        lo = _combine(h, (c, base._imul(x0, y0) if nx0 and ny0 else None), (dn, p11))
        return lo + _combine(h, (c, base._imul(x0, y1) if nx0 and ny1 else None),
                             (c, base._imul(x1, y0) if nx1 and ny0 else None))

    def _inv(self, a):
        # 1/x = conj(x) / (x conj(x)) with conj negating the top radical;
        # the norm x conj(x) lies in the base and vanishes only at zero
        # because d is a non-square.
        x, h = a.nums, len(a.nums) >> 1
        if any(x[h:]):
            conj = x[:h] + tuple(-n for n in x[h:])
            norm = self._imul(x, conj)[:h]
        elif any(x):
            conj, norm = None, x[:h]
        else:
            raise DivisionByZero(f"division by zero in {self}")
        inv = self.base._inv(_reduced(norm, 1))
        w, e = inv.nums, inv.den
        nums = w + (0,) * h if conj is None else self._imul(conj, w + (0,) * h)
        return _reduced([a.den * n for n in nums], e)

    @property
    def radical(self) -> FieldElement:
        """The adjoined square root of d as an element of this tower."""
        h = 1 << (self.depth - 1)
        return FieldElement(self, TowerRep(self._pad[:h] + (1,) + self._pad[h:], 1))

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
    if target == x.tower:
        return x
    t = target
    while t != x.tower:
        if not isinstance(t, QuadExt):
            raise FieldMismatch(f"{target} does not extend {x.tower}")
        t = t.base
    nums, den = x.rep.nums, x.rep.den
    return FieldElement(target, TowerRep(nums + (0,) * ((1 << target.depth) - len(nums)), den))


# ----------------------------------------------------------- square roots

def coeff_vector(x: FieldElement) -> list[Fraction]:
    """Rational coefficients of x over the monomial basis of its tower.

    Index i holds the coefficient of the product of the radicals at the
    levels L with bit L-1 set in i.
    """
    if isinstance(x.tower, PrimeField):
        raise TypeError(f"{x.tower} has no rational coefficient vector")
    return [Fraction(n, x.rep.den) for n in x.rep.nums]


def from_coeff_vector(k: FieldTower, vec) -> FieldElement:
    if len(vec) != 1 << k.depth:
        raise ValueError(f"expected {1 << k.depth} coefficients, got {len(vec)}")
    if isinstance(k, PrimeField):
        raise TypeError(f"{k} has no rational coefficient vector")
    vec = [Fraction(c) for c in vec]
    den = math.lcm(*(c.denominator for c in vec))
    return FieldElement(k, _reduced([c.numerator * (den // c.denominator) for c in vec], den))


def _canonical_sign(x: FieldElement) -> FieldElement:
    """Flip sign so the leading nonzero coefficient of a tower element is
    positive."""
    return -x if next((n for n in x.rep.nums if n), 0) < 0 else x


def sqrt_in_field(x: FieldElement) -> FieldElement | None:
    """A square root of x in its own field, or None.

    The returned root is canonical: over GF(p) the smaller residue, over
    characteristic-0 towers the representative whose leading nonzero
    rational coefficient is positive.
    """
    k = x.tower
    if isinstance(k, Rationals):
        (num,), den = x.rep.nums, x.rep.den
        if num < 0:
            return None
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return FieldElement(k, TowerRep((rn,), rd))
        return None
    if isinstance(k, PrimeField):
        r = sqrt_mod(x.rep, k.p)
        return None if r is None else k(r)
    if isinstance(k, QuadExt):
        base = k.base
        zero = base.zero_rep
        a, b = (FieldElement(base, h) for h in _halves(x.rep))
        if b.is_zero:
            ra = sqrt_in_field(a)
            if ra is not None:
                return _canonical_sign(FieldElement(k, _join(ra.rep, zero)))
            rb = sqrt_in_field(a / k.d)
            if rb is not None:
                return _canonical_sign(FieldElement(k, _join(zero, rb.rep)))
            return None
        # (u + v r)^2 = x forces u^2 = (a +/- s)/2 with s^2 = a^2 - d b^2.
        s = sqrt_in_field(a * a - k.d * b * b)
        if s is None:
            return None
        for cand in (s, -s):
            u = sqrt_in_field((a + cand) / 2)
            if u is not None and not u.is_zero:
                v = b / (2 * u)
                root = FieldElement(k, _join(u.rep, v.rep))
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
    if is_f_of_i(k):
        return k.radical
    return None


def is_f_of_i(k: FieldTower) -> bool:
    """True when k is presented as F(i): a tower whose top adjunction is
    sqrt(-1), over the real subfield F = k.base."""
    return isinstance(k, QuadExt) and k.d == -1


def re_im(x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Split x = a + b*i over the real subfield of a tower topped by i."""
    k = x.tower
    if not is_f_of_i(k):
        raise NoImaginaryPresentation(
            f"{k} is not presented as a real tower extended by i")
    return tuple(FieldElement(k.base, h) for h in _halves(x.rep))


def rational_value(x: FieldElement) -> Fraction:
    if isinstance(x.tower, PrimeField):
        raise FieldMismatch("prime-field element has no rational value")
    vec = coeff_vector(x)
    if any(vec[1:]):
        raise FieldMismatch(f"{x} is not rational")
    return vec[0]


def is_real_tower(k: FieldTower) -> bool:
    """True when every radicand is a positive real (so k orders into R)."""
    return isinstance(k, FlatTower) and all(real_sign(layer.d) > 0 for layer in tower_levels(k))


def real_sign(x: FieldElement) -> int:
    """Exact sign (-1, 0 or 1) of x under the real embedding that sends
    each radical to the positive square root of its radicand: a + b*sqrt(d)
    with signs s = sign(a) != sign(b) has the sign of s * (a^2 - b^2 d),
    one level down."""
    k = x.tower
    if isinstance(k, Rationals):
        n = x.rep.nums[0]
        return (n > 0) - (n < 0)
    if not (isinstance(k, QuadExt) and real_sign(k.d) > 0):
        raise FieldMismatch(f"{k} has no real embedding")
    a, b = (FieldElement(k.base, h) for h in _halves(x.rep))
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


# apply_hom's coefficient signs per (level mask, vector length): one entry
# per conjugation of each tower shape in use.
_HOM_SIGNS: dict[tuple[int, int], tuple[int, ...]] = {}


def apply_hom(h: LevelConjugation, x: FieldElement) -> FieldElement:
    """Apply a catalog homomorphism to x.

    Level conjugations act structurally on the coefficients: a numerator
    is negated when its index has an odd number of the levels' bits set.
    Whether the result is multiplicative depends on the tower (see
    ``conjugation_is_automorphism``), and ``hom_check`` certifies it.
    """
    if not h.levels:
        return x
    k = x.tower
    mask = 0
    for L in h.levels:
        if not 1 <= L <= k.depth:
            raise InvalidLevel(f"level {L} not in 1..{k.depth} for {k}")
        mask |= 1 << (L - 1)
    nums = x.rep.nums
    key = (mask, len(nums))
    signs = _HOM_SIGNS.get(key)
    if signs is None:
        signs = _HOM_SIGNS[key] = tuple(-1 if (i & mask).bit_count() & 1 else 1
                                        for i in range(len(nums)))
    return FieldElement(k, TowerRep(tuple(map(operator.mul, nums, signs)), x.rep.den))


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
    pairs = [(rng.randint(-RANDOM_SIZE, RANDOM_SIZE), rng.randint(1, RANDOM_SIZE))
             for _ in range(1 << k.depth)]
    den = math.lcm(*(d for _, d in pairs))
    return FieldElement(k, _reduced([n * (den // d) for n, d in pairs], den))


def basis_monomials(k: FieldTower) -> list[FieldElement]:
    """1, each radical, and all products of radicals (char-0 towers)."""
    dim = 1 << k.depth
    return [from_coeff_vector(k, [int(i == idx) for i in range(dim)]) for idx in range(dim)]


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
