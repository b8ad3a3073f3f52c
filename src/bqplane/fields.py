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
integer weight per level set, written out at depths 1 and 2.  From a
level with a nested radicand (such as sqrt(5 + r1*r2)) up, a product
splits into halves over the level below, down to the rational levels
beneath.  A rational operand (zero included) only scales the other's
numerators.  An affine image coordinate a*x + b*y + t is one row,
``_row``, with one reduction, and one pass when a and b are rational;
integer rows over one denominator (``_scaled_rows``) fold a conjugation's
coefficient signs into that pass.  Over a tower topped by i, x*i swaps
the numerator halves with a sign (``_times_i``).  Every geometric
identity downstream is checked exactly, without floating point; the real
order of a real tower is the exact ``real_sign``.

The catalog homomorphisms of a tower are its "level conjugations": a
set of levels, each radical r_L of which is sent to -r_L while the
others stay (``LevelConjugation(*levels)``; no levels is the identity).
Such a map is an automorphism exactly when it fixes every radicand
(``is_automorphism``), and the catalog is every level set that does.
On a prime field the identity is the only homomorphism.

Every verdict scan covers a ``DomainSpec`` (all of a finite field, or a
seeded sample) and reports a ``Check``: the cases covered and up to
``MAX_WITNESSES`` counterexamples.  A check of no cases is not ok.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AlreadySquare,
    DigitLimitExceeded,
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    InvalidField,
    InvalidLevel,
    NoImaginaryPresentation,
    NoImaginaryUnit,
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
        self._i = FieldElement(self, sqrt_mod(p - 1, p))  # the smaller root of -1
        self._half_rep = (p + 1) >> 1

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

    def _row(self, a, x, b, y, t):
        return (a * x + b * y + t) % self.p

    def _times_i(self, a):
        return a * self._i.rep % self.p

    def _half(self, a):
        return a * self._half_rep % self.p

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

    Subclasses supply ``_inv``, and ``_imul(x, y)`` for products with no
    rational operand: x*y times ``_prod_scale`` for numerator vectors.
    """

    characteristic = 0
    zero_rep = TowerRep((0,), 1)
    one_rep = TowerRep((1,), 1)
    _pad = ()
    _imaginary = False  # True on a QuadExt that adjoins sqrt(-1)
    _prod_scale = 1
    _weights = (1,)  # Q's monomial weights; see QuadExt.__init__
    _monos = ("",)  # Q's printed monomials; see QuadExt._monos

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

    def _prod(self, a, b):
        """a*b as unreduced (numerators, den): a rational operand (zero
        included) scales the other's numerators; else ``_imul``."""
        x, y, den = a.nums, b.nums, a.den * b.den
        if not any(x[1:]):
            return [x[0] * n for n in y], den
        if not any(y[1:]):
            return [y[0] * n for n in x], den
        return self._imul(x, y), den * self._prod_scale

    def _mul(self, a, b):
        return _reduced(*self._prod(a, b))

    def _row(self, a, x, b, y, t):
        """a*x + b*y + t with one reduction."""
        an, bn = a.nums, b.nums
        if any(an[1:]) or any(bn[1:]):
            (u, ud), (v, vd), ca, cb = self._prod(a, x), self._prod(b, y), 1, 1
        else:  # rational a and b scale x and y in the one pass below
            u, ud, v, vd, ca, cb = x.nums, a.den * x.den, y.nums, b.den * y.den, an[0], bn[0]
        den = math.lcm(ud, vd, t.den)
        fu, fv, ft = ca * (den // ud), cb * (den // vd), den // t.den
        return _reduced([p * fu + q * fv + s * ft for p, q, s in zip(u, v, t.nums)], den)

    def _scaled_rows(self, den, rows, x, y, signs=None):
        """(a*x + b*y + t)/den for both rows (a, b, t) of integers a, b and
        numerators t, x and y times a conjugation's ``signs`` (None: the
        identity) coefficientwise: per row one pass and one reduction."""
        xn, yn, xd, yd = x.nums, y.nums, x.den, y.den
        g = math.gcd(xd, yd)
        ex, ey = yd // g, xd // g
        lcm = xd * ex  # x = xn*ex/lcm and y = yn*ey/lcm
        (a, b, t), (c, d, s) = rows
        a, b, c, d = a * ex, b * ey, c * ex, d * ey
        if signs is None:
            u = [p * a + q * b + w * lcm for p, q, w in zip(xn, yn, t)]
            v = [p * c + q * d + w * lcm for p, q, w in zip(xn, yn, s)]
        else:
            u = [(p * a + q * b) * z + w * lcm for p, q, w, z in zip(xn, yn, t, signs)]
            v = [(p * c + q * d) * z + w * lcm for p, q, w, z in zip(xn, yn, s, signs)]
        den *= lcm
        return _reduced(u, den), _reduced(v, den)

    def _times_i(self, a):
        """a*i on a tower topped by i: a0 + a1*i -> -a1 + a0*i, the numerator
        halves swapped with a sign over the same denominator, still reduced."""
        if not self._imaginary:
            raise NoImaginaryUnit(f"{self} has no canonical i with i*i = -1")
        h = len(a.nums) >> 1
        return TowerRep(tuple([-n for n in a.nums[h:]]) + a.nums[:h], a.den)

    def _half(self, a):
        return _reduced(a.nums, 2 * a.den)

    def _is_zero(self, a):
        return not any(a.nums)


class Rationals(FlatTower):
    """The rational numbers, the depth-0 flat tower, whose products all scale."""

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
        # a real tower has no square root of a negative radicand to search for
        if not (is_real_tower(base) and real_sign(d) < 0) and sqrt_in_field(d) is not None:
            raise AlreadySquare(f"{d} already has a square root in {base}")
        self._adjoin(base, d)

    def _adjoin(self, base: FieldTower, d: FieldElement) -> None:
        """Build base(sqrt d) for a nonzero non-square d of base."""
        self.base = base
        self.d = d
        self._imaginary = d == -1  # sqrt(-1): the tower is F(i)
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
        if len(w) == 4:
            # the loop below written out for the monomials 1, r1, r2, r1*r2
            (x0, x1, x2, x3), (y0, y1, y2, y3), (c, w1, w2, w3) = x, y, w
            return [c * x0 * y0 + w1 * x1 * y1 + w2 * x2 * y2 + w3 * x3 * y3,
                    c * (x0 * y1 + x1 * y0) + w2 * (x2 * y3 + x3 * y2),
                    c * (x0 * y2 + x2 * y0) + w1 * (x1 * y3 + x3 * y1),
                    c * (x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1)]
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

    @functools.cached_property
    def _monos(self) -> tuple[str, ...]:
        """The printed monomial of each coefficient index, built on first
        use: towers that are never printed build none."""
        monos = [""]
        for layer in tower_levels(self):
            name = "i" if layer._imaginary else f"r{layer.level}"
            monos += [f"{m}*{name}" if m else name for m in monos]
        return tuple(monos)

    @functools.cached_property
    def _real(self) -> bool:
        """d > 0, found once (``real_sign`` raises for a base that is not real)."""
        return real_sign(self.d) > 0

    @functools.cached_property
    def radical(self) -> FieldElement:
        """The adjoined square root of d as an element of this tower, built once."""
        h = 1 << (self.depth - 1)
        return FieldElement(self, TowerRep(self._pad[:h] + (1,) + self._pad[h:], 1))

    def describe(self):
        if self._imaginary:
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
                # u^2 = (a + cand)/2, cand^2 = a^2 - d b^2, v = b/(2u): (u + v r)^2 = a + b r
                v = b / (2 * u)
                return _canonical_sign(FieldElement(k, _join(u.rep, v.rep)))
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
    return isinstance(k, QuadExt) and k._imaginary


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
    nums = x.rep.nums
    if any(nums[1:]):
        raise FieldMismatch(f"{x} is not rational")
    return Fraction(nums[0], x.rep.den)


def is_real_tower(k: FieldTower) -> bool:
    """True when every radicand is a positive real (so k orders into R)."""
    return isinstance(k, FlatTower) and all(layer._real for layer in tower_levels(k))


def real_sign(x: FieldElement) -> int:
    """Exact sign (-1, 0 or 1) of x under the real embedding that sends
    each radical to the positive square root of its radicand: a + b*sqrt(d)
    with signs s = sign(a) != sign(b) has the sign of s * (a^2 - b^2 d),
    one level down."""
    k = x.tower
    if isinstance(k, Rationals):
        n = x.rep.nums[0]
        return (n > 0) - (n < 0)
    if not (isinstance(k, QuadExt) and k._real):
        raise FieldMismatch(f"{k} has no real embedding")
    a, b = (FieldElement(k.base, h) for h in _halves(x.rep))
    if b.is_zero:
        return real_sign(a)
    sa, sb = real_sign(a), real_sign(b)
    if sa == sb or sa == 0:
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
    if k.characteristic != 0:
        raise InvalidField("quadratic extensions of prime fields are out of scope")
    ext = QuadExt.__new__(QuadExt)  # x was just found a non-square: no second test
    ext._adjoin(k, x)
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


# hom_signs per (level set, tower depth), for the conjugations in use
_HOM_SIGNS: dict[tuple[frozenset, int], tuple[int, ...]] = {}


def hom_signs(h: LevelConjugation, k: FieldTower) -> tuple[int, ...]:
    """h's signs on k's numerators: -1 where the index has an odd number of
    the levels' bits set.  Levels outside 1..depth are refused."""
    key = (h.levels, k.depth)
    signs = _HOM_SIGNS.get(key)
    if signs is None:
        mask = 0
        for L in h.levels:
            if not 1 <= L <= k.depth:
                raise InvalidLevel(f"level {L} not in 1..{k.depth} for {k}")
            mask |= 1 << (L - 1)
        signs = _HOM_SIGNS[key] = tuple(-1 if (i & mask).bit_count() & 1 else 1
                                        for i in range(1 << k.depth))
    return signs


def apply_hom(h: LevelConjugation, x: FieldElement) -> FieldElement:
    """Apply a catalog homomorphism to x: its ``hom_signs`` on x's
    coefficients.  Whether the result is multiplicative depends on the
    tower (see ``is_automorphism``)."""
    if not h.levels:
        return x
    signs = hom_signs(h, x.tower)
    return FieldElement(x.tower, TowerRep(tuple(map(operator.mul, x.rep.nums, signs)), x.rep.den))


def is_automorphism(h: LevelConjugation, k: FieldTower) -> bool:
    """Whether h is an automorphism of k.  It sends each radical r_L to
    +-r_L, so it is multiplicative exactly when it fixes every radicand
    d_L = r_L^2.  Levels outside 1..depth are refused: Q and GF(p) have
    none to conjugate."""
    return (all(1 <= L <= k.depth for L in h.levels)
            and all(apply_hom(h, k(layer.d)) == k(layer.d) for layer in tower_levels(k)))


# ------------------------------------------------------ random elements

RANDOM_SIZE = 9

# The coefficients random_element can draw: 0 and +-n/d in lowest terms
# with 1 <= n, d <= RANDOM_SIZE, 111 values.
_DRAWABLE_COEFFS = 1 + 2 * sum(math.gcd(n, d) == 1 for n in range(1, RANDOM_SIZE + 1)
                               for d in range(1, RANDOM_SIZE + 1))


def random_element(k: FieldTower, rng: random.Random) -> FieldElement:
    """A seeded random element with numerators/denominators up to
    RANDOM_SIZE, each drawn as rng.randint draws it: by the same getrandbits
    calls and redraws, so with the same values and rng state."""
    if isinstance(k, PrimeField):
        return k(rng.randrange(k.p))
    bits, span, pairs = rng.getrandbits, 2 * RANDOM_SIZE + 1, []
    nb, db = span.bit_length(), RANDOM_SIZE.bit_length()
    for _ in range(1 << k.depth):
        while (n := bits(nb)) >= span:
            pass
        while (d := bits(db)) >= RANDOM_SIZE:
            pass
        pairs.append((n - RANDOM_SIZE, d + 1))
    den = math.lcm(*(d for _, d in pairs))
    return FieldElement(k, _reduced([n * (den // d) for n, d in pairs], den))


def basis_monomials(k: FieldTower) -> list[FieldElement]:
    """1, each radical, and all products of radicals (char-0 towers)."""
    dim = 1 << k.depth
    return [FieldElement(k, TowerRep(tuple(int(i == idx) for i in range(dim)), 1))
            for idx in range(dim)]


def _fixed_probes(k: FieldTower):
    """The basis monomials, then the sum and the product of each pair."""
    basis = basis_monomials(k)
    yield from basis
    for i, a in enumerate(basis):
        for b in basis[i:]:
            yield a + b
            yield a * b


def _drawable(x: FieldElement) -> bool:
    """Whether random_element can return x: every coefficient, in lowest
    terms, has numerator and denominator at most RANDOM_SIZE in size."""
    den = x.rep.den
    return all(max(abs(n), den) // math.gcd(n, den) <= RANDOM_SIZE for n in x.rep.nums)


def probe_elements(k: FieldTower, rng: random.Random, count: int) -> list[FieldElement]:
    """Deterministic probe set, each value once: basis monomials, their
    pairwise sums and products, then seeded random elements, up to
    ``count`` or until ``random_element`` has no new value to give."""
    if isinstance(k, PrimeField):
        return [k(v) for v in range(min(count, k.p))]
    stream = itertools.chain(_fixed_probes(k),
                             iter(functools.partial(random_element, k, rng), None))
    probes: dict[TowerRep, FieldElement] = {}
    new = _DRAWABLE_COEFFS ** (1 << k.depth)  # drawable values not yet probed
    while len(probes) < count and new:
        e = next(stream)
        if e.rep not in probes:
            probes[e.rep] = e
            new -= _drawable(e)
    return list(probes.values())


# ------------------------------------------------------------ formatting

def format_element(x: FieldElement) -> str:
    """Canonical text form, parseable by parsing.parse_element."""
    if isinstance(x.tower, PrimeField):
        return str(x.rep)
    den, out = x.rep.den, ""
    try:
        for n, mono in zip(x.rep.nums, x.tower._monos):
            if n:
                g = math.gcd(n, den)
                c = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
                if mono:
                    c = mono if c == "1" else f"{c}*{mono}"
                out += f" - {c}" if n < 0 else f" + {c}"
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise DigitLimitExceeded(_digit_limit_message(x)) from None
    return out[3:] if out[1:2] == "+" else f"-{out[3:]}" if out else "0"


def _digit_limit_message(x: FieldElement) -> str:
    den = x.rep.den
    top = max(max(abs(n), den) // math.gcd(n, den) for n in x.rep.nums if n)
    digits = int((top.bit_length() - 1) * math.log10(2)) + 1  # at most one short
    digits += top >= 10 ** digits
    return (f"cannot print a coefficient of {digits} digits: integers print"
            f" with at most {sys.get_int_max_str_digits()} digits")
