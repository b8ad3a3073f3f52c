"""Exception hierarchy shared by all bqplane modules.

Everything derives from BQError so callers (the CLI in particular) can
distinguish toolkit verdicts and usage problems from genuine bugs.
"""

from __future__ import annotations


class BQError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- fields

class FieldMismatch(BQError):
    """Operands belong to different field towers."""


class DivisionByZero(BQError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class ZeroRadicand(BQError):
    """Attempt to adjoin the square root of zero."""


class AlreadySquare(BQError):
    """Attempt to adjoin the square root of an element that already has one."""


class InvalidField(BQError):
    """Field construction rejected (composite p, excluded characteristic, ...)."""


class NoImaginaryPresentation(BQError):
    """The tower's top level is not an adjunction of a square root of -1."""


class NoImaginaryUnit(BQError):
    """The field contains no canonical i with i*i = -1."""


class InvalidLevel(BQError):
    """Conjugation level outside the tower's adjunction range."""


class DigitLimitExceeded(BQError):
    """A coefficient has more decimal digits than the interpreter will
    print (``sys.get_int_max_str_digits``)."""


# -------------------------------------------------------------- geometry

class ZeroScale(BQError):
    """Scaling map requested with z = 0."""


# ------------------------------------------------------------------ maps

class NotOrthogonal(BQError):
    """2x2 matrix failed the exact orthogonality equations."""


class FieldNotFinite(BQError):
    """Operation requires a finite field (exhaustive scan, table, census)."""


class ZeroParameter(BQError):
    """Unit-vector or case-matrix parameter must be nonzero (or 1+t^2 = 0)."""


# ---------------------------------------------------------------- chains

class SearchExhausted(BQError):
    """Chain construction gave up.

    ``retriable`` distinguishes an undecided search (budget exhaustion,
    where a larger budget may succeed, or a denominator the bounded
    factoring could not split) from targets proven unreachable by a
    divisor certificate, where no budget will ever help.
    """

    def __init__(self, message: str, *, retriable: bool = True):
        super().__init__(message)
        self.retriable = retriable


class FactoringExhausted(BQError):
    """Bounded factoring gave up: ``factors`` holds the primes found (as
    {prime: exponent}) and ``cofactors`` the composite parts left
    unsplit."""

    def __init__(self, message: str, factors: dict[int, int],
                 cofactors: list[int]):
        super().__init__(message)
        self.factors = factors
        self.cofactors = cofactors


class PrimaryBranchUnavailable(BQError):
    """Connector chain requested for a point with no imaginary part."""


# ------------------------------------------------------------- decompose

class FrameNotOrthonormal(BQError):
    """Images of the standard frame do not satisfy phi = 1, 1, 2."""


class NotAHomomorphism(BQError):
    """Extracted coordinate map violates a field-homomorphism law."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ProductFormViolation(BQError):
    """Normalized map is not coordinatewise on the checked domain."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BranchUndetermined(BQError):
    """Map's image of (i, i) matches neither branch of the normal form."""


class LorentzNormalizationFailed(BQError):
    """Conjugated map does not satisfy the product-one normalization."""


class CaseUndetermined(BQError):
    """Normalized Lorentz map matches neither the plain nor the swapped case."""


# ------------------------------------------------------------------- cli

class ParseError(BQError):
    """Input text rejected; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
