"""Exception hierarchy for weilmot.

Every domain failure raises a subclass of WeilmotError so callers (and the
CLI) can distinguish domain errors (exit code 1) from parse/IO errors
(exit code 2) and from genuine bugs.
"""

from __future__ import annotations


class WeilmotError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------- exact_arith

class ZeroPolynomial(WeilmotError):
    """Operation required a nonzero polynomial."""


class NotSquarefree(WeilmotError):
    """gcd(P, P') is nonconstant where a squarefree polynomial was required."""


class NotCoprime(WeilmotError):
    """CRT moduli share a nonconstant common factor.

    Carries the indices of the offending pair in ``pair``.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class BadConstantTerm(WeilmotError):
    """L-polynomial must have constant term 1."""


class DegreeHintMismatch(WeilmotError):
    """reciprocal_transform requires degree_hint == deg L (no zero-eigenvalue padding)."""


class NotMonic(WeilmotError):
    """Operation requires monic input."""


class KTooLarge(WeilmotError):
    """Exterior power index exceeds the polynomial degree."""


class DimensionTooLarge(WeilmotError):
    """A tensor or exterior charpoly would exceed exact_arith.MAX_CHARPOLY_DEGREE."""


# ---------------------------------------------------------------------- padic

class ZeroInput(WeilmotError):
    """Valuation of zero is undefined."""


class ZeroConstantTerm(WeilmotError):
    """Newton polygon requires P(0) != 0 (Frobenius eigenvalue 0 never occurs)."""


class NotIrreducible(WeilmotError):
    """Operation requires a polynomial irreducible over the rationals."""


class PrecisionExhausted(WeilmotError):
    """The p-adic place search could not certify a splitting within its budget."""


# ----------------------------------------------------------------------- weil

class NotWeil(WeilmotError):
    """Polynomial is not the minimal polynomial of a Weil q-number.

    ``reason`` is one of: "constant-valuation", "not-totally-real",
    "root-bound", "denominator".
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class NotEffectiveInput(WeilmotError):
    """Operation requires all orbits to be effective (algebraic-integer eigenvalues)."""


class WeightMismatch(WeilmotError):
    """Verified weight does not match the weight demanded by the operation."""


class BaseMismatch(WeilmotError):
    """Operands live over different base fields."""


# -------------------------------------------------------------------- motives

class OddDegree(WeilmotError):
    """Curve H^1 data must have even degree (2g)."""


class ValidationFailed(WeilmotError):
    """Zeta data failed validation; see the attached report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class RangeError(WeilmotError):
    """Argument outside its permitted range."""


class IndexDivisibilityError(WeilmotError):
    """Orbit multiplicity is not divisible by the orbit index e (not motive-realizable)."""


# --------------------------------------------------------------------- endalg

class OddProduct(WeilmotError):
    """orbit_size * index is odd; no consistent abelian-variety dimension exists."""


class CertificationFailed(WeilmotError):
    """An exact certificate failed: exterior-power containment, or an inexact
    Newton division in the integer charpoly kernel (implementation bug if reached)."""


# ------------------------------------------------------------------------ cli

class ParseError(WeilmotError):
    """Input document could not be parsed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
