"""Dense univariate polynomials with exact rational coefficients.

Coefficients are `fractions.Fraction`, stored ascending by degree with no
trailing zeros; the zero polynomial is the empty tuple.  Instances are
immutable and hashable, so they are safe to share between threads and to use
as dictionary keys (orbit identifiers rely on this).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from ._modp import zx_prs

Scalar = Union[int, Fraction, str]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalPolynomial:
    """Immutable polynomial over Q, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    # ---------------------------------------------------------- constructors

    @staticmethod
    def zero() -> "RationalPolynomial":
        return RationalPolynomial(())

    @staticmethod
    def one() -> "RationalPolynomial":
        return RationalPolynomial((1,))

    @staticmethod
    def x() -> "RationalPolynomial":
        return RationalPolynomial((0, 1))

    @staticmethod
    def constant(c: Scalar) -> "RationalPolynomial":
        return RationalPolynomial((c,))

    @staticmethod
    def monomial(degree: int, c: Scalar = 1) -> "RationalPolynomial":
        return RationalPolynomial([0] * degree + [c])

    # -------------------------------------------------------------- basics

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coeff(0)

    def is_integral(self) -> bool:
        """True iff every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            self.coeff(i) + other.coeff(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "RationalPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RationalPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RationalPolynomial":
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return RationalPolynomial.zero()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = RationalPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["RationalPolynomial", "RationalPolynomial"]:
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / lc
            q[k] = factor
            for i in range(d + 1):
                rem[k + i] -= factor * other.coeffs[i]
            rem.pop()
        return RationalPolynomial(q), RationalPolynomial(rem)

    def __floordiv__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RationalPolynomial":
        return divmod(self, other)[1]

    def divides(self, other: "RationalPolynomial") -> bool:
        """True iff self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    # --------------------------------------------------------------- algebra

    def monic(self) -> "RationalPolynomial":
        if self.is_zero or self.is_monic:
            return self
        lc = self.leading
        return RationalPolynomial(c / lc for c in self.coeffs)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """self(inner(T))."""
        acc = RationalPolynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + RationalPolynomial.constant(c)
        return acc

    def substitute_power(self, m: int) -> "RationalPolynomial":
        """Return self(T^m): spread coefficients m apart."""
        if m < 1:
            raise ValueError("power substitution requires m >= 1")
        out = [Fraction(0)] * (len(self.coeffs) * m)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return RationalPolynomial(out)

    def shift(self, c: Scalar) -> "RationalPolynomial":
        """Return self(T + c)."""
        return self.compose(RationalPolynomial((c, 1)))

    def scale_roots(self, s: Scalar) -> "RationalPolynomial":
        """Polynomial with roots s*alpha: self(T/s) rescaled to keep monicity.

        For monic self of degree d this is s^d * self(T/s).
        """
        s = _frac(s)
        if s == 0:
            raise ValueError("root scale must be nonzero")
        d = self.degree
        return RationalPolynomial(
            c * s ** (d - i) for i, c in enumerate(self.coeffs)
        )

    def reversed_coeffs(self) -> "RationalPolynomial":
        """Coefficient reversal T^deg * self(1/T)."""
        return RationalPolynomial(reversed(self.coeffs))

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Monic gcd over Q: the last entry of the primitive remainder sequence."""
        _, a = self.content_and_primitive()
        _, b = _coerce(other).content_and_primitive()
        return RationalPolynomial(zx_prs(a, b)[-1]).monic()

    def xgcd(self, other: "RationalPolynomial"):
        """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
        a, b = self, _coerce(other)
        u0, v0 = RationalPolynomial.one(), RationalPolynomial.zero()
        u1, v1 = RationalPolynomial.zero(), RationalPolynomial.one()
        while not b.is_zero:
            q, r = divmod(a, b)
            a, b = b, r
            u0, u1 = u1, u0 - q * u1
            v0, v1 = v1, v0 - q * v1
        if a.is_zero:
            return a, u0, v0
        lc = a.leading
        inv = 1 / lc
        return a.monic(), u0 * inv, v0 * inv

    def squarefree_part(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        g = self.gcd(self.derivative())
        if g.is_constant:
            return self.monic()
        return (self // g).monic()

    # -------------------------------------------------- integer-poly support

    def denominator_lcm(self) -> int:
        out = 1
        for c in self.coeffs:
            out = out * c.denominator // math.gcd(out, c.denominator)
        return out

    def content_and_primitive(self) -> tuple[Fraction, list[int]]:
        """Write self = content * F with F a primitive integer polynomial, lc(F) > 0.

        Returns (content, integer coefficient list of F ascending).
        """
        if self.is_zero:
            return Fraction(0), []
        den = self.denominator_lcm()
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        sign = -1 if ints[-1] < 0 else 1
        prim = [v // (g * sign) for v in ints]
        return Fraction(g * sign, den), prim

    # ------------------------------------------------------------- protocol

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def sort_key(self):
        """Deterministic total order: degree, then ascending coefficient list."""
        return (self.degree, self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({self!s})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                term = str(c if c > 0 else -c)
            else:
                mag = c if c > 0 else -c
                coeff_txt = "" if mag == 1 else f"{mag}*"
                term = f"{coeff_txt}T" if i == 1 else f"{coeff_txt}T^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _coerce(value) -> RationalPolynomial:
    if isinstance(value, RationalPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalPolynomial.constant(value)
    raise TypeError(f"cannot coerce {value!r} to RationalPolynomial")


def poly(coeffs: Sequence[Scalar]) -> RationalPolynomial:
    """Shorthand constructor from ascending coefficients."""
    return RationalPolynomial(coeffs)


def poly_product(factors: Iterable[RationalPolynomial]) -> RationalPolynomial:
    out = RationalPolynomial.one()
    for f in factors:
        out = out * f
    return out
