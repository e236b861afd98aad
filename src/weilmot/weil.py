"""Weil q-numbers and Tate structures.

Verification is fully exact: a monic irreducible P is the minimal polynomial
of a Weil q-number of weight m iff |P(0)| is the right power of p, the
coefficient denominators are p-powers, and every root of the associated
totally-real test polynomial (the values beta^2 for beta = alpha + q^m/alpha)
lies in [0, 4q^m] -- all checked by an exact charpoly built from power sums
of the roots and by Sturm counts, so adversarial near-misses are rejected
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import charpoly, power_sums
from .errors import (
    NotEffectiveInput,
    NotMonic,
    NotWeil,
    RangeError,
    WeightMismatch,
    ZeroConstantTerm,
)
from .exact_arith import factor_rational_poly, sturm_variations
from .padic import newton_polygon, ord_frac
from .poly import RationalPolynomial
from .primes import PrimePower

__all__ = [
    "PrimePower",
    "WeilOrbit",
    "TateStructure",
    "verify_weil",
    "is_effective",
    "tate_twist",
    "tate_twist_orbit",
    "coniveau_sub",
    "slope_filtration_dim",
    "weil_restriction_charpoly",
    "mth_root_factors",
]


def _is_p_power_ratio(x: Fraction, p: int) -> bool:
    """|x| = p^k for some integer k (possibly negative)."""
    num, den = abs(x.numerator), x.denominator

    def pure(n: int) -> bool:
        while n % p == 0:
            n //= p
        return n == 1

    return pure(num) and pure(den)


def verify_weil(p_poly: RationalPolynomial, q: PrimePower) -> int:
    """Return the weight m of the Weil q-number with minimal polynomial P.

    Exact verification: the unique candidate m is pinned by the constant
    term; beta = alpha + q^m/alpha must be totally real with beta^2 in
    [0, 4q^m] for every embedding, which is tested through Sturm counts on
    the polynomial whose roots are the beta^2 (_beta_squared_charpoly).
    Raises NotWeil with a reason on any failure.
    """
    if not p_poly.is_monic or p_poly.degree < 1:
        raise NotMonic("verify_weil requires a monic polynomial of degree >= 1")
    if p_poly.constant_term == 0:
        raise ZeroConstantTerm("P(0) = 0 is not a Weil number")
    p, a = q.p, q.a
    for c in p_poly.coeffs:
        if not _is_p_power_ratio(Fraction(c.denominator), p):
            raise NotWeil(
                f"coefficient denominator {c.denominator} is not a power of p = {p}",
                reason="denominator",
            )
    d = p_poly.degree
    const = p_poly.constant_term
    if not _is_p_power_ratio(const, p):
        raise NotWeil(
            f"|P(0)| = {abs(const)} is not a power of p = {p}",
            reason="constant-valuation",
        )
    # ord_q |P(0)| = m*d/2 pins m
    two_ord = 2 * ord_frac(const, p)
    if two_ord % (a * d) != 0:
        raise NotWeil(
            f"ord_q|P(0)| = {Fraction(two_ord, 2 * a)} is not m*{d}/2 for integral m",
            reason="constant-valuation",
        )
    m = two_ord // (a * d)
    qm = Fraction(q.q) ** m

    g_sf = _beta_squared_charpoly(p_poly, qm).squarefree_part()
    n_roots = g_sf.degree
    root_at_zero = 1 if g_sf.constant_term == 0 else 0
    at_neg_inf, at_zero, at_bound, at_pos_inf = sturm_variations(g_sf, (0, 4 * qm))
    total_real = at_neg_inf - at_pos_inf
    if total_real < n_roots:
        raise NotWeil("beta is not totally real", reason="not-totally-real")
    negatives = at_neg_inf - at_zero - root_at_zero
    if negatives:
        raise NotWeil("beta has imaginary embeddings", reason="not-totally-real")
    in_range = at_zero - at_bound + root_at_zero
    if in_range < n_roots:
        raise NotWeil(
            f"some |beta| exceeds 2*q^(m/2) for m = {m}", reason="root-bound"
        )
    return m


def _beta_squared_charpoly(p_poly: RationalPolynomial, qm: Fraction) -> RationalPolynomial:
    """Monic polynomial with roots beta^2, beta = alpha + qm/alpha over the roots of P.

    Needs P(0) != 0.  s_j(beta^2) = sum_{i=0}^{2j} C(2j, i) qm^(2j-i) s_{2i-2j}(alpha),
    where a negative index is a power sum of the 1/alpha, the roots of the
    reversed P made monic.
    """
    d = p_poly.degree
    pos = power_sums(p_poly, 2 * d)
    neg = power_sums(p_poly.reversed_coeffs().monic(), 2 * d)
    qpow = [qm ** e for e in range(2 * d + 1)]
    traces = [d] + [
        sum(
            math.comb(2 * j, i) * qpow[2 * j - i] * (pos[2 * (i - j)] if i >= j else neg[2 * (j - i)])
            for i in range(2 * j + 1)
        )
        for j in range(1, d + 1)
    ]
    return charpoly(traces)


@dataclass(frozen=True)
class WeilOrbit:
    """Galois orbit of a Weil q-number: monic irreducible min_poly, base, weight.

    The public constructor verifies the Weil condition and the weight exactly;
    orbits made inside the package (zeta-datum analysis, Tate twists) come
    already verified.  Irreducibility is the constructor's caller's
    responsibility (factorization outputs are).
    """

    min_poly: RationalPolynomial
    base: PrimePower
    weight: int

    def __post_init__(self):
        m = verify_weil(self.min_poly, self.base)
        if m != self.weight:
            raise WeightMismatch(
                f"{self.min_poly} has weight {m}, not {self.weight}"
            )

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def polygon(self):
        return newton_polygon(self.min_poly, self.base)

    def sort_key(self):
        return self.min_poly.sort_key()


def _verified_orbit(min_poly: RationalPolynomial, base: PrimePower, weight: int) -> WeilOrbit:
    """A WeilOrbit whose weight the caller has already verified; skips the re-check."""
    orbit = object.__new__(WeilOrbit)
    orbit.__dict__.update(min_poly=min_poly, base=base, weight=weight)
    return orbit


@dataclass(frozen=True)
class TateStructure:
    """Semisimplified Tate structure: orbits with multiplicities over one base."""

    base: PrimePower
    parts: tuple[tuple[WeilOrbit, int], ...]

    def __post_init__(self):
        merged: dict[RationalPolynomial, tuple[WeilOrbit, int]] = {}
        for orbit, mult in self.parts:
            if orbit.base != self.base:
                raise RangeError("orbit base differs from structure base")
            if mult < 1:
                raise RangeError("multiplicities must be positive")
            if orbit.min_poly in merged:
                prev, pm = merged[orbit.min_poly]
                merged[orbit.min_poly] = (prev, pm + mult)
            else:
                merged[orbit.min_poly] = (orbit, mult)
        normalized = tuple(
            sorted(merged.values(), key=lambda om: om[0].sort_key())
        )
        object.__setattr__(self, "parts", normalized)

    @property
    def dimension(self) -> int:
        return sum(orbit.degree * mult for orbit, mult in self.parts)

    def multiplicity_of(self, min_poly: RationalPolynomial) -> int:
        for orbit, mult in self.parts:
            if orbit.min_poly == min_poly:
                return mult
        return 0

    @staticmethod
    def empty(base: PrimePower) -> "TateStructure":
        return TateStructure(base=base, parts=())


def is_effective(orbit: WeilOrbit) -> bool:
    """Effective iff all eigenvalues are algebraic integers (integer min_poly)."""
    return orbit.min_poly.is_integral()


def tate_twist_orbit(orbit: WeilOrbit, r: int) -> WeilOrbit:
    """Eigenvalues alpha -> alpha / q^r; weight drops by 2r."""
    if r == 0:
        return orbit
    scaled = orbit.min_poly.scale_roots(Fraction(1, orbit.base.q) ** r)
    return _verified_orbit(scaled, orbit.base, orbit.weight - 2 * r)


def tate_twist(v: TateStructure, r: int) -> TateStructure:
    return TateStructure(
        base=v.base,
        parts=tuple((tate_twist_orbit(o, r), m) for o, m in v.parts),
    )


def coniveau_sub(v: TateStructure, r: int) -> TateStructure:
    """F_b^r: the largest substructure whose twist by r is still effective.

    Keeps exactly the (orbit, multiplicity) pairs with tate_twist(orbit, r)
    effective; requires r >= 0 and an effective input.
    """
    if r < 0:
        raise RangeError("coniveau level r must be >= 0")
    for orbit, _ in v.parts:
        if not is_effective(orbit):
            raise NotEffectiveInput(f"orbit {orbit.min_poly} is not effective")
    kept = tuple(
        (o, m) for o, m in v.parts if is_effective(tate_twist_orbit(o, r))
    )
    return TateStructure(base=v.base, parts=kept)


def slope_filtration_dim(v: TateStructure, r) -> int:
    """Dimension of the slope->= r part: Newton polygon slots across orbits."""
    r = Fraction(r)
    return sum(m * o.polygon().slots_at_least(r) for o, m in v.parts)


def weil_restriction_charpoly(
    p_poly: RationalPolynomial, q_m: PrimePower, m: int
) -> RationalPolynomial:
    """Restriction of the base field from F_{q^m} to F_q on eigenvalue data.

    P over q^m becomes P(T^m) over q = (q^m)^(1/m): the root multiset is all
    m-th roots of the roots of P, with the weight preserved.
    """
    if m < 1:
        raise RangeError("m must be >= 1")
    weight = verify_weil(p_poly, q_m)
    base = q_m.root(m)
    restricted = p_poly.substitute_power(m)
    check = verify_weil(restricted, base)
    if check != weight:
        raise WeightMismatch(
            f"restriction changed the weight ({weight} -> {check}); bug"
        )
    return restricted


def mth_root_factors(
    p_poly: RationalPolynomial, q: PrimePower, m: int
) -> list[WeilOrbit]:
    """Factor P(T^m) into orbits of m-th roots; every factor has weight 1.

    P must be irreducible of verified weight exactly m (m >= 1).
    """
    if m < 1:
        raise RangeError("m must be >= 1")
    weight = verify_weil(p_poly, q)
    if weight != m:
        raise WeightMismatch(f"verified weight {weight} != m = {m}")
    substituted = p_poly.substitute_power(m)
    out = []
    for factor, mult in factor_rational_poly(substituted).factors:
        if mult != 1:
            raise WeightMismatch("unexpected repeated factor in P(T^m); bug")
        out.append(WeilOrbit(min_poly=factor, base=q, weight=1))
    return out
