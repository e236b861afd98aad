"""p-adic valuations, Newton polygons normalized to ord(q) = 1, and places.

``padic_places`` decomposes an irreducible integer polynomial into its
p-adic places (slope, local degree) by first-order Newton polygon analysis:
each polygon side carries a residual polynomial over F_p, and when every
residual is squarefree the factorization type over Q_p can be read off side
by side (one place of local degree d * deg(r) per irreducible residual
factor r, where d is the slope denominator).  Inputs whose residuals are not
squarefree are retried after a deterministic schedule of shifts T -> T + s;
a successful shifted analysis is mapped back by matching local degrees
against the original polygon, and the search gives up with
PrecisionExhausted rather than ever guessing.  The working precision is
set by ord_p(disc P), read off the integer remainder sequence of P and P'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _modp
from .errors import (
    NotIrreducible,
    NotMonic,
    PrecisionExhausted,
    RangeError,
    ZeroConstantTerm,
    ZeroInput,
)
from .exact_arith import is_irreducible
from .poly import RationalPolynomial
from .primes import PrimePower

SHIFT_BUDGET = 24  # shifts T -> T + s tried before PrecisionExhausted


def ord_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroInput("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ord_frac(x: Fraction, p: int) -> int:
    if x == 0:
        raise ZeroInput("valuation of 0 is undefined")
    return ord_int(x.numerator, p) - ord_int(x.denominator, p)


def ord_q(x, q: PrimePower) -> Fraction:
    """Valuation normalized so ord(q) = 1: ord_p(x) / a for q = p^a."""
    x = Fraction(x)
    return Fraction(ord_frac(x, q.p), q.a)


@dataclass(frozen=True)
class NewtonPolygon:
    """Slopes (root valuations, ord(q) = 1) with multiplicities, increasing."""

    segments: tuple[tuple[Fraction, int], ...]

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.segments)

    def slope_multiset(self) -> list[Fraction]:
        out = []
        for s, m in self.segments:
            out.extend([s] * m)
        return out

    @property
    def min_slope(self) -> Fraction | None:
        return self.segments[0][0] if self.segments else None

    def slots_at_least(self, r) -> int:
        r = Fraction(r)
        return sum(m for s, m in self.segments if s >= r)

    def slots_less_than(self, r) -> int:
        r = Fraction(r)
        return sum(m for s, m in self.segments if s < r)


@dataclass(frozen=True)
class PlaceData:
    """One place v | p of Q[alpha]: root valuation and local degree [Q[alpha]_v : Q_p]."""

    slope: Fraction
    local_degree: int
    place_id: int


def _lower_hull(points: list[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Vertices of the lower convex hull (points pre-sorted by abscissa)."""
    hull: list[tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _polygon_ord_p(coeffs: list[Fraction], p: int) -> list[tuple[Fraction, int]]:
    """Root-valuation segments in ord_p units, slopes increasing."""
    points = [
        (i, Fraction(ord_frac(c, p))) for i, c in enumerate(coeffs) if c != 0
    ]
    hull = _lower_hull(points)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y1 - y2, x2 - x1)  # root valuation, >= hull direction
        segments.append((slope, x2 - x1))
    segments.reverse()  # valuations increasing
    return segments


def newton_polygon(p_poly: RationalPolynomial, q: PrimePower) -> NewtonPolygon:
    """Lower-hull polygon of P; slopes are root valuations with ord(q) = 1."""
    if not p_poly.is_monic:
        raise NotMonic("Newton polygon requires a monic polynomial")
    if p_poly.constant_term == 0:
        raise ZeroConstantTerm("P(0) = 0: eigenvalue 0 never occurs for Frobenius")
    if p_poly.degree == 0:
        return NewtonPolygon(segments=())
    segments = [
        (s / q.a, m) for s, m in _polygon_ord_p(list(p_poly.coeffs), q.p)
    ]
    return NewtonPolygon(segments=tuple(segments))


# ----------------------------------------------------------------- places
#
# The analysis works with block coefficients known mod p^N.  With
# N > ord_p(disc P) + ord_p(P(0)), every quantity it reads -- polygon vertex
# heights (bounded by the block's constant-term valuation), residual digits
# on the hull, and quadratic discriminant valuations (bounded by the
# discriminant of P) -- is determined exactly, so nothing is approximate.

def _val_mod(x: int, p: int) -> int | None:
    """Valuation of a residue; None when x = 0 (true valuation off-scale)."""
    if x == 0:
        return None
    return ord_int(x, p)


def _block_hull(coeffs: list[int], p: int):
    points = []
    for i, c in enumerate(coeffs):
        v = _val_mod(c, p)
        if v is not None:
            points.append((i, Fraction(v)))
    return _lower_hull(points)


def _residual(coeffs: list[int], p: int, i0: int, u0: int, slope: Fraction, length: int) -> list[int]:
    """Ore residual polynomial of one polygon side, over F_p."""
    c, d = slope.numerator, slope.denominator
    ell = length // d
    out = []
    for j in range(ell + 1):
        idx = i0 + j * d
        expected = u0 - j * c
        a = coeffs[idx]
        if a != 0 and ord_int(a, p) == expected:
            out.append((a // p ** expected) % p)
        else:
            out.append(0)
    return _modp.trim(out)


def _quadratic_places(coeffs: list[int], p: int, n_digits: int) -> list[tuple[Fraction, int]] | None:
    """Places of a pure-slope monic quadratic block, decided by discriminant.

    The block splits over Q_p iff b^2 - 4c is a square: valuation even and
    unit part a square (Euler criterion; for p = 2, congruent to 1 mod 8).
    """
    c, b = coeffs[0], coeffs[1]
    modulus = p ** n_digits
    disc = (b * b - 4 * c) % modulus
    v_disc = _val_mod(disc, p)
    v_c = _val_mod(c, p)
    if v_disc is None or v_c is None or v_c % 2 != 0:
        return None  # not enough certified digits / not the pure integral case
    slope = Fraction(v_c, 2)
    unit = disc // p ** v_disc
    if p == 2:
        if n_digits - v_disc < 3:
            return None
        is_square = v_disc % 2 == 0 and unit % 8 == 1
    else:
        is_square = v_disc % 2 == 0 and pow(unit, (p - 1) // 2, p) == 1
    if is_square:
        return [(slope, 1), (slope, 1)]
    return [(slope, 2)]


def _analyze_block(coeffs: list[int], p: int, n_digits: int) -> list[tuple[Fraction, int]] | None:
    """Place data of one monic block known mod p^n_digits, or None.

    Splits along the pairwise-coprime parts of the reduction mod p (Hensel),
    then reads each remaining block off its Newton polygon: squarefree
    residuals certify the side (Ore's theorem, one place of local degree
    d * deg r per irreducible residual factor r), and pure-slope quadratic
    blocks with repeated residuals are settled by the discriminant test.
    """
    degree = len(coeffs) - 1
    if degree == 1:
        v = _val_mod(coeffs[0], p)
        return None if v is None else [(Fraction(v), 1)]
    parts = _modp.mp_coprime_parts(coeffs, p)
    if len(parts) >= 2:
        out: list[tuple[Fraction, int]] = []
        for block in _modp.hensel_lift_many(coeffs, parts, p, n_digits):
            sub = _analyze_block(block, p, n_digits)
            if sub is None:
                return None
            out.extend(sub)
        return out
    # single prime-power reduction g^m
    if _modp.mp_is_squarefree(parts[0], p):
        return [(Fraction(0), degree)]  # irreducible reduction: unramified
    hull = _block_hull(coeffs, p)
    out = []
    irregular_sides = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(int(y1 - y2), x2 - x1)
        residual = _residual(coeffs, p, x1, int(y1), slope, x2 - x1)
        if _modp.mp_is_squarefree(residual, p):
            monic_res = _modp.mp_monic(residual, p)
            for r in _modp.mp_factor_squarefree(monic_res, p):
                out.append((slope, slope.denominator * _modp.mp_degree(r)))
        else:
            irregular_sides += 1
    if irregular_sides == 0:
        return out
    if degree == 2 and len(hull) == 2:
        return _quadratic_places(coeffs, p, n_digits)
    return None


def _shift_schedule(p: int) -> list[int]:
    shifts = [0]
    for k in (0, 1, 2, 3):
        base = p ** k
        for t in (1, 2, 3, 4):
            for s in (t * base, -t * base):
                if s not in shifts:
                    shifts.append(s)
    return shifts[:SHIFT_BUDGET]


def _match_degrees(
    degrees: list[int], slope_counts: dict[Fraction, int]
) -> list[tuple[Fraction, int]] | None:
    """Assign place degrees to original polygon slopes; None unless unique.

    Each place occupies `degree` equal-slope slots and its slope denominator
    must divide its degree.  Returns the unique resulting multiset of
    (slope, degree) pairs, or None when zero or several are consistent.
    """
    degrees = sorted(degrees, reverse=True)
    slopes = sorted(slope_counts)
    results: set[tuple[tuple[Fraction, int], ...]] = set()

    def walk(idx: int, remaining: dict[Fraction, int], acc: list[tuple[Fraction, int]]):
        if len(results) > 1:
            return
        if idx == len(degrees):
            results.add(tuple(sorted(acc)))
            return
        deg = degrees[idx]
        tried = set()
        for s in slopes:
            if s in tried:
                continue
            tried.add(s)
            if remaining[s] >= deg and deg % s.denominator == 0:
                remaining[s] -= deg
                acc.append((s, deg))
                walk(idx + 1, remaining, acc)
                acc.pop()
                remaining[s] += deg
        return

    walk(0, dict(slope_counts), [])
    if len(results) != 1:
        return None
    return list(results.pop())


def _discriminant_valuation(p_poly: RationalPolynomial, p: int) -> int:
    """ord_p of disc(P) = +-Res(P, P') for monic integral squarefree P.

    Summed along the remainder sequence: |lc B|^e A = Q B + k C with
    e = dA - dB + 1 and C primitive gives Res(B, A) = +-lc(B)^(dA - dC - e dB)
    k^dB Res(B, C).
    """
    a = [int(c) for c in p_poly.coeffs]
    b = [i * c for i, c in enumerate(a)][1:]
    v = 0
    while len(b) > 1:
        r = _modp.zx_pdivmod(a, b)[1]
        k = math.gcd(*r)
        c = [x // k for x in r]
        v += ((len(a) - len(c) - (len(a) - len(b) + 1) * (len(b) - 1)) * ord_int(b[-1], p)
              + (len(b) - 1) * ord_int(k, p))
        a, b = b, c
    return v + (len(a) - 1) * ord_int(b[0], p)


@lru_cache(maxsize=4096)
def _places_cached(p_poly: RationalPolynomial, q: PrimePower) -> tuple[PlaceData, ...]:
    p, a = q.p, q.a
    if p_poly.degree == 1:
        slope = Fraction(ord_frac(-p_poly.constant_term, p), a)
        return (PlaceData(slope=slope, local_degree=1, place_id=0),)

    coeffs = [int(c) for c in p_poly.coeffs]
    original_counts: dict[Fraction, int] = {}
    for s, m in _polygon_ord_p([Fraction(c) for c in coeffs], p):
        original_counts[s] = original_counts.get(s, 0) + m
    disc_val = _discriminant_valuation(p_poly, p)

    for shift in _shift_schedule(p):
        shifted = p_poly.shift(shift) if shift else p_poly
        n_digits = disc_val + ord_int(int(shifted.constant_term), p) + 8
        modulus = p ** n_digits
        attempt = _analyze_block(
            [int(c) % modulus for c in shifted.coeffs], p, n_digits
        )
        if attempt is None:
            continue
        if shift == 0:
            places_p = attempt
        else:
            matched = _match_degrees([d for _, d in attempt], original_counts)
            if matched is None:
                continue
            places_p = matched
        places = sorted((s / a, d) for s, d in places_p)
        return tuple(
            PlaceData(slope=s, local_degree=d, place_id=i)
            for i, (s, d) in enumerate(places)
        )
    raise PrecisionExhausted(
        f"could not certify the place decomposition of {p_poly} at p = {p}"
    )


def padic_places(p_poly: RationalPolynomial, q: PrimePower) -> list[PlaceData]:
    """Places v | p of the field cut out by an irreducible integer polynomial.

    Returns one PlaceData per Q_p-irreducible factor, slopes normalized so
    ord(q) = 1, place ids stable under (slope, local_degree) ordering.
    Blocks that stay entangled past the certified analysis (Hensel splitting
    by coprime reductions, per-side residuals, quadratic discriminants, and
    the shift schedule) raise PrecisionExhausted: failures surface, nothing
    is approximated.
    """
    if not p_poly.is_monic:
        raise NotMonic("padic_places requires a monic polynomial")
    if p_poly.constant_term == 0:
        raise ZeroConstantTerm("P(0) = 0 has no place decomposition")
    if not p_poly.is_integral():
        raise RangeError("padic_places requires integer coefficients")
    if p_poly.degree != 1 and not is_irreducible(p_poly):
        raise NotIrreducible(f"{p_poly} is not irreducible over Q")
    return list(_places_cached(p_poly, q))
