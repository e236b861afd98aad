"""p-adic valuations, Newton polygons normalized to ord(q) = 1, and places.

``padic_places`` decomposes an irreducible integer polynomial into its
p-adic places (slope, local degree) by the Okutsu-Montes (OM) algorithm:
Newton polygons of higher order, built on MacLane's inductive valuations.
Order 1 is Ore's first-order analysis (one side per slope, a residual
polynomial over F_p per side); a residual factor that is repeated opens a
further order with a new key polynomial and a residual polynomial over a
larger residue field F_(p^k).  Every side is read off an exact phi-adic
expansion in Z[x], so there is no working precision, and on every
irreducible input the analysis ends with one (slope, e * f) per
Q_p-irreducible factor.  Each answer is cached per (polynomial, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _modp
from .errors import (
    NotIrreducible,
    NotMonic,
    RangeError,
    ZeroConstantTerm,
    ZeroInput,
)
from .exact_arith import is_irreducible
from .poly import RationalPolynomial
from .primes import PrimePower

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
# Montes' algorithm (Guardia, Montes & Nart, Trans. AMS 364, 2012), written
# with MacLane's inductive valuations (Trans. AMS 40, 1936).  A chain
# mu_0 < mu_1 < ... < mu_i starts at the Gauss valuation mu_0 and augments
# mu_l = [mu_(l-1); phi_l, lam_l] with monic key polynomials phi_l in Z[x]:
# for g = sum a_j phi_l^j (deg a_j < deg phi_l), mu_l(g) = min mu_(l-1)(a_j)
# + j lam_l.  Values lie in (1/E_l) Z, E_l = e_1 ... e_l.  The residue field
# kappa_(l+1) = kappa_l[Y]/psi_l of mu_l is an absolute F_p[t]/(m), and every
# residue is taken after dividing by a standard monomial p^n0 phi_1^n1 ...
# phi_l^nl (0 <= n_k < e_k for k >= 1) of the same value, so residues,
# residual polynomials and lifts are exact and mutually consistent.
#
# Each side of slope -lam of the phi-polygon of f (points (j, mu_i(a_j)),
# lam above the branch's threshold) carries a residual polynomial over
# kappa_(i+1).  An irreducible factor psi of multiplicity 1 is one place of
# local degree deg(phi) * e * deg(psi); a repeated factor either refines phi
# at the same order (e = deg psi = 1) or opens order i + 2 with a key
# polynomial whose residual polynomial is psi.  Every step works on exact
# phi-adic expansions in Z[x], so no precision bound is needed, and on a
# separable f the branches end.


@dataclass(frozen=True)
class _Level:
    """mu_i = [mu_(i-1); phi, lam] (i >= 1) or mu_0 (i = 0), with kappa_(i+1).

    ``field`` is kappa_(i+1) = kappa_i[Y]/psi_i; ``embed`` is the image there of
    kappa_i's generator t and ``z`` the class of Y (psi_i of degree ``f``).
    ``coords`` (when f > 1) is the inverse of the F_p-basis matrix of the
    elements embed^a z^b, so it gives an element's coordinates over kappa_i.
    ``step`` is the standard monomial of e * lam in mu_(i-1).
    """

    phi: tuple[int, ...]
    lam: Fraction
    e: int
    big_e: int
    field: _modp.FiniteField
    embed: list[int]
    z: list[int]
    f: int
    coords: list[list[int]] | None
    step: tuple[int, ...]


def _expand(g: list[int], phi) -> list[list[int]]:
    """The phi-adic digits of g (deg < deg phi), by division by the monic phi."""
    digits, phi = [], list(phi)
    while len(g) >= len(phi):
        g, r = _modp.zx_pdivmod(g, phi)
        digits.append(r)
    digits.append(g)
    return digits


def _zx_add(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    return _modp.trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                       for i in range(n)])


def _zx_pow(f, e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _modp.zx_mul(out, list(f))
    return out


def _mu(chain, i: int, a: list[int]) -> Fraction:
    """mu_i(a) for nonzero a in Z[x]."""
    if i == 0:
        return Fraction(min(ord_int(c, chain[0].field.p) for c in a if c))
    level = chain[i]
    return min(_mu(chain, i - 1, b) + j * level.lam
               for j, b in enumerate(_expand(a, level.phi)) if b)


def _beta(gamma: Fraction, lam: Fraction, e: int, big_e: int) -> int:
    """The 0 <= beta < e with gamma - beta * lam in (1/big_e) Z."""
    if e == 1:
        return 0
    g, h = int(gamma * big_e * e), int(lam * big_e * e)
    return g * pow(h, -1, e) % e


def _monomial(chain, i: int, gamma: Fraction) -> tuple[int, ...]:
    """Exponents (n_0, ..., n_i) of the standard monomial of value gamma in mu_i."""
    if i == 0:
        return (int(gamma),)
    level = chain[i]
    beta = _beta(gamma, level.lam, level.e, chain[i - 1].big_e)
    return _monomial(chain, i - 1, gamma - beta * level.lam) + (beta,)


def _shifted(exps, m: int, step, base) -> tuple[int, ...]:
    return tuple(x + m * s - b for x, s, b in zip(exps, step, base))


def _horner(field: _modp.FiniteField, c: list[int], x: list[int]) -> list[int]:
    """c(x) in field, for c a polynomial over F_p."""
    out: list[int] = []
    for a in reversed(c):
        out = field.add(field.mul(out, x), [a])
    return out


def _embed(level: _Level, c: list[int]) -> list[int]:
    """The image in kappa_(i+1) of c in kappa_i."""
    return c if level.f == 1 else _horner(level.field, c, level.embed)


def _unit(chain, i: int, exps) -> list[int]:
    """Residue in kappa_(i+1) of the value-0 monomial with exponents exps."""
    if i == 0:
        return [1]
    level = chain[i]
    k = exps[i] // level.e
    prev = tuple(x + k * s for x, s in zip(exps[:i], level.step))
    return level.field.mul(_embed(level, _unit(chain, i - 1, prev)), level.field.pow(level.z, k))


def _residual(chain, i: int, digits, values, lam: Fraction, e: int) -> list[list[int]]:
    """Residue over kappa_(i+1) of g / M(gamma) in [mu_i; phi, lam], as a list in Y.

    g = sum digits[j] phi^j with mu_i(digits[j]) = values[j]; gamma is the
    augmented value of g and M(gamma) its standard monomial.
    """
    gamma = min(u + j * lam for j, u in enumerate(values) if u is not None)
    beta = _beta(gamma, lam, e, chain[i].big_e)
    base = _monomial(chain, i, gamma - beta * lam)
    step = _monomial(chain, i, e * lam)
    field = chain[i].field
    out: list[list[int]] = []
    for j, u in enumerate(values):
        if u is None or u + j * lam != gamma:
            continue
        m = (j - beta) // e
        unit = _unit(chain, i, _shifted(_monomial(chain, i, u), m, step, base))
        out.extend([] for _ in range(m + 1 - len(out)))
        out[m] = field.mul(_red(chain, i, digits[j]), unit)
    return out


def _red(chain, i: int, a: list[int]) -> list[int]:
    """Residue in kappa_(i+1) of a / M(mu_i(a)), for nonzero a of degree < deg phi_(i+1)."""
    if i == 0:
        p = chain[0].field.p
        v = min(ord_int(c, p) for c in a if c)
        return _modp.mp_reduce([c // p ** v for c in a], p)
    level = chain[i]
    digits = _expand(a, level.phi)
    values = [_mu(chain, i - 1, b) if b else None for b in digits]
    out: list[int] = []
    for c in reversed(_residual(chain, i - 1, digits, values, level.lam, level.e)):
        out = level.field.add(level.field.mul(out, level.z), _embed(level, c))
    return out


def _lift(chain, i: int, delta: Fraction, zeta: list[int]) -> list[int]:
    """a in Z[x] of degree < deg phi_(i+1) with mu_i(a) = delta and residue zeta."""
    if i == 0:
        return [c * chain[0].field.p ** int(delta) for c in zeta]
    level = chain[i]
    beta = _beta(delta, level.lam, level.e, chain[i - 1].big_e)
    base = _monomial(chain, i - 1, delta - beta * level.lam)
    below = chain[i - 1].field
    if level.coords is None:
        parts = [zeta]
    else:
        n, k = len(level.coords), below.degree
        vec = zeta + [0] * (n - len(zeta))
        flat = [sum(r * x for r, x in zip(row, vec)) % below.p for row in level.coords]
        parts = [_modp.trim(flat[b * k:(b + 1) * k]) for b in range(level.f)]
    out: list[int] = []
    for m, c in enumerate(parts):
        if not c:
            continue
        u = delta - (beta + level.e * m) * level.lam
        unit = _unit(chain, i - 1, _shifted(_monomial(chain, i - 1, u), m, level.step, base))
        digit = _lift(chain, i - 1, u, below.mul(c, below.inv(unit)))
        out = _zx_add(out, _modp.zx_mul(digit, _zx_pow(level.phi, beta + level.e * m)))
    return out


def _key_polynomial(chain, i: int, phi, lam: Fraction, e: int, psi) -> list[int]:
    """Monic phi' = sum A_m phi^(e m) whose residual polynomial in [mu_i; phi, lam] is c * psi."""
    field = chain[i].field
    top = len(psi) - 1
    step = _monomial(chain, i, e * lam)
    base = _monomial(chain, i, top * e * lam)

    def tau(m: int) -> list[int]:
        return _unit(chain, i, _shifted(_monomial(chain, i, (top - m) * e * lam), m, step, base))

    lead = tau(top)
    out = _zx_pow(phi, e * top)
    for m in range(top):
        if psi[m]:
            target = field.mul(field.mul(lead, psi[m]), field.inv(tau(m)))
            digit = _lift(chain, i, (top - m) * e * lam, target)
            out = _zx_add(out, _modp.zx_mul(digit, _zx_pow(phi, e * m)))
    return out


def _root(field: _modp.FiniteField, poly_over: list[list[int]]) -> list[int]:
    """One root in field of a polynomial over it that has one."""
    linear = next(g for g, _ in field.factor(poly_over) if len(g) == 2)
    return field.sub([], linear[0])


def _augment(chain, i: int, phi, lam: Fraction, e: int, psi) -> _Level:
    """Level i + 1 = [mu_i; phi, lam] with kappa_(i+2) = kappa_(i+1)[Y]/psi."""
    below, f = chain[i].field, len(psi) - 1
    step = _monomial(chain, i, e * lam)
    if f == 1:
        return _Level(tuple(phi), lam, e, chain[i].big_e * e, below, [0, 1],
                      below.sub([], psi[0]), 1, None, step)
    field = _modp.FiniteField(below.p, _modp.mp_irreducible(below.degree * f, below.p))
    embed = _root(field, [[c] if c else [] for c in below.modulus])
    z = _root(field, [_horner(field, c, embed) for c in psi])
    n = field.degree
    columns = []
    for b in range(f):
        zb = field.pow(z, b)
        for a in range(below.degree):
            col = field.mul(field.pow(embed, a), zb)
            columns.append(col + [0] * (n - len(col)))
    rows = [[columns[c][r] for c in range(n)] for r in range(n)]
    return _Level(tuple(phi), lam, e, chain[i].big_e * e, field, embed, z, f,
                  _modp.mp_matrix_inverse(rows, below.p), step)


def _branch(f: list[int], chain, phi, lower: Fraction, slope, out: list) -> None:
    """Places of f whose roots theta have v(phi(theta)) > lower, for phi of order len(chain)."""
    i = len(chain) - 1
    digits = _expand(f, phi)
    values = [_mu(chain, i, a) if a else None for a in digits]
    hull = _lower_hull([(j, u) for j, u in enumerate(values) if u is not None])
    field = chain[i].field
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        lam = (y1 - y2) / (x2 - x1)
        if lam <= lower:
            break
        e = (lam * chain[i].big_e).denominator
        residual = _residual(chain, i, digits, values, lam, e)
        residual = residual[next(k for k, c in enumerate(residual) if c):]
        root_slope = lam if slope is None else slope
        for psi, mult in field.factor(residual):
            if mult == 1:
                out.append((root_slope, (len(phi) - 1) * e * (len(psi) - 1)))
            elif e == 1 and len(psi) == 2:
                refined = _key_polynomial(chain, i, phi, lam, 1, psi)
                _branch(f, chain, refined, lam, root_slope, out)
            else:
                level = _augment(chain, i, phi, lam, e, psi)
                key = _key_polynomial(chain, i, phi, lam, e, psi)
                _branch(f, chain + (level,), key, e * (len(psi) - 1) * lam, root_slope, out)


def _analyze_block(coeffs: list[int], p: int) -> list[tuple[Fraction, int]]:
    """(root valuation in ord_p units, local degree) of each place of monic squarefree f.

    One order-1 analysis per irreducible factor psi_0 of f mod p: a simple
    factor is one unramified place, a repeated one is followed through the
    phi-polygons of its branch.  The root valuation is the order-1 slope on
    phi = x and 0 for psi_0 != x; higher orders refine e and f only.
    """
    out: list[tuple[Fraction, int]] = []
    for psi0, mult in _modp.mp_factor(coeffs, p):
        on_x = psi0 == [0, 1]
        if mult == 1:
            out.append((Fraction(ord_int(coeffs[0], p)) if on_x else Fraction(0), len(psi0) - 1))
            continue
        root = _Level((), Fraction(0), 1, 1, _modp.FiniteField(p, psi0), [], [], 1, None, ())
        _branch(coeffs, (root,), psi0, Fraction(0), None if on_x else Fraction(0), out)
    return sorted(out)


@lru_cache(maxsize=4096)
def _places_cached(p_poly: RationalPolynomial, q: PrimePower) -> tuple[PlaceData, ...]:
    if p_poly.degree == 1:
        slope = Fraction(ord_frac(-p_poly.constant_term, q.p), q.a)
        return (PlaceData(slope=slope, local_degree=1, place_id=0),)
    if not is_irreducible(p_poly):
        raise NotIrreducible(f"{p_poly} is not irreducible over Q")
    places = [(s / q.a, d) for s, d in _analyze_block([int(c) for c in p_poly.coeffs], q.p)]
    return tuple(
        PlaceData(slope=s, local_degree=d, place_id=i) for i, (s, d) in enumerate(places)
    )


def padic_places(p_poly: RationalPolynomial, q: PrimePower) -> list[PlaceData]:
    """Places v | p of the field cut out by an irreducible integer polynomial.

    Returns one PlaceData per Q_p-irreducible factor, slopes normalized so
    ord(q) = 1, place ids stable under (slope, local_degree) ordering.  The
    decomposition comes from Montes' higher-order Newton polygons and is
    exact on every irreducible input; it is computed once per (P, q) and
    cached (``lru_cache``, 4096 entries), together with the irreducibility
    check, so only a reducible input (NotIrreducible) is examined again.
    """
    if not p_poly.is_monic:
        raise NotMonic("padic_places requires a monic polynomial")
    if p_poly.constant_term == 0:
        raise ZeroConstantTerm("P(0) = 0 has no place decomposition")
    if not p_poly.is_integral():
        raise RangeError("padic_places requires integer coefficients")
    return list(_places_cached(p_poly, q))
