"""Exact rational polynomial kernel.

Factorization over Q (squarefree decomposition + Zassenhaus), Sturm-sequence
real root counting, polynomial CRT, L-polynomial/charpoly reciprocal
transforms, and tensor/exterior characteristic polynomials via exact
companion-matrix linear algebra.

All functions are pure and all values immutable; everything here is safe to
share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import _modp
from ._linalg import charpoly, companion, compound, kron
from .errors import (
    BadConstantTerm,
    DegreeHintMismatch,
    DimensionTooLarge,
    KTooLarge,
    NotCoprime,
    NotMonic,
    NotSquarefree,
    RangeError,
    ZeroPolynomial,
)
from .poly import RationalPolynomial
from .primes import is_prime

MAX_COMPANION_DIM = 4096

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity) with monic irreducible rational factors."""

    unit: Fraction
    factors: tuple[tuple[RationalPolynomial, int], ...]

    def expand(self) -> RationalPolynomial:
        out = RationalPolynomial.constant(self.unit)
        for f, m in self.factors:
            out = out * f ** m
        return out

    def __iter__(self):
        return iter(self.factors)


# ------------------------------------------------------------- factorization

def _odd_primes():
    yield from _SMALL_PRIMES
    n = _SMALL_PRIMES[-1] + 2
    while True:
        if is_prime(n):
            yield n
        n += 2


def _primitive_int(p: RationalPolynomial) -> list[int]:
    """Primitive integer coefficients with positive leading coefficient."""
    _, prim = p.content_and_primitive()
    return prim


def _int_poly(coeffs: list[int]) -> RationalPolynomial:
    return RationalPolynomial(coeffs)


def _divides_int(g: list[int], f: list[int]) -> bool:
    """Does g divide f in Z[x]?  (g monic or primitive; exact check over Q.)"""
    if g and f and g[0] != 0 and f[0] % g[0] != 0:
        return False
    return _int_poly(g).divides(_int_poly(f))


def _factor_monic_squarefree_int(g: list[int]) -> list[list[int]]:
    """Zassenhaus: irreducible factors of a monic squarefree integer polynomial.

    Factor mod a good prime, Hensel lift past the Mignotte bound, then search
    subsets of the lifted modular factors for true integer factors.
    """
    d = len(g) - 1
    if d <= 1:
        return [list(g)]

    best = None
    tried = 0
    for p in _odd_primes():
        if g[-1] % p == 0:
            continue
        gp = _modp.mp_reduce(g, p)
        if _modp.mp_degree(gp) != d or not _modp.mp_is_squarefree(gp, p):
            continue
        mod_factors = _modp.mp_factor_squarefree(_modp.mp_monic(gp, p), p)
        if best is None or len(mod_factors) < len(best[1]):
            best = (p, mod_factors)
        tried += 1
        if tried >= 4 or len(mod_factors) == 1:
            break
    p, mod_factors = best
    if len(mod_factors) == 1:
        return [list(g)]

    norm2 = math.isqrt(sum(c * c for c in g)) + 1
    limit = 2 * (2 ** d) * norm2
    k = 1
    while p ** k <= 2 * limit:
        k += 1
    modulus = p ** k
    lifted = _modp.hensel_lift_many(g, mod_factors, p, k)

    pool = list(range(len(lifted)))
    remaining = list(g)
    out: list[list[int]] = []
    size = 1
    while 2 * size <= len(pool):
        found = False
        for subset in combinations(pool, size):
            prod = [1]
            for idx in subset:
                prod = _modp.mp_mul(prod, lifted[idx], modulus)
            cand = _modp.symmetric(prod, modulus)
            if not _divides_int(cand, remaining):
                continue
            out.append(cand)
            remaining = _primitive_int(_int_poly(remaining) // _int_poly(cand))
            pool = [i for i in pool if i not in subset]
            found = True
            break
        if not found:
            size += 1
    if len(remaining) - 1 > 0:
        out.append(remaining)
    return out


def _factor_squarefree_int(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial."""
    d = len(f) - 1
    if d <= 1:
        return [list(f)]
    lc = f[-1]
    if lc == 1:
        return _factor_monic_squarefree_int(f)
    # Associate monic polynomial lc^(d-1) * f(x / lc), then map factors back.
    g = [f[i] * lc ** (d - 1 - i) for i in range(d)] + [1]
    out = []
    for gf in _factor_monic_squarefree_int(g):
        h = [gf[i] * lc ** i for i in range(len(gf))]
        out.append(_primitive_int(_int_poly(h)))
    return out


def _yun_squarefree(p: RationalPolynomial) -> list[tuple[RationalPolynomial, int]]:
    """Yun's squarefree decomposition of a monic polynomial over Q."""
    out = []
    g = p.gcd(p.derivative())
    w = (p // g).monic()
    i = 1
    while not w.is_constant:
        y = w.gcd(g)
        z = (w // y).monic()
        if z.degree > 0:
            out.append((z, i))
        w = y
        g = (g // y).monic()
        i += 1
    return out


@lru_cache(maxsize=4096)
def factor_rational_poly(p: RationalPolynomial) -> Factorization:
    """Factor a nonzero rational polynomial into monic irreducibles over Q.

    The returned unit is the leading coefficient of the input; factors are
    sorted by (degree, then ascending coefficient list) so the output order
    is deterministic across runs.  Results are cached (everything here is
    immutable, so sharing is safe).
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = p.leading
    if p.is_constant:
        return Factorization(unit=unit, factors=())
    work = p.monic()
    factors: list[tuple[RationalPolynomial, int]] = []
    for part, mult in _yun_squarefree(work):
        prim = _primitive_int(part)
        for irr in _factor_squarefree_int(prim):
            factors.append((_int_poly(irr).monic(), mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    return Factorization(unit=unit, factors=tuple(factors))


def is_irreducible(p: RationalPolynomial) -> bool:
    """True iff p is irreducible over Q (up to a unit)."""
    if p.is_zero or p.is_constant:
        return False
    fac = factor_rational_poly(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1


# ------------------------------------------------------------ Sturm sequences

def _strip_content(p: RationalPolynomial) -> RationalPolynomial:
    """Divide by the positive content: integer coefficients, gcd 1, sign kept."""
    content, prim = p.content_and_primitive()
    if content < 0:
        return RationalPolynomial([-c for c in prim])
    return RationalPolynomial(prim)


def _sturm_chain(p: RationalPolynomial) -> list[RationalPolynomial]:
    chain = [_strip_content(p), _strip_content(p.derivative())]
    while not chain[-1].is_zero:
        rem = chain[-2] % chain[-1]
        if rem.is_zero:
            break
        chain.append(_strip_content(-rem))
    return chain


def _sign_at(p: RationalPolynomial, x: Fraction) -> int:
    v = p(x)
    return (v > 0) - (v < 0)


def _sign_at_inf(p: RationalPolynomial, positive: bool) -> int:
    if p.is_zero:
        return 0
    s = (p.leading > 0) - (p.leading < 0)
    if not positive and p.degree % 2 == 1:
        s = -s
    return s


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _variations_at(chain: list[RationalPolynomial], x, positive: bool) -> int:
    """Sign variations of a Sturm chain at rational x, or at +-inf when x is None."""
    if x is None:
        return _variations([_sign_at_inf(q, positive) for q in chain])
    return _variations([_sign_at(q, Fraction(x)) for q in chain])


def sturm_count(p: RationalPolynomial, lo=None, hi=None) -> int:
    """Exact number of distinct real roots of squarefree p in (lo, hi].

    ``lo``/``hi`` are rationals or None for -infinity/+infinity.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm count of the zero polynomial")
    if p.is_constant:
        return 0
    if not p.gcd(p.derivative()).is_constant:
        raise NotSquarefree("gcd(P, P') is nonconstant")
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise RangeError("empty interval: lo must be < hi")
    chain = _sturm_chain(p)
    return _variations_at(chain, lo, False) - _variations_at(chain, hi, True)


def sturm_variations(p: RationalPolynomial, points) -> tuple[int, ...]:
    """Variations of one Sturm chain at -inf, each point, +inf (see sturm_count).

    p must be squarefree and nonconstant; unlike sturm_count it is not re-checked.
    """
    chain = _sturm_chain(p)
    return (
        _variations_at(chain, None, False),
        *(_variations_at(chain, x, False) for x in points),
        _variations_at(chain, None, True),
    )


# ----------------------------------------------------------------------- CRT

def crt_polynomials(
    pairs: list[tuple[RationalPolynomial, RationalPolynomial]],
) -> RationalPolynomial:
    """Unique R with R = residue_k (mod modulus_k), deg R < sum deg modulus_k.

    Moduli must be nonconstant and pairwise coprime; a shared factor raises
    NotCoprime naming the offending pair.
    """
    if not pairs:
        return RationalPolynomial.zero()
    for idx, (_, m) in enumerate(pairs):
        if m.degree < 1:
            raise RangeError(f"modulus #{idx} is constant")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            g = pairs[i][1].gcd(pairs[j][1])
            if not g.is_constant:
                raise NotCoprime(
                    f"moduli #{i} and #{j} share the factor {g}", pair=(i, j)
                )
    r, m = pairs[0][0] % pairs[0][1], pairs[0][1]
    for res_k, mod_k in pairs[1:]:
        _, u, _ = m.xgcd(mod_k)
        t = (u * (res_k - r)) % mod_k
        r = r + m * t
        m = m * mod_k
    return r % m


# ------------------------------------------------------ reciprocal transform

def reciprocal_transform(
    l_poly: RationalPolynomial, degree_hint: int | None = None
) -> RationalPolynomial:
    """Convert det(1 - FT)-style L(T) with L(0) = 1 into the monic T^d L(1/T).

    The roots of the result are the reciprocal roots of L (the Frobenius
    eigenvalues).  degree_hint, when given, must equal deg L: padding with
    zero eigenvalues is not a thing Frobenius does.
    """
    if l_poly.constant_term != 1:
        raise BadConstantTerm(f"L(0) = {l_poly.constant_term}, expected 1")
    if degree_hint is not None and degree_hint != l_poly.degree:
        raise DegreeHintMismatch(
            f"degree_hint {degree_hint} != deg L = {l_poly.degree}"
        )
    return l_poly.reversed_coeffs()


def to_l_polynomial(c: RationalPolynomial) -> RationalPolynomial:
    """Inverse boundary conversion: monic charpoly -> L-convention."""
    if not c.is_monic:
        raise NotMonic("charpoly must be monic")
    return c.reversed_coeffs()


# --------------------------------------------- tensor / exterior charpolys

def _require_monic_nonconstant(p: RationalPolynomial, name: str):
    if not p.is_monic or p.degree < 1:
        raise NotMonic(f"{name} must be monic and nonconstant")


def tensor_charpoly(
    p: RationalPolynomial, q: RationalPolynomial
) -> RationalPolynomial:
    """Monic polynomial whose roots are the pairwise products of roots.

    Computed exactly as the characteristic polynomial of the Kronecker
    product of the companion matrices.  Linear operands short-circuit to a
    root rescaling, which keeps zeta-function Kunneth products fast.
    """
    _require_monic_nonconstant(p, "P")
    _require_monic_nonconstant(q, "Q")
    dim = p.degree * q.degree
    if dim > MAX_COMPANION_DIM:
        raise DimensionTooLarge(f"tensor dimension {dim} > {MAX_COMPANION_DIM}")
    if p.degree == 1:
        a = -p.constant_term
        return _scale_roots_or_zero(q, a)
    if q.degree == 1:
        b = -q.constant_term
        return _scale_roots_or_zero(p, b)
    return charpoly(kron(companion(p), companion(q)))


def _scale_roots_or_zero(p: RationalPolynomial, s: Fraction) -> RationalPolynomial:
    if s == 0:
        return RationalPolynomial.monomial(p.degree)
    return p.scale_roots(s)


def exterior_charpoly(p: RationalPolynomial, k: int) -> RationalPolynomial:
    """Monic polynomial whose roots are products of k distinct-index roots.

    Characteristic polynomial of the k-th compound of the companion matrix.
    """
    _require_monic_nonconstant(p, "P")
    if k < 1:
        raise RangeError("exterior power index must be >= 1")
    if k > p.degree:
        raise KTooLarge(f"k = {k} > deg P = {p.degree}")
    dim = math.comb(p.degree, k)
    if dim > MAX_COMPANION_DIM:
        raise DimensionTooLarge(f"exterior dimension {dim} > {MAX_COMPANION_DIM}")
    return charpoly(compound(companion(p), k))


def root_multiplicity(p: RationalPolynomial, value) -> int:
    """Multiplicity of ``value`` as a root of p (0 if not a root)."""
    if p.is_zero:
        raise ZeroPolynomial("root multiplicity in the zero polynomial")
    value = Fraction(value)
    linear = RationalPolynomial((-value, 1))
    count = 0
    while p(value) == 0 and p.degree >= 1:
        p = p // linear
        count += 1
    return count

