"""Exact rational polynomial kernel.

Factorization over Q (squarefree decomposition + Zassenhaus), real root
counting on integer Sturm chains (``_modp.zx_prs``), polynomial CRT by p-adic
lifting (cofactor inverses modulo a word-size prime, Newton-lifted and
rationally reconstructed; von zur Gathen & Gerhard, Modern Computer Algebra,
9.1 and 5.10), L-polynomial/charpoly reciprocal transforms, and
tensor/exterior characteristic polynomials from exact power sums of roots
(Newton's identities).  Gcds and trial divisions run on integer lists too.

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
from ._linalg import charpoly, power_sums
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
from .poly import RationalPolynomial, poly_product
from .primes import is_prime

MAX_CHARPOLY_DEGREE = 4096

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
            if cand[0] and remaining[0] % cand[0]:
                continue
            quo, rem = _modp.zx_pdivmod(remaining, cand)
            if rem:
                continue
            out.append(cand)
            remaining = quo
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
        out.append(_modp.zx_primitive(h))
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
        _, prim = part.content_and_primitive()
        for irr in _factor_squarefree_int(prim):
            factors.append((RationalPolynomial(irr).monic(), mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    return Factorization(unit=unit, factors=tuple(factors))


def is_irreducible(p: RationalPolynomial) -> bool:
    """True iff p is irreducible over Q (up to a unit)."""
    if p.is_zero or p.is_constant:
        return False
    fac = factor_rational_poly(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1


# ------------------------------------------------------------ Sturm sequences

def _sturm_chain(p: RationalPolynomial) -> list[list[int]]:
    """Integer Sturm chain of p's primitive multiple, which has the same variations."""
    _, a = p.content_and_primitive()
    return _modp.zx_prs(a, _modp.zx_primitive([i * c for i, c in enumerate(a)][1:]))


def _sign_at(q: list[int], x: Fraction) -> int:
    """Sign of q(n/d), d > 0: the sign of the integer sum of c_i n^i d^(deg - i)."""
    n, d, k = x.numerator, x.denominator, len(q) - 1
    v = sum(c * n ** i * d ** (k - i) for i, c in enumerate(q))
    return (v > 0) - (v < 0)


def _sign_at_inf(q: list[int], positive: bool) -> int:
    if not q:
        return 0
    s = 1 if q[-1] > 0 else -1
    if not positive and len(q) % 2 == 0:
        s = -s
    return s


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _variations_at(chain: list[list[int]], x, positive: bool) -> int:
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
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        raise NotSquarefree("gcd(P, P') is nonconstant")
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise RangeError("empty interval: lo must be < hi")
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

def _lifting_primes():
    """Primes below 2^31, descending: the word-size primes crt_basis lifts from."""
    n = 2 ** 31 - 1
    while True:
        if is_prime(n):
            yield n
        n -= 2


def _reconstruct(u: list[int], n: int) -> tuple[list[int], int] | None:
    """(U, L) with U / L = u (mod n) coefficientwise, or None.

    The coefficients of an inverse share most of their denominator, so each
    one is reconstructed after multiplying by the denominator L found so far.
    """
    bound = math.isqrt(n // 2)
    nums: list[int] = []
    den = 1
    for c in u:
        frac = _modp.rational_reconstruction(c * den, n)
        if frac is None:
            return None
        s, t = frac
        den *= t
        if den > bound:
            return None
        nums = [x * t for x in nums] + [s]
    return nums, den


def _raise_shared_pair(moduli: list[RationalPolynomial]) -> None:
    """Raise NotCoprime naming the lexicographically first pair with a common factor."""
    for i, j in combinations(range(len(moduli)), 2):
        g = moduli[i].gcd(moduli[j])
        if not g.is_constant:
            raise NotCoprime(f"moduli #{i} and #{j} share the factor {g}", pair=(i, j))


def _inverse_by_lifting(
    a: list[int], m: list[int], moduli: list[RationalPolynomial]
) -> tuple[list[int], int]:
    """(U, L) with a * U = L (mod m) over Q, for integer a and primitive m.

    The inverse mod a word-size prime p is Newton-lifted to mod p^(2^i) until
    every coefficient rationally reconstructs and a * U = L (mod m) holds
    exactly.  A prime dividing lc(m) is skipped; one where gcd(a, m) mod p is
    nonconstant is skipped unless two moduli share a factor over Q.
    """
    for p in _lifting_primes():
        if m[-1] % p == 0:
            continue
        g, u, _ = _modp.mp_xgcd(a, m, p)
        if len(g) != 1:
            _raise_shared_pair(moduli)
            continue
        n = p
        while True:
            u = _modp.inverse_step(a, m, u, n)
            n *= n
            frac = _reconstruct(u, n)
            if frac is None:
                continue
            numer, den = frac
            check = _modp.zx_mul(a, numer)
            check[0] -= den
            if not _modp.zx_pdivmod(_modp.trim(check), m)[1]:
                return numer, den


def crt_basis(moduli: list[RationalPolynomial]) -> list[RationalPolynomial]:
    """CRT idempotents: E_k = delta_kj (mod m_j), deg E_k < sum deg m_j.

    E_k = c_k * u_k with cofactor c_k = prod_{j != k} m_j and
    u_k = c_k^-1 (mod m_k) (von zur Gathen & Gerhard, Modern Computer Algebra,
    5.4).  Everything runs on the primitive integer forms of the moduli: the
    cofactors come from prefix and suffix products, and the pseudo-remainder
    lc^e * c_k = g * a_k (mod m_k), with a_k primitive, is inverted modulo a
    word-size prime p, Newton-lifted to mod p^(2^i) (MCA 9.1) and rationally
    reconstructed (MCA 5.10) until an exact check in Z[x] certifies
    a_k * U = L (mod m_k).  Then E_k = c_k * U * lc^e / (g * L), the only
    rational step.  Euclid runs only to name a shared factor, when c_k = 0
    (mod m_k) or gcd(a_k, m_k) mod p is nonconstant.  Moduli must be
    nonconstant and pairwise coprime; a shared factor raises NotCoprime
    naming the lexicographically first offending pair.
    """
    for idx, m in enumerate(moduli):
        if m.degree < 1:
            raise RangeError(f"modulus #{idx} is constant")
    prims = [m.content_and_primitive()[1] for m in moduli]
    prefix, suffix = [[1]], [[1]]
    for m, n in zip(prims[:-1], reversed(prims[1:])):
        prefix.append(_modp.zx_mul(prefix[-1], m))
        suffix.append(_modp.zx_mul(suffix[-1], n))
    basis = []
    for m, before, after in zip(prims, prefix, reversed(suffix)):
        c = _modp.zx_mul(before, after)
        rem = _modp.zx_pdivmod(c, m)[1]
        if not rem:
            _raise_shared_pair(moduli)
        g = math.gcd(*rem)
        numer, den = _inverse_by_lifting([x // g for x in rem], m, moduli)
        scale = Fraction(m[-1] ** max(len(c) - len(m) + 1, 0), g * den)
        basis.append(RationalPolynomial(x * scale for x in _modp.zx_mul(c, numer)))
    return basis


def crt_polynomials(
    pairs: list[tuple[RationalPolynomial, RationalPolynomial]],
) -> RationalPolynomial:
    """Unique R with R = residue_k (mod modulus_k), deg R < sum deg modulus_k.

    R = sum residue_k * E_k (mod prod modulus_k) over the crt_basis E_k, which
    carries its checks and errors.
    """
    moduli = [m for _, m in pairs]
    total = RationalPolynomial.zero()
    for (r, _), e in zip(pairs, crt_basis(moduli)):
        total = total + r * e
    return total % poly_product(moduli)


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

    The j-th power sum of the products is s_j(P) * s_j(Q), and the charpoly
    is read off those by Newton's identities.  Linear operands short-circuit
    to a root rescaling, which keeps zeta-function Kunneth products fast.
    """
    _require_monic_nonconstant(p, "P")
    _require_monic_nonconstant(q, "Q")
    dim = p.degree * q.degree
    if dim > MAX_CHARPOLY_DEGREE:
        raise DimensionTooLarge(f"tensor dimension {dim} > {MAX_CHARPOLY_DEGREE}")
    if p.degree == 1:
        a = -p.constant_term
        return _scale_roots_or_zero(q, a)
    if q.degree == 1:
        b = -q.constant_term
        return _scale_roots_or_zero(p, b)
    return charpoly([a * b for a, b in zip(power_sums(p, dim), power_sums(q, dim))])


def _scale_roots_or_zero(p: RationalPolynomial, s: Fraction) -> RationalPolynomial:
    if s == 0:
        return RationalPolynomial.monomial(p.degree)
    return p.scale_roots(s)


def exterior_charpoly(p: RationalPolynomial, k: int) -> RationalPolynomial:
    """Monic polynomial whose roots are products of k distinct-index roots.

    The j-th power sum of those products is e_k(alpha^j), the k-th elementary
    symmetric function of the j-th powers of the roots alpha; the power sums
    of the alpha^j are s_j, s_2j, ..., s_kj.
    """
    _require_monic_nonconstant(p, "P")
    if k < 1:
        raise RangeError("exterior power index must be >= 1")
    if k > p.degree:
        raise KTooLarge(f"k = {k} > deg P = {p.degree}")
    dim = math.comb(p.degree, k)
    if dim > MAX_CHARPOLY_DEGREE:
        raise DimensionTooLarge(f"exterior dimension {dim} > {MAX_CHARPOLY_DEGREE}")
    s = power_sums(p, k * dim)
    sign = -1 if k % 2 else 1
    traces = [dim] + [
        sign * charpoly([p.degree] + s[j: k * j + 1: j]).constant_term
        for j in range(1, dim + 1)
    ]
    return charpoly(traces)


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

