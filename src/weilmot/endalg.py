"""The algebra of correspondences at the generic point, made numerical.

A(X) is described block by block: each kept Galois orbit of middle-weight
Frobenius eigenvalues contributes a matrix algebra over a division algebra
whose center is Q[alpha] and whose local invariants are

    1/2                              at real places when n is odd,
    slope(v) * [Q[alpha]_v : Q_p]    (mod 1) at places v | p,
    0                                elsewhere,

with the index e the least common denominator of the invariants.  An orbit
is kept exactly when alpha/q fails to be an algebraic integer, i.e. its
minimal Newton-polygon slope is < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    CertificationFailed,
    IndexDivisibilityError,
    NotEffectiveInput,
    OddProduct,
    RangeError,
    WeightMismatch,
    WeilmotError,
)
from .exact_arith import exterior_charpoly, sturm_count
from .motives import ZetaData, motive_of, zeta_from_curve
from .padic import PlaceData, newton_polygon, padic_places
from .poly import RationalPolynomial
from .primes import PrimePower
from .weil import WeilOrbit, verify_weil, weil_restriction_charpoly


@dataclass(frozen=True)
class CSAData:
    """One Wedderburn block: M_r(D) with D central simple over Q[alpha]."""

    center_poly: RationalPolynomial
    orbit_size: int
    real_places: int
    finite_invariants: tuple[tuple[PlaceData, Fraction], ...]
    real_invariant: Fraction
    index_e: int
    matrix_size_r: int | None = None

    @property
    def invariant_sum(self) -> Fraction:
        return (self.real_places * self.real_invariant
                + sum((inv for _, inv in self.finite_invariants), Fraction(0)))

    def block_dimension(self) -> int:
        """dim_Q M_r(D) = r^2 e^2 [Z:Q]."""
        if self.matrix_size_r is None:
            raise RangeError("matrix size not set on this block")
        return self.matrix_size_r ** 2 * self.index_e ** 2 * self.orbit_size


@dataclass(frozen=True)
class AlgebraDescription:
    """A(X) as a product of matrix algebras over division algebras."""

    blocks: tuple[CSAData, ...]
    base: PrimePower
    ambient_weight_n: int

    @property
    def dimension_q(self) -> int:
        return sum(b.block_dimension() for b in self.blocks)

    @property
    def is_zero(self) -> bool:
        return not self.blocks


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def _effective_model(min_poly: RationalPolynomial, base: PrimePower):
    """Scale roots by q^r, r = max(0, ceil(-min slope)): the least integral twist."""
    r = max(0, math.ceil(-newton_polygon(min_poly, base).min_slope))
    scaled = min_poly.scale_roots(base.q ** r) if r else min_poly
    if not scaled.is_integral():
        raise WeilmotError("could not clear denominators; not a Weil orbit")
    return scaled, r


def _orbit_places(min_poly: RationalPolynomial, base: PrimePower) -> tuple[PlaceData, ...]:
    """Places of the orbit field, with slopes of the *original* eigenvalues.

    Twisting by an integer r shifts every slope by r and multiplies nothing
    else, so place data of a non-integral orbit comes from its effective
    model with the slopes shifted back.
    """
    integral, r = _effective_model(min_poly, base)
    raw = padic_places(integral, base)
    if r == 0:
        return tuple(raw)
    return tuple(
        PlaceData(slope=p.slope - r, local_degree=p.local_degree, place_id=p.place_id)
        for p in raw
    )


def brauer_block(orbit: WeilOrbit, n_odd: bool) -> CSAData:
    """Local invariants, index, and center data of End(N) for one orbit.

    matrix_size_r is left unset; compute_A fills it in from multiplicities.
    """
    places = _orbit_places(orbit.min_poly, orbit.base)
    finite = tuple(
        (place, (place.slope * place.local_degree) % 1) for place in places
    )
    real_places = sturm_count(orbit.min_poly)
    real_invariant = Fraction(1, 2) if (real_places > 0 and n_odd) else Fraction(0)
    denominators = [inv.denominator for _, inv in finite]
    if real_places > 0:
        denominators.append(real_invariant.denominator)
    index_e = _lcm(denominators) if denominators else 1
    block = CSAData(
        center_poly=orbit.min_poly,
        orbit_size=orbit.degree,
        real_places=real_places,
        finite_invariants=finite,
        real_invariant=real_invariant,
        index_e=index_e,
    )
    if block.invariant_sum.denominator != 1:
        raise WeilmotError(
            f"Brauer reciprocity violated for {orbit.min_poly}: "
            f"invariants sum to {block.invariant_sum}"
        )
    return block


def orbit_index(orbit: WeilOrbit) -> int:
    """The index e of the orbit's division algebra (weight parity rules the reals)."""
    return brauer_block(orbit, n_odd=orbit.weight % 2 == 1).index_e


def _keeps_orbit(orbit: WeilOrbit) -> bool:
    """S(X) membership: alpha/q is not an algebraic integer (min slope < 1)."""
    polygon = newton_polygon(orbit.min_poly, orbit.base)
    return polygon.min_slope is not None and polygon.min_slope < 1


def compute_A(z: ZetaData, weight_n: int | None = None) -> AlgebraDescription:
    """A(X) = End of h-bar^n: blocks from kept middle-weight orbits."""
    n = z.dim_n if weight_n is None else weight_n
    if not 0 <= n <= 2 * z.dim_n:
        raise RangeError(f"weight {n} outside 0..{2 * z.dim_n}")
    part = motive_of(z).part(n)
    blocks = []
    for orbit, mult in part.parts:
        if not _keeps_orbit(orbit):
            continue
        block = brauer_block(orbit, n_odd=n % 2 == 1)
        if mult % block.index_e:
            raise IndexDivisibilityError(
                f"multiplicity {mult} of {orbit.min_poly} is not divisible by "
                f"the index {block.index_e}"
            )
        blocks.append(replace(block, matrix_size_r=mult // block.index_e))
    blocks.sort(key=lambda b: b.center_poly.sort_key())
    return AlgebraDescription(blocks=tuple(blocks), base=z.base, ambient_weight_n=n)


def curve_end_algebra(l1: RationalPolynomial, q: PrimePower) -> AlgebraDescription:
    """A(X) of a curve: equals End^0 of the Jacobian's isogeny class."""
    return compute_A(zeta_from_curve(l1, q))


def rank_from_algebra(a: AlgebraDescription) -> int:
    """rank = sum r_j * [Z_j : Q] * [D_j : Z_j]^(1/2), recovered from blocks."""
    total = 0
    for b in a.blocks:
        if b.matrix_size_r is None:
            raise RangeError("matrix size not set on a block")
        total += b.matrix_size_r * b.orbit_size * b.index_e
    return total


def witt_vector_rank(z: ZetaData) -> int:
    """rank H^n(X, WO_X): slope-[0,1) slots of the weight-n part."""
    part = motive_of(z).part(z.dim_n)
    return sum(
        mult * newton_polygon(orbit.min_poly, z.base).slots_less_than(1)
        for orbit, mult in part.parts
    )


def honda_tate_dimension(orbit: WeilOrbit) -> int:
    """Dimension of the simple abelian variety attached to a weight-1 orbit."""
    if orbit.weight != 1:
        raise WeightMismatch(f"orbit has weight {orbit.weight}, need 1")
    if not orbit.min_poly.is_integral():
        raise NotEffectiveInput("Honda-Tate needs an effective (integral) orbit")
    e = brauer_block(orbit, n_odd=True).index_e
    product = orbit.degree * e
    if product % 2:
        raise OddProduct(
            f"orbit_size * e = {product} is odd; no consistent dimension"
        )
    return product // 2


def weight1_realization(orbit: WeilOrbit):
    """Reinterpret a weight-m orbit as weight 1 over q^m and certify descent.

    Returns (q^m, restricted, m) with restricted = min_poly(T^m) over q; the
    certificate checks that min_poly divides the m-th exterior power of two
    independent copies of the restricted eigenvalue data (the direct sum is
    what makes the even-m sign work out).
    """
    m = orbit.weight
    if m < 1:
        raise RangeError(f"weight {m} must be >= 1")
    if not orbit.min_poly.is_integral():
        raise NotEffectiveInput("realization needs an effective orbit")
    q_m = orbit.base.power(m)
    w1 = verify_weil(orbit.min_poly, q_m)
    if w1 != 1:
        raise WeightMismatch(f"weight over q^m is {w1}, expected 1")
    restricted = weil_restriction_charpoly(orbit.min_poly, q_m, m)
    doubled = restricted * restricted
    if m == 1:
        certificate = doubled
    else:
        certificate = exterior_charpoly(doubled, m)
    if not orbit.min_poly.divides(certificate):
        raise CertificationFailed(
            f"{orbit.min_poly} does not divide the exterior certificate"
        )
    return q_m, restricted, m
