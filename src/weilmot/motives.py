"""Zeta-function data and the semisimple motive calculus built on it.

ZetaData stores the degree-wise L-polynomials det(1 - FT | H^i); the monic
characteristic polynomials live behind reciprocal_transform and everything
eigenvalue-flavored (weights, products, idempotents, pole orders, Homs) is
computed on those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    BadConstantTerm,
    BaseMismatch,
    NotCoprime,
    OddDegree,
    RangeError,
    ValidationFailed,
)
from .exact_arith import (
    crt_basis,
    factor_rational_poly,
    reciprocal_transform,
    root_multiplicity,
    tensor_charpoly,
    to_l_polynomial,
)
from .poly import RationalPolynomial, poly, poly_product
from .primes import PrimePower
from .weil import NotWeil, TateStructure, WeilOrbit, _verified_orbit, tate_twist, verify_weil


@dataclass(frozen=True)
class ZetaData:
    """q, dimension n, and the 2n+1 L-polynomials of Z(X, t)."""

    base: PrimePower
    dim_n: int
    l_polys: tuple[RationalPolynomial, ...]

    def __post_init__(self):
        if self.dim_n < 0:
            raise RangeError("dimension must be >= 0")
        if len(self.l_polys) != 2 * self.dim_n + 1:
            raise RangeError(
                f"expected {2 * self.dim_n + 1} polynomials, got {len(self.l_polys)}"
            )
        for i, lp in enumerate(self.l_polys):
            if lp.constant_term != 1:
                raise BadConstantTerm(f"P_{i}(0) = {lp.constant_term}, expected 1")

    def charpoly(self, i: int) -> RationalPolynomial:
        """Monic characteristic polynomial of Frobenius on H^i."""
        return reciprocal_transform(self.l_polys[i])

    def charpolys(self) -> list[RationalPolynomial]:
        return [self.charpoly(i) for i in range(2 * self.dim_n + 1)]

    @cached_property
    def analysis(self) -> "ZetaAnalysis":
        """The one factor-and-verify pass over this datum, computed once."""
        return _analyze(self)


@dataclass(frozen=True)
class ZetaCheck:
    name: str
    where: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ZetaReport:
    checks: tuple[ZetaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ZetaCheck]:
        return [c for c in self.checks if not c.ok]


@dataclass(frozen=True)
class FactorWeight:
    """One irreducible factor of C_i: multiplicity and verified weight or failure."""

    factor: RationalPolynomial
    multiplicity: int
    weight: int | None
    error: NotWeil | None = None


@dataclass(frozen=True)
class ZetaAnalysis:
    """Factors of each C_i (none when constant), the checks, the motive if valid."""

    degrees: tuple[tuple[FactorWeight, ...], ...]
    report: ZetaReport
    motive: "Motive | None"


@dataclass(frozen=True)
class Motive:
    """Weight-graded eigenvalue data: one pure TateStructure per weight."""

    base: PrimePower
    graded_parts: tuple[tuple[int, TateStructure], ...]

    def __post_init__(self):
        for weight, part in self.graded_parts:
            if part.base != self.base:
                raise BaseMismatch("graded part over a different base")
            for orbit, _ in part.parts:
                if orbit.weight != weight:
                    raise RangeError(
                        f"orbit of weight {orbit.weight} in the weight-{weight} part"
                    )
        object.__setattr__(
            self,
            "graded_parts",
            tuple(sorted(
                ((w, p) for w, p in self.graded_parts if p.parts),
                key=lambda wp: wp[0],
            )),
        )

    def part(self, weight: int) -> TateStructure:
        for w, p in self.graded_parts:
            if w == weight:
                return p
        return TateStructure.empty(self.base)

    @property
    def dimension(self) -> int:
        return sum(p.dimension for _, p in self.graded_parts)

    def orbits(self):
        for _, part in self.graded_parts:
            yield from part.parts


@dataclass(frozen=True)
class GradedComplex:
    """Bounded complex with zero differentials: motives indexed by shift."""

    entries: tuple[tuple[int, Motive], ...]

    def entry(self, k: int) -> Motive | None:
        for shift, m in self.entries:
            if shift == k:
                return m
        return None

    @property
    def base(self) -> PrimePower | None:
        return self.entries[0][1].base if self.entries else None


# ------------------------------------------------------------- constructors

def zeta_from_curve(l1: RationalPolynomial, q: PrimePower) -> ZetaData:
    """Standard curve zeta shape: P_0 = 1 - T, P_1 = L1, P_2 = 1 - qT."""
    if l1.constant_term != 1:
        raise BadConstantTerm(f"L1(0) = {l1.constant_term}, expected 1")
    if l1.degree % 2 != 0:
        raise OddDegree(f"deg L1 = {l1.degree} is odd")
    z = ZetaData(base=q, dim_n=1, l_polys=(poly((1, -1)), l1, poly((1, -q.q))))
    for fw in z.analysis.degrees[1]:
        if fw.error is not None:
            raise fw.error
        if fw.weight != 1:
            raise NotWeil(
                f"factor {fw.factor} has weight {fw.weight}, not 1", reason="weight"
            )
    return z


def zeta_point(q: PrimePower) -> ZetaData:
    return ZetaData(base=q, dim_n=0, l_polys=(poly((1, -1)),))


def zeta_product(x: ZetaData, y: ZetaData) -> ZetaData:
    """Kunneth: degree-k part is the product over i+j = k of tensor charpolys."""
    if x.base != y.base:
        raise BaseMismatch(f"bases differ: {x.base} vs {y.base}")
    n = x.dim_n + y.dim_n
    cx, cy = x.charpolys(), y.charpolys()
    l_out = []
    for k in range(2 * n + 1):
        ck = RationalPolynomial.one()
        for i in range(max(0, k - 2 * y.dim_n), min(k, 2 * x.dim_n) + 1):
            a, b = cx[i], cy[k - i]
            if a.is_constant or b.is_constant:
                continue
            ck = ck * tensor_charpoly(a, b)
        l_out.append(to_l_polynomial(ck))
    return ZetaData(base=x.base, dim_n=n, l_polys=tuple(l_out))


# --------------------------------------------------------------- validation

def _analyze(z: ZetaData) -> ZetaAnalysis:
    """Factor each C_i once, verify each factor once, decide coprimality.

    Checks run in order: endpoints, weights, coprime pairs, with
    gcd(C_i, C_j) = prod f^min(m_i, m_j) over the shared factors f.
    """
    n, q = z.dim_n, z.base
    checks: list[ZetaCheck] = []
    checks.append(ZetaCheck(
        "endpoint", "i=0", z.l_polys[0] == poly((1, -1)),
        f"P_0 = {z.l_polys[0]}, expected 1 - T",
    ))
    expected_top = poly((1, -(q.q ** n)))
    checks.append(ZetaCheck(
        "endpoint", f"i={2 * n}", z.l_polys[2 * n] == expected_top,
        f"P_{2 * n} = {z.l_polys[2 * n]}, expected 1 - q^{n}*T",
    ))
    degrees: list[tuple[FactorWeight, ...]] = []
    for i, c in enumerate(z.charpolys()):
        factors = []
        if not c.is_constant:
            for factor, mult in factor_rational_poly(c).factors:
                try:
                    w = verify_weil(factor, q)
                    fw = FactorWeight(factor, mult, w)
                    ok, detail = w == i, f"factor {factor} has weight {w}"
                except NotWeil as exc:
                    fw = FactorWeight(factor, mult, None, exc)
                    ok, detail = False, f"factor {factor}: {exc.reason}"
                factors.append(fw)
                checks.append(ZetaCheck("weight", f"i={i}", ok, detail))
        degrees.append(tuple(factors))
    multisets = [
        (i, {fw.factor: fw.multiplicity for fw in fws})
        for i, fws in enumerate(degrees) if fws
    ]
    for a, (i, mi) in enumerate(multisets):
        for j, mj in multisets[a + 1:]:
            g = poly_product(f ** min(m, mj[f]) for f, m in mi.items() if f in mj)
            checks.append(ZetaCheck(
                "coprime", f"i={i},j={j}", g.is_constant,
                f"gcd(C_{i}, C_{j}) = {g}",
            ))
    report = ZetaReport(checks=tuple(checks))
    motive = None
    if report.passed:
        motive = Motive(base=q, graded_parts=tuple(
            (i, TateStructure(base=q, parts=tuple(
                (_verified_orbit(fw.factor, q, i), fw.multiplicity) for fw in fws
            )))
            for i, fws in enumerate(degrees) if fws
        ))
    return ZetaAnalysis(degrees=tuple(degrees), report=report, motive=motive)


def validate_zeta(z: ZetaData) -> ZetaReport:
    """Weights, endpoint polynomials, and pairwise coprimality; never raises."""
    return z.analysis.report


def _require_valid(z: ZetaData) -> None:
    report = z.analysis.report
    if not report.passed:
        raise ValidationFailed(
            "; ".join(f"{c.name}[{c.where}]: {c.detail}" for c in report.failures()),
            report=report,
        )


# ------------------------------------------------------------------ motives

def motive_of(z: ZetaData) -> Motive:
    """Orbit decomposition of each cohomological degree, graded by weight."""
    _require_valid(z)
    return z.analysis.motive


def kunneth_idempotents(z: ZetaData) -> list[RationalPolynomial]:
    """The canonical degree-reduced P^i with P^i = delta_ij mod C_j.

    Indexed 0..2n; degrees with no cohomology get the zero polynomial.
    """
    transforms = z.charpolys()
    degrees = [i for i, c in enumerate(transforms) if not c.is_constant]
    try:
        basis = crt_basis([transforms[i] for i in degrees])
    except NotCoprime as exc:
        a, b = exc.pair
        raise NotCoprime(
            f"characteristic polynomials of degrees {degrees[a]} and "
            f"{degrees[b]} are not coprime",
            pair=(degrees[a], degrees[b]),
        ) from exc
    out = [RationalPolynomial.zero()] * len(transforms)
    for i, e in zip(degrees, basis):
        out[i] = e
    return out


def pole_order(z: ZetaData, r: int) -> int:
    """Order of the pole of Z(X, t) at t = q^-r: multiplicity of q^r in C_2r."""
    _require_valid(z)
    if not 0 <= r <= z.dim_n:
        raise RangeError(f"r = {r} outside 0..{z.dim_n}")
    c = z.charpoly(2 * r)
    if c.is_constant:
        return 0
    return root_multiplicity(c, Fraction(z.base.q) ** r)


# ------------------------------------------------------------- Hom calculus

def _orbit_index(orbit: WeilOrbit) -> int:
    # endalg builds on motives; resolve the block index lazily to avoid a cycle
    from .endalg import orbit_index

    return orbit_index(orbit)


def motive_hom_dim(m: Motive, n: Motive) -> int:
    """dim_Q Hom(M, N) in the semisimple category.

    Per shared orbit o with index e: (mult_M/e) * (mult_N/e) * e^2 * |o|;
    multiplicities not divisible by e are not motive-realizable and raise.
    """
    if m.base != n.base:
        raise BaseMismatch("Hom between motives over different bases")
    from .errors import IndexDivisibilityError

    n_mults: dict[RationalPolynomial, tuple[WeilOrbit, int]] = {
        orbit.min_poly: (orbit, mult) for orbit, mult in n.orbits()
    }
    total = 0
    for orbit, mult_m in m.orbits():
        hit = n_mults.get(orbit.min_poly)
        if hit is None:
            continue
        _, mult_n = hit
        e = _orbit_index(orbit)
        if mult_m % e or mult_n % e:
            raise IndexDivisibilityError(
                f"multiplicity of {orbit.min_poly} not divisible by its index {e}"
            )
        total += (mult_m // e) * (mult_n // e) * e * e * orbit.degree
    return total


def hom_from_unit(m: Motive) -> int:
    """dim Hom(1, M): the multiplicity of the unit orbit T - 1 in weight 0."""
    return m.part(0).multiplicity_of(poly((-1, 1)))


def graded_hom_dim(a: GradedComplex, b: GradedComplex, shift: int) -> int:
    """Hom(A, B[shift]) in the derived category with zero differentials."""
    if a.entries and b.entries and a.base != b.base:
        raise BaseMismatch("complexes over different bases")
    total = 0
    for k, m in a.entries:
        other = b.entry(k + shift)
        if other is not None:
            total += motive_hom_dim(m, other)
    return total


def complex_of(z: ZetaData) -> GradedComplex:
    """R(hX)-shaped complex: the weight-i part sits in degree i."""
    motive = motive_of(z)
    entries = tuple(
        (w, Motive(base=z.base, graded_parts=((w, part),)))
        for w, part in motive.graded_parts
    )
    return GradedComplex(entries=entries)


def k_group_dim(z: ZetaData, i: int, j: int) -> int:
    """dim of the weight-j Adams eigenspace of K_i: zero unless i = 0."""
    _require_valid(z)
    if i < 0:
        raise RangeError("K-theory index must be >= 0")
    if i != 0:
        return 0
    if not 0 <= j <= z.dim_n:
        return 0
    return pole_order(z, j)


def twisted_weight_part(z: ZetaData, r: int) -> Motive:
    """Tate twist by r of the weight-2r part (the pole-order companion motive)."""
    motive = motive_of(z)
    part = motive.part(2 * r)
    twisted = tate_twist(part, r)
    if not twisted.parts:
        return Motive(base=z.base, graded_parts=())
    return Motive(base=z.base, graded_parts=((0, twisted),))
