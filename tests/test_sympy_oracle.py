"""Differential tests of the exact kernels against sympy.

The library reads tensor, exterior and beta^2 characteristic polynomials off
power sums of roots.  The oracle builds the same polynomials the matrix way,
in sympy: the charpoly of the Kronecker product of companion matrices, of the
k-th compound matrix, and of (C + Q C^-1)^2 for the companion matrix C.
Factorization over Q, Yun's squarefree decomposition and gcd/xgcd are
checked against sympy's factor_list, sqf_list, gcd and gcdex, the CRT
idempotents against cofactor inverses from sympy's invert.  Equality is exact.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from conftest import admissible_traces, elliptic_l1, random_monic, random_squarefree
from weilmot import PrimePower, zeta_from_curve, zeta_product
from weilmot.exact_arith import (
    _yun_squarefree,
    crt_basis,
    exterior_charpoly,
    factor_rational_poly,
    reciprocal_transform,
    tensor_charpoly,
)
from weilmot.poly import RationalPolynomial, poly, poly_product
from weilmot.weil import _beta_squared_charpoly

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("T")


def _rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def companion(p: RationalPolynomial):
    d = p.degree
    m = sympy.zeros(d, d)
    for i in range(1, d):
        m[i, i - 1] = 1
    for i in range(d):
        m[i, d - 1] = -_rational(p.coeff(i))
    return m


def compound(m, k: int):
    subsets = list(combinations(range(m.rows), k))
    return sympy.Matrix([
        [m.extract(list(rows), list(cols)).det() for cols in subsets] for rows in subsets
    ])


def to_sympy(p: RationalPolynomial):
    return sympy.Poly.from_list([_rational(c) for c in reversed(p.coeffs)], T, domain="QQ")


def from_sympy(p) -> RationalPolynomial:
    return RationalPolynomial(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def sympy_charpoly(m) -> RationalPolynomial:
    return from_sympy(m.charpoly(T))


def weil_shaped() -> list[RationalPolynomial]:
    """Elliptic Frobenius charpolys over small q, and products of two of them."""
    curves = [
        reciprocal_transform(elliptic_l1(q, a))
        for q in (2, 3, 4, 5, 9) for a in admissible_traces(q)[::2]
    ]
    return curves + [a * b for a, b in zip(curves, curves[3::4])]


def rational_monic(rng, max_degree: int) -> RationalPolynomial:
    p = random_monic(rng, max_degree)
    return poly([c / rng.choice((1, 2, 3)) for c in p.coeffs[:-1]] + [1])


def test_tensor_charpoly_matches_kronecker(rng):
    cases = [(random_monic(rng, 4), random_monic(rng, 3)) for _ in range(12)]
    cases += [(rational_monic(rng, 3), rational_monic(rng, 3)) for _ in range(4)]
    shaped = weil_shaped()
    cases += [(rng.choice(shaped), rng.choice(shaped)) for _ in range(8)]
    for a, b in cases:
        expect = sympy_charpoly(sympy.kronecker_product(companion(a), companion(b)))
        assert tensor_charpoly(a, b) == expect, (a, b)


def test_exterior_charpoly_matches_compound(rng):
    cases = [random_squarefree(rng, 5) for _ in range(10)]
    cases += [rational_monic(rng, 4) for _ in range(3)]
    cases += weil_shaped()[::5]
    for p in cases:
        k = rng.randint(1, p.degree)
        expect = sympy_charpoly(compound(companion(p), k))
        assert exterior_charpoly(p, k) == expect, (p, k)


def test_beta_squared_charpoly_matches_matrix(rng):
    # the integer polynomial has roots (lambda*beta)^2 with lambda^2 = K/qm a
    # power of p: G(z) = lambda^2d h(z/lambda^2) for h the charpoly of
    # (C + qm C^-1)^2
    cases = []  # (P, p, qm, a multiple of lambda, or None)
    for q in (2, 3, 4, 9):
        pp = PrimePower.from_q(q)
        curves = [reciprocal_transform(elliptic_l1(q, a)) for a in admissible_traces(q)[::2]]
        for c, w in [(c, 1) for c in curves] + [(a * b, 2) for a, b in zip(curves, curves[2:])]:
            cases.append((c, pp.p, Fraction(q) ** w, 1))  # integral Weil: lambda = 1
            cases.append((c, pp.p, Fraction(q) ** (w + 1), None))  # off the circle
            for r in (1, 2):  # Tate twists, weights down to -3: lambda | q^r
                twisted = c.scale_roots(Fraction(1, q) ** r)
                cases.append((twisted, pp.p, Fraction(q) ** (w - 2 * r), q ** r))
    for _ in range(12):  # rational: p-power denominators and P(0) = +-p^k
        p = rng.choice((2, 3, 5))
        f = random_monic(rng, 5)
        coeffs = [Fraction(rng.choice((1, -1)) * p ** rng.randint(0, 3))]
        coeffs += [c / p ** rng.randint(0, 2) for c in f.coeffs[1:-1]] + [1]
        cases.append((poly(coeffs), p, Fraction(p) ** rng.randint(-3, 2), None))
    assert any(qm.denominator > 1 for _, _, qm, _ in cases)
    assert any(f.denominator_lcm() > 1 for f, _, _, _ in cases)
    for f, p, qm, lam_bound in cases:
        c = companion(f)
        beta = c + _rational(qm) * c.inv()
        g, prod_uv = _beta_squared_charpoly(f, qm, p)
        lam2 = prod_uv / qm
        assert any(lam2 == p ** (2 * e) for e in range(40)), (f, qm)
        assert RationalPolynomial(g) == sympy_charpoly(beta * beta).scale_roots(lam2), (f, qm)
        if lam_bound is not None:
            assert (lam_bound ** 2 / lam2).denominator == 1, (f, qm)


def test_factor_matches_sympy_factor_list(rng):
    cases = [random_monic(rng, 4) * random_monic(rng, 3) for _ in range(10)]
    cases += [random_monic(rng, 2) ** 2 * random_monic(rng, 3) for _ in range(5)]
    cases += [rational_monic(rng, 3) * rational_monic(rng, 3) * rng.choice((2, Fraction(-1, 3)))
              for _ in range(5)]
    cases += weil_shaped()[::4]
    for p in cases:
        unit, factors = sympy.factor_list(to_sympy(p))
        factors = [(from_sympy(f), m) for f, m in factors]
        expect = sorted(((f.monic(), m) for f, m in factors), key=lambda fm: fm[0].sort_key())
        expect_unit = Fraction(int(unit.p), int(unit.q))
        for f, m in factors:
            expect_unit *= f.leading ** m
        fac = factor_rational_poly(p)
        assert (fac.unit, fac.factors) == (expect_unit, tuple(expect)), p


def test_gcd_and_xgcd_match_sympy(rng):
    cases = []
    for _ in range(16):
        shared = random_monic(rng, 2) if rng.random() < 0.5 else RationalPolynomial.one()
        cases.append((shared * rational_monic(rng, 4), shared * random_monic(rng, 4)))
    cases += list(zip(weil_shaped(), weil_shaped()[5::3]))
    for a, b in cases:
        sa, sb = to_sympy(a), to_sympy(b)
        assert a.gcd(b) == from_sympy(sympy.gcd(sa, sb)), (a, b)
        s, t, h = sympy.gcdex(sa, sb)
        assert a.xgcd(b) == (from_sympy(h), from_sympy(s), from_sympy(t)), (a, b)


def coprime_moduli(draw, count: int) -> list[RationalPolynomial]:
    """count moduli from draw(), redrawn until sympy finds them pairwise coprime."""
    while True:
        moduli = [draw() for _ in range(count)]
        if all(sympy.gcd(to_sympy(a), to_sympy(b)).is_one
               for a, b in combinations(moduli, 2)):
            return moduli


def test_crt_basis_matches_sympy_invert(rng):
    def non_monic():
        return random_monic(rng, 3) * rng.choice((2, 3, -5, Fraction(2, 7)))

    def primitive_non_monic():
        # primitive with |lc| > 1 (e.g. 3T^2 + T - 2): the pseudo-remainder
        # of a cofactor carries a power of lc
        while True:
            lc = rng.choice((2, 3, -5))
            p = poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [lc])
            if p.content_and_primitive()[0] in (1, -1):
                return p

    def congruent_family():
        # m_k = m + 2 * h_k with deg h_k < deg m: a cofactor of n - 1 moduli
        # is 2^(n-1) * (...) mod m_k, so its remainder has content > 1
        base = random_monic(rng, 3)
        return lambda: base + 2 * poly([rng.randint(-2, 2) for _ in range(base.degree)])

    draws = [lambda: random_monic(rng, 4), lambda: rational_monic(rng, 3), non_monic,
             primitive_non_monic]
    cases = [coprime_moduli(draw, rng.randint(2, 4)) for draw in draws for _ in range(5)]
    cases.append([poly((-2, 1, 3)), poly((1, 0, 2)), poly((-1, 5))])
    for count in (2, 3, 3, 4):
        cases.append(coprime_moduli(congruent_family(), count))
    for moduli in cases:
        big = to_sympy(poly_product(moduli))
        expect = []
        for m in map(to_sympy, moduli):
            c = sympy.quo(big, m)
            expect.append(from_sympy(sympy.rem(c * sympy.invert(c, m), big)))
        assert crt_basis(moduli) == expect, moduli


def test_yun_squarefree_matches_sympy_sqf_list(rng):
    cases = [random_monic(rng, 3) * random_monic(rng, 2) ** 2 * random_monic(rng, 2) ** 3
             for _ in range(10)]
    cases += [rational_monic(rng, 3) ** 2 * rational_monic(rng, 4) for _ in range(4)]
    cases += [a * a * b for a, b in zip(weil_shaped(), weil_shaped()[7::5])]
    # C_3 of a product of three genus-2 curves over F_3 (ROADMAP's C1 x C2 x C3)
    curves = [zeta_from_curve(poly(l), PrimePower(3, 1))
              for l in ((1, 1, 3, 3, 9), (1, 2, 4, 6, 9), (1, -1, 2, -3, 9))]
    c3 = zeta_product(zeta_product(curves[0], curves[1]), curves[2]).charpoly(3)
    assert [(f.degree, m) for f, m in _yun_squarefree(c3)] == [(64, 1), (12, 2)]
    for p in cases + [c3]:
        expect = [(from_sympy(f).monic(), m) for f, m in sympy.sqf_list(to_sympy(p))[1]]
        assert _yun_squarefree(p) == expect, p
