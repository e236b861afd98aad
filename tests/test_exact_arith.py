"""exact_arith: factorization, Sturm counts, CRT, transforms, tensor/exterior."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coeffs_close, float_roots, poly_from_float_roots, random_squarefree
from weilmot import _modp
from weilmot._linalg import charpoly
from weilmot.errors import (
    BadConstantTerm,
    CertificationFailed,
    DegreeHintMismatch,
    DimensionTooLarge,
    KTooLarge,
    NotCoprime,
    NotMonic,
    NotSquarefree,
    ZeroPolynomial,
)
from weilmot.exact_arith import (
    _lifting_primes,
    crt_basis,
    crt_polynomials,
    exterior_charpoly,
    factor_rational_poly,
    reciprocal_transform,
    root_multiplicity,
    sturm_count,
    sturm_variations,
    tensor_charpoly,
    to_l_polynomial,
)
from weilmot.poly import RationalPolynomial, poly, poly_product


# ----------------------------------------------------------- factorization

def test_factor_split_quadratic():
    # T^2 - 3T + 2: rational roots 1, 2
    f = factor_rational_poly(poly((2, -3, 1)))
    assert f.unit == 1
    assert f.factors == ((poly((-2, 1)), 1), (poly((-1, 1)), 1))


def test_factor_irreducible_quadratic():
    # Oracle: no rational roots (divisors of 2: +-1, +-2 all fail) and the
    # discriminant 1 - 8 = -7 is negative and not a square.
    p = poly((2, -1, 1))
    for cand in (1, -1, 2, -2):
        assert p(cand) != 0
    disc = Fraction(1) - 4 * Fraction(2)
    assert disc < 0
    f = factor_rational_poly(p)
    assert f.factors == ((p, 1),)


def test_factor_repeated_root():
    f = factor_rational_poly(poly((1, -2, 1)))
    assert f.factors == ((poly((-1, 1)), 2),)


def test_factor_unit_and_order():
    f = factor_rational_poly(3 * poly((-2, 1)) * poly((-1, 1)) ** 2)
    assert f.unit == 3
    degrees = [p.degree for p, _ in f.factors]
    assert degrees == sorted(degrees)
    assert f.expand() == 3 * poly((-2, 1)) * poly((-1, 1)) ** 2


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factor_rational_poly(RationalPolynomial.zero())


def test_factor_cyclotomic_like():
    # T^6 - 1 = (T-1)(T+1)(T^2+T+1)(T^2-T+1)
    f = factor_rational_poly(poly((-1, 0, 0, 0, 0, 0, 1)))
    polys = sorted(str(p) for p, _ in f.factors)
    assert polys == ["T + 1", "T - 1", "T^2 + T + 1", "T^2 - T + 1"]


small_irreducibles = [
    poly((-1, 1)), poly((1, 1)), poly((-2, 1)), poly((3, 1)),
    poly((2, -1, 1)), poly((1, 1, 1)), poly((-2, 0, 1)), poly((1, -1, 0, 1)),
]


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(small_irreducibles), st.integers(1, 2)),
    min_size=1, max_size=4,
))
def test_factor_product_roundtrip(parts):
    target = RationalPolynomial.one()
    for p, m in parts:
        target = target * p ** m
    assert factor_rational_poly(target).expand() == target


# ------------------------------------------ integer products and division

int_polys = st.lists(st.integers(-50, 50), max_size=8).map(_modp.trim)


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys)
@example([], [3, -1])
@example([2, 5], [])
@example([-4], [-3, 0, 7])             # degree 0, negative coefficients
@example([-1, -2, 0, -3], [-5, 1])
def test_zx_mul_matches_rational_product(f, g):
    assert _modp.zx_mul(f, g) == [int(c) for c in (poly(f) * poly(g)).coeffs]


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys,
       st.sampled_from([8, 9, 3 ** 5, 7 ** 4, (2 ** 31 - 1) ** 2, (2 ** 31 - 1) ** 4]))
@example([3, 3], [-3, 3], 9)           # leading coefficient 9 = 0 mod 9
@example([-1, -(2 ** 31 - 1)], [2 ** 31 - 1, 2 ** 31 - 1], (2 ** 31 - 1) ** 2)
def test_mp_mul_reduces_the_integer_product(f, g, m):
    # m = p^k as in Hensel and inverse lifting; the product is reduced once
    # per coefficient and trimmed where the leading coefficients vanish mod m
    expect = _modp.trim([int(c) % m for c in (poly(f) * poly(g)).coeffs])
    assert _modp.mp_mul(f, g, m) == expect
    assert _modp.mp_mul(f, g, m) == _modp.trim([c % m for c in _modp.zx_mul(f, g)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=2, max_size=9), st.sampled_from([2, 3, 5, 7]))
def test_mp_factor_matches_sympy(low, p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    f = low + [1]
    _, expect = galoistools.gf_factor([c % p for c in reversed(f)], p, ZZ)
    expect = sorted(([int(c) for c in reversed(g)], m) for g, m in expect)
    got = _modp.mp_factor(f, p)
    assert sorted(got) == expect
    assert got == sorted(got, key=lambda gm: (len(gm[0]), tuple(reversed(gm[0])), gm[1]))


def _field_elements(ff):
    for n in range(ff.q):
        yield _modp.trim([(n // ff.p ** k) % ff.p for k in range(ff.degree)])


def _monic_polys(ff, degree):
    """Every monic polynomial of the given degree over ff."""
    polys = [[]]
    for _ in range(degree):
        polys = [f + [c] for f in polys for c in _field_elements(ff)]
    return [f + [[1]] for f in polys]


@pytest.mark.parametrize("p, modulus", [(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1])])
def test_finite_field_factor_by_brute_force(p, modulus):
    # F_4, F_8 and F_9: the factors multiply back to the input, are pairwise
    # distinct, and have no monic divisor of degree 1 .. deg / 2 over F_q.
    import random

    ff = _modp.FiniteField(p, modulus)
    rng = random.Random(p * 31 + len(modulus))
    elements = list(_field_elements(ff))
    small = {d: _monic_polys(ff, d) for d in (1, 2)}
    for _ in range(25):
        f = [[1]]
        for _ in range(rng.randint(1, 4)):
            g = [rng.choice(elements) for _ in range(rng.randint(1, 3))] + [[1]]
            f = ff.poly_mul(f, ff.poly_mul(g, g) if rng.random() < 0.3 else g)
        factors = ff.factor(f)
        back = [[1]]
        for g, m in factors:
            for _ in range(m):
                back = ff.poly_mul(back, g)
        assert back == f
        assert len({tuple(map(tuple, g)) for g, _ in factors}) == len(factors)
        for g, _ in factors:
            for d in range(1, (len(g) - 1) // 2 + 1):
                assert all(ff.poly_divmod(g, h)[1] for h in small[d]), (g, d)


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys.filter(bool))
@example([1, 2, 3, 4], [5, 0, -3])    # negative leading coefficient
@example([3, -7], [1, 2, 6])          # deg a < deg b
@example([], [4, 2])
def test_zx_pdivmod_is_scaled_division(a, b):
    q, r = _modp.zx_pdivmod(a, b)
    scale = abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
    assert poly(a) * scale == poly(q) * poly(b) + poly(r)
    assert len(r) < len(b)
    # the scale is positive: Q and R are that multiple of the quotient and
    # remainder over Q, signs included
    assert (poly(q), poly(r)) == tuple(x * scale for x in divmod(poly(a), poly(b)))


# ------------------------------------------------------------------- Sturm

def test_sturm_examples():
    assert sturm_count(poly((-2, 0, 1)), -2, 2) == 2          # roots +-sqrt(2)
    assert sturm_count(poly((1, 0, 1))) == 0                  # no real roots
    # Oracle: roots of T^3 - T are -1, 0, 1; (-1/2, 2] contains {0, 1}
    assert sturm_count(poly((0, -1, 0, 1)), Fraction(-1, 2), 2) == 2


def test_sturm_interval_is_half_open():
    assert sturm_count(poly((-1, 1)), 0, 1) == 1   # root at hi included
    assert sturm_count(poly((-1, 1)), 1, 2) == 0   # root at lo excluded


def test_sturm_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        sturm_count(poly((1, -2, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sturm_total_matches_float_pairing(seed):
    # Oracle: count numerically real roots, pairing the rest into conjugate
    # pairs; skip polynomials with roots within 1e-9 of the real axis where
    # floats cannot be trusted.  Degree <= 8 keeps numpy's solver accurate.
    import random

    p = random_squarefree(random.Random(seed), 8)
    roots = float_roots(p)
    imags = [abs(r.imag) for r in roots]
    if any(0 < im < 1e-9 for im in imags):
        return  # separation guard
    real = sum(1 for im in imags if im <= 1e-9)
    assert sturm_count(p) == real
    assert p.degree - real == 2 * sum(1 for r in roots if r.imag > 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sturm_variations_match_sturm_count(seed):
    # one chain read at several points gives every interval count
    import random

    rng = random.Random(seed)
    p = random_squarefree(rng, 8)
    points = sorted({Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(4)})
    _, a = p.content_and_primitive()
    variations = sturm_variations(a, points)
    assert len(variations) == len(points) + 2
    assert variations[0] - variations[-1] == sturm_count(p)
    ends = [None, *points, None]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        assert variations[k] - variations[k + 1] == sturm_count(p, lo, hi)
    # a nonzero multiple has the same roots, so the same counts and variations
    for factor in (-1, 3, -6):
        assert sturm_variations([factor * c for c in a], points) == variations
    for scaled in (-p, p * Fraction(3, 5)):
        for lo, hi in zip(ends, ends[1:]):
            assert sturm_count(scaled, lo, hi) == sturm_count(p, lo, hi)


# --------------------------------------------------------------------- CRT

def test_crt_examples():
    one, zero = RationalPolynomial.one(), RationalPolynomial.zero()
    assert crt_polynomials([(one, poly((-1, 1))), (zero, poly((-2, 1)))]) == poly((2, -1))
    assert crt_polynomials([(one, poly((-1, 1)))]) == one
    # Oracle (frozen): Lagrange interpolation of values 1,0,0 at 1,2,3 gives
    # (T-2)(T-3)/2 = 3 - 5T/2 + T^2/2.
    r = crt_polynomials([
        (one, poly((-1, 1))), (zero, poly((-2, 1))), (zero, poly((-3, 1))),
    ])
    assert r == poly((3, Fraction(-5, 2), Fraction(1, 2)))


def test_crt_residue_property(rng):
    moduli = [poly((-1, 1)), poly((2, -1, 1)), poly((1, 1, 1))]
    for _ in range(10):
        residues = [
            poly([rng.randint(-4, 4) for _ in range(m.degree)]) for m in moduli
        ]
        r = crt_polynomials(list(zip(residues, moduli)))
        assert r.degree < sum(m.degree for m in moduli)
        for res, mod in zip(residues, moduli):
            assert (r - res) % mod == RationalPolynomial.zero()
    basis = crt_basis(moduli)
    for i, e in enumerate(basis):
        assert e.degree < sum(m.degree for m in moduli)
        for j, mod in enumerate(moduli):
            assert (e - (1 if i == j else 0)) % mod == RationalPolynomial.zero()
    assert sum(basis, RationalPolynomial.zero()) == RationalPolynomial.one()


def test_crt_not_coprime_names_pair():
    shared = poly((-1, 1))
    with pytest.raises(NotCoprime) as exc:
        crt_polynomials([
            (RationalPolynomial.one(), poly((-2, 1))),
            (RationalPolynomial.zero(), shared * poly((-3, 1))),
            (RationalPolynomial.zero(), shared * poly((-5, 1))),
        ])
    assert exc.value.pair == (1, 2)


def test_crt_not_coprime_names_lexicographically_first_pair():
    # (1, 2) share T - 1 and (0, 3) share T + 1; a chain over adjacent moduli
    # would meet (1, 2) first, but the report names (0, 3), the first pair in
    # (i, j) order.
    s1, s2 = poly((-1, 1)), poly((1, 1))
    with pytest.raises(NotCoprime) as exc:
        crt_polynomials([
            (RationalPolynomial.one(), s2 * poly((-2, 1))),
            (RationalPolynomial.zero(), s1 * poly((-3, 1))),
            (RationalPolynomial.zero(), s1 * poly((-5, 1))),
            (RationalPolynomial.zero(), s2 * poly((-7, 1))),
        ])
    assert exc.value.pair == (0, 3)
    assert str(exc.value) == "moduli #0 and #3 share the factor T + 1"


def test_crt_modulus_dividing_its_cofactor_names_pair():
    # the cofactor of T - 1 is (T - 1)(T - 2), whose remainder mod T - 1 is 0
    with pytest.raises(NotCoprime) as exc:
        crt_basis([poly((-1, 1)), poly((-1, 1)) * poly((-2, 1))])
    assert exc.value.pair == (0, 1)
    assert str(exc.value) == "moduli #0 and #1 share the factor T - 1"


def test_crt_coprime_moduli_run_no_gcd(monkeypatch):
    calls = []
    gcd = RationalPolynomial.gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(RationalPolynomial, "gcd", counting_gcd)
    crt_polynomials([(RationalPolynomial.one(), poly((-k, 1))) for k in range(1, 5)])
    assert calls == []


def xgcd_basis(moduli):
    """Reference CRT basis: one Fraction xgcd per modulus."""
    big = poly_product(moduli)
    basis = []
    for m in moduli:
        c = big // m
        g, u, _ = (c % m).xgcd(m)
        assert g == RationalPolynomial.one()
        basis.append(c * u)
    return basis


P1, P2 = islice(_lifting_primes(), 2)


@pytest.mark.parametrize("moduli, primes", [
    # T(T - 1) and T - p share T mod p: the cofactor T - p of T(T - 1) is
    # not invertible mod (p, T(T - 1)), so that modulus lifts from P2.
    ([poly((0, -1, 1)), poly((-P1, 1))], [P1, P2, P1]),
    # T and T - p: each cofactor reduces to a constant, whose content is
    # cleared before reducing mod p, so P1 serves both.
    ([poly((0, 1)), poly((-P1, 1))], [P1, P1]),
    # denominator p: T/p - 1 has primitive form T - p, which shares T with
    # T(T + 1) mod p.
    ([poly((-1, Fraction(1, P1))), poly((0, 1, 1))], [P1, P1, P2]),
    # leading coefficient p: the degree drops mod p, so P1 is skipped.
    ([poly((-1, P1)), poly((-2, 1)), poly((1, 0, 1))], [P2, P1, P1]),
], ids=["shared-mod-p", "constant-cofactors", "denominator-p", "leading-p"])
def test_crt_basis_skips_bad_lifting_primes(moduli, primes, monkeypatch):
    seen = []
    mp_xgcd = _modp.mp_xgcd

    def recording_mp_xgcd(f, g, p):
        seen.append(p)
        return mp_xgcd(f, g, p)

    monkeypatch.setattr(_modp, "mp_xgcd", recording_mp_xgcd)
    assert crt_basis(moduli) == xgcd_basis(moduli)
    assert seen == primes


# ------------------------------------------------------ reciprocal transform

def test_reciprocal_examples():
    assert reciprocal_transform(poly((1, -1, 2))) == poly((2, -1, 1))
    assert reciprocal_transform(poly((1, -2))) == poly((-2, 1))
    # Oracle: (1 - 3T)^2 expands to 1 - 6T + 9T^2; reversal is T^2 - 6T + 9.
    expanded = poly((1, -3)) * poly((1, -3))
    assert expanded == poly((1, -6, 9))
    assert reciprocal_transform(expanded) == poly((9, -6, 1))


def test_reciprocal_rejects_bad_constant_and_hint():
    with pytest.raises(BadConstantTerm):
        reciprocal_transform(poly((2, 1)))
    with pytest.raises(DegreeHintMismatch):
        reciprocal_transform(poly((1, 1)), degree_hint=3)
    assert reciprocal_transform(poly((1, 1)), degree_hint=1) == poly((1, 1))


def test_reciprocal_involution():
    for coeffs in [(1, -1, 2), (1, 3, -2, 4), (1,)]:
        l = poly(coeffs)
        c = reciprocal_transform(l)
        assert to_l_polynomial(c) == l
        assert reciprocal_transform(to_l_polynomial(c)) == c


# ------------------------------------------------------ Newton kernel

def test_charpoly_divides_exactly_or_certifies_failure():
    assert charpoly([2, 3, 5]) == [2, -3, 1]  # roots 1 and 2
    # power sums s_1 = 2, s_2 = 1 would need e_2 = (2^2 - 1)/2 = 3/2: no two
    # algebraic integers have them, and the step must not floor 3/2 to 1
    with pytest.raises(CertificationFailed):
        charpoly([2, 2, 1])


# ------------------------------------------------------------ tensor product

def test_tensor_examples():
    assert tensor_charpoly(poly((-2, 1)), poly((-3, 1))) == poly((-6, 1))
    q = poly((2, -1, 1))
    assert tensor_charpoly(poly((-1, 1)), q) == q
    # Oracle (symmetric functions): roots 2a, 2abar with a+abar = 1,
    # a*abar = 2: sum 2, product 8.
    assert tensor_charpoly(q, poly((-2, 1))) == poly((8, -2, 1))


def test_tensor_commutative_associative_identity(rng):
    ps = [poly((2, -1, 1)), poly((-2, 1)), poly((1, 1, 1)), poly((3, 0, 1))]
    one = poly((-1, 1))
    for _ in range(6):
        a, b, c = rng.choice(ps), rng.choice(ps), rng.choice(ps)
        assert tensor_charpoly(a, b) == tensor_charpoly(b, a)
        assert tensor_charpoly(tensor_charpoly(a, b), c) == tensor_charpoly(a, tensor_charpoly(b, c))
        assert tensor_charpoly(one, a) == a
        assert tensor_charpoly(a, one) == a


def test_tensor_rejects_nonmonic():
    with pytest.raises(NotMonic):
        tensor_charpoly(poly((1, 2)), poly((-1, 1)))
    with pytest.raises(NotMonic):
        tensor_charpoly(poly((1,)), poly((-1, 1)))


def test_tensor_dimension_guard():
    big = RationalPolynomial.monomial(70) + RationalPolynomial.one()
    with pytest.raises(DimensionTooLarge):
        tensor_charpoly(big, big)


# ----------------------------------------------------------- exterior power

def test_exterior_examples():
    assert exterior_charpoly(poly((2, -3, 1)), 2) == poly((-2, 1))
    p = poly((2, -1, 1))
    assert exterior_charpoly(p, 1) == p
    # Oracle: pairwise products of roots {a, abar, 1} are {2, a, abar},
    # i.e. (T-2)(T^2-T+2).
    cubic = p * poly((-1, 1))
    assert exterior_charpoly(cubic, 2) == poly((-2, 1)) * p


def test_exterior_determinant_identity():
    for coeffs in [(2, -3, 1), (5, 1, -2, 1), (-7, 2, 0, 1, 1)]:
        p = poly(coeffs)
        d = p.degree
        expect = poly((-((-1) ** d) * p.constant_term, 1))
        assert exterior_charpoly(p, d) == expect


def test_exterior_errors():
    with pytest.raises(KTooLarge):
        exterior_charpoly(poly((2, -3, 1)), 3)
    with pytest.raises(NotMonic):
        exterior_charpoly(poly((1, 2)), 1)
    big = RationalPolynomial.monomial(100) + RationalPolynomial.one()
    with pytest.raises(DimensionTooLarge):
        exterior_charpoly(big, 3)


def test_sturm_empty_interval():
    from weilmot.errors import RangeError

    with pytest.raises(RangeError):
        sturm_count(poly((-2, 0, 1)), 2, 2)
    with pytest.raises(RangeError):
        sturm_count(poly((-2, 0, 1)), 3, 1)


def _complex_prod(values):
    out = complex(1)
    for v in values:
        out *= v
    return out


def test_tensor_exterior_against_float_bruteforce(rng):
    # Oracle: numpy root combination with per-coefficient comparison,
    # relative to magnitude (coefficients grow fast with degree).
    from itertools import combinations

    for _ in range(20):
        a = random_squarefree(rng, 4)
        b = random_squarefree(rng, 4)
        got = tensor_charpoly(a, b)
        expect = poly_from_float_roots(
            [x * y for x in float_roots(a) for y in float_roots(b)]
        )
        assert coeffs_close(got, expect)

        k = rng.randint(1, a.degree)
        gote = exterior_charpoly(a, k)
        expecte = poly_from_float_roots(
            [_complex_prod(c) for c in combinations(float_roots(a), k)]
        )
        assert coeffs_close(gote, expecte)


def test_root_multiplicity():
    p = poly((-2, 1)) ** 3 * poly((1, 1))
    assert root_multiplicity(p, 2) == 3
    assert root_multiplicity(p, -1) == 1
    assert root_multiplicity(p, 5) == 0
