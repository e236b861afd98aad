"""motives: zeta data, products, idempotents, pole orders, Hom calculus."""

import pytest

from conftest import elliptic_zeta
from weilmot import (
    BadConstantTerm,
    BaseMismatch,
    GradedComplex,
    Motive,
    NotWeil,
    OddDegree,
    PrimePower,
    RangeError,
    ValidationFailed,
    complex_of,
    graded_hom_dim,
    hom_from_unit,
    k_group_dim,
    kunneth_idempotents,
    motive_of,
    pole_order,
    tate_twist,
    twisted_weight_part,
    validate_zeta,
    zeta_from_curve,
    zeta_point,
    zeta_product,
)
from weilmot.motives import ZetaData
from weilmot.poly import RationalPolynomial, poly

Q2 = PrimePower(2, 1)
Q3 = PrimePower(3, 1)


def zeta_raw(q, n, l_polys):
    return ZetaData(base=q, dim_n=n, l_polys=tuple(poly(c) for c in l_polys))


# ------------------------------------------------------------ construction

def test_zeta_from_curve_examples():
    e = zeta_from_curve(poly((1, -1, 2)), Q2)
    assert e.l_polys == (poly((1, -1)), poly((1, -1, 2)), poly((1, -2)))
    p1 = zeta_from_curve(poly((1,)), Q2)
    assert p1.l_polys[1] == poly((1,))
    ss = zeta_from_curve(poly((1, 0, 2)), Q2)  # a = 0 supersingular
    assert validate_zeta(ss).passed


def test_zeta_from_curve_rejections():
    with pytest.raises(OddDegree):
        zeta_from_curve(poly((1, -1, 0, 2)), Q2)
    with pytest.raises(NotWeil) as weight:
        zeta_from_curve(poly((1, -3, 2)), Q2)  # factors have weights 0 and 2
    assert weight.value.reason == "weight"
    assert str(weight.value) == "factor T - 2 has weight 2, not 1"
    with pytest.raises(NotWeil) as valuation:
        zeta_from_curve(poly((1, -3, 3)), Q2)  # wrong constant valuation
    assert valuation.value.reason == "constant-valuation"
    assert str(valuation.value) == "|P(0)| = 3 is not a power of p = 2"
    with pytest.raises(NotWeil) as bound:
        zeta_from_curve(poly((1, 5, 2)), Q2)  # real roots past the Weil bound
    assert bound.value.reason == "root-bound"
    with pytest.raises(BadConstantTerm):
        zeta_from_curve(poly((2, -1, 2)), Q2)


def test_zeta_product_examples():
    e = elliptic_zeta(2, 1)
    pt = zeta_point(Q2)
    assert zeta_product(pt, e).l_polys == e.l_polys
    p1 = zeta_from_curve(poly((1,)), Q2)
    p1p1 = zeta_product(p1, p1)
    assert p1p1.l_polys[2] == poly((1, -2)) * poly((1, -2))
    # Oracle (hand expansion): H^2(E x E) has eigenvalues
    # {q, q, a^2, a*abar, abar*a, abar^2} with a*abar = 2, so the monic
    # charpoly is (T-2)^2 * (T-2)^2 * (T^2+3T+4)... precisely
    # (T-2)^4 would be wrong: a^2 + abar^2 = 1 - 4 = -3, a^2*abar^2 = 4.
    ee = zeta_product(e, e)
    expected_c2 = poly((-2, 1)) ** 4 * poly((4, 3, 1))
    assert ee.charpoly(2) == expected_c2


def test_zeta_product_base_mismatch():
    with pytest.raises(BaseMismatch):
        zeta_product(zeta_point(Q2), zeta_point(Q3))


def test_zeta_product_commutative_associative():
    e1, e2 = elliptic_zeta(2, 1), elliptic_zeta(2, 0)
    p1 = zeta_from_curve(poly((1,)), Q2)
    ab = zeta_product(e1, e2)
    ba = zeta_product(e2, e1)
    assert ab.l_polys == ba.l_polys
    abc = zeta_product(ab, p1)
    acb = zeta_product(zeta_product(e1, p1), e2)
    assert abc.l_polys == acb.l_polys


# -------------------------------------------------------------- validation

def test_validate_zeta_reports():
    e = elliptic_zeta(2, 1)
    assert validate_zeta(e).passed
    bad_weight = zeta_raw(Q2, 1, [(1, -1), (1, -3), (1, -2)])
    report = validate_zeta(bad_weight)
    assert not report.passed
    assert any(c.name == "weight" and c.where == "i=1" for c in report.failures())
    bad_endpoint = zeta_raw(Q2, 1, [(1, -2), (1, -1, 2), (1, -2)])
    report2 = validate_zeta(bad_endpoint)
    assert any(c.name == "endpoint" for c in report2.failures())


def test_motive_of_examples():
    m = motive_of(elliptic_zeta(2, 1))
    by_weight = {
        w: [(o.min_poly, mult) for o, mult in part.parts]
        for w, part in m.graded_parts
    }
    assert by_weight == {
        0: [(poly((-1, 1)), 1)],
        1: [(poly((2, -1, 1)), 1)],
        2: [(poly((-2, 1)), 1)],
    }
    assert motive_of(zeta_point(Q2)).dimension == 1
    p1p1 = zeta_product(*(zeta_from_curve(poly((1,)), Q2),) * 2)
    part2 = motive_of(p1p1).part(2)
    assert part2.parts[0][1] == 2  # (T - q, mult 2)


def test_coprime_checks_match_polynomial_gcd():
    # the coprime checks are read off the factorizations; the text must be
    # exactly the monic gcd
    e = elliptic_zeta(2, 1)
    data = [
        e,
        zeta_product(e, e),
        zeta_raw(Q2, 1, [(1, -1), (1, -3, 2), (1, -2)]),
        zeta_raw(Q2, 2, [(1, -1), (1,), (1, -4, 4), (1, -6, 12, -8), (1, -4)]),
        zeta_raw(Q2, 1, [(1, -1), (1, -5, 8, -4), (1, -2)]),  # C_1 = (T-1)(T-2)^2
    ]
    for z in data:
        charpolys = z.charpolys()
        coprime = [c for c in validate_zeta(z).checks if c.name == "coprime"]
        assert coprime
        for check in coprime:
            i, j = (int(part.split("=")[1]) for part in check.where.split(","))
            g = charpolys[i].gcd(charpolys[j])
            assert check.detail == f"gcd(C_{i}, C_{j}) = {g}"
            assert check.ok == g.is_constant


def test_one_analysis_pass_per_datum(monkeypatch):
    import weilmot.motives as motives
    from weilmot import compute_A, witt_vector_rank

    counts = {"factor": 0, "verify": 0}
    factor, verify = motives.factor_rational_poly, motives.verify_weil

    def counting_factor(c):
        counts["factor"] += 1
        return factor(c)

    def counting_verify(f, q):
        counts["verify"] += 1
        return verify(f, q)

    monkeypatch.setattr(motives, "factor_rational_poly", counting_factor)
    monkeypatch.setattr(motives, "verify_weil", counting_verify)
    z = zeta_raw(Q2, 1, [(1, -1), (1, -1, 2), (1, -2)])
    assert validate_zeta(z).passed
    assert motive_of(z) is motive_of(z)
    assert pole_order(z, 1) == k_group_dim(z, 0, 1) == 1
    compute_A(z)
    witt_vector_rank(z)
    complex_of(z)
    assert counts == {"factor": 3, "verify": 3}  # C_0, C_1, C_2 each once


def test_motive_of_requires_validity():
    with pytest.raises(ValidationFailed):
        motive_of(zeta_raw(Q2, 1, [(1, -1), (1, -3), (1, -2)]))


# ------------------------------------------------------------- idempotents

def _check_idempotent_system(z):
    idems = kunneth_idempotents(z)
    transforms = [z.charpoly(i) for i in range(2 * z.dim_n + 1)]
    modulus = RationalPolynomial.one()
    for c in transforms:
        if not c.is_constant:
            modulus = modulus * c
    assert len(idems) == 2 * z.dim_n + 1
    for i, p_i in enumerate(idems):
        if transforms[i].is_constant:
            assert p_i.is_zero
            continue
        assert p_i.degree < modulus.degree
        for j, c_j in enumerate(transforms):
            if c_j.is_constant:
                continue
            expect = RationalPolynomial.one() if i == j else RationalPolynomial.zero()
            assert (p_i - expect) % c_j == RationalPolynomial.zero()
    total = RationalPolynomial.zero()
    for p_i in idems:
        total = total + p_i
        for p_j in idems:
            prod = (p_i * p_j) % modulus
            if p_i is p_j:
                assert prod == p_i % modulus
            elif not (p_i.is_zero or p_j.is_zero):
                assert prod == RationalPolynomial.zero()
    assert total % modulus == RationalPolynomial.one() % modulus


def test_kunneth_idempotents_examples():
    assert kunneth_idempotents(zeta_point(Q2)) == [poly((1,))]
    p1 = zeta_from_curve(poly((1,)), Q2)
    assert kunneth_idempotents(p1) == [poly((2, -1)), poly(()), poly((-1, 1))]
    _check_idempotent_system(elliptic_zeta(2, 1))
    _check_idempotent_system(zeta_product(elliptic_zeta(2, 1), elliptic_zeta(2, 0)))


# -------------------------------------------------------------- pole order

def test_pole_order_examples():
    p1 = zeta_from_curve(poly((1,)), Q2)
    assert pole_order(p1, 1) == 1
    assert pole_order(elliptic_zeta(2, 1), 0) == 1
    ee = zeta_product(elliptic_zeta(2, 1), elliptic_zeta(2, 1))
    # Oracle: multiplicity of 2 in {2, 2, a^2, 2, 2, abar^2}; a^2 != 2 since
    # a is not real.
    assert pole_order(ee, 1) == 4
    with pytest.raises(RangeError):
        pole_order(ee, 3)


def test_pole_order_functional_symmetry():
    for za, zb in [(elliptic_zeta(2, 1), elliptic_zeta(2, 0)),
                   (elliptic_zeta(3, -1), elliptic_zeta(3, 2))]:
        z = zeta_product(za, zb)
        n = z.dim_n
        for r in range(n + 1):
            assert pole_order(z, r) == pole_order(z, n - r)


# ------------------------------------------------------------ Hom calculus

def test_motive_hom_examples():
    pt = motive_of(zeta_point(Q2))
    assert hom_from_unit(pt) == 1
    assert k_group_dim(zeta_point(Q2), 0, 0) == 1
    e = motive_of(elliptic_zeta(2, 1))
    h1 = Motive(base=Q2, graded_parts=((1, e.part(1)),))
    h0 = Motive(base=Q2, graded_parts=((0, e.part(0)),))
    from weilmot.motives import motive_hom_dim

    assert motive_hom_dim(h1, h1) == 2  # End^0 = CM quadratic field
    assert motive_hom_dim(h0, h1) == 0
    assert motive_hom_dim(h0, h0) == 1


def test_motive_hom_symmetry(varieties):
    from weilmot.motives import motive_hom_dim

    ms = [motive_of(z) for _, z in varieties if z.base == Q2]
    for a in ms[:4]:
        for b in ms[:4]:
            assert motive_hom_dim(a, b) == motive_hom_dim(b, a)


def test_motive_hom_index_divisibility():
    # T - 2 over F_4 is quaternionic (e = 2); a motive carrying it with
    # multiplicity 1 is not realizable and Hom must refuse to count it.
    from weilmot import IndexDivisibilityError, TateStructure, WeilOrbit
    from weilmot.motives import motive_hom_dim

    q4 = PrimePower(2, 2)
    orbit = WeilOrbit(min_poly=poly((-2, 1)), base=q4, weight=1)
    bad = Motive(base=q4, graded_parts=((1, TateStructure(q4, ((orbit, 1),))),))
    good = Motive(base=q4, graded_parts=((1, TateStructure(q4, ((orbit, 2),))),))
    with pytest.raises(IndexDivisibilityError):
        motive_hom_dim(bad, bad)
    assert motive_hom_dim(good, good) == 4  # (2/2)^2 * 2^2 * 1


def test_hom_from_unit_twists():
    e = elliptic_zeta(2, 1)
    assert hom_from_unit(twisted_weight_part(e, 1)) == 1
    ee = zeta_product(e, e)
    assert hom_from_unit(twisted_weight_part(ee, 1)) == 4


def test_graded_hom_examples():
    pt_cx = complex_of(zeta_point(Q2))
    assert graded_hom_dim(pt_cx, pt_cx, 0) == 1
    assert graded_hom_dim(pt_cx, pt_cx, 3) == 0
    re = complex_of(elliptic_zeta(2, 1))
    assert graded_hom_dim(re, re, 0) == 1 + 2 + 1
    for shift in (-2, -1, 1, 2, 3):
        single = GradedComplex(entries=(re.entries[1],))
        assert graded_hom_dim(single, single, shift) == 0


def test_k_group_dims():
    e = elliptic_zeta(2, 1)
    assert k_group_dim(e, 0, 1) == 1
    assert k_group_dim(e, 2, 1) == 0
    assert k_group_dim(e, 0, 5) == 0
    assert k_group_dim(e, 1, 0) == 0


def test_pole_order_triangle(varieties):
    for name, z in varieties:
        for r in range(z.dim_n + 1):
            po = pole_order(z, r)
            assert po == hom_from_unit(twisted_weight_part(z, r)), (name, r)
            assert po == k_group_dim(z, 0, r), (name, r)
