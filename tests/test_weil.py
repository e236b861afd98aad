"""weil: verification, effectivity, twists, coniveau, restriction, m-th roots."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from weilmot import (
    NotEffectiveInput,
    NotWeil,
    PrimePower,
    TateStructure,
    WeightMismatch,
    WeilOrbit,
    coniveau_sub,
    is_effective,
    mth_root_factors,
    newton_polygon,
    slope_filtration_dim,
    tate_twist,
    tate_twist_orbit,
    verify_weil,
    weil_restriction_charpoly,
)
from weilmot.poly import poly

Q2 = PrimePower(2, 1)
Q4 = PrimePower(2, 2)
Q5 = PrimePower(5, 1)


def orbit(coeffs, base, weight):
    return WeilOrbit(min_poly=poly(coeffs), base=base, weight=weight)


# ----------------------------------------------------------------- verify

def test_verify_examples():
    assert verify_weil(poly((-1, 1)), Q5) == 0
    # Oracle: a*abar = 2, beta = a + 2/a = a + abar = 1 real with |1| <= 2*sqrt(2).
    assert verify_weil(poly((2, -1, 1)), Q2) == 1
    with pytest.raises(NotWeil) as exc:
        verify_weil(poly((-3, 1)), Q5)
    assert exc.value.reason == "constant-valuation"


def test_public_orbit_verifies_and_twists_stay_verified():
    with pytest.raises(WeightMismatch):
        orbit((2, -1, 1), Q2, 2)
    with pytest.raises(NotWeil):
        orbit((6, -1, 1), Q2, 1)
    o = orbit((2, -1, 1), Q2, 1)
    for r in range(-2, 3):
        twisted = tate_twist_orbit(o, r)
        assert twisted.weight == 1 - 2 * r
        assert verify_weil(twisted.min_poly, Q2) == twisted.weight
        assert twisted == WeilOrbit(twisted.min_poly, Q2, twisted.weight)


def test_verify_negative_weight_and_boundary():
    # 1/2 over q=2 has weight -2 (Tate twists produce these).
    assert verify_weil(poly((Fraction(1, 2), 1)), Q2) == -2
    # beta = 0 boundary: T^2 + q^m.
    assert verify_weil(poly((2, 0, 1)), Q2) == 1
    # |beta| = 2 sqrt(q^m) boundary: (T - 1) has beta = 2 at q = 1... use T-2, q=2, m=2.
    assert verify_weil(poly((-2, 1)), Q2) == 2


def test_verify_rejection_reasons():
    with pytest.raises(NotWeil) as e1:
        verify_weil(poly((6, -1, 1)), Q2)  # |P(0)| = 6 has a factor 3
    assert e1.value.reason == "constant-valuation"
    with pytest.raises(NotWeil) as e2:
        verify_weil(poly((Fraction(1, 3), 1)), Q2)
    assert e2.value.reason == "denominator"
    with pytest.raises(NotWeil) as e3:
        verify_weil(poly((2, -3, 1)), Q2)  # real roots 1, 2 off the circle
    assert e3.value.reason == "root-bound"
    # Frozen adversarial quartic: |P(0)| = 4 pins m = 1 but the root moduli
    # are {0.78, 1.03, 1.03, 4.80} with a complex conjugate pair, so beta is
    # not totally real (numpy oracle, frozen).
    with pytest.raises(NotWeil) as e4:
        verify_weil(poly((4, 0, -4, -4, 1)), Q2)
    assert e4.value.reason == "not-totally-real"


def test_verify_near_miss_scaled_circle():
    # All roots real absolute value sqrt(5) * (1 + eps) must be rejected:
    # T^2 - 5T + 5 has real roots (5 +- sqrt(5))/2, product 5, not on the circle.
    with pytest.raises(NotWeil) as exc:
        verify_weil(poly((5, -5, 1)), Q5)
    assert exc.value.reason == "root-bound"


# ------------------------------------------------------------- effectivity

def test_is_effective_examples():
    assert is_effective(orbit((2, -1, 1), Q2, 1))
    assert not is_effective(orbit((Fraction(-1, 2), 1), Q2, -2))
    assert is_effective(orbit((-2, 1), Q2, 2))


# ------------------------------------------------------------------ twists

def test_tate_twist_examples():
    e = orbit((-2, 1), Q2, 2)  # T - q
    t = tate_twist_orbit(e, 1)
    assert t.min_poly == poly((-1, 1)) and t.weight == 0
    h1 = TateStructure(Q2, ((orbit((2, -1, 1), Q2, 1), 1),))
    assert tate_twist(h1, 0) == h1
    tw = tate_twist_orbit(orbit((2, -1, 1), Q2, 1), 1)
    assert tw.min_poly == poly((Fraction(1, 2), Fraction(-1, 2), 1))
    assert tw.weight == -1


def test_tate_twist_involution(corpus_orbits):
    for o in corpus_orbits:
        v = TateStructure(o.base, ((o, 2),))
        for r in (1, 2):
            assert tate_twist(tate_twist(v, r), -r) == v


# ---------------------------------------------------------------- coniveau

def test_coniveau_examples():
    e_h1 = TateStructure(Q2, ((orbit((2, -1, 1), Q2, 1), 1),))
    # Oracle: newton slopes {0, 1}; alpha/2 has a slope-(-1) place, not integral.
    assert coniveau_sub(e_h1, 1).dimension == 0
    assert coniveau_sub(e_h1, 0) == e_h1
    v = TateStructure(Q2, ((orbit((-4, 1), Q2, 4), 3),))
    assert coniveau_sub(v, 2) == v


def test_coniveau_rejects_noneffective():
    v = TateStructure(Q2, ((orbit((Fraction(1, 2), 1), Q2, -2), 1),))
    with pytest.raises(NotEffectiveInput):
        coniveau_sub(v, 0)


def test_coniveau_monotone_and_bruteforce(corpus_orbits):
    effective = [o for o in corpus_orbits if is_effective(o)]
    base_groups: dict = {}
    for o in effective:
        base_groups.setdefault(o.base, []).append(o)
    for base, orbits in base_groups.items():
        chosen = orbits[:4]
        v = TateStructure(base, tuple((o, 1 + i % 2) for i, o in enumerate(chosen)))
        for r in range(0, 4):
            sub_r = coniveau_sub(v, r)
            sub_r1 = coniveau_sub(v, r + 1)
            kept_r = dict((o.min_poly, m) for o, m in sub_r.parts)
            for o, m in sub_r1.parts:
                assert kept_r.get(o.min_poly, 0) >= m  # F^r contains F^{r+1}
            # Brute force: largest sub-multiset with effective twist.
            best_dim, best = -1, None
            choices = [range(m + 1) for _, m in v.parts]
            for mults in iproduct(*choices):
                parts = tuple(
                    (o, k) for (o, _), k in zip(v.parts, mults) if k > 0
                )
                cand = TateStructure(base, parts)
                if all(
                    is_effective(tate_twist_orbit(o, r)) for o, _ in cand.parts
                ):
                    if cand.dimension > best_dim:
                        best_dim, best = cand.dimension, cand
            assert sub_r.dimension == best_dim
            assert sub_r == best


def test_coniveau_slope_bridge(corpus_orbits):
    # Orbit-integrality/slope equivalence: membership in F^r iff min slope >= r.
    for o in corpus_orbits:
        if not is_effective(o):
            continue
        v = TateStructure(o.base, ((o, 1),))
        polygon = newton_polygon(o.min_poly, o.base)
        for r in range(0, 4):
            member = coniveau_sub(v, r).dimension > 0
            assert member == (polygon.min_slope >= r)


# ---------------------------------------------------------- slope filtration

def test_slope_filtration_examples():
    e_h1 = TateStructure(Q2, ((orbit((2, -1, 1), Q2, 1), 1),))
    assert slope_filtration_dim(e_h1, 1) == 1
    assert slope_filtration_dim(e_h1, -1) == 2
    ss = TateStructure(Q2, ((orbit((2, 0, 1), Q2, 1), 1),))
    assert slope_filtration_dim(ss, Fraction(1, 2)) == 2


# ------------------------------------------------------ restriction + roots

def test_weil_restriction_examples():
    p = poly((2, -1, 1))
    assert weil_restriction_charpoly(p, Q2, 1) == p
    # Oracle: -2 is a Weil 4-number of weight 1; substitution gives T^2 + 2.
    assert weil_restriction_charpoly(poly((2, 1)), Q4, 2) == poly((2, 0, 1))
    assert weil_restriction_charpoly(poly((-4, 1)), Q4, 2) == poly((-4, 0, 1))


def test_weil_restriction_slope_invariance(corpus_orbits):
    for o in corpus_orbits:
        if o.base.a != 1 or not o.min_poly.is_integral():
            continue
        for m in (2, 3):
            big = PrimePower(o.base.p, m)
            try:
                w = verify_weil(o.min_poly, big)
            except NotWeil:
                continue
            restricted = weil_restriction_charpoly(o.min_poly, big, m)
            assert restricted.degree == m * o.degree
            before = newton_polygon(o.min_poly, big).slope_multiset()
            after = newton_polygon(restricted, o.base).slope_multiset()
            assert sorted(set(before)) == sorted(set(after))
            counts = {s: after.count(s) for s in set(after)}
            assert all(counts[s] == m * before.count(s) for s in counts)


def test_mth_root_examples():
    fs = mth_root_factors(poly((-2, 1)), Q2, 2)
    assert [f.min_poly for f in fs] == [poly((-2, 0, 1))]
    assert fs[0].weight == 1
    fs2 = mth_root_factors(poly((-4, 1)), Q4, 2)
    assert sorted(f.min_poly.coeffs for f in fs2) == [(-2, 1), (2, 1)]
    fs3 = mth_root_factors(poly((2, -1, 1)), Q2, 1)
    assert fs3[0].min_poly == poly((2, -1, 1))
    with pytest.raises(WeightMismatch):
        mth_root_factors(poly((-1, 1)), Q2, 1)


def test_mth_root_product_reconstruction(corpus_orbits):
    for o in corpus_orbits:
        if not (1 <= o.weight <= 4) or not is_effective(o):
            continue
        factors = mth_root_factors(o.min_poly, o.base, o.weight)
        prod = poly((1,))
        for f in factors:
            assert f.weight == 1
            prod = prod * f.min_poly
        assert prod == o.min_poly.substitute_power(o.weight)
