"""endalg: Brauer blocks, A(X), ranks, Witt-vector ranks, Honda-Tate data."""

import time
from fractions import Fraction

import pytest

from conftest import elliptic_zeta
from weilmot import (
    IndexDivisibilityError,
    PrimePower,
    WeightMismatch,
    WeilOrbit,
    brauer_block,
    compute_A,
    curve_end_algebra,
    honda_tate_dimension,
    orbit_index,
    rank_from_algebra,
    weight1_realization,
    witt_vector_rank,
    zeta_from_curve,
    zeta_point,
    zeta_product,
)
from weilmot import padic
from weilmot.motives import ZetaData, motive_of
from weilmot.poly import poly

Q2 = PrimePower(2, 1)
Q3 = PrimePower(3, 1)
Q4 = PrimePower(2, 2)
Q9 = PrimePower(3, 2)


def orbit(coeffs, base, weight):
    return WeilOrbit(min_poly=poly(coeffs), base=base, weight=weight)


# ------------------------------------------------------------ brauer blocks

def test_brauer_block_ordinary():
    # Oracle (Tate): an ordinary elliptic curve has commutative End^0, so
    # both p-adic invariants vanish and e = 1.
    b = brauer_block(orbit((2, -1, 1), Q2, 1), n_odd=True)
    assert [(p.slope, inv) for p, inv in b.finite_invariants] == [
        (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
    ]
    assert b.real_places == 0 and b.index_e == 1
    assert b.invariant_sum == 0


def test_brauer_block_quaternion():
    # Oracle (Deuring): supersingular with all endomorphisms defined has
    # quaternion End^0 ramified exactly at {p, infinity}.
    b = brauer_block(orbit((-2, 1), Q4, 1), n_odd=True)
    assert b.orbit_size == 1
    assert [(p.slope, inv) for p, inv in b.finite_invariants] == [
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    assert b.real_places == 1 and b.real_invariant == Fraction(1, 2)
    assert b.index_e == 2
    assert b.invariant_sum == 1


def test_brauer_block_unit_even():
    b = brauer_block(orbit((-1, 1), Q2, 0), n_odd=False)
    assert b.index_e == 1 and b.real_invariant == 0
    assert b.invariant_sum == 0


def test_brauer_block_real_quadratic():
    # sqrt(q) orbit: two real places each carrying 1/2 when n is odd, one
    # p-place with invariant (1/2)*2 = 0; e = 2, reciprocity sum 1.
    b = brauer_block(orbit((-2, 0, 1), Q2, 1), n_odd=True)
    assert b.real_places == 2 and b.real_invariant == Fraction(1, 2)
    assert b.index_e == 2
    assert b.invariant_sum == 1


def test_orbit_index_parity():
    # T - q over q: weight 2 (even): no real contribution, e = 1.
    assert orbit_index(orbit((-2, 1), Q2, 2)) == 1
    # T - p over q = p^2: weight 1 (odd): quaternion, e = 2.
    assert orbit_index(orbit((-2, 1), Q4, 1)) == 2


def test_brauer_block_noneffective_orbit():
    # T^2 - (3/2)T + 2 over F_2 is a weight-1 Weil orbit with slopes
    # {-1, 2}: not effective, but twisting by q makes it integral
    # (T^2 - 3T + 8, slopes {0, 3}) and integer twists leave the local
    # invariants unchanged mod 1, so the block is still computable.
    o = orbit((2, Fraction(-3, 2), 1), Q2, 1)
    b = brauer_block(o, n_odd=True)
    assert sorted(p.slope for p, _ in b.finite_invariants) == [
        Fraction(-1), Fraction(2),
    ]
    assert all(inv == 0 for _, inv in b.finite_invariants)
    assert b.index_e == 1 and b.invariant_sum == 0


def test_effective_model_is_the_least_integral_twist():
    from weilmot import WeilmotError, tate_twist_orbit
    from weilmot.endalg import _effective_model

    for coeffs in ((2, -1, 1), (2, 0, 1)):  # slopes {0, 1} and {1/2, 1/2}
        o = orbit(coeffs, Q2, 1)
        for r in range(4):
            model, shift = _effective_model(tate_twist_orbit(o, r).min_poly, Q2)
            assert (model, shift) == (o.min_poly, r)
    with pytest.raises(WeilmotError, match="could not clear denominators"):
        _effective_model(poly((Fraction(1, 3), 1)), Q2)  # 3 is not a power of p


# ----------------------------------------------------------------- compute_A

def test_compute_A_point():
    a = compute_A(zeta_point(Q2))
    assert len(a.blocks) == 1
    assert a.blocks[0].orbit_size == 1 and a.blocks[0].index_e == 1
    assert a.dimension_q == 1 and rank_from_algebra(a) == 1


def test_compute_A_ordinary_curve():
    a = curve_end_algebra(poly((1, -1, 2)), Q2)
    assert len(a.blocks) == 1
    b = a.blocks[0]
    assert (b.orbit_size, b.index_e, b.matrix_size_r, b.real_places) == (2, 1, 1, 0)
    assert a.dimension_q == 2 and rank_from_algebra(a) == 2


def test_compute_A_supersingular_square_is_zero():
    # Example-16 shape: square of a supersingular elliptic curve over F_{p^2}
    # has all H^2 eigenvalues of slope 1, so S(X) is empty and A = 0.
    for p in (2, 3, 5):
        qp2 = PrimePower(p, 2)
        e = zeta_from_curve(poly((1, -2 * p, p * p)), qp2)
        square = zeta_product(e, e)
        a = compute_A(square)
        assert a.is_zero and a.dimension_q == 0
        assert rank_from_algebra(a) == 0
        assert witt_vector_rank(square) == 0


def _timed_compute_A(z):
    padic._places_cached.cache_clear()  # time the place analysis, not a cache hit
    start = time.perf_counter()
    a = compute_A(z)
    return a, time.perf_counter() - start


def test_compute_A_product_of_genus2_curves():
    # C1 (L = 1 + T + 3T^2 + 3T^3 + 9T^4, p-rank 1) times C2 (ordinary) over
    # F_3: the degree-16 weight-2 orbit has slopes 0, 1/2, 1, 3/2, 2, and
    # first-order analysis could not certify its places under any shift.
    c1 = zeta_from_curve(poly((1, 1, 3, 3, 9)), Q3)
    c2 = zeta_from_curve(poly((1, 2, 4, 6, 9)), Q3)
    a, seconds = _timed_compute_A(zeta_product(c1, c2))
    [block] = [b for b in a.blocks if b.orbit_size == 16]
    assert sorted(p.local_degree for p, _ in block.finite_invariants) == [2, 2, 2, 2, 4, 4]
    # q = p: every invariant slope * local degree is an integer
    assert all(inv == 0 for b in a.blocks for _, inv in b.finite_invariants)
    assert all(b.invariant_sum.denominator == 1 for b in a.blocks)  # Brauer reciprocity
    assert seconds < 1


def test_compute_A_elliptic_product_over_f16():
    # E: L = 1 - T + 16T^2 and E': L = 1 - 7T + 16T^2 are ordinary over F_16,
    # so their unit roots lie in Q_2 and so does every product of roots: the
    # orbit T^4 - 7T^3 + 288T^2 - 1792T + 65536 has four places of degree 1.
    q16 = PrimePower(2, 4)
    e1 = zeta_from_curve(poly((1, -1, 16)), q16)
    e2 = zeta_from_curve(poly((1, -7, 16)), q16)
    a, seconds = _timed_compute_A(zeta_product(e1, e2))
    [block] = [b for b in a.blocks if b.center_poly == poly((65536, -1792, 288, -7, 1))]
    assert [(p.slope, p.local_degree) for p, _ in block.finite_invariants] == [
        (Fraction(0), 1), (Fraction(1), 1), (Fraction(1), 1), (Fraction(2), 1),
    ]
    assert block.invariant_sum.denominator == 1 and block.index_e == 1
    assert all(b.invariant_sum.denominator == 1 for b in a.blocks)
    assert seconds < 1


def test_compute_A_depends_only_on_middle_weight():
    # Birational-invariance proxy: A is a function of the weight-n orbits
    # with min slope < 1 alone.  Strip H^1 and H^3 off a surface (still
    # valid zeta data) and check the blocks do not move.
    ee = zeta_product(elliptic_zeta(2, 1), elliptic_zeta(2, 0))
    stripped = ZetaData(
        base=Q2, dim_n=2,
        l_polys=(ee.l_polys[0], poly((1,)), ee.l_polys[2], poly((1,)),
                 ee.l_polys[4]),
    )
    from weilmot.motives import validate_zeta

    assert validate_zeta(stripped).passed
    assert compute_A(stripped).blocks == compute_A(ee).blocks
    # weight override: n = 1 sees the H^1 part instead
    a_w1 = compute_A(ee, weight_n=1)
    assert rank_from_algebra(a_w1) == motive_of(ee).part(1).dimension


def test_curve_end_algebra_examples():
    # Ordinary E/F_2: the imaginary quadratic field of discriminant -7.
    a = curve_end_algebra(poly((1, -1, 2)), Q2)
    assert a.blocks[0].center_poly == poly((2, -1, 1))
    disc = 1 - 4 * 2
    assert disc == -7
    # a = 0 over F_p, p odd: Q(sqrt(-p)): one ramified place, inv = 0, e = 1.
    a2 = curve_end_algebra(poly((1, 0, 3)), Q3)
    b2 = a2.blocks[0]
    assert b2.orbit_size == 2 and b2.index_e == 1
    assert [(p.slope, inv) for p, inv in b2.finite_invariants] == [
        (Fraction(1, 2), Fraction(0)),
    ]
    # (1 - pT)^2 over q = p^2: M_1(quaternion), multiplicity 2 = r * e.
    a3 = curve_end_algebra(poly((1, -4, 4)), Q4)
    b3 = a3.blocks[0]
    assert (b3.matrix_size_r, b3.index_e, b3.orbit_size) == (1, 2, 1)
    assert rank_from_algebra(a3) == 2 and a3.dimension_q == 4


def test_weight1_totality_for_curves():
    # |alpha/q| = q^(-1/2) < 1 can never be an algebraic integer, so S(X)
    # keeps every H^1 orbit of every curve.
    for q, a in ((2, 1), (3, 0), (4, 4), (9, 3), (5, 2)):
        z = elliptic_zeta(q, a)
        alg = compute_A(z)
        assert rank_from_algebra(alg) == motive_of(z).part(1).dimension == 2


def test_index_divisibility_error():
    # Structurally valid zeta data (not a curve: odd first Betti number)
    # whose weight-1 orbit T - 2 over F_4 is quaternionic (e = 2) but
    # appears with multiplicity 1: not realizable as a motive.
    z = ZetaData(
        base=Q4, dim_n=1,
        l_polys=(poly((1, -1)), poly((1, -2)), poly((1, -4))),
    )
    from weilmot.motives import validate_zeta

    assert validate_zeta(z).passed
    with pytest.raises(IndexDivisibilityError):
        compute_A(z)


# -------------------------------------------------------- rank / witt rank

def test_rank_formula_blocks():
    from dataclasses import replace

    a = curve_end_algebra(poly((1, -4, 4)), Q4)
    quaternion = a.blocks[0]
    assert quaternion.matrix_size_r * quaternion.orbit_size * quaternion.index_e == 2
    m2q = replace(
        brauer_block(orbit((-1, 1), Q2, 0), n_odd=False), matrix_size_r=2
    )
    from weilmot.endalg import AlgebraDescription

    alg = AlgebraDescription(blocks=(m2q,), base=Q2, ambient_weight_n=0)
    assert rank_from_algebra(alg) == 2
    assert alg.dimension_q == 4
    empty = AlgebraDescription(blocks=(), base=Q2, ambient_weight_n=2)
    assert rank_from_algebra(empty) == 0


def test_witt_vector_rank_examples():
    assert witt_vector_rank(elliptic_zeta(2, 1)) == 1   # slopes {0, 1}
    p1 = zeta_from_curve(poly((1,)), Q2)
    assert witt_vector_rank(p1) == 0
    # supersingular square: all H^2 slopes 1 -> 0 (tested above as well)
    e = zeta_from_curve(poly((1, -4, 4)), Q4)
    assert witt_vector_rank(zeta_product(e, e)) == 0


def test_witt_zero_implies_A_zero(varieties):
    for name, z in varieties:
        if witt_vector_rank(z) == 0:
            assert compute_A(z).is_zero, name


# -------------------------------------------------------------- Honda-Tate

def test_honda_tate_examples():
    assert honda_tate_dimension(orbit((2, -1, 1), Q2, 1)) == 1
    assert honda_tate_dimension(orbit((-2, 1), Q4, 1)) == 1
    assert honda_tate_dimension(orbit((2, 0, 1), Q2, 1)) == 1
    # sqrt(q), q nonsquare: simple abelian surface.
    assert honda_tate_dimension(orbit((-2, 0, 1), Q2, 1)) == 2
    with pytest.raises(WeightMismatch):
        honda_tate_dimension(orbit((-2, 1), Q2, 2))


# ------------------------------------------------------ weight-1 realization

def test_weight1_realization_examples():
    q_m, restricted, m = weight1_realization(orbit((2, -1, 1), Q2, 1))
    assert q_m == Q2 and restricted == poly((2, -1, 1)) and m == 1
    # T - q over q, weight 2: restriction is T^2 - q over q; the doubled
    # exterior square contains the eigenvalue q = sqrt(q) * sqrt(q).
    q_m2, restricted2, m2 = weight1_realization(orbit((-2, 1), Q2, 2))
    assert q_m2 == Q4 and restricted2 == poly((-2, 0, 1)) and m2 == 2


def test_weight1_realization_weight3(corpus_orbits):
    done = 0
    for o in corpus_orbits:
        if o.weight in (2, 3) and o.degree <= 2 and o.min_poly.is_integral():
            q_m, restricted, m = weight1_realization(o)
            assert restricted == o.min_poly.substitute_power(m)
            assert q_m.q == o.base.q ** m
            done += 1
    assert done >= 2


# -------------------------------------------------------------- reciprocity

def test_reciprocity_on_corpus_orbits(corpus_orbits):
    for o in corpus_orbits:
        block = brauer_block(o, n_odd=o.weight % 2 == 1)
        assert block.invariant_sum.denominator == 1, o.min_poly
