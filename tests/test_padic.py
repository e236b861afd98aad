"""padic: valuations, Newton polygons, and place decompositions."""

from fractions import Fraction

import pytest

from weilmot import (
    NotIrreducible,
    PrimePower,
    ZeroConstantTerm,
    ZeroInput,
    newton_polygon,
    ord_q,
    padic_places,
)
from weilmot.poly import poly

Q2 = PrimePower(2, 1)
Q4 = PrimePower(2, 2)
Q8 = PrimePower(2, 3)
Q9 = PrimePower(3, 2)


def test_ord_q_examples():
    assert ord_q(8, Q2) == 3
    assert ord_q(4, Q8) == Fraction(2, 3)
    assert ord_q(Fraction(3, 2), Q2) == -1


def test_ord_q_zero_rejected():
    with pytest.raises(ZeroInput):
        ord_q(0, Q2)


def test_newton_polygon_examples():
    assert newton_polygon(poly((-2, 1)), Q2).segments == ((Fraction(1), 1),)
    # Oracle: a*abar = 2 and a+abar = 1 force exactly one unit root.
    assert newton_polygon(poly((2, -1, 1)), Q2).segments == (
        (Fraction(0), 1), (Fraction(1), 1),
    )
    # Oracle: T^2 + 2 is Eisenstein at 2, so both roots have ord 1/2.
    assert newton_polygon(poly((2, 0, 1)), Q2).segments == ((Fraction(1, 2), 2),)


def test_newton_polygon_rejects_zero_constant():
    with pytest.raises(ZeroConstantTerm):
        newton_polygon(poly((0, 0, 1)), Q2)


def test_polygon_area_is_constant_valuation(corpus_orbits):
    # sum slope * mult = ord_q |P(0)| exactly.
    for orbit in corpus_orbits:
        polygon = newton_polygon(orbit.min_poly, orbit.base)
        total = sum(s * m for s, m in polygon.segments)
        assert total == ord_q(abs(orbit.min_poly.constant_term), orbit.base)


def test_polygon_weight_symmetry(corpus_orbits):
    # Functional equation: the slope multiset is invariant under s -> m - s.
    for orbit in corpus_orbits:
        slopes = newton_polygon(orbit.min_poly, orbit.base).slope_multiset()
        reflected = sorted(orbit.weight - s for s in slopes)
        assert reflected == sorted(slopes)


def test_polygon_weil_area(corpus_orbits):
    # ord_q |P(0)| = m*d/2 for a weight-m orbit of degree d.
    for orbit in corpus_orbits:
        v = ord_q(abs(orbit.min_poly.constant_term), orbit.base)
        assert v == Fraction(orbit.weight * orbit.degree, 2)


def test_places_examples():
    # Oracle: the polygon has distinct slopes 0 and 1, forcing the split.
    pl = padic_places(poly((2, -1, 1)), Q2)
    assert [(p.slope, p.local_degree) for p in pl] == [
        (Fraction(0), 1), (Fraction(1), 1),
    ]
    # Oracle: Eisenstein implies irreducible over Q_2, one place of degree 2.
    pl2 = padic_places(poly((2, 0, 1)), Q2)
    assert [(p.slope, p.local_degree) for p in pl2] == [(Fraction(1, 2), 2)]
    pl3 = padic_places(poly((-1, 1)), Q2)
    assert [(p.slope, p.local_degree) for p in pl3] == [(Fraction(0), 1)]


def test_places_need_shift_cases():
    # Supersingular elliptic over F_9 (a = 3): the shift-0 residual is a
    # square; the schedule resolves it to one ramified place of degree 2.
    pl = padic_places(poly((9, -3, 1)), Q9)
    assert [(p.slope, p.local_degree) for p in pl] == [(Fraction(1, 2), 2)]
    # a = 0 over F_4: same story at p = 2.
    pl2 = padic_places(poly((4, 0, 1)), Q4)
    assert [(p.slope, p.local_degree) for p in pl2] == [(Fraction(1, 2), 2)]


def test_places_reject_reducible():
    with pytest.raises(NotIrreducible):
        padic_places(poly((2, -3, 1)), Q2)


def test_places_simple_abelian_surface():
    # T^4 - 2T^3 + 3T^2 - 4T + 4 over F_2 (an ordinary simple abelian
    # surface).  Oracle, by hand: mod 2 it factors as T^2 * (T+1)^2, so the
    # slope-1 and unit blocks split by Hensel; writing the unit block as
    # T^2 - sT + r, the symmetric-function relations force s = 2*sigma with
    # sigma = 3 (mod 4) and r = 7 (mod 8), so its discriminant has odd
    # 2-valuation (v = 3): one ramified place of degree 2.  The slope-1
    # block works out the same way.  Hence places are (0, 2) and (1, 2).
    pl = padic_places(poly((4, -4, 3, -2, 1)), Q2)
    assert [(p.slope, p.local_degree) for p in pl] == [
        (Fraction(0), 2), (Fraction(1), 2),
    ]


def test_places_split_unit_block():
    # T^4 + T^3 + 2T^2 + 2T + 4 over F_2 (if valid): mod 2 = T^4+T^3 = T^3(T+1):
    # exercised only when the data is Weil; use a constructed product instead:
    # (T^2 - T + 2)(T^2 + T + 2) = T^4 + 3T^2 + 4 is reducible over Q, so
    # check a degree-4 irreducible with split unit pair: T^4 - T^3 + T^2 - 2T + 4
    # (q = 2, trace 1): mod 2 = T^4 + T^3 + T^2 = T^2 (T^2+T+1): the unit
    # block has irreducible reduction, hence one unramified degree-2 place.
    pl = padic_places(poly((4, -2, 1, -1, 1)), Q2)
    assert sum(p.local_degree for p in pl) == 4
    assert [(p.slope, p.local_degree) for p in pl] == [
        (Fraction(0), 2), (Fraction(1), 2),
    ]


def test_places_surface_precision_exhausted():
    # T^4 + 6T^2 + 36 at p = 3: every shift in the schedule leaves a squared
    # residual (not a Weil polynomial for any prime power; the first-order
    # analysis cannot certify it).  The failure must surface, not approximate.
    from weilmot import PrecisionExhausted

    with pytest.raises(PrecisionExhausted):
        padic_places(poly((36, 0, 6, 0, 1)), PrimePower(3, 1))


def test_places_match_polygon(corpus_orbits):
    # Grouping places by slope reproduces the Newton polygon exactly.
    for orbit in corpus_orbits:
        if not orbit.min_poly.is_integral():
            continue
        places = padic_places(orbit.min_poly, orbit.base)
        assert sum(p.local_degree for p in places) == orbit.degree
        from_places: list[Fraction] = []
        for p in places:
            from_places.extend([p.slope] * p.local_degree)
        polygon = newton_polygon(orbit.min_poly, orbit.base).slope_multiset()
        assert sorted(from_places) == polygon


def test_place_ids_are_stable():
    places = padic_places(poly((2, -1, 1)), Q2)
    assert [p.place_id for p in places] == [0, 1]
    assert places == padic_places(poly((2, -1, 1)), Q2)
