"""padic: valuations, Newton polygons, and place decompositions."""

import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilmot import (
    NotIrreducible,
    PrimePower,
    ZeroConstantTerm,
    ZeroInput,
    newton_polygon,
    ord_q,
    padic_places,
)
from weilmot.exact_arith import is_irreducible
from weilmot.poly import poly

PINNED = pathlib.Path(__file__).resolve().parent / "padic_pinned_places.json"

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


def test_places_with_repeated_order1_residual():
    # Supersingular elliptic over F_9 (a = 3): T^2 - 3T + 9 has one slope-1
    # side at p = 3 whose residual y^2 - y + 1 = (y + 1)^2 is a square mod 3.
    # The next order settles it: one ramified place of degree 2.
    pl = padic_places(poly((9, -3, 1)), Q9)
    assert [(p.slope, p.local_degree) for p in pl] == [(Fraction(1, 2), 2)]
    # a = 0 over F_4: T^2 + 4 has residual y^2 + 1 = (y + 1)^2 mod 2.
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


def test_places_surface_certified():
    # T^4 + 6T^2 + 36 at p = 3, which first-order analysis did not settle
    # under any of its 24 shifts T -> T + s.  By hand: T^2 = 6w with w a primitive cube root
    # of unity, and 6w = (sqrt(-3))^2 * (-2w) with -2w = 1 mod sqrt(-3), a
    # square in Q_3(sqrt(-3)).  All four roots lie in that ramified quadratic
    # field, so there are two places of degree 2, both with v(T) = 1/2.
    pl = padic_places(poly((36, 0, 6, 0, 1)), PrimePower(3, 1))
    assert [(p.slope, p.local_degree) for p in pl] == [
        (Fraction(1, 2), 2), (Fraction(1, 2), 2),
    ]


def test_places_reproduce_pinned_answers():
    # Every orbit of the pairwise zeta products of the curves in data/*.jsonl
    # that first-order analysis with up to 24 shifts T -> T + s certified,
    # with that analysis's answers; "attempts" > 1 marks the orbits that
    # needed a shift.
    rows = json.loads(PINNED.read_text())
    assert len(rows) >= 200 and sum(r["attempts"] > 1 for r in rows) >= 30
    for row in rows:
        places = padic_places(poly(row["coeffs"]), PrimePower(row["p"], row["a"]))
        assert [[str(p.slope), p.local_degree] for p in places] == row["places"], row


def _krasner_perturbation(g, h, p: int, k):
    """g*h + p^N*k with N = deg(gh) * v_p(disc(gh)) + 1, past Krasner's bound.

    Every root a of f = g*h + p^N k has v(f(a) - g*h(a)) >= N, so some root
    b of g*h lies within N / deg of it, closer than any other root of g*h
    (two roots of g*h differ by at most v_p(disc)); by Krasner's lemma the
    fields match, so f has the places of g and of h together.
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    gh = sympy.expand(g * h)
    n = sympy.degree(gh, x)
    bound = n * sympy.multiplicity(p, sympy.discriminant(gh, x)) + 1
    f = poly([int(c) for c in reversed(sympy.Poly(gh + p ** bound * k, x).all_coeffs())])
    assert is_irreducible(f)
    return f


def test_places_labelled_by_construction():
    x = pytest.importorskip("sympy").Symbol("x")
    # Irreducible reduction T^2 + T + 1 (unramified, degree 2) times an
    # Eisenstein cubic at 2 (totally ramified, v = 1/3).
    f = _krasner_perturbation(x**2 + x + 1, x**3 - 2, 2, x + 1)
    assert [(p.slope, p.local_degree) for p in padic_places(f, Q2)] == [
        (Fraction(0), 2), (Fraction(1, 3), 3),
    ]
    # Two Eisenstein quadratics at 3 with the same residue: x^2 - 3 and
    # x^2 - 12 give the order-1 residual (y - 1)^2, which is not squarefree.
    f = _krasner_perturbation(x**2 - 3, x**2 - 12, 3, x + 1)
    assert [(p.slope, p.local_degree) for p in padic_places(f, PrimePower(3, 1))] == [
        (Fraction(1, 2), 2), (Fraction(1, 2), 2),
    ]
    # g = 4 F(x^2 / 2) for F = y^2 + y + 1: x^2 = 2w, w a unit of the
    # unramified quadratic extension, so e = f = 2 and one place of degree 4.
    # h = g + 8 has the same type (its own order-1 residual is F).  g*h has
    # order-1 residual F(y)^2, so the split happens at order 2, where the
    # residual polynomials live over F_4.
    g = x**4 + 2 * x**2 + 4
    f = _krasner_perturbation(g, g + 8, 2, x + 1)
    assert [(p.slope, p.local_degree) for p in padic_places(f, Q2)] == [
        (Fraction(1, 2), 4), (Fraction(1, 2), 4),
    ]
    # (x - 3)^2 - 27 = x^2 - 6x - 18 at 3: residual (y - 1)^2 at slope 1, the
    # refined key polynomial x - 3 shows slope 3/2: roots 3 +- 3 sqrt(3).
    assert [(p.slope, p.local_degree) for p in padic_places(poly((-18, -6, 1)), PrimePower(3, 1))] == [
        (Fraction(1), 2),
    ]


_SMALL_POLYS = st.tuples(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.integers(-60, 60), min_size=2, max_size=7),
)


@settings(max_examples=150, deadline=None)
@given(_SMALL_POLYS, st.integers(-9, 9))
def test_places_properties_at_q_equal_p(case, shift):
    # For q = p, each finite invariant slope * [K_v : Q_p] = v_p(alpha) e f is
    # an integer, so it is 0 mod 1; local degrees per slope reproduce the
    # Newton polygon; and the local degrees of Q(alpha) = Q(alpha + s) do
    # not depend on the integer translate s.
    p, low = case
    f = poly(low + [1])
    if low[0] == 0 or not is_irreducible(f):
        return
    q = PrimePower(p, 1)
    places = padic_places(f, q)
    assert all((pl.slope * pl.local_degree).denominator == 1 for pl in places)
    from_places = sorted(s for pl in places for s in [pl.slope] * pl.local_degree)
    assert from_places == newton_polygon(f, q).slope_multiset()
    moved = f.shift(shift)
    if moved.constant_term != 0:
        assert sorted(pl.local_degree for pl in padic_places(moved, q)) == sorted(
            pl.local_degree for pl in places)


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
