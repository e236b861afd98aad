"""weil: verification, effectivity, twists, coniveau, restriction, m-th roots."""

import math
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weilmot.weil as weil_module
from weilmot import (
    NotEffectiveInput,
    NotMonic,
    NotWeil,
    PrimePower,
    TateStructure,
    WeightMismatch,
    WeilOrbit,
    ZeroConstantTerm,
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
from weilmot.poly import RationalPolynomial, poly

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


# --------------------------------------------- Fraction reference verifier
# Weil verification over Q as the library did it before its integer kernel:
# Fraction power sums and Newton steps, Fraction Euclid, a Fraction Sturm chain.

def reference_power_sums(p: RationalPolynomial, n: int) -> list[Fraction]:
    d = p.degree
    a = [p.coeff(d - i) for i in range(d + 1)]
    s = [Fraction(d)]
    for k in range(1, n + 1):
        acc = -k * a[k] if k <= d else Fraction(0)
        s.append(acc - sum(a[i] * s[k - i] for i in range(1, min(k - 1, d) + 1)))
    return s


def reference_charpoly(traces) -> RationalPolynomial:
    c = [Fraction(1)]
    for k in range(1, len(traces)):
        c.append(-sum(c[k - i] * traces[i] for i in range(1, k + 1)) / k)
    return RationalPolynomial(reversed(c))


def reference_beta_squared(p: RationalPolynomial, qm: Fraction) -> RationalPolynomial:
    """Roots beta^2, beta = alpha + qm/alpha, over Q: from s_k(alpha) and s_k(1/alpha)."""
    d = p.degree
    pos = reference_power_sums(p, 2 * d)
    neg = reference_power_sums(p.reversed_coeffs().monic(), 2 * d)
    traces = [d] + [
        sum(math.comb(2 * j, i) * qm ** (2 * j - i)
            * (pos[2 * (i - j)] if i >= j else neg[2 * (j - i)]) for i in range(2 * j + 1))
        for j in range(1, d + 1)
    ]
    return reference_charpoly(traces)


def reference_squarefree(f: RationalPolynomial) -> RationalPolynomial:
    a, b = f, f.derivative()
    while not b.is_zero:
        a, b = b, a % b
    return (f // a).monic()


def reference_variations(f: RationalPolynomial, points) -> list[int]:
    """Sign variations of the Fraction Sturm chain f, f', -rem, ... at -inf, points, +inf."""
    chain = [f, f.derivative()]
    while True:
        r = -(chain[-2] % chain[-1])
        if r.is_zero:
            break
        chain.append(r)

    def variations(signs):
        nz = [x for x in signs if x]
        return sum(a != b for a, b in zip(nz, nz[1:]))

    def sign(x):
        return (x > 0) - (x < 0)

    return (
        [variations([sign(g.leading) * (-1) ** g.degree for g in chain])]
        + [variations([sign(g(x)) for g in chain]) for x in points]
        + [variations([sign(g.leading) for g in chain])]
    )


def reference_verify_weil(p_poly: RationalPolynomial, q: PrimePower):
    """The weight, or (reason, message) of the NotWeil: the Fraction verifier, uncached."""
    p, a, d = q.p, q.a, p_poly.degree

    def p_part(n: int) -> tuple[int, int]:
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        return n, k

    for c in p_poly.coeffs:
        if p_part(c.denominator)[0] != 1:
            return ("denominator",
                    f"coefficient denominator {c.denominator} is not a power of p = {p}")
    const = p_poly.constant_term
    (num, up), (den, down) = p_part(abs(const.numerator)), p_part(const.denominator)
    if (num, den) != (1, 1):
        return "constant-valuation", f"|P(0)| = {abs(const)} is not a power of p = {p}"
    two_ord = 2 * (up - down)
    if two_ord % (a * d):
        return ("constant-valuation",
                f"ord_q|P(0)| = {Fraction(two_ord, 2 * a)} is not m*{d}/2 for integral m")
    m = two_ord // (a * d)
    qm = Fraction(q.q) ** m
    g = reference_squarefree(reference_beta_squared(p_poly, qm))
    root_at_zero = 1 if g.constant_term == 0 else 0
    at_neg_inf, at_zero, at_bound, at_pos_inf = reference_variations(g, (0, 4 * qm))
    if at_neg_inf - at_pos_inf < g.degree:
        return "not-totally-real", "beta is not totally real"
    if at_neg_inf - at_zero - root_at_zero:
        return "not-totally-real", "beta has imaginary embeddings"
    if at_zero - at_bound + root_at_zero < g.degree:
        return "root-bound", f"some |beta| exceeds 2*q^(m/2) for m = {m}"
    return m


def verdict(p_poly: RationalPolynomial, q: PrimePower):
    try:
        return verify_weil(p_poly, q)
    except NotWeil as exc:
        return exc.reason, str(exc)


@st.composite
def weil_candidates(draw):
    """Weil-shaped polynomials, their near misses and twists, over small q."""
    qq = draw(st.sampled_from((2, 3, 4, 5, 8, 9, 25, 27)))
    q = PrimePower.from_q(qq)
    qw = qq ** draw(st.integers(1, 3))
    hasse = math.isqrt(4 * qw)

    def elliptic():
        return poly((qw, -draw(st.integers(-hasse - 2, hasse + 2)), 1))

    kind = draw(st.sampled_from(
        ("linear", "boundary", "supersingular", "elliptic", "product", "perturbed", "random")))
    if kind == "linear":  # T -+ sqrt(q^w) when it is rational, else T -+ q^w
        root = math.isqrt(qw)
        p = poly((draw(st.sampled_from((1, -1))) * (root if root * root == qw else qw), 1))
    elif kind == "boundary":  # beta = +-2 sqrt(q^w): beta^2 = 4 q^w exactly
        p = poly((-qw, 0, 1))
    elif kind == "supersingular":  # beta = 0
        p = poly((qw, 0, 1))
    elif kind == "elliptic":  # traces up to 2 past the Hasse bound
        p = elliptic()
    elif kind == "product":
        p = elliptic() * elliptic()
    elif kind == "perturbed":
        p = elliptic() * elliptic()
        coeffs = list(p.coeffs)
        i = draw(st.integers(1, p.degree - 1))
        coeffs[i] += draw(st.sampled_from((1, -1, q.p, -q.p, Fraction(1, q.p), Fraction(1, 7))))
        p = poly(coeffs)
    else:
        degree = draw(st.integers(1, 5))
        middle = [draw(st.integers(-qw, qw)) for _ in range(degree - 1)]
        p = poly([draw(st.sampled_from((1, -1))) * qq ** draw(st.integers(0, degree))]
                 + middle + [1])
    # a Tate twist by r lowers the weight by 2r (to -1 and -3 from weight 1)
    # and gives the coefficients p-power denominators
    return p.scale_roots(Fraction(1, qq) ** draw(st.integers(0, 2))), q


@settings(max_examples=300, deadline=None)
@given(weil_candidates())
@example((poly((-2, 1)), PrimePower.from_q(4)))  # T - sqrt(q)
@example((poly((2, 1)), PrimePower.from_q(4)))  # T + sqrt(q)
@example((poly((Fraction(1, 2), Fraction(-1, 2), 1)), Q2))  # weight -1
@example((poly((Fraction(1, 32), Fraction(-1, 8), 1)), Q2))  # weight -3
@example((poly((2, 0, 1)), Q2))  # beta = 0
@example((poly((-2, 0, 1)), Q2))  # beta^2 = 4q
@example((poly((5, -5, 1)), Q5))  # the near miss of test_verify_near_miss_scaled_circle
@example((poly((4, 0, -4, -4, 1)), Q2))
@example((poly((Fraction(1, 3), 1)), Q2))
def test_verify_matches_fraction_reference(case):
    p_poly, q = case
    assert verdict(p_poly, q) == reference_verify_weil(p_poly, q), case


def test_verify_runs_once_per_orbit(monkeypatch):
    calls = []
    charpoly = weil_module.charpoly
    monkeypatch.setattr(weil_module, "charpoly", lambda traces: calls.append(1) or charpoly(traces))
    weil_module._weil_verdict.cache_clear()
    p = poly((7, -3, 1))
    assert verify_weil(p, PrimePower(7, 1)) == verify_weil(p, PrimePower(7, 1)) == 1
    assert len(calls) == 1
    assert weil_module._weil_verdict.cache_info().maxsize == 4096


def test_cached_rejection_is_raised_fresh():
    raised = []
    for _ in range(2):
        with pytest.raises(NotWeil) as exc:
            verify_weil(poly((2, -3, 1)), Q2)
        raised.append(exc.value)
    first, second = raised
    assert first is not second
    assert (str(first), first.reason) == (str(second), second.reason)
    assert first.reason == "root-bound"


def test_precondition_errors_are_not_verdicts():
    weil_module._weil_verdict.cache_clear()
    for p, error in ((poly((1, 2)), NotMonic), (poly((3,)), NotMonic),
                     (poly((0, 1)), ZeroConstantTerm), (poly((0, 5, 1)), ZeroConstantTerm)):
        for _ in range(2):
            with pytest.raises(error):
                verify_weil(p, Q2)
    assert weil_module._weil_verdict.cache_info().currsize == 0


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
