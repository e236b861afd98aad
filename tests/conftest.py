"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the code paths they check: float root
finding goes through numpy, elliptic-curve admissibility re-derives
Waterhouse's classification from scratch, and expected values in the test
modules are frozen from these oracles, not computed by the library.
"""

from __future__ import annotations

import math
import pathlib
import random

import numpy as np
import pytest

from weilmot import (
    PrimePower,
    WeilOrbit,
    ZetaData,
    motive_of,
    zeta_from_curve,
    zeta_point,
    zeta_product,
)
from weilmot.poly import RationalPolynomial, poly

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

ELLIPTIC_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def admissible_traces(q: int) -> list[int]:
    """Waterhouse's classification of elliptic isogeny classes over F_q."""
    pp = PrimePower.from_q(q)
    p, n = pp.p, pp.a
    out = []
    for a in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
        if a * a > 4 * q:
            continue
        if a % p != 0:
            out.append(a)
            continue
        root = isqrt_exact(q)
        if n % 2 == 0:
            if a in (2 * root, -2 * root):
                out.append(a)
            elif a in (root, -root) and p % 3 != 1:
                out.append(a)
            elif a == 0 and p % 4 != 1:
                out.append(a)
        else:
            if a == 0:
                out.append(a)
            elif p in (2, 3) and abs(a) == p ** ((n + 1) // 2):
                out.append(a)
    return sorted(out)


def elliptic_l1(q: int, a: int) -> RationalPolynomial:
    return poly((1, -a, q))


def elliptic_zeta(q: int, a: int) -> ZetaData:
    return zeta_from_curve(elliptic_l1(q, a), PrimePower.from_q(q))


def float_roots(p: RationalPolynomial) -> np.ndarray:
    """Numerically computed roots (descending-coefficient numpy convention)."""
    return np.roots([float(c) for c in reversed(p.coeffs)])


def poly_from_float_roots(roots) -> np.ndarray:
    """Ascending coefficient array of the monic polynomial with given roots."""
    return np.poly(roots)[::-1]


def coeffs_close(p: RationalPolynomial, float_coeffs, tol=1e-6) -> bool:
    """Per-coefficient agreement, relative to magnitude for large values."""
    got = [float(c) for c in p.coeffs]
    if len(got) != len(float_coeffs):
        return False
    for a, b in zip(got, float_coeffs):
        scale = max(1.0, abs(a), abs(b))
        if abs(a - b) > tol * scale:
            return False
    return True


def corpus_varieties() -> list[tuple[str, ZetaData]]:
    """The standing test corpus: points, P^1, curves, and products."""
    q2 = PrimePower(2, 1)
    q3 = PrimePower(3, 1)
    q4 = PrimePower(2, 2)
    e_ord = elliptic_zeta(2, 1)
    e_ss = elliptic_zeta(2, 0)
    e3 = elliptic_zeta(3, -1)
    e4_rational = elliptic_zeta(4, 4)      # supersingular, rational Frobenius
    p1 = zeta_from_curve(poly((1,)), q2)
    out = [
        ("point/F2", zeta_point(q2)),
        ("point/F3", zeta_point(q3)),
        ("P1/F2", p1),
        ("E-ordinary/F2", e_ord),
        ("E-supersingular/F2", e_ss),
        ("E/F3", e3),
        ("E-rational-ss/F4", e4_rational),
        ("ExE/F2", zeta_product(e_ord, e_ord)),
        ("ExE'/F2", zeta_product(e_ord, e_ss)),
        ("P1xP1/F2", zeta_product(p1, p1)),
        ("P1xE/F2", zeta_product(p1, e_ord)),
        ("ss-square/F4", zeta_product(
            zeta_from_curve(poly((1, -4, 4)), q4),
            zeta_from_curve(poly((1, -4, 4)), q4),
        )),
    ]
    return out


def harvest_orbits(varieties=None) -> list[WeilOrbit]:
    """All distinct orbits appearing in the corpus varieties."""
    seen = {}
    for _, z in (varieties or corpus_varieties()):
        for orbit, _ in motive_of(z).orbits():
            seen[(orbit.min_poly, orbit.base, orbit.weight)] = orbit
    return list(seen.values())


@pytest.fixture(scope="session")
def varieties():
    return corpus_varieties()


@pytest.fixture(scope="session")
def corpus_orbits(varieties):
    return harvest_orbits(varieties)


@pytest.fixture()
def rng():
    return random.Random(20260810)


def random_monic(rng: random.Random, max_degree: int, coeff_bound: int = 3) -> RationalPolynomial:
    d = rng.randint(1, max_degree)
    return poly([rng.randint(-coeff_bound, coeff_bound) for _ in range(d)] + [1])


def random_squarefree(rng: random.Random, max_degree: int) -> RationalPolynomial:
    while True:
        p = random_monic(rng, max_degree)
        if p.gcd(p.derivative()).is_constant:
            return p
