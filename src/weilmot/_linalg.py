"""Exact symmetric-function kernel: power sums and characteristic polynomials.

Every characteristic polynomial weilmot builds (tensor products, exterior
powers, the beta^2 test polynomial of Weil verification) is a symmetric
function of known roots.  It is read off their power sums by Newton's
identities -- the composed-product technique of Bostan, Flajolet, Salvy and
Schost, "Fast computation of special resultants" (JSC 2006) -- so no matrix
is ever formed.  ``det`` has no library caller: the benchmark traces it by name.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import RationalPolynomial


def power_sums(p: RationalPolynomial, n: int) -> list[Fraction]:
    """[s_0, ..., s_n]: power sums of the roots of monic p, with s_0 = deg p.

    Newton's identities: s_k = -k*a_k - sum_{i=1}^{min(k-1, d)} a_i s_{k-i}
    for p = T^d + a_1 T^(d-1) + ... + a_d, where a_k = 0 for k > d.
    """
    d = p.degree
    a = [p.coeff(d - i) for i in range(d + 1)]
    s = [Fraction(d)]
    for k in range(1, n + 1):
        acc = -k * a[k] if k <= d else Fraction(0)
        s.append(acc - sum(a[i] * s[k - i] for i in range(1, min(k - 1, d) + 1)))
    return s


def charpoly(traces) -> RationalPolynomial:
    """Monic polynomial of degree n = len(traces) - 1 with root power sums traces[1..n].

    Equivalently the characteristic polynomial of any operator M with
    tr(M^j) = traces[j].  Newton's identities for its coefficients
    c_k = (-1)^k e_k of T^(n-k): c_k = -(1/k) sum_{i=1}^k c_{k-i} s_i.
    """
    c = [Fraction(1)]
    for k in range(1, len(traces)):
        c.append(-sum(c[k - i] * traces[i] for i in range(1, k + 1)) / k)
    return RationalPolynomial(reversed(c))


def det(m: tuple[tuple[Fraction, ...], ...]) -> Fraction:
    """Determinant by fraction Gaussian elimination with pivoting."""
    n = len(m)
    rows = [list(r) for r in m]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pv = rows[col][col]
        result *= pv
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / pv
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return sign * result
