"""Exact symmetric-function kernel on integers: power sums and characteristic polynomials.

Every characteristic polynomial weilmot builds (tensor products, exterior
powers, the beta^2 test polynomial of Weil verification) is a symmetric
function of known roots.  It is read off their power sums by Newton's
identities -- the composed-product technique of Bostan, Flajolet, Salvy and
Schost, "Fast computation of special resultants" (JSC 2006) -- so no matrix
is ever formed.  Polynomials are dense ascending ``list[int]`` as in
``_modp``: callers scale the roots to algebraic integers first (P(T) ->
s^d P(T/s)), so every power sum and every Newton step stays in Z, and each
division by k is exact or certifies that the traces are not those of
algebraic integers.  ``det`` has no library caller: the benchmark traces it
by name.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CertificationFailed


def power_sums(a: list[int], n: int) -> list[int]:
    """[s_0, ..., s_n]: power sums of the roots of the monic integer a, s_0 = deg a.

    Newton's identities: s_k = -k*a_k - sum_{i=1}^{min(k-1, d)} a_i s_{k-i}
    for T^d + a_1 T^(d-1) + ... + a_d, where a_k = 0 for k > d.
    """
    d = len(a) - 1
    top = a[::-1]
    s = [d]
    for k in range(1, n + 1):
        acc = -k * top[k] if k <= d else 0
        s.append(acc - sum(top[i] * s[k - i] for i in range(1, min(k - 1, d) + 1)))
    return s


def charpoly(traces: list[int]) -> list[int]:
    """Monic integer polynomial of degree n = len(traces) - 1 with root power sums traces[1..n].

    Equivalently the characteristic polynomial of any operator M with
    tr(M^j) = traces[j].  Newton's identities for its coefficients
    c_k = (-1)^k e_k of T^(n-k): k c_k = -sum_{i=1}^k c_{k-i} s_i.  When the
    roots are algebraic integers each division by k is exact; a remainder
    raises CertificationFailed instead of being floored.
    """
    c = [1]
    for k in range(1, len(traces)):
        ck, rem = divmod(-sum(c[k - i] * traces[i] for i in range(1, k + 1)), k)
        if rem:
            raise CertificationFailed(
                f"Newton step {k} does not divide exactly: the traces are not "
                "power sums of algebraic integers"
            )
        c.append(ck)
    return c[::-1]


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
