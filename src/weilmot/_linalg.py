"""Exact dense linear algebra over the rationals.

Matrices are tuples of tuples of Fraction.  Provides companion matrices,
Kronecker products, k-th compound matrices, inverses, and characteristic
polynomials via Hessenberg reduction; everything downstream (tensor and
exterior charpolys, Weil verification) builds on these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .poly import RationalPolynomial

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    bt = list(zip(*b))
    return tuple(
        tuple(sum(ra[t] * cb[t] for t in range(k)) for cb in bt) for ra in a
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(a: Matrix, s) -> Matrix:
    s = Fraction(s)
    return tuple(tuple(s * x for x in row) for row in a)


def companion(p: RationalPolynomial) -> Matrix:
    """Companion matrix of a monic polynomial (eigenvalues = roots)."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix requires a monic polynomial of degree >= 1")
    d = p.degree
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = Fraction(1)
    for i in range(d):
        rows[i][d - 1] = -p.coeff(i)
    return tuple(tuple(r) for r in rows)


def kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    out = []
    for i in range(na):
        for k in range(nb):
            row = []
            for j in range(na):
                aij = a[i][j]
                row.extend(aij * b[k][l] for l in range(nb))
            out.append(tuple(row))
    return tuple(out)


def det(m: Matrix) -> Fraction:
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


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises ZeroDivisionError if singular."""
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def compound(m: Matrix, k: int) -> Matrix:
    """k-th compound matrix: entries are k x k minors over k-subsets.

    Its eigenvalues are the products of k distinct-index eigenvalues of m.
    """
    n = len(m)
    subsets = list(combinations(range(n), k))
    out = []
    for rows_idx in subsets:
        row = []
        for cols_idx in subsets:
            minor = tuple(
                tuple(m[i][j] for j in cols_idx) for i in rows_idx
            )
            row.append(det(minor))
        out.append(tuple(row))
    return tuple(out)


def charpoly(m: Matrix) -> RationalPolynomial:
    """Monic characteristic polynomial det(T*I - m), exactly.

    Reduces to upper Hessenberg form by exact similarity transformations,
    then applies the standard leading-minor recurrence.
    """
    n = len(m)
    if n == 0:
        return RationalPolynomial.one()
    h = [list(row) for row in m]
    for j in range(n - 2):
        pivot = next((r for r in range(j + 1, n) if h[r][j] != 0), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[j + 1], h[pivot] = h[pivot], h[j + 1]
            for r in range(n):
                h[r][j + 1], h[r][pivot] = h[r][pivot], h[r][j + 1]
        pv = h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j] == 0:
                continue
            t = h[i][j] / pv
            for c in range(j, n):
                h[i][c] -= t * h[j + 1][c]
            for r in range(n):
                h[r][j + 1] += t * h[r][i]
    # p_m(T) = (T - h[m-1][m-1]) p_{m-1} - sum_i h[i-1][m-1] (prod subdiag) p_{i-1}
    x = RationalPolynomial.x()
    ps = [RationalPolynomial.one()]
    for mm in range(1, n + 1):
        acc = (x - RationalPolynomial.constant(h[mm - 1][mm - 1])) * ps[mm - 1]
        prod = Fraction(1)
        for i in range(mm - 1, 0, -1):
            prod *= h[i][i - 1]
            coef = h[i - 1][mm - 1] * prod
            if coef != 0:
                acc = acc - coef * ps[i - 1]
        ps.append(acc)
    return ps[n]
