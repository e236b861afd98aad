"""Integer-list polynomials: products and remainders over Z, arithmetic mod p^k.

Internal kernel for products, gcds, Sturm chains and the CRT cofactors
(``zx_``, over Z), and for Zassenhaus factorization, p-adic places and CRT
lifting (``mp_``, reduced mod p or p^k).  ``FiniteField`` is the arithmetic
over F_q = F_p[t]/(m) that the residual polynomials of p-adic place analysis
need.  Polynomials are dense ``list[int]``, ascending, no trailing zeros.
``zx_mul`` is the one multiplication loop; ``mp_mul`` reduces its output.

Equal-degree splitting uses Cantor-Zassenhaus with a seeded generator, so
factorizations are deterministic across runs.
"""

from __future__ import annotations

import math
import random


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def zx_primitive(f: list[int]) -> list[int]:
    """f divided by the positive gcd of its coefficients; signs are kept."""
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else list(f)


def zx_mul(f: list[int], g: list[int]) -> list[int]:
    """f * g in Z[x] (no trailing zeros, since Z has no zero divisors)."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def zx_pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(Q, R) with |lc b|^max(deg a - deg b + 1, 0) * a = Q*b + R, deg R < deg b.

    The scale is positive, so R is a positive multiple of the remainder over
    Q; for monic b it is 1 and this is plain division in Z[x].
    """
    db, scale = len(b) - 1, abs(b[-1])
    q, r = [0] * max(len(a) - db, 0), list(a)
    for k in reversed(range(len(q))):
        q[k] = c = r.pop() if b[-1] > 0 else -r.pop()
        if scale != 1:
            r = [x * scale for x in r]
        for j in range(db):
            r[k + j] -= c * b[j]
    return trim([c * scale ** k for k, c in enumerate(q)]), trim(r)


def zx_prs(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed primitive remainder sequence a, b, -prem(a, b)/content, ... over Z.

    Its last entry is gcd(a, b) up to a constant, and for b = a' it is a Sturm
    chain of a (Collins, JACM 1967; von zur Gathen & Gerhard, MCA ch. 6).
    """
    seq = [a]
    while b:
        seq.append(b)
        b = zx_primitive([-c for c in zx_pdivmod(seq[-2], b)[1]])
    return seq


def mp_reduce(f: list[int], m: int) -> list[int]:
    return trim([c % m for c in f])


def mp_degree(f: list[int]) -> int:
    return len(f) - 1


def mp_monic(f: list[int], p: int) -> list[int]:
    if not f or f[-1] == 1:
        return list(f)
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def mp_add(f: list[int], g: list[int], m: int) -> list[int]:
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % m
                 for i in range(n)])


def mp_sub(f: list[int], g: list[int], m: int) -> list[int]:
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % m
                 for i in range(n)])


def mp_mul(f: list[int], g: list[int], m: int) -> list[int]:
    """f * g mod m: the product over Z, each coefficient reduced once."""
    return trim([c % m for c in zx_mul(f, g)])


def mp_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division over F_p (g's leading coefficient is inverted mod p)."""
    if not g:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    f = [c % p for c in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        if f[-1] == 0:
            f.pop()
            continue
        k = len(f) - 1 - dg
        factor = f[-1] * inv % p
        q[k] = factor
        for i in range(dg + 1):
            f[k + i] = (f[k + i] - factor * g[i]) % p
        f.pop()
    return trim(q), trim(f)


def mp_mod(f: list[int], g: list[int], p: int) -> list[int]:
    return mp_divmod(f, g, p)[1]


def mp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = [c % p for c in f], [c % p for c in g]
    trim(a), trim(b)
    while b:
        a, b = b, mp_mod(a, b, p)
    return mp_monic(a, p)


def mp_xgcd(f: list[int], g: list[int], p: int):
    """Returns (gcd, u, v), gcd monic, with u*f + v*g = gcd (mod p)."""
    a, b = trim([c % p for c in f]), trim([c % p for c in g])
    u0, v0 = [1], []
    u1, v1 = [], [1]
    while b:
        q, r = mp_divmod(a, b, p)
        a, b = b, r
        u0, u1 = u1, mp_sub(u0, mp_mul(q, u1, p), p)
        v0, v1 = v1, mp_sub(v0, mp_mul(q, v1, p), p)
    if not a:
        return a, u0, v0
    inv = pow(a[-1], -1, p)
    return (mp_monic(a, p),
            trim([c * inv % p for c in u0]),
            trim([c * inv % p for c in v0]))


def mp_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = mp_mod(base, mod, p)
    while e:
        if e & 1:
            result = mp_mod(mp_mul(result, base, p), mod, p)
        base = mp_mod(mp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def mp_derivative(f: list[int], p: int) -> list[int]:
    return trim([i * f[i] % p for i in range(1, len(f))])


def mp_is_squarefree(f: list[int], p: int) -> bool:
    d = mp_derivative(f, p)
    if not d:
        return mp_degree(f) <= 0
    return mp_degree(mp_gcd(f, d, p)) == 0


# ------------------------------------------------------------- factorization

def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of squarefree monic f: [(block, d), ...]."""
    out = []
    x = [0, 1]
    h = list(x)
    rest = list(f)
    d = 0
    while mp_degree(rest) >= 2 * (d + 1):
        d += 1
        h = mp_pow_mod(h, p, rest, p)
        g = mp_gcd(mp_sub(h, x, p), rest, p)
        if mp_degree(g) > 0:
            out.append((g, d))
            rest, _ = mp_divmod(rest, g, p)
            h = mp_mod(h, rest, p)
    if mp_degree(rest) > 0:
        out.append((rest, mp_degree(rest)))
    return out


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Equal-degree splitting: f squarefree monic with all factors of degree d."""
    n = mp_degree(f)
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if mp_degree(a) < 1:
            continue
        g = mp_gcd(a, f, p)
        if not 0 < mp_degree(g) < n:
            if p == 2:
                t = list(a)
                acc = list(a)
                for _ in range(d - 1):
                    t = mp_mod(mp_mul(t, t, p), f, p)
                    acc = mp_add(acc, t, p)
                g = mp_gcd(acc, f, p)
            else:
                b = mp_pow_mod(a, (p ** d - 1) // 2, f, p)
                g = mp_gcd(mp_sub(b, [1], p), f, p)
        if 0 < mp_degree(g) < n:
            rest, _ = mp_divmod(f, g, p)
            return _edf(g, d, p, rng) + _edf(rest, d, p, rng)


def mp_factor_squarefree(f: list[int], p: int) -> list[list[int]]:
    """Irreducible monic factors of a squarefree monic f over F_p, sorted."""
    if mp_degree(f) <= 0:
        return []
    rng = random.Random(0x5EED ^ (p * 1048583) ^ len(f))
    factors: list[list[int]] = []
    for block, d in _ddf(f, p):
        factors.extend(_edf(block, d, p, rng))
    factors.sort(key=lambda g: (len(g), tuple(reversed(g))))
    return factors


def mp_factor(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Irreducible monic factors of f mod p with their multiplicities, sorted.

    Squarefree decomposition over F_p (gcds with the derivative, and a p-th
    root where the derivative vanishes), then each squarefree part split by
    ``mp_factor_squarefree``.
    """
    out: list[tuple[list[int], int]] = []
    for part, mult in _mp_squarefree_parts(mp_monic(mp_reduce(f, p), p), p):
        out.extend((g, mult) for g in mp_factor_squarefree(part, p))
    out.sort(key=lambda gm: (len(gm[0]), tuple(reversed(gm[0])), gm[1]))
    return out


def _mp_squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """[(g_i, i)] with f = prod g_i^i over F_p, each g_i squarefree (f monic)."""
    out = []
    c = mp_gcd(f, mp_derivative(f, p), p)
    w = mp_divmod(f, c, p)[0]
    i = 1
    while mp_degree(w) > 0:
        y = mp_gcd(w, c, p)
        fac = mp_divmod(w, y, p)[0]
        if mp_degree(fac) > 0:
            out.append((fac, i))
        w, c, i = y, mp_divmod(c, y, p)[0], i + 1
    if mp_degree(c) > 0:
        # c(T) = h(T^p) = h(T)^p over the prime field (a^p = a)
        root = [c[k] for k in range(0, len(c), p)]
        out.extend((g, m * p) for g, m in _mp_squarefree_parts(root, p))
    return out


def mp_irreducible(degree: int, p: int) -> list[int]:
    """The first monic irreducible polynomial of the given degree over F_p.

    Candidates T^degree + c(T) are tried in the order of c read as a
    base-p number, so the choice is deterministic.
    """
    for n in range(1, p ** degree):
        f = [(n // p ** k) % p for k in range(degree)] + [1]
        if f[0] and mp_factor(f, p) == [(f, 1)]:
            return f
    raise ValueError(f"no irreducible polynomial of degree {degree} over F_{p}")


def mp_matrix_inverse(rows: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of an invertible square matrix over F_p (Gauss-Jordan)."""
    n = len(rows)
    work = [[c % p for c in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, p)
        work[col] = [c * inv % p for c in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


class FiniteField:
    """F_q = F_p[t]/(m) for a monic irreducible m over F_p, q = p^deg m.

    Elements are ``list[int]`` polynomials in t (ascending, trimmed, degree
    below deg m); polynomials over F_q are lists of elements, ascending,
    with no trailing zero element.  This is the arithmetic the residual
    polynomials of p-adic place analysis need: products, division, gcd,
    and factorization with multiplicities.
    """

    def __init__(self, p: int, modulus: list[int]):
        self.p, self.modulus = p, list(modulus)
        self.degree = len(modulus) - 1
        self.q = p ** self.degree

    # ------------------------------------------------------------ elements

    def add(self, a: list[int], b: list[int]) -> list[int]:
        return mp_add(a, b, self.p)

    def sub(self, a: list[int], b: list[int]) -> list[int]:
        return mp_sub(a, b, self.p)

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        return mp_mod(mp_mul(a, b, self.p), self.modulus, self.p)

    def inv(self, a: list[int]) -> list[int]:
        return mp_mod(mp_xgcd(a, self.modulus, self.p)[1], self.modulus, self.p)

    def pow(self, a: list[int], e: int) -> list[int]:
        if e < 0:
            a, e = self.inv(a), -e
        return mp_pow_mod(a, e, self.modulus, self.p)

    # ------------------------------------------------------- polynomials

    def _trim(self, f: list[list[int]]) -> list[list[int]]:
        while f and not f[-1]:
            f.pop()
        return f

    def poly_monic(self, f: list[list[int]]) -> list[list[int]]:
        inv = self.inv(f[-1])
        return [self.mul(c, inv) for c in f]

    def poly_sub(self, f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
        n = max(len(f), len(g))
        return self._trim([self.sub(f[i] if i < len(f) else [], g[i] if i < len(g) else [])
                           for i in range(n)])

    def poly_mul(self, f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
        """f * g: products summed over F_p[t], each coefficient reduced mod m once."""
        if not f or not g:
            return []
        out: list[list[int]] = [[] for _ in range(len(f) + len(g) - 1)]
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    if b:
                        out[j] = mp_add(out[j], mp_mul(a, b, self.p), self.p)
        return self._trim([mp_mod(c, self.modulus, self.p) for c in out])

    def poly_divmod(self, f: list[list[int]], g: list[list[int]]):
        dg = len(g) - 1
        inv = self.inv(g[-1])
        r = list(f)
        q: list[list[int]] = [[] for _ in range(max(len(f) - dg, 0))]
        for k in reversed(range(len(q))):
            c = q[k] = self.mul(r.pop(), inv)
            if c:
                for j in range(dg):
                    r[k + j] = self.sub(r[k + j], self.mul(c, g[j]))
        return self._trim(q), self._trim(r)

    def poly_gcd(self, f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
        while g:
            f, g = g, self.poly_divmod(f, g)[1]
        return self.poly_monic(f)

    def poly_pow_mod(self, f: list[list[int]], e: int, mod: list[list[int]]) -> list[list[int]]:
        result: list[list[int]] = [[1]]
        f = self.poly_divmod(f, mod)[1]
        while e:
            if e & 1:
                result = self.poly_divmod(self.poly_mul(result, f), mod)[1]
            f = self.poly_divmod(self.poly_mul(f, f), mod)[1]
            e >>= 1
        return result

    def factor(self, f: list[list[int]]) -> list[tuple[list[list[int]], int]]:
        """Monic irreducible factors of f over F_q with multiplicities, sorted."""
        if self.degree == 1:
            # F_p itself: elements are constants, use the integer kernels
            ints = [c[0] if c else 0 for c in f]
            return [([[c] if c else [] for c in g], m) for g, m in mp_factor(ints, self.p)]
        out = []
        for part, mult in self._squarefree_parts(self.poly_monic(f)):
            out.extend((g, mult) for g in self._split(part))
        out.sort(key=lambda gm: (len(gm[0]), [tuple(c) for c in reversed(gm[0])], gm[1]))
        return out

    def _squarefree_parts(self, f: list[list[int]]) -> list[tuple[list[list[int]], int]]:
        """As ``_mp_squarefree_parts``, with p-th roots a^(q/p) in F_q."""
        out = []
        deriv = self._trim([mp_reduce([i * x for x in c], self.p) for i, c in enumerate(f)][1:])
        c = self.poly_gcd(f, deriv) if deriv else f
        w = self.poly_divmod(f, c)[0]
        i = 1
        while len(w) > 1:
            y = self.poly_gcd(w, c)
            fac = self.poly_divmod(w, y)[0]
            if len(fac) > 1:
                out.append((fac, i))
            w, c, i = y, self.poly_divmod(c, y)[0], i + 1
        if len(c) > 1:
            root = [self.pow(c[k], self.q // self.p) for k in range(0, len(c), self.p)]
            out.extend((g, m * self.p) for g, m in self._squarefree_parts(root))
        return out

    def _split(self, f: list[list[int]]) -> list[list[list[int]]]:
        """Irreducible factors of a squarefree monic f: distinct- then equal-degree."""
        y: list[list[int]] = [[], [1]]
        h, rest, d, blocks = y, f, 0, []
        while len(rest) - 1 >= 2 * (d + 1):
            d += 1
            h = self.poly_pow_mod(h, self.q, rest)
            g = self.poly_gcd(self.poly_sub(h, y), rest)
            if len(g) > 1:
                blocks.append((g, d))
                rest = self.poly_divmod(rest, g)[0]
                h = self.poly_divmod(h, rest)[1]
        if len(rest) > 1:
            blocks.append((rest, len(rest) - 1))
        rng = random.Random(0x5EED ^ (self.q * 1048583) ^ len(f))
        return [g for block, d in blocks for g in self._equal_degree(block, d, rng)]

    def _equal_degree(self, f, d: int, rng: random.Random) -> list[list[list[int]]]:
        """Cantor-Zassenhaus splitting of f, all of whose factors have degree d."""
        n = len(f) - 1
        if n == d:
            return [f]
        while True:
            a = self._trim([mp_reduce([rng.randrange(self.p) for _ in range(self.degree)], self.p)
                            for _ in range(n)])
            if len(a) < 2:
                continue
            if self.p == 2:
                t = acc = a
                for _ in range(self.degree * d - 1):
                    t = self.poly_divmod(self.poly_mul(t, t), f)[1]
                    acc = self.poly_sub(acc, t)  # char 2: minus is plus
                g = self.poly_gcd(acc, f)
            else:
                b = self.poly_pow_mod(a, (self.q ** d - 1) // 2, f)
                g = self.poly_gcd(self.poly_sub(b, [[1]]), f)
            if 1 < len(g) < len(f):
                return (self._equal_degree(g, d, rng)
                        + self._equal_degree(self.poly_divmod(f, g)[0], d, rng))


# ------------------------------------------------------------ Hensel lifting

def symmetric(f: list[int], m: int) -> list[int]:
    """Symmetric (balanced) representatives in (-m/2, m/2]."""
    out = []
    for c in f:
        c %= m
        out.append(c - m if 2 * c > m else c)
    return out


def hensel_step(f: list[int], g, h, s, t, m: int):
    """One quadratic Hensel step: from mod m to mod m^2.

    Requires f = g*h (mod m), s*g + t*h = 1 (mod m), g and h monic, f monic
    with deg f = deg g + deg h.  Returns (g*, h*, s*, t*) satisfying the same
    relations mod m^2 with g* = g, h* = h (mod m).
    """
    m2 = m * m
    e = mp_sub(mp_reduce(f, m2), mp_mul(g, h, m2), m2)
    q, r = mp_divmod(mp_mul(s, e, m2), h, m2)
    g_star = mp_add(g, mp_add(mp_mul(t, e, m2), mp_mul(q, g, m2), m2), m2)
    h_star = mp_add(h, r, m2)
    b = mp_sub(mp_add(mp_mul(s, g_star, m2), mp_mul(t, h_star, m2), m2), [1], m2)
    c, d = mp_divmod(mp_mul(s, b, m2), h_star, m2)
    s_star = mp_sub(s, d, m2)
    t_star = mp_sub(t, mp_add(mp_mul(t, b, m2), mp_mul(c, g_star, m2), m2), m2)
    return g_star, h_star, s_star, t_star


def inverse_step(a: list[int], m: list[int], u: list[int], n: int) -> list[int]:
    """One Newton step for an inverse modulo m: from mod n to mod n^2.

    Requires a*u = 1 (mod m, n) with lc(m) a unit mod n.  Returns
    u* = u*(2 - a*u) reduced mod (m, n^2), so that a*u* = 1 (mod m, n^2) and
    u* = u (mod n) (von zur Gathen & Gerhard, Modern Computer Algebra, 9.1).
    """
    n2 = n * n
    e = mp_mod(mp_mul(a, u, n2), m, n2)
    return mp_mod(mp_mul(u, mp_sub([2], e, n2), n2), m, n2)


def rational_reconstruction(r: int, n: int) -> tuple[int, int] | None:
    """The fraction s/t = r (mod n) with |s|, t <= sqrt(n/2), as (s, t), or None.

    Such a fraction is unique when it exists, and the extended Euclidean
    algorithm on (n, r), stopped at the first remainder below the bound,
    finds it (von zur Gathen & Gerhard, Modern Computer Algebra, 5.10).
    """
    bound = math.isqrt(n // 2)
    r0, r1 = n, r % n
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def hensel_lift_pair(f: list[int], g: list[int], h: list[int], p: int, k: int):
    """Lift the coprime factorization f = g*h (mod p) to mod p^(2^ceil).

    f monic integer polynomial; g, h monic mod p and coprime.  Returns the
    lifted (g, h) reduced mod p^k (the internal lift may overshoot to the
    next power of two, which is harmless).
    """
    _, s, t = mp_xgcd(g, h, p)
    m = p
    while m < p ** k:
        g, h, s, t = hensel_step(f, g, h, s, t, m)
        m = m * m
    return mp_reduce(g, p ** k), mp_reduce(h, p ** k)


def hensel_lift_many(f: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Lift a pairwise-coprime monic factorization of f mod p to mod p^k.

    f monic with integer coefficients, f = prod(factors) (mod p).  Uses a
    binary tree of two-factor lifts.
    """
    if len(factors) == 1:
        return [mp_reduce(f, p ** k)]
    mid = len(factors) // 2
    left, right = factors[:mid], factors[mid:]
    g = [1]
    for fac in left:
        g = mp_mul(g, fac, p)
    h = [1]
    for fac in right:
        h = mp_mul(h, fac, p)
    g_lift, h_lift = hensel_lift_pair(f, g, h, p, k)
    return (hensel_lift_many(g_lift, left, p, k)
            + hensel_lift_many(h_lift, right, p, k))
