"""Integer polynomial helpers shared by the input generator and the oracle.

Coefficient lists are ascending; nothing here imports weilmot.
"""

from __future__ import annotations

import math


def divmod_monic(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by the monic g (coefficients stay in their ring)."""
    rem = list(f)
    d = len(g) - 1
    quot = [0] * max(len(f) - d, 1)
    for k in range(len(rem) - 1 - d, -1, -1):
        c = rem[k + d]
        if c:
            quot[k] = c
            for i in range(d + 1):
                rem[k + i] -= c * g[i]
    rem = rem[:d] or [0]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def factor_small(f: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """Distinct monic irreducible factors over Q of a monic integer f, deg <= 4."""
    out: dict[tuple[int, ...], int] = {}

    def add(g: list[int]):
        out[tuple(g)] = out.get(tuple(g), 0) + 1

    f = list(f)
    while len(f) > 1 and f[0] == 0:
        add([0, 1])
        f = f[1:]
    changed = True
    while changed and len(f) > 2:
        changed = False
        for r in _divisors(f[0]):
            for root in (r, -r):
                quot, rem = divmod_monic(f, [-root, 1])
                if rem == [0]:
                    add([-root, 1])
                    f, changed = quot, True
                    break
            if changed:
                break
    if len(f) == 5:                 # no rational root: maybe two quadratics
        c0, c1, c2, c3 = f[0], f[1], f[2], f[3]
        for v in _divisors(c0):
            for v in (v, -v):
                w = c0 // v
                disc = c3 * c3 - 4 * (c2 - v - w)       # u + s = c3, us = c2 - v - w
                r = math.isqrt(disc) if disc >= 0 else -1
                if r < 0 or r * r != disc or (c3 + r) % 2:
                    continue
                for u in ((c3 + r) // 2, (c3 - r) // 2):
                    s = c3 - u
                    if u * w + s * v == c1:
                        add([v, u, 1])
                        add([w, s, 1])
                        return sorted(out.items())
    if len(f) > 1:
        add(f)
    return sorted(out.items())
