"""Seeded input generators for the benchmark workloads.

Every input is built with plain integer arithmetic from ``random.Random(seed)``;
nothing here imports weilmot, so the program under test sees only the
generated text.  An *op* is one CLI pipeline: a short list of ``Step``s, each
one ``weilmot.cli.main(argv)`` call whose stdin is either fixed text or the
previous step's stdout.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from intpoly import factor_small

# Prime powers q <= 49: the base fields of isogeny-verify records.
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
                32, 37, 41, 43, 47, 49)
# q <= 16, the fields of the shipped corpus: the base fields of product ops.
PRODUCT_FIELDS = PRIME_POWERS[:10]

RECORDS_PER_FILE = 20       # isogeny-verify: well-formed records per op
# ... of which genus 2, alternately per op: 5 of 40 records (12.5 %), the
# genus-2 share of the shipped corpus (16 of the 128 records in data/*.jsonl).
G2_PER_FILE = (2, 3)
NON_WEIL_PER_FILE = 2       # ... perturbed off the Weil locus (10%)
MALFORMED_PER_FILE = 1      # extra malformed lines per op
POOL_PER_Q = 6              # curves of each genus per q in the product pools
TRIPLE_EVERY = 40           # kunneth-idempotents: every 40th op is E x E' x E''
TRIPLE_FIELDS = (2, 3)
SCHEDULE_SEED = 20061


@dataclass(frozen=True)
class Step:
    """One ``main(argv)`` call.

    ``text`` is the stdin; when it is None the previous step's stdout is used,
    wrapped as ``[<stdout>, <pair_with>]`` when ``pair_with`` is set.
    """

    argv: tuple[str, ...]
    text: str | None = None
    pair_with: str | None = None


@dataclass(frozen=True)
class Op:
    kind: str
    steps: tuple[Step, ...]
    curves: tuple[tuple[int, tuple[int, ...]], ...] = ()   # (q, H^1 L-polynomial) per factor
    malformed_lines: tuple[int, ...] = ()   # 1-based lines made malformed on purpose


# ------------------------------------------------------------ arithmetic

def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a; ValueError if q is not a prime power."""
    for p in range(2, q + 1):
        if q % p == 0:
            a, n = 0, q
            while n % p == 0:
                n //= p
                a += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, a
    raise ValueError(f"{q} is not a prime power")


def waterhouse_traces(q: int) -> list[int]:
    """Traces of the elliptic isogeny classes over F_q (Waterhouse 1969)."""
    p, n = prime_power(q)
    root = math.isqrt(q)
    out = []
    for a in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
        if a * a > 4 * q:
            continue
        if a % p:
            out.append(a)
        elif n % 2 == 0:
            if abs(a) == 2 * root or (abs(a) == root and p % 3 != 1) or (a == 0 and p % 4 != 1):
                out.append(a)
        elif a == 0 or (p in (2, 3) and abs(a) == p ** ((n + 1) // 2)):
            out.append(a)
    return out


@lru_cache(maxsize=None)
def real_weil_pairs(q: int) -> tuple[tuple[int, int], ...]:
    """(a, b) with 1 + aT + bT^2 + qaT^3 + q^2T^4 a Weil q-polynomial.

    That is x^2 + a x + (b - 2q) has both roots real in [-2 sqrt q, 2 sqrt q].
    """
    out = []
    for a in range(-math.isqrt(16 * q), math.isqrt(16 * q) + 1):
        for b in range(-2 * q, a * a // 4 + 2 * q + 1):
            if 4 * b <= a * a + 8 * q and b + 2 * q >= 0 and (b + 2 * q) ** 2 >= 4 * a * a * q:
                out.append((a, b))
    return tuple(out)


def elliptic_l(q: int, a: int) -> list[int]:
    return [1, -a, q]


def genus2_l(q: int, a: int, b: int) -> list[int]:
    return [1, a, b, q * a, q * q]


def curve_document(q: int, l1: list[int]) -> dict:
    p, _ = prime_power(q)
    return {"q": q, "p": p, "n": 1, "l_polynomials": [[1, -1], l1, [1, -q]]}


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


# --------------------------------------------------------- isogeny-verify

def _non_weil_elliptic(rng: random.Random, q: int) -> list[int]:
    bound = math.isqrt(4 * q)          # largest |a| with a^2 <= 4q
    a = (bound + 1 + rng.randrange(3)) * rng.choice((-1, 1))
    return elliptic_l(q, a)


def _non_weil_genus2(rng: random.Random, q: int) -> list[int]:
    a, b = rng.choice(real_weil_pairs(q))
    top = a * a // 4 + 2 * q         # above it x^2 + ax + (b - 2q) has complex roots
    return genus2_l(q, a, top + 1 + rng.randrange(3))


_MALFORMED = (
    lambda rng, i: "this line is not json",
    lambda rng, i: _dumps({"label": f"bad{i}", "q": 2, "g": 1, "coeffs": [1, -1]}),
    lambda rng, i: _dumps({"label": f"bad{i}", "q": 3, "g": 1, "coeffs": [2, -1, 3]}),
    lambda rng, i: _dumps({"label": f"bad{i}", "q": rng.choice((6, 10, 12)), "g": 1,
                           "coeffs": [1, 0, 6]}),
    lambda rng, i: _dumps({"label": f"bad{i}", "q": 5, "g": "1", "coeffs": [1, 0, 5]}),
)


def isogeny_file(rng: random.Random, op_index: int) -> tuple[str, tuple[int, ...], tuple]:
    """One JSON-lines file: (text, malformed line numbers, (q, L) per record)."""
    g2 = G2_PER_FILE[op_index % len(G2_PER_FILE)]
    kinds = ["g1"] * (RECORDS_PER_FILE - g2) + ["g2"] * g2
    for k in range(NON_WEIL_PER_FILE):          # perturb alternately a g=1 and a g=2 record
        kinds[k // 2 if k % 2 == 0 else RECORDS_PER_FILE - 1 - k // 2] += "-bad"
    rng.shuffle(kinds)
    records, curves = [], []
    for j, kind in enumerate(kinds):
        q = rng.choice(PRIME_POWERS)
        if kind == "g1":
            coeffs = elliptic_l(q, rng.choice(waterhouse_traces(q)))
        elif kind == "g2":
            coeffs = genus2_l(q, *rng.choice(real_weil_pairs(q)))
        elif kind == "g1-bad":
            coeffs = _non_weil_elliptic(rng, q)
        else:
            coeffs = _non_weil_genus2(rng, q)
        g = (len(coeffs) - 1) // 2
        label = f"{g}.{q}.op{op_index}.r{j}"
        records.append(_dumps({"label": label, "q": q, "g": g, "coeffs": coeffs}))
        curves.append((q, tuple(coeffs)))
    n_lines = len(records) + MALFORMED_PER_FILE
    malformed = sorted(rng.sample(range(1, n_lines + 1), MALFORMED_PER_FILE))
    good = iter(records)
    lines = [rng.choice(_MALFORMED)(rng, op_index) if i in malformed else next(good)
             for i in range(1, n_lines + 1)]
    return "\n".join(lines) + "\n", tuple(malformed), tuple(curves)


def isogeny_verify_ops(seed: int):
    rng = random.Random(seed)
    i = 0
    while True:
        text, malformed, curves = isogeny_file(rng, i)
        yield Op(kind="verify", curves=curves, malformed_lines=malformed,
                 steps=(Step(("verify", "--isogeny", "--json"), text),))
        i += 1


# ----------------------------------------------- product pools and ops

def p_rank(q: int, l1: list[int]) -> int:
    """p-rank of the abelian variety with L-polynomial l1, read off its coefficients."""
    p, _ = prime_power(q)
    g = (len(l1) - 1) // 2
    return next((g - k for k in range(g) if l1[g - k] % p), 0)


def _draw(rng: random.Random, items: list, k: int) -> list:
    """k items, distinct when there are enough of them."""
    return rng.sample(items, k) if len(items) >= k else [rng.choice(items) for _ in range(k)]


def curve_pool(rng: random.Random) -> dict[int, dict[str, list[list[int]]]]:
    """POOL_PER_Q elliptic and genus-2 L-polynomials for every q.

    Slots are stratified by what the program's cost depends on.  Two thirds
    of the E slots are ordinary and one third supersingular; the C slots
    cover each p-rank (2, 1, 0), once with a simple and once with a split
    L-polynomial (one that factors over Q).  Every seed's pool has this mix.
    """
    pool = {}
    for q in PRODUCT_FIELDS:
        strata: dict[tuple, list[list[int]]] = {}
        for l1 in [elliptic_l(q, a) for a in waterhouse_traces(q)]:
            strata.setdefault(("E", p_rank(q, l1)), []).append(l1)
        for a, b in real_weil_pairs(q):
            l1 = genus2_l(q, a, b)
            factors = factor_small(l1[::-1])
            simple = len(factors) == 1 and factors[0][1] == 1
            strata.setdefault(("C", p_rank(q, l1), simple), []).append(l1)
        third = POOL_PER_Q // 3
        pool[q] = {
            "E": _draw(rng, strata["E", 1], 2 * third) + _draw(rng, strata["E", 0], third),
            "C": [_draw(rng, strata["C", r, simple], 1)[0]
                  for r in (2, 1, 0) for simple in (True, False)],
        }
    return pool


_PAIR_SHAPES = ("EE", "CE", "CC")


def _schedule():
    """Which (shape, q, pool slots) each product op uses: the same for every seed.

    Shapes cycle with period 3 and q runs through a fixed shuffle of
    PRODUCT_FIELDS with period 10, so every 30 ops cover each (shape, q)
    once.  Each (shape, q) walks a fixed shuffle of its unordered slot pairs,
    so a product repeats only after all POOL_PER_Q (POOL_PER_Q + 1) / 2 pairs
    of its kind have run, while every curve recurs in several products.  How
    much work ops share is thus a property of the workload; the seed picks
    only which curves fill the slots.
    """
    rng = random.Random(SCHEDULE_SEED)
    order = list(PRODUCT_FIELDS)
    rng.shuffle(order)
    pairs = [(i, j) for i in range(POOL_PER_Q) for j in range(i, POOL_PER_Q)]
    walks: dict[tuple[str, int], list[tuple[int, int]]] = {}
    i = 0
    while True:
        shape, q = _PAIR_SHAPES[i % 3], order[i % len(order)]
        walk = walks.setdefault((shape, q), rng.sample(pairs, len(pairs)))
        x, y = walk[(i // 30) % len(walk)]
        yield i, shape, q, (x, y) if shape[0] == shape[1] or rng.random() < 0.5 else (y, x)
        i += 1


def _doc_step(q: int, x: list[int], y: list[int]) -> Step:
    return Step(("zeta-product",), _dumps([curve_document(q, x), curve_document(q, y)]))


def product_algebra_ops(seed: int):
    """zeta-product of two curves, then aqalg --json."""
    pool = curve_pool(random.Random(seed))
    aqalg = Step(("aqalg", "--json"))
    for _, shape, q, (i, j) in _schedule():
        x, y = pool[q][shape[0]][i], pool[q][shape[1]][j]
        yield Op(kind=shape, curves=((q, tuple(x)), (q, tuple(y))),
                 steps=(_doc_step(q, x, y), aqalg))


def kunneth_ops(seed: int):
    """One or two zeta-products, then idempotents --json.

    Every TRIPLE_EVERY-th op is a triple product E x E' x E'' over q = 2 or 3
    (alternating) in place of the scheduled pair: two ordinary slots and one
    supersingular slot of the pool.
    """
    pool = curve_pool(random.Random(seed))
    idem = Step(("idempotents", "--json"))
    ordinary = 2 * POOL_PER_Q // 3
    for i, shape, q, (x_slot, y_slot) in _schedule():
        if i % TRIPLE_EVERY == TRIPLE_EVERY - 1:
            q = TRIPLE_FIELDS[(i // TRIPLE_EVERY) % len(TRIPLE_FIELDS)]
            slots = (x_slot % ordinary, (x_slot + 1 + y_slot % (ordinary - 1)) % ordinary,
                     ordinary + i // TRIPLE_EVERY % (POOL_PER_Q - ordinary))
            e1, e2, e3 = (pool[q]["E"][k] for k in slots)
            second = Step(("zeta-product",), None, pair_with=_dumps(curve_document(q, e3)))
            yield Op(kind="EEE", curves=tuple((q, tuple(e)) for e in (e1, e2, e3)),
                     steps=(_doc_step(q, e1, e2), second, idem))
        else:
            x, y = pool[q][shape[0]][x_slot], pool[q][shape[1]][y_slot]
            yield Op(kind=shape, curves=((q, tuple(x)), (q, tuple(y))),
                     steps=(_doc_step(q, x, y), idem))


@dataclass(frozen=True)
class Workload:
    name: str
    ops: object            # seed -> infinite iterator of Op
    trace_ops: int         # fixed op count of a traced run


WORKLOADS = {
    "isogeny-verify": Workload("isogeny-verify", isogeny_verify_ops, trace_ops=60),
    "product-algebra": Workload("product-algebra", product_algebra_ops, trace_ops=120),
    "kunneth-idempotents": Workload("kunneth-idempotents", kunneth_ops, trace_ops=50),
}


def input_properties(ops: list[Op]) -> dict:
    """q and degree histograms of the input curves, distinct inputs against ops."""
    q_hist: dict[int, int] = {}
    deg_hist: dict[int, int] = {}
    for op in ops:
        for q, coeffs in op.curves:
            q_hist[q] = q_hist.get(q, 0) + 1
            deg_hist[len(coeffs) - 1] = deg_hist.get(len(coeffs) - 1, 0) + 1
    return {
        "ops": len(ops),
        "q_histogram": dict(sorted(q_hist.items())),
        "degree_histogram": dict(sorted(deg_hist.items())),
        "curves": sum(q_hist.values()),
        "distinct_charpolys": len({c for op in ops for c in op.curves}),
        "distinct_ops": len({op.curves for op in ops}),
        "malformed_lines": sum(len(op.malformed_lines) for op in ops),
    }
