"""Independent checks of every op's output; nothing here calls weilmot.

Each op is sorted into one of four outcomes:

* ``answered`` -- the output is the right answer;
* ``rejected`` -- a typed rejection of input this oracle also calls invalid;
* ``undecided`` -- a typed give-up error (UNDECIDED_ERRORS) on valid input;
* ``failed``   -- a wrong answer, an exception out of ``main``, an exit code
  outside {0, 1, 2}, or ``--json`` output that does not parse.

The arithmetic is plain integers and Fractions on ascending coefficient lists.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from intpoly import divmod_monic, factor_small
from workloads import Op, prime_power

UNDECIDED_ERRORS = ("PrecisionExhausted", "IndexDivisibilityError",
                    "CertificationFailed", "DimensionTooLarge")
OUTCOMES = ("answered", "rejected", "undecided", "failed")
GAVE_UP = re.compile(
    r"could not certify the place decomposition"     # PrecisionExhausted
    r"|not divisible by (its|the) index"             # IndexDivisibilityError
    r"|does not divide the exterior certificate"     # CertificationFailed
    r"|(tensor|exterior) dimension \d+ > \d+")       # DimensionTooLarge


class Wrong(Exception):
    """The output disagrees with the oracle."""


# ---------------------------------------------------------- polynomials

def decode_coeff(c) -> Fraction:
    if isinstance(c, list):
        return Fraction(int(c[0]), int(c[1]))
    if isinstance(c, bool) or not isinstance(c, int):
        raise Wrong(f"bad coefficient {c!r}")
    return Fraction(c)


def decode_poly(values) -> list[Fraction]:
    out = [decode_coeff(c) for c in values]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def int_poly(f: list[Fraction]) -> list[int]:
    if any(c.denominator != 1 for c in f):
        raise Wrong(f"expected integer coefficients, got {f}")
    return [int(c) for c in f]


def degree(f) -> int:
    return -1 if f == [0] or not f else len(f) - 1


def multiplicity(g: list[int], f: list[int]) -> int:
    """How often the monic g divides f."""
    m = 0
    while len(f) > len(g) - 1:
        quot, rem = divmod_monic(f, g)
        if rem != [0]:
            break
        f, m = quot, m + 1
    return m


def power_sums(f: list[int], count: int) -> list[int]:
    """p_1..p_count of the roots of the monic integer f (Newton's identities)."""
    d = len(f) - 1
    e = [(-1) ** k * f[d - k] for k in range(d + 1)]     # elementary symmetric
    p = [0] * (count + 1)
    for m in range(1, count + 1):
        s = sum((-1) ** (k - 1) * e[k] * p[m - k] for k in range(1, min(m, d + 1)))
        if m <= d:
            s += (-1) ** (m - 1) * m * e[m]
        p[m] = s
    return p[1:]


def ord_p(n: int, p: int) -> int:
    n, k = abs(n), 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def root_valuations(f: list[int], p: int, a: int) -> list[Fraction]:
    """ord_q of the roots of the monic integer f, from its Newton polygon."""
    pts = [(i, ord_p(c, p)) for i, c in enumerate(f) if c]
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    if pts[0][0] != 0:
        raise Wrong("a root at zero has no finite valuation")
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out += [Fraction(y1 - y2, (x2 - x1) * a)] * (x2 - x1)
    return sorted(out)


def cyclotomic(m: int, _cache={1: [-1, 1]}) -> list[int]:
    if m not in _cache:
        f = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                f, rem = divmod_monic(f, cyclotomic(d))
        _cache[m] = f
    return _cache[m]


def totient(m: int) -> int:
    out, n, k = m, m, 2
    while k * k <= n:
        if n % k == 0:
            out -= out // k
            while n % k == 0:
                n //= k
        k += 1
    return out - out // n if n > 1 else out


def root_of_unity_degree(f: list[int], q: int) -> int:
    """Number of roots alpha of the monic f (with multiplicity) with alpha/q a root of unity."""
    d = len(f) - 1
    scaled = [Fraction(c, q ** (d - i)) for i, c in enumerate(f)]    # f(qT) / q^d, monic
    # totient(m) >= sqrt(m) for m > 6, so only m <= d^2 + 6 can divide
    return sum(totient(m) * multiplicity(cyclotomic(m), scaled)
               for m in range(1, d * d + 7) if totient(m) <= d)


# ------------------------------------------------------ Weil weights

def weil_weight(f: tuple[int, ...], p: int, a: int) -> int | None:
    """Weight of the Weil q-number with Q-irreducible minimal polynomial f, or None."""
    d, c0 = len(f) - 1, f[0]
    if c0 == 0:
        return None
    k = ord_p(c0, p)
    if abs(c0) != p ** k or (2 * k) % (a * d):
        return None
    m = 2 * k // (a * d)
    big_q = p ** (a * m)
    if d == 1:
        return m
    if d == 2:
        b = f[1]
        ok = (c0 == big_q and b * b <= 4 * big_q) or (c0 == -big_q and b == 0)
        return m if ok else None
    if d == 4 and c0 == big_q ** 2 and f[1] == big_q * f[3]:
        c2, c3 = f[2], f[3]
        # f = T^2 h(T + Q/T), h = x^2 + c3 x + (c2 - 2Q): real roots in [-2 sqrt Q, 2 sqrt Q]
        real = c3 * c3 - 4 * (c2 - 2 * big_q) >= 0
        ends = 2 * big_q + c2 >= 0 and (2 * big_q + c2) ** 2 >= 4 * c3 * c3 * big_q
        return m if real and ends and c3 * c3 <= 16 * big_q else None
    return None     # odd degree > 1 has a real root that is not +-sqrt(Q)


def expected_weights(q: int, l1: tuple[int, ...]) -> list[int | None]:
    p, a = prime_power(q)
    return [weil_weight(g, p, a) for g, _ in factor_small(list(reversed(l1)))]


# ------------------------------------------------------------- outcomes

def _json(step) -> dict:
    try:
        obj = json.loads(step.stdout)
    except json.JSONDecodeError:
        raise Wrong(f"{step.argv[0]}: --json output does not parse") from None
    if not isinstance(obj, dict):
        raise Wrong(f"{step.argv[0]}: --json output is not an object")
    return obj


def _domain_error(step) -> str | None:
    """Error type name of a step that exited 1, from its JSON or human output."""
    text = step.stderr
    if step.stdout.lstrip().startswith("{"):
        text = _json(step).get("error", "")
    return text.split("(")[0].split(":")[0].strip() or None


def gave_up(message: str) -> bool:
    """Whether a ``verify --isogeny`` record error is one of UNDECIDED_ERRORS.

    Records carry ``str(exc)`` without the error type, so the type is read off
    the messages of the places that raise those errors.  A message that
    matches none of them counts as a wrong rejection.
    """
    return GAVE_UP.search(message) is not None


def _check_isogeny(op: Op, step) -> str:
    obj = _json(step)
    records, diagnostics = obj.get("records"), obj.get("diagnostics")
    if not isinstance(records, list) or not isinstance(diagnostics, list):
        raise Wrong("verify --isogeny: no records/diagnostics")
    if len(records) != len(op.curves):
        raise Wrong(f"{len(records)} records for {len(op.curves)} well-formed lines")
    if len(diagnostics) != len(op.malformed_lines) or any(
        not d.startswith(f"line {n}:") for d, n in zip(diagnostics, op.malformed_lines)
    ):
        raise Wrong(f"diagnostics {diagnostics} for malformed lines {op.malformed_lines}")
    all_ok, undecided = True, False
    for rec, (q, l1) in zip(records, op.curves):
        weights = expected_weights(q, l1)
        valid = all(w == 1 for w in weights)
        if rec.get("q") != q:
            raise Wrong(f"record {rec} for q = {q}, L = {l1}")
        if "error" in rec:
            if rec.get("ok") is not False:
                raise Wrong(f"record {rec}: an error with ok = {rec.get('ok')}")
            if valid and not gave_up(rec["error"]):
                raise Wrong(f"record {rec}: valid Weil data (q = {q}, L = {l1}) rejected")
            all_ok, undecided = False, undecided or valid
            continue
        all_ok = all_ok and valid
        if rec.get("ok") is not valid:
            raise Wrong(f"record {rec} for q = {q}, L = {l1}: expected ok = {valid}")
        middle = rec.get("weights", [])[1:-1]
        if rec.get("weights", [None])[0] != 0 or rec["weights"][-1] != 2 or sorted(
            middle, key=repr
        ) != sorted(weights, key=repr):
            raise Wrong(f"record {rec}: expected middle weights {weights}")
    if obj.get("ok") is not all_ok or step.exit_code != (0 if all_ok else 1):
        raise Wrong(f"verify --isogeny: ok = {obj.get('ok')}, exit {step.exit_code}")
    if undecided:
        return "undecided"
    return "answered" if all_ok else "rejected"


def _zeta_doc(text: str) -> tuple[int, int, list[list[int]]]:
    obj = json.loads(text)
    return obj["q"], obj["n"], [int_poly(decode_poly(lp)) for lp in obj["l_polynomials"]]


def check_product(x_text: str, y_text: str, out_text: str) -> None:
    """Every C_k of the product has the right degree and power sums p_1..p_deg."""
    qx, nx, lx = _zeta_doc(x_text)
    qy, ny, ly = _zeta_doc(y_text)
    q, n, lz = _zeta_doc(out_text)
    if q != qx or qx != qy or n != nx + ny or len(lz) != 2 * n + 1:
        raise Wrong("zeta-product: wrong q or n")
    cx = [list(reversed(l)) for l in lx]
    cy = [list(reversed(l)) for l in ly]
    for k, lk in enumerate(lz):
        ck = list(reversed(lk))
        if ck[-1] != 1 or lk[0] != 1:
            raise Wrong(f"zeta-product: P_{k} does not have constant term 1")
        terms = [(cx[i], cy[k - i]) for i in range(max(0, k - 2 * ny), min(k, 2 * nx) + 1)]
        deg = sum((len(a) - 1) * (len(b) - 1) for a, b in terms)
        if len(ck) - 1 != deg:
            raise Wrong(f"zeta-product: deg C_{k} = {len(ck) - 1}, expected {deg}")
        want = [0] * deg
        for a, b in terms:
            for j, (pa, pb) in enumerate(zip(power_sums(a, deg), power_sums(b, deg))):
                want[j] += pa * pb
        if power_sums(ck, deg) != want:
            raise Wrong(f"zeta-product: roots of C_{k} are not the products of roots")


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def check_aqalg(doc_text: str, obj: dict) -> None:
    q, n, ls = _zeta_doc(doc_text)
    p, a = prime_power(q)
    c_n = list(reversed(ls[n]))
    blocks = obj.get("blocks")
    if obj.get("q") != q or obj.get("n") != n or not isinstance(blocks, list):
        raise Wrong("aqalg: wrong q, n or blocks")
    dimension = rank = 0
    seen = set()
    for b in blocks:
        center = int_poly(decode_poly(b["center_poly"]))
        deg, r, e = len(center) - 1, b["r"], b["e"]
        mult = multiplicity(center, c_n)
        if tuple(center) in seen or b["center_degree"] != deg or mult != r * e or mult == 0:
            raise Wrong(f"aqalg: block {center} is not a factor of C_{n} of multiplicity r*e")
        seen.add(tuple(center))
        slopes = root_valuations(center, p, a)
        if slopes[0] >= 1:
            raise Wrong(f"aqalg: block {center} has minimal slope {slopes[0]} >= 1")
        invs, places = [], []
        for fi in b["finite_invariants"]:
            s, ld, inv = Fraction(fi["slope"]), fi["local_degree"], Fraction(fi["invariant"])
            if inv != (s * ld) % 1:
                raise Wrong(f"aqalg: invariant {inv} != slope * local degree mod 1")
            invs.append(inv)
            places += [s] * ld
        if sorted(places) != slopes:
            raise Wrong(f"aqalg: places of {center} do not match its Newton polygon")
        real_inv = Fraction(b["real_invariant"])
        total = b["real_places"] * real_inv + sum(invs)
        if total.denominator != 1:
            raise Wrong(f"aqalg: invariants of {center} sum to {total}")
        dens = [i.denominator for i in invs] + ([real_inv.denominator] if b["real_places"] else [])
        if e != _lcm(dens) or not 0 <= b["real_places"] <= deg or (deg - b["real_places"]) % 2:
            raise Wrong(f"aqalg: index or real places of {center} inconsistent")
        dimension += r * r * e * e * deg
        rank += r * e * deg
    kept = len(c_n) - 1 - root_of_unity_degree(c_n, q ** (n // 2)) if n == 2 else None
    witt = sum(1 for s in root_valuations(c_n, p, a) if s < 1)
    if obj.get("dimension") != dimension or obj.get("rank") != rank:
        raise Wrong(f"aqalg: dimension/rank {obj.get('dimension')}/{obj.get('rank')}, "
                    f"blocks give {dimension}/{rank}")
    if kept is not None and rank != kept:
        raise Wrong(f"aqalg: rank {rank}, but {kept} weight-{n} slots are kept")
    if obj.get("witt_vector_rank") != witt or obj.get("zero") is not (not blocks):
        raise Wrong(f"aqalg: witt_vector_rank {obj.get('witt_vector_rank')}, expected {witt}")


def check_idempotents(doc_text: str, obj: dict) -> None:
    """P^i = delta_ij mod C_j, and deg P^i < sum deg C_j."""
    _, n, ls = _zeta_doc(doc_text)
    moduli = [list(reversed(l)) for l in ls]
    if [int_poly(decode_poly(m)) for m in obj.get("moduli", [])] != moduli:
        raise Wrong("idempotents: moduli are not the charpolys of the input")
    idems = [decode_poly(pi) for pi in obj.get("idempotents", [])]
    if len(idems) != 2 * n + 1:
        raise Wrong("idempotents: wrong count")
    total = sum(len(c) - 1 for c in moduli)
    for i, pi in enumerate(idems):
        if len(moduli[i]) == 1:
            if pi != [0]:
                raise Wrong(f"idempotents: P^{i} should be 0")
            continue
        if degree(pi) >= total:
            raise Wrong(f"idempotents: deg P^{i} = {degree(pi)} >= {total}")
        den = _lcm(c.denominator for c in pi)
        scaled = [int(c * den) for c in pi]
        for j, cj in enumerate(moduli):
            if len(cj) > 1 and divmod_monic(scaled, cj)[1] != [den if i == j else 0]:
                raise Wrong(f"idempotents: P^{i} is not {int(i == j)} mod C_{j}")


def _step_failure(step) -> str | None:
    if step.escaped is not None:
        return f"{' '.join(step.argv)}: {step.escaped} escaped main"
    if step.exit_code not in (0, 1, 2):
        return f"{' '.join(step.argv)}: exit code {step.exit_code}"
    return None


def classify(op: Op, result) -> tuple[str, str]:
    """(outcome, detail) for one op and its OpResult."""
    try:
        for step in result.steps:
            bad = _step_failure(step)
            if bad:
                return "failed", bad
        if op.kind == "verify":
            return _check_isogeny(op, result.steps[0]), ""
        inputs = [s.text for s in op.steps]
        for idx, step in enumerate(result.steps):
            if step.exit_code != 0:         # every product input is valid Weil data
                kind = _domain_error(step)
                if step.exit_code == 1 and kind in UNDECIDED_ERRORS:
                    return "undecided", kind
                return "failed", f"{' '.join(step.argv)}: exit {step.exit_code} ({kind})"
            if step.argv[0] == "zeta-product":
                if idx == 0:
                    x, y = json.loads(inputs[0])
                    check_product(json.dumps(x), json.dumps(y), step.stdout)
                else:
                    check_product(result.steps[idx - 1].stdout, op.steps[idx].pair_with,
                                  step.stdout)
            elif step.argv[0] == "aqalg":
                check_aqalg(result.steps[idx - 1].stdout, _json(step))
            elif step.argv[0] == "idempotents":
                check_idempotents(result.steps[idx - 1].stdout, _json(step))
        if len(result.steps) != len(op.steps):
            return "failed", "pipeline stopped early"
        return "answered", ""
    except Wrong as exc:
        return "failed", str(exc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return "failed", f"malformed output: {type(exc).__name__}: {exc}"
