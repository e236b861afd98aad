"""Command-line surface: batch verification and invariant reports.

Subcommands: verify | aqalg | filtration | honda | idempotents | zeta-product.
Input comes from --input PATH (default "-" = stdin; a bare "--" also leaves
stdin selected).  --json mirrors every number of the human-readable output
in one machine-readable object.  Exit codes: 0 success, 1 domain failure
(NotWeil, validation, ...) or internal error, 2 parse/IO error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .endalg import compute_A, honda_tate_dimension, rank_from_algebra, witt_vector_rank
from .errors import BadConstantTerm, NotWeil, ParseError, RangeError, WeilmotError
from .exact_arith import factor_rational_poly, reciprocal_transform
from .formats import (
    Report,
    _require_int,
    decode_coefficient,
    document_from_object,
    document_of_zeta,
    document_to_object,
    encode_fraction_text,
    encode_polynomial,
    ingest_isogeny_lines,
    parse_document,
    parse_json_text,
    serialize_document,
)
from .motives import (
    ZetaData,
    kunneth_idempotents,
    motive_of,
    validate_zeta,
    zeta_product,
)
from .padic import newton_polygon
from .poly import RationalPolynomial
from .primes import PrimePower
from .weil import (
    _verified_orbit,
    coniveau_sub,
    mth_root_factors,
    slope_filtration_dim,
    verify_weil,
    weil_restriction_charpoly,
)


def _read_input(args) -> str:
    path = getattr(args, "input", None)
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _polygon_payload(poly: RationalPolynomial, q: PrimePower) -> list:
    if poly.is_constant:
        return []
    return [
        [encode_fraction_text(s), m]
        for s, m in newton_polygon(poly, q).segments
    ]


# ------------------------------------------------------------------- verify

def _verify_one(z: ZetaData) -> dict:
    report = validate_zeta(z)
    degrees = []
    for i, (l_poly, fws) in enumerate(zip(z.l_polys, z.analysis.degrees)):
        factors = []
        for fw in fws:
            entry = {"poly": encode_polynomial(fw.factor), "multiplicity": fw.multiplicity}
            if fw.error is None:
                entry["weight"] = fw.weight
            else:
                entry["error"] = fw.error.reason
            factors.append(entry)
        degrees.append({
            "i": i,
            "degree": max(l_poly.degree, 0),
            "factors": factors,
        })
    checks = [
        {"name": c.name, "where": c.where, "ok": c.ok, "detail": c.detail}
        for c in report.checks
    ]
    return {
        "q": z.base.q,
        "p": z.base.p,
        "n": z.dim_n,
        "degrees": degrees,
        "checks": checks,
        "all_pass": report.passed,
    }


def _human_verify(payload: dict) -> str:
    lines = [f"zeta data over F_{payload['q']} (p = {payload['p']}), dimension n = {payload['n']}"]
    for deg in payload["degrees"]:
        i = deg["i"]
        if not deg["factors"]:
            lines.append(f"  H^{i}: trivial")
            continue
        pieces = []
        for f in deg["factors"]:
            mult = f" x{f['multiplicity']}" if f["multiplicity"] > 1 else ""
            if "weight" in f:
                pieces.append(f"weight {f['weight']}{mult}")
            else:
                pieces.append(f"FAIL({f['error']}){mult}")
        lines.append(f"  H^{i}: degree {deg['degree']}, factors: " + ", ".join(pieces))
    bad = [c for c in payload["checks"] if not c["ok"]]
    for c in bad:
        lines.append(f"  check FAILED [{c['name']} {c['where']}]: {c['detail']}")
    lines.append("all checks pass" if payload["all_pass"] else "verification FAILED")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> Report:
    text = _read_input(args)
    if args.isogeny:
        docs, diagnostics = ingest_isogeny_lines(text.splitlines())
        records = []
        all_ok = True
        for doc in docs:
            entry = {"label": doc.label, "q": doc.base_q}
            try:
                z = doc.to_zeta()
                payload = _verify_one(z)
                entry["ok"] = payload["all_pass"]
                entry["weights"] = [
                    f.get("weight") for d in payload["degrees"] for f in d["factors"]
                ]
            except WeilmotError as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            all_ok = all_ok and entry["ok"]
            records.append(entry)
        human_lines = [
            f"{r['label']}: {'ok' if r['ok'] else 'FAIL ' + str(r.get('error', ''))}"
            for r in records
        ]
        human_lines.append(f"{sum(r['ok'] for r in records)}/{len(records)} records pass")
        return Report(
            command="verify",
            ok=all_ok,
            exit_code=0 if all_ok else 1,
            payload={"records": records, "diagnostics": diagnostics},
            human="\n".join(human_lines) + "\n",
            warnings=diagnostics,
        )
    doc = parse_document(text)
    payload = _verify_one(doc.to_zeta())
    return Report(
        command="verify",
        ok=payload["all_pass"],
        exit_code=0 if payload["all_pass"] else 1,
        payload=payload,
        human=_human_verify(payload),
    )


# -------------------------------------------------------------------- aqalg

def cmd_aqalg(args) -> Report:
    doc = parse_document(_read_input(args))
    z = doc.to_zeta()
    algebra = compute_A(z, weight_n=args.n)
    blocks = []
    for b in algebra.blocks:
        blocks.append({
            "r": b.matrix_size_r,
            "center_poly": encode_polynomial(b.center_poly),
            "center_degree": b.orbit_size,
            "e": b.index_e,
            "real_places": b.real_places,
            "real_invariant": encode_fraction_text(b.real_invariant),
            "finite_invariants": [
                {
                    "slope": encode_fraction_text(p.slope),
                    "local_degree": p.local_degree,
                    "invariant": encode_fraction_text(inv),
                }
                for p, inv in b.finite_invariants
            ],
        })
    payload = {
        "q": z.base.q,
        "n": algebra.ambient_weight_n,
        "blocks": blocks,
        "dimension": algebra.dimension_q,
        "rank": rank_from_algebra(algebra),
        "witt_vector_rank": witt_vector_rank(z) if algebra.ambient_weight_n == z.dim_n else None,
        "zero": algebra.is_zero,
    }
    if algebra.is_zero:
        human = f"A(X) = 0 (weight {algebra.ambient_weight_n} over F_{z.base.q})\n"
    else:
        lines = [f"A(X) over F_{z.base.q}, weight n = {algebra.ambient_weight_n}:"]
        for b in blocks:
            invs = ", ".join(
                f"v(slope {fi['slope']}, deg {fi['local_degree']}): {fi['invariant']}"
                for fi in b["finite_invariants"]
            )
            lines.append(
                f"  M_{b['r']}(D), center Q[T]/({RationalPolynomial([decode_coefficient(c) for c in b['center_poly']])}),"
                f" [Z:Q] = {b['center_degree']}, e = {b['e']},"
                f" real places {b['real_places']} (inv {b['real_invariant']}), p-invariants: {invs or 'none'}"
            )
        lines.append(f"dim_Q A = {payload['dimension']}, rank = {payload['rank']}")
        human = "\n".join(lines) + "\n"
    return Report(
        command="aqalg", ok=True, exit_code=0, payload=payload, human=human
    )


# --------------------------------------------------------------- filtration

def cmd_filtration(args) -> Report:
    doc = parse_document(_read_input(args))
    z = doc.to_zeta()
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--r expects a rational like 3/2, got {args.r!r}") from None
    motive = motive_of(z)
    per_degree = []
    for i in range(2 * z.dim_n + 1):
        part = motive.part(i)
        entry = {
            "i": i,
            "dim": part.dimension,
            "polygon": _polygon_payload(z.charpoly(i), z.base),
        }
        if r.denominator == 1 and r >= 0:
            entry["dim_coniveau"] = coniveau_sub(part, int(r)).dimension
        else:
            entry["dim_coniveau"] = None
        entry["dim_slope_ge_r"] = slope_filtration_dim(part, r)
        per_degree.append(entry)
    payload = {"q": z.base.q, "n": z.dim_n, "r": encode_fraction_text(r), "per_degree": per_degree}
    lines = [f"filtration at r = {payload['r']} over F_{z.base.q}:"]
    for e in per_degree:
        con = "-" if e["dim_coniveau"] is None else str(e["dim_coniveau"])
        seg = ", ".join(f"slope {s} x{m}" for s, m in e["polygon"]) or "empty"
        lines.append(
            f"  H^{e['i']}: dim {e['dim']}, dim F_b^r = {con},"
            f" dim slope>=r = {e['dim_slope_ge_r']}, polygon: {seg}"
        )
    return Report(
        command="filtration", ok=True, exit_code=0, payload=payload,
        human="\n".join(lines) + "\n",
    )


# -------------------------------------------------------------------- honda

def cmd_honda(args) -> Report:
    obj = parse_json_text(_read_input(args))
    if not isinstance(obj, dict):
        raise ParseError("honda expects an object {\"q\": ..., \"coeffs\": [...]}")
    q = PrimePower.from_q(_require_int(obj, "q"))
    if "coeffs" not in obj or not isinstance(obj["coeffs"], list):
        raise ParseError("missing coefficient list 'coeffs'")
    coeffs = RationalPolynomial(decode_coefficient(c) for c in obj["coeffs"])
    if args.monic:
        monic = coeffs
    else:
        if coeffs.constant_term != 1:
            raise BadConstantTerm(
                f"L(0) = {coeffs.constant_term}, expected 1 (or pass --monic)"
            )
        monic = reciprocal_transform(coeffs)
    factors = []
    orbit_entries = list(factor_rational_poly(monic).factors)
    for factor, mult in orbit_entries:
        entry = {"poly": encode_polynomial(factor), "multiplicity": mult}
        try:
            w = verify_weil(factor, q)
            entry["weight"] = w
            if w == 1 and factor.is_integral():
                entry["g"] = honda_tate_dimension(_verified_orbit(factor, q, 1))
        except NotWeil as exc:
            entry["error"] = exc.reason
        factors.append(entry)
    if any("error" in f for f in factors):
        reasons = ", ".join(f["error"] for f in factors if "error" in f)
        raise NotWeil(f"input is not a Weil polynomial: {reasons}",
                      reason=next(f["error"] for f in factors if "error" in f))
    payload = {"q": q.q, "p": q.p, "monic": encode_polynomial(monic), "factors": factors}
    if args.m is not None:
        if len(orbit_entries) != 1 or orbit_entries[0][1] != 1:
            raise RangeError("--m requires an irreducible input polynomial")
        roots = mth_root_factors(monic, q, args.m)
        payload["m"] = args.m
        payload["substituted"] = encode_polynomial(monic.substitute_power(args.m))
        payload["weight1_factors"] = [
            {"poly": encode_polynomial(o.min_poly), "weight": o.weight} for o in roots
        ]
        if q.a % args.m == 0:
            base = q.root(args.m)
            restricted = weil_restriction_charpoly(monic, q, args.m)
            payload["restricted_base_q"] = base.q
            payload["restricted"] = encode_polynomial(restricted)
    lines = [f"input over F_{q.q}: monic charpoly {monic}"]
    for f in factors:
        g_txt = f", g = {f['g']}" if "g" in f else ""
        lines.append(
            f"  factor {RationalPolynomial([decode_coefficient(c) for c in f['poly']])}: "
            f"weight {f['weight']}{g_txt}"
        )
    if "weight1_factors" in payload:
        fl = ", ".join(
            str(RationalPolynomial([decode_coefficient(c) for c in f["poly"]]))
            for f in payload["weight1_factors"]
        )
        lines.append(f"  m = {payload['m']}: P(T^m) weight-1 factors: {fl}")
        if "restricted" in payload:
            lines.append(
                f"  restriction of scalars to F_{payload['restricted_base_q']}: "
                f"{RationalPolynomial([decode_coefficient(c) for c in payload['restricted']])}"
            )
    return Report(
        command="honda", ok=True, exit_code=0, payload=payload,
        human="\n".join(lines) + "\n",
    )


# -------------------------------------------------------------- idempotents

def cmd_idempotents(args) -> Report:
    doc = parse_document(_read_input(args))
    z = doc.to_zeta()
    idems = kunneth_idempotents(z)
    payload = {
        "q": z.base.q,
        "n": z.dim_n,
        "moduli": [encode_polynomial(z.charpoly(i)) for i in range(2 * z.dim_n + 1)],
        "idempotents": [encode_polynomial(p) for p in idems],
    }
    lines = [f"Kunneth idempotents over F_{z.base.q}:"]
    for i, p in enumerate(idems):
        lines.append(f"  P^{i} = {p}")
    return Report(
        command="idempotents", ok=True, exit_code=0, payload=payload,
        human="\n".join(lines) + "\n",
    )


# ------------------------------------------------------------- zeta-product

def cmd_zeta_product(args) -> Report:
    obj = parse_json_text(_read_input(args))
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError("zeta-product expects a JSON array of two documents")
    x = document_from_object(obj[0]).to_zeta()
    y = document_from_object(obj[1]).to_zeta()
    product = zeta_product(x, y)
    doc = document_of_zeta(product)
    return Report(
        command="zeta-product", ok=True, exit_code=0,
        payload={"document": document_to_object(doc)},
        human=serialize_document(doc),
    )


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilmot",
        description="Exact arithmetic invariants of zeta functions over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", default="-", metavar="PATH",
                       help="input file (default: stdin; '-' also means stdin)")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    p_verify = sub.add_parser("verify", help="verify Weil weights of zeta data")
    add_common(p_verify)
    p_verify.add_argument("--isogeny", action="store_true",
                          help="input is a JSON-lines isogeny-class file")
    p_verify.set_defaults(handler=cmd_verify)

    p_aqalg = sub.add_parser("aqalg", help="the algebra A(X) of correspondences")
    add_common(p_aqalg)
    p_aqalg.add_argument("--n", type=int, default=None,
                         help="ambient weight (default: the variety dimension)")
    p_aqalg.set_defaults(handler=cmd_aqalg)

    p_filt = sub.add_parser("filtration", help="coniveau/slope filtration table")
    add_common(p_filt)
    p_filt.add_argument("--r", default="0", help="filtration level (rational, e.g. 3/2)")
    p_filt.set_defaults(handler=cmd_filtration)

    p_honda = sub.add_parser("honda", help="Honda-Tate data of one Weil polynomial")
    add_common(p_honda)
    p_honda.add_argument("--m", type=int, default=None,
                         help="take m-th roots (requires weight m)")
    p_honda.add_argument("--monic", action="store_true",
                         help="input coeffs are the monic charpoly, not the L-polynomial")
    p_honda.set_defaults(handler=cmd_honda)

    p_idem = sub.add_parser("idempotents", help="Kunneth idempotent polynomials")
    add_common(p_idem)
    p_idem.set_defaults(handler=cmd_idempotents)

    p_prod = sub.add_parser("zeta-product", help="Kunneth product of two zeta documents")
    add_common(p_prod)
    p_prod.set_defaults(handler=cmd_zeta_product)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except ParseError as exc:
        where = ""
        if exc.line is not None:
            where = f" (line {exc.line}, column {exc.column})"
        report = Report(
            command=args.command, ok=False, exit_code=2,
            payload={"error": str(exc) + where, "error_kind": "parse"},
            human=f"parse error: {exc}{where}\n",
        )
    except OSError as exc:
        report = Report(
            command=args.command, ok=False, exit_code=2,
            payload={"error": str(exc), "error_kind": "io"},
            human=f"io error: {exc}\n",
        )
    except WeilmotError as exc:
        kind = type(exc).__name__
        detail = f"{kind}: {exc}"
        if isinstance(exc, NotWeil):
            detail = f"NotWeil({exc.reason}): {exc}"
        report = Report(
            command=args.command, ok=False, exit_code=1,
            payload={"error": detail, "error_kind": "domain"},
            human=detail + "\n",
        )
    except Exception as exc:  # last resort: a bug, still one report and no traceback
        detail = f"internal error: {type(exc).__name__}: {exc}"
        report = Report(
            command=args.command, ok=False, exit_code=1,
            payload={"error": detail, "error_kind": "internal"},
            human=detail + "\n",
        )
    stream = sys.stdout if report.exit_code == 0 else sys.stderr
    if args.json:
        sys.stdout.write(report.json_text())
    else:
        stream.write(report.human)
        for w in report.warnings:
            sys.stderr.write(f"warning: {w}\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
