"""Golden --json output: the CLI's exact bytes on fixed inputs.

Every case runs ``weilmot <argv> --json`` in-process and compares stdout with
``tests/golden/<case>.json``.  The inputs cover the shipped ``data/*.jsonl``
files, the README examples, the documents of ``test_cli.py``, and invalid
data whose ``NotWeil`` reasons and failing ``weight``/``coprime`` check
details are part of the output.  A change to any of these bytes is a change
to the CLI's contract: regenerate the expected files only on purpose, with

    PYTHONPATH=src python tests/test_golden_json.py --write
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from weilmot.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _doc(q: int, p: int, n: int, l_polys: list) -> str:
    return f'{{"q": {q}, "p": {p}, "n": {n}, "l_polynomials": {l_polys}}}'


DOCS = {
    "point-q2": _doc(2, 2, 0, [[1, -1]]),
    "elliptic-q2": _doc(2, 2, 1, [[1, -1], [1, -1, 2], [1, -2]]),
    "supersingular-q2": _doc(2, 2, 1, [[1, -1], [1, 0, 2], [1, -2]]),
    "supersingular-q4": _doc(4, 2, 1, [[1, -1], [1, -4, 4], [1, -4]]),
    "surface-q2": _doc(2, 2, 1, [[1, -1], [1, -2, 5, -4, 4], [1, -2]]),
    "elliptic-square-q2": _doc(2, 2, 2, [
        [1, -1], [1, -2, 5, -4, 4], [1, -5, 4, 8, 16, -80, 64],
        [1, -4, 20, -32, 64], [1, -4],
    ]),
    # non-Weil: C_1 = T - 3 fails the constant-term valuation
    "weight-fail-q2": _doc(2, 2, 1, [[1, -1], [1, -3], [1, -2]]),
    # C_1 = T^2 + 5T + 2 has real roots beyond the Weil bound
    "root-bound-q2": _doc(2, 2, 1, [[1, -1], [1, 5, 2], [1, -2]]),
    # C_1 = T^4 + T + 4: beta = alpha + 2/alpha is not totally real
    "not-totally-real-q2": _doc(2, 2, 1, [[1, -1], [1, 0, 0, 1, 4], [1, -2]]),
    # C_1 = (T - 1)(T - 2) has weights 0 and 2 and shares a factor with C_0 and C_2
    "shared-factors-q2": _doc(2, 2, 1, [[1, -1], [1, -3, 2], [1, -2]]),
    # C_2 = (T - 2)^2, C_3 = (T - 2)^3: gcd(C_2, C_3) = (T - 2)^2
    "repeated-factor-q2": _doc(2, 2, 2, [
        [1, -1], [1], [1, -4, 4], [1, -6, 12, -8], [1, -4],
    ]),
}

PRODUCTS = {
    "elliptic-q2-x-elliptic-q2": ("elliptic-q2", "elliptic-q2"),
    "supersingular-q4-x-supersingular-q4": ("supersingular-q4", "supersingular-q4"),
    "elliptic-q2-x-supersingular-q2": ("elliptic-q2", "supersingular-q2"),
    "elliptic-q2-x-point-q2": ("elliptic-q2", "point-q2"),
    "elliptic-q2-x-supersingular-q4": ("elliptic-q2", "supersingular-q4"),
}

HONDA = {
    "elliptic-q2": '{"q": 2, "coeffs": [1, -1, 2]}',
    "weight2-q4": '{"q": 4, "coeffs": [1, -4]}',
    "not-weil-q5": '{"q": 5, "coeffs": [1, -3]}',
    "surface-q2": '{"q": 2, "coeffs": [1, -2, 5, -4, 4]}',
}

HONDA_MONIC = {
    "elliptic-q2": '{"q": 2, "coeffs": [2, -1, 1]}',
    "denominator-q2": '{"q": 2, "coeffs": [["1", "3"], 1]}',
    "root-bound-q2": '{"q": 2, "coeffs": [2, 5, 1]}',
}


def _cases() -> dict[str, tuple[list[str], str]]:
    cases: dict[str, tuple[list[str], str]] = {}
    for path in sorted(DATA_DIR.glob("*.jsonl")):
        cases[f"verify-isogeny_{path.stem}"] = (
            ["verify", "--isogeny", "--input", str(path)], "")
    for name, text in DOCS.items():
        cases[f"verify_{name}"] = (["verify"], text)
        cases[f"aqalg_{name}"] = (["aqalg"], text)
        cases[f"filtration-r3-2_{name}"] = (["filtration", "--r", "3/2"], text)
        cases[f"idempotents_{name}"] = (["idempotents"], text)
    for name, (x, y) in PRODUCTS.items():
        cases[f"zeta-product_{name}"] = (["zeta-product"], f"[{DOCS[x]}, {DOCS[y]}]")
    for name, text in HONDA.items():
        cases[f"honda_{name}"] = (["honda"], text)
        cases[f"honda-m2_{name}"] = (["honda", "--m", "2"], text)
    for name, text in HONDA_MONIC.items():
        cases[f"honda-monic_{name}"] = (["honda", "--monic"], text)
    return cases


CASES = _cases()


def run_json(argv: list[str], stdin_text: str) -> str:
    """stdout of ``main(argv + ["--json"])`` with the given stdin."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(argv + ["--json"])
    finally:
        sys.stdin = saved_stdin
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name):
    argv, stdin_text = CASES[name]
    expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert run_json(argv, stdin_text) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_json.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, (case_argv, case_stdin) in sorted(CASES.items()):
        (GOLDEN_DIR / f"{case}.json").write_text(
            run_json(case_argv, case_stdin), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN_DIR}")
