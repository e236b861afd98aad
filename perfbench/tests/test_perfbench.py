"""Tests of the benchmark itself: inputs, oracle and tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import weilmot  # noqa: E402
import weilmot.cli  # noqa: E402
from workloads import WORKLOADS, input_properties  # noqa: E402


def first_ops(name: str, seed: int, n: int):
    return list(itertools.islice(WORKLOADS[name].ops(seed), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    a, b = first_ops(name, 7, 30), first_ops(name, 7, 30)
    assert a == b
    assert input_properties(a) == input_properties(b)
    assert first_ops(name, 8, 30) != a


def test_generator_does_not_import_weilmot():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads, oracle; "
            "print(any(m.split('.')[0] == 'weilmot' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def replace_stdout(result, index: int, stdout: str):
    steps = list(result.steps)
    steps[index] = dataclasses.replace(steps[index], stdout=stdout)
    return dataclasses.replace(result, steps=tuple(steps))


def test_oracle_flags_corrupted_isogeny_answer():
    op = first_ops("isogeny-verify", 3, 1)[0]
    result = harness.run_op(weilmot.cli, op)
    assert oracle.classify(op, result)[0] == "rejected"
    obj = json.loads(result.steps[0].stdout)
    good = next(r for r in obj["records"] if r["ok"])
    good["weights"][1] = 2
    assert oracle.classify(op, replace_stdout(result, 0, json.dumps(obj)))[0] == "failed"
    obj = json.loads(result.steps[0].stdout)
    obj["diagnostics"] = []
    assert oracle.classify(op, replace_stdout(result, 0, json.dumps(obj)))[0] == "failed"
    assert oracle.classify(op, replace_stdout(result, 0, "{not json"))[0] == "failed"


def test_oracle_sorts_record_errors_on_valid_data():
    op = first_ops("isogeny-verify", 3, 1)[0]
    result = harness.run_op(weilmot.cli, op)
    valid = next(i for i, (q, l1) in enumerate(op.curves)
                 if all(w == 1 for w in oracle.expected_weights(q, l1)))

    def with_error(message):
        obj = json.loads(result.steps[0].stdout)
        record = obj["records"][valid]
        obj["records"][valid] = {"label": record["label"], "q": record["q"], "ok": False,
                                 "error": message}
        obj["ok"] = False
        return replace_stdout(result, 0, json.dumps(obj))

    gave_up = with_error("could not certify the place decomposition of T^2 + 1 at p = 2")
    assert oracle.classify(op, gave_up)[0] == "undecided"
    wrong = with_error("constant term of L must be 1")
    assert oracle.classify(op, wrong)[0] == "failed"


def test_oracle_flags_corrupted_product_and_algebra():
    op = next(o for o in first_ops("product-algebra", 5, 12) if o.kind == "CE")
    result = harness.run_op(weilmot.cli, op)
    assert oracle.classify(op, result)[0] in ("answered", "undecided")
    doc = json.loads(result.steps[0].stdout)
    doc["l_polynomials"][2][1] += 1
    assert oracle.classify(op, replace_stdout(result, 0, json.dumps(doc)))[0] == "failed"
    answered = next(
        (o, r) for o, r in ((o, harness.run_op(weilmot.cli, o)) for o in first_ops("product-algebra", 5, 30))
        if oracle.classify(o, r)[0] == "answered" and json.loads(r.steps[1].stdout)["blocks"]
    )
    op, result = answered
    for field, delta in (("rank", 1), ("dimension", 1), ("witt_vector_rank", -1)):
        obj = json.loads(result.steps[1].stdout)
        obj[field] += delta
        assert oracle.classify(op, replace_stdout(result, 1, json.dumps(obj)))[0] == "failed"


def test_oracle_flags_corrupted_idempotent():
    op = first_ops("kunneth-idempotents", 2, 1)[0]
    result = harness.run_op(weilmot.cli, op)
    assert oracle.classify(op, result)[0] == "answered"
    obj = json.loads(result.steps[-1].stdout)
    obj["idempotents"][1][0] = [str(7), str(3)]
    assert oracle.classify(op, replace_stdout(result, -1, json.dumps(obj)))[0] == "failed"


def test_oracle_weights_match_known_classes():
    # 1 - T + 2T^2 is Weil; a^2 = 9 > 8 is not; (T^2 - 2)^2 is weight 1 over F_2.
    assert oracle.expected_weights(2, (1, -1, 2)) == [1]
    assert sorted(oracle.expected_weights(2, (1, -3, 2))) == [0, 2]
    assert oracle.expected_weights(2, (1, 0, -4, 0, 4)) == [1]
    assert oracle.expected_weights(3, (1, 1, 10, 3, 9)) == [None]


def test_wrappers_fully_removed_after_traced_run():
    originals = {ns.__name__: dict(vars(ns)) for ns in tracing._weilmot_namespaces()}
    polynomial = sys.modules["weilmot.poly"].RationalPolynomial
    poly_dict = dict(vars(polynomial))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert weilmot.cli.verify_weil is not originals["weilmot.cli"]["verify_weil"]
        assert tracing.leftover_wrappers()
        op = first_ops("product-algebra", 1, 2)[1]
        tracer.begin_op(0)
        harness.run_op(weilmot.cli, op)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    for ns in tracing._weilmot_namespaces():
        for key, value in originals.get(ns.__name__, {}).items():
            assert vars(ns)[key] is value, f"{ns.__name__}.{key}"
    assert dict(vars(polynomial)) == poly_dict
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 2
    assert summary["motives.motive_of"]["calls"] == 2
    assert all(entry["self_s"] >= -1e-9 for entry in summary.values())


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "isogeny-verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
