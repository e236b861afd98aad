#!/usr/bin/env python3
"""weilmot benchmark: one workload, one seed, one run in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  weilmot is imported from ./src.  The last
stdout line is one JSON object with keys correct, attempted, failed and
metrics; the lines before it are JSON reports of the inputs and outcomes.

--trace 0: end-to-end metrics.  Ops run back to back (closed loop, one
client) until they have used --seconds of busy time and at least 100 have
completed.  Each result is spilled to a temporary file as it arrives and
checked after the timed phase, so the harness's memory does not grow with
the op count; peak RSS is read once the first 100 ops have run.  Op and
set-up times are scaled by a reference computation timed between ops, so
they read as on a machine where it takes REFERENCE_NOMINAL_S; the unscaled
figures are in the "unscaled" report line.

--trace 1: per-layer metrics.  The workload's first ``trace_ops`` ops run
with every entry point in tracing.ENTRY_POINTS wrapped, so call counts repeat
exactly for a seed; then the wrappers are removed (a wrapper left behind is
an error), weilmot's caches cleared, and the same ops run untraced.  The two
runs' outputs must be byte-identical; the difference of their times is the
tracing overhead.  Spans are written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_OPS = 100             # p90 then has ten samples beyond it; peak RSS is read here
SETUP_SAMPLES = 11        # one before the timed phase, the rest spread across it
LOOP_WALL_CAP_S = 140.0   # keeps a run under 180 s whatever --seconds asks
REFERENCE_EVERY_S = 1.0   # one reference sample per second of the run, between ops
REFERENCE_REPS = 10       # Euclid runs per reference sample
REFERENCE_NOMINAL_S = 0.016  # times are reported at the speed where one sample takes this

SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
              "import weilmot, weilmot.cli; print(time.perf_counter() - t)")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, input_properties  # noqa: E402


def setup_sample() -> float:
    """Time to import weilmot and weilmot.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


_REF_F = [Fraction(k * k - 3, k + 2) for k in range(1, 12)]
_REF_G = [Fraction(2 * k + 1, k * k + 1) for k in range(1, 10)]


def reference_sample() -> float:
    """Time of a fixed Fraction polynomial Euclid, with the garbage collector off.

    A shared machine's speed can drift by a third over minutes.  This work
    runs in the same process between ops, so it drifts with them, and nothing
    the program does changes it; op and set-up times are scaled by it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPS):
            f, g = _REF_F, _REF_G
            while g:
                r = list(f)
                while len(r) >= len(g):
                    c = r[-1] / g[-1]
                    for i, gi in enumerate(g, len(r) - len(g)):
                        r[i] -= c * gi
                    r.pop()
                while r and r[-1] == 0:
                    r.pop()
                f, g = g, r
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def import_cli():
    sys.path.insert(0, str(SRC))
    import weilmot.cli

    if not Path(weilmot.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"weilmot was imported from {weilmot.cli.__file__}, not {SRC}")
    return weilmot.cli


def nearest_rank(sorted_values: list[float], share: float) -> float:
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def classify_all(pairs) -> tuple[dict, list, list]:
    """Outcome counts, failure details and the ops, from (op, result) pairs."""
    import oracle

    counts = dict.fromkeys(oracle.OUTCOMES, 0)
    failures, ops = [], []
    for op, res in pairs:
        outcome, detail = oracle.classify(op, res)
        counts[outcome] += 1
        ops.append(op)
        if outcome == "failed":
            failures.append(detail)
    return counts, failures, ops


def input_report(ops) -> dict:
    import oracle

    props = input_properties(ops)
    curves = [c for op in ops for c in op.curves]
    non_weil = sum(1 for q, l1 in curves if any(w != 1 for w in oracle.expected_weights(q, l1)))
    lines = len(curves) + props["malformed_lines"]
    props["non_weil_share"] = non_weil / len(curves) if curves else 0.0
    props["malformed_share"] = props["malformed_lines"] / lines if lines else 0.0
    return props


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float) -> None:
    reference = [reference_sample()]
    setup = [setup_sample()]
    cli = import_cli()
    from harness import closed_loop

    OUT_DIR.mkdir(exist_ok=True)
    rss: list[float] = []
    spilled = 0
    start = time.perf_counter()
    every = seconds / (SETUP_SAMPLES - 1)
    with tempfile.TemporaryFile(dir=OUT_DIR) as spill:
        def sink(op, res):
            """Between ops, outside their timing: spill the result, take samples."""
            nonlocal spilled
            pickle.dump((op, res), spill)
            spilled += 1
            if spilled == MIN_OPS:
                rss.append(peak_rss_mb())
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_SAMPLES and elapsed >= every * len(setup):
                setup.append(setup_sample())
            if elapsed >= REFERENCE_EVERY_S * len(reference):
                reference.append(reference_sample())

        lat = closed_loop(cli, workload.ops(seed), seconds, MIN_OPS, LOOP_WALL_CAP_S, sink)
        rss_mb = rss[0] if rss else peak_rss_mb()
        spill.seek(0)
        counts, failures, ops = classify_all(pickle.load(spill) for _ in lat)
    reference_s = statistics.median(reference)
    scale = REFERENCE_NOMINAL_S / reference_s
    setup_s = statistics.median(setup)
    n = len(lat)
    busy = sum(lat)
    lat.sort()
    p50, p90 = nearest_rank(lat, 0.5), nearest_rank(lat, 0.9)
    print(json.dumps({"report": "outcomes", "workload": workload.name, "seed": seed,
                      "latency_samples": n, "setup_samples": len(setup),
                      "outcomes": counts,
                      "failed_share": counts["failed"] / n,
                      "undecided_share": counts["undecided"] / n,
                      "first_failures": failures[:5]}))
    print(json.dumps({"report": "unscaled", "reference_samples": len(reference),
                      "reference_ms": 1000 * reference_s, "scale": scale, "busy_s": busy,
                      "ops_per_s": n / busy, "latency_ms_p50": 1000 * p50,
                      "latency_ms_p90": 1000 * p90, "setup_s": setup_s}))
    print(json.dumps({"report": "inputs", **input_report(ops)}))
    metrics = {
        "ops_per_s": (n / (busy * scale), "1/s"),
        "latency_ms_p50": (1000 * p50 * scale, "ms"),
        "latency_ms_p90": (1000 * p90 * scale, "ms"),
        "decided_share": ((counts["answered"] + counts["rejected"]) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }
    print(result_line(counts["failed"] == 0, n, counts["failed"], metrics))


def _outputs(results) -> list:
    return [[(s.exit_code, s.stdout, s.stderr, s.escaped) for s in r.steps] for r in results]


def clear_caches() -> int:
    seen = set()
    for name, module in list(sys.modules.items()):
        if name == "weilmot" or name.startswith("weilmot."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and id(value) not in seen:
                    seen.add(id(value))
                    clear()
    return len(seen)


LAYER_COUNTS = {   # metric prefix -> which of calls / distinct / self_s to report
    "weil.verify_weil": ("calls", "distinct", "self_s"),
    "exact_arith.sturm_count": ("calls", "distinct", "self_s"),
    "motives.validate_zeta": ("calls", "self_s"),
    "motives.motive_of": ("calls",),
    "exact_arith.factor": ("calls", "distinct", "self_s"),
    "modp.factor_squarefree": ("self_s",),
    "modp.hensel_lift": ("self_s",),
    "padic.places": ("calls", "distinct", "self_s"),
    "linalg.det": ("calls", "self_s"),
    "poly.xgcd": ("calls", "distinct", "self_s"),
    "poly.gcd": ("calls", "distinct", "self_s"),
    "poly.divmod": ("calls", "self_s"),
    "exact_arith.crt": ("self_s",),
    "exact_arith.tensor_charpoly": ("calls", "self_s"),
    "linalg.charpoly": ("calls", "self_s"),
    "endalg.brauer_block": ("calls", "self_s"),
    "endalg.compute_A": ("self_s",),
    "endalg.witt_vector_rank": ("self_s",),
    "formats.ingest": ("self_s",),
    "formats.parse": ("self_s",),
    "formats.json_out": ("self_s",),
    "cli.main": ("self_s",),
}


def per_layer_metrics(tracer) -> dict:
    summary = tracer.summary()
    metrics = {}
    for prefix, fields in LAYER_COUNTS.items():
        entry = summary.get(prefix, {"calls": 0, "self_s": 0.0, "distinct": 0})
        for f in fields:
            metrics[f"{prefix}.{f}"] = (entry.get(f, 0), "s" if f == "self_s" else "count")
        if "distinct" in fields:
            d = entry.get("distinct", 0)
            metrics[f"{prefix}.calls_per_distinct"] = (entry["calls"] / d if d else 0.0, "ratio")
    padic = tracer.padic_counts()
    for key, value in padic.items():
        metrics[f"padic.{key}"] = (value, "count")
    attempts = padic["shift_attempts"]
    metrics["padic.certified_per_attempt"] = (
        padic["certified"] / attempts if attempts else 0.0, "ratio")
    return metrics


def traced(workload, seed: int) -> None:
    cli = import_cli()
    from harness import run_op
    from tracing import Tracer

    ops = list(itertools.islice(workload.ops(seed), workload.trace_ops))
    tracer = Tracer()
    tracer.install()
    try:
        traced_results = []
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            traced_results.append(run_op(cli, op))
    finally:
        tracer.uninstall()
    caches = clear_caches()
    plain_results = [run_op(cli, op) for op in ops]
    identical = _outputs(traced_results) == _outputs(plain_results)
    counts, failures, _ = classify_all(zip(ops, plain_results))
    n = len(ops)
    traced_s = sum(r.seconds for r in traced_results)
    plain_s = sum(r.seconds for r in plain_results)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json.gz"
    tracer.write(spans_path)
    print(json.dumps({"report": "trace", "workload": workload.name, "seed": seed,
                      "ops": n, "spans": len(tracer.span_name), "spans_file": str(spans_path.relative_to(ROOT)),
                      "wrapped": tracer.wrapped, "caches_cleared": caches,
                      "outputs_identical": identical,
                      "outcomes": counts, "first_failures": failures[:5]}))
    print(json.dumps({"report": "inputs", **input_report(ops)}))
    metrics = per_layer_metrics(tracer)
    metrics.update({
        "trace.ops": (n, "count"),
        "trace.spans": (len(tracer.span_name), "count"),
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (plain_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "ops.failed_share": (counts["failed"] / n, "ratio"),
        "ops.undecided_share": (counts["undecided"] / n, "ratio"),
    })
    correct = counts["failed"] == 0 and identical
    print(result_line(correct, n, counts["failed"], metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weilmot" / "__init__.py").is_file():
        print(f"error: no weilmot sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        traced(workload, args.seed)
    else:
        end_to_end(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
