"""Run ops through the public CLI in-process: ``weilmot.cli.main(argv)``.

stdin is the op's text held in memory, stdout and stderr are captured.  The
client is closed-loop with one caller: the next op starts when the previous
one has returned.
"""

from __future__ import annotations

import io
import sys
import time
from dataclasses import dataclass

from workloads import Op


@dataclass(frozen=True)
class StepResult:
    argv: tuple[str, ...]
    exit_code: int | None      # None: main did not return
    stdout: str
    stderr: str
    escaped: str | None = None  # exception type that left main, if any


@dataclass(frozen=True)
class OpResult:
    steps: tuple[StepResult, ...]
    seconds: float


def run_step(cli, argv: tuple[str, ...], text: str) -> StepResult:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code, escaped = cli.main(list(argv)), None
    except SystemExit as exc:        # argparse exits on a bad argv
        code, escaped = None, f"SystemExit({exc.code})"
    except Exception as exc:         # a traceback a CLI user would see
        code, escaped = None, type(exc).__name__
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return StepResult(tuple(argv), code, out.getvalue(), err.getvalue(), escaped)


def run_op(cli, op: Op) -> OpResult:
    """Run the op's steps; a step that does not exit 0 ends the pipeline."""
    results = []
    previous = ""
    t0 = time.perf_counter()
    for step in op.steps:
        if step.text is not None:
            text = step.text
        elif step.pair_with is not None:
            text = f"[{previous}, {step.pair_with}]"
        else:
            text = previous
        res = run_step(cli, step.argv, text)
        results.append(res)
        if res.exit_code != 0:
            break
        previous = res.stdout
    return OpResult(tuple(results), time.perf_counter() - t0)


def closed_loop(cli, ops, seconds: float, min_ops: int, wall_cap: float, sink) -> list[float]:
    """Run ops back to back until they have used ``seconds`` and ``min_ops`` are done.

    ``wall_cap`` bounds the loop's wall time whatever the other two say.
    ``sink(op, result)`` takes each op's result, outside the op's timing; the
    loop keeps only the latencies, so its own memory does not grow with the
    op count.
    """
    latencies: list[float] = []
    busy = 0.0
    start = time.perf_counter()
    for op in ops:
        if (busy >= seconds and len(latencies) >= min_ops) or time.perf_counter() - start >= wall_cap:
            break
        res = run_op(cli, op)
        latencies.append(res.seconds)
        busy += res.seconds
        sink(op, res)
    return latencies
