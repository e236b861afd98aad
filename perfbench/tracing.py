"""Outside-in tracing: wrap weilmot's entry points from the benchmark's files.

``Tracer.install()`` rebinds each entry point in every ``weilmot.*`` namespace
that holds it (``from .x import f`` copies the binding) and on the classes
whose methods are listed; ``uninstall()`` puts every original back and checks
that no wrapper is left.  Each call records a span -- name, start, end,
parent span and op -- in flat in-memory arrays that are written out once, at
the end.  src/ is not edited.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute, span name, count distinct arguments)
ENTRY_POINTS = (
    ("weilmot.cli", "main", "cli.main", False),
    ("weilmot.formats", "ingest_isogeny_lines", "formats.ingest", False),
    ("weilmot.formats", "parse_json_text", "formats.parse", False),
    ("weilmot.formats", "document_from_object", "formats.parse", False),
    ("weilmot.formats", "Report.json_text", "formats.json_out", False),
    ("weilmot.motives", "validate_zeta", "motives.validate_zeta", False),
    ("weilmot.motives", "motive_of", "motives.motive_of", False),
    ("weilmot.motives", "zeta_product", "motives.zeta_product", False),
    ("weilmot.motives", "kunneth_idempotents", "motives.kunneth_idempotents", False),
    ("weilmot.weil", "verify_weil", "weil.verify_weil", True),
    ("weilmot.exact_arith", "sturm_count", "exact_arith.sturm_count", True),
    ("weilmot.exact_arith", "factor_rational_poly", "exact_arith.factor", True),
    ("weilmot.exact_arith", "tensor_charpoly", "exact_arith.tensor_charpoly", False),
    ("weilmot.exact_arith", "crt_polynomials", "exact_arith.crt", False),
    ("weilmot._modp", "mp_factor_squarefree", "modp.factor_squarefree", False),
    ("weilmot._modp", "hensel_lift_many", "modp.hensel_lift", False),
    ("weilmot._linalg", "det", "linalg.det", False),
    ("weilmot._linalg", "charpoly", "linalg.charpoly", False),
    ("weilmot.padic", "padic_places", "padic.places", True),
    ("weilmot.padic", "_analyze_block", "padic.analyze_block", False),
    ("weilmot.endalg", "compute_A", "endalg.compute_A", False),
    ("weilmot.endalg", "brauer_block", "endalg.brauer_block", False),
    ("weilmot.endalg", "witt_vector_rank", "endalg.witt_vector_rank", False),
    ("weilmot.poly", "RationalPolynomial.gcd", "poly.gcd", True),
    ("weilmot.poly", "RationalPolynomial.xgcd", "poly.xgcd", True),
    ("weilmot.poly", "RationalPolynomial.__divmod__", "poly.divmod", False),
)

_MARK = "_perfbench_span"


def _weilmot_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if name == "weilmot" or name.startswith("weilmot.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: dict[int, str] = {}
        self.distinct: dict[str, set] = {}
        self.wrapped: list[str] = []
        self._current = -1
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin_op(self, index: int) -> None:
        self._op = index

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrapper(self, fn, name: str, distinct: bool):
        name_id = self._name_id(name)
        keys = self.distinct.setdefault(name, set()) if distinct else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(args + tuple(sorted(kwargs.items())))
            idx = len(tracer.span_name)
            parent = tracer._current
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer._op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._current = idx
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer.span_start[idx] = start
                tracer._current = parent

        setattr(wrapper, _MARK, name)
        return wrapper

    # ------------------------------------------------- install / remove

    def install(self) -> None:
        namespaces = _weilmot_namespaces()
        for module_name, attr, name, distinct in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(original, name, distinct))
            else:
                original = getattr(module, attr)
                wrapper = self._wrapper(original, name, distinct)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, key, original))
                            setattr(ns, key, wrapper)
            self.wrapped.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left behind: {left}")

    # ------------------------------------------------------------ metrics

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, distinct argument tuples, self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[i] - self.span_start[i] - child[i]
        for name, keys in self.distinct.items():
            out[name]["distinct"] = len(keys)
        return out

    def padic_counts(self) -> dict[str, int]:
        """Shift attempts, certified analyses and PrecisionExhausted results.

        A shift attempt is an ``_analyze_block`` call made directly by
        ``padic_places`` (recursive calls on Hensel sub-blocks are part of
        one attempt); a ``padic_places`` call certifies when it returns after
        at least one attempt, i.e. when it was not answered from the cache.
        """
        places = self._name_ids.get("padic.places", -2)
        block = self._name_ids.get("padic.analyze_block", -2)
        attempts_under: dict[int, int] = {}
        for i in range(len(self.span_name)):
            parent = self.span_parent[i]
            if self.span_name[i] == block and parent >= 0 and self.span_name[parent] == places:
                attempts_under[parent] = attempts_under.get(parent, 0) + 1
        certified = sum(1 for i in attempts_under if i not in self.errors)
        exhausted = sum(1 for i, err in self.errors.items()
                        if self.span_name[i] == places and err == "PrecisionExhausted")
        return {"shift_attempts": sum(attempts_under.values()),
                "certified": certified, "precision_exhausted": exhausted}

    def write(self, path) -> None:
        """All spans as gzipped JSON: one [name, start, end, parent, op, error] row each."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "wrapped": self.wrapped,
                       "columns": ["name", "start_s", "end_s", "parent", "op", "error"]}, fh)
            fh.write("\n")
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.span_name[i], round(self.span_start[i] - t0, 7),
                                     round(self.span_end[i] - t0, 7), self.span_parent[i],
                                     self.span_op[i], self.errors.get(i)]) + "\n")


def leftover_wrappers() -> list[str]:
    """Tracing wrappers still bound anywhere in weilmot's namespaces or classes."""
    left = []
    for ns in _weilmot_namespaces():
        for key, value in vars(ns).items():
            if hasattr(value, _MARK):
                left.append(f"{ns.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("weilmot"):
                left += [f"{ns.__name__}.{key}.{k}" for k, v in vars(value).items()
                         if hasattr(v, _MARK)]
    return sorted(set(left))
