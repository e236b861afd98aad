"""Source hygiene: no unused imports, no dead private helpers, no floats.

No module imports a name it never uses: `weilmot/__init__.py` is skipped (its
imports are re-exports), names listed in a module's ``__all__`` count as used,
and ``from __future__`` imports are exempt.

Every private (``_name``, not dunder) function or class defined in
`src/weilmot` is referenced somewhere in `src/weilmot` outside its own body.
So is every top-level function of the integer and power-sum kernels
(`_modp`, `_linalg`), unless the benchmark's tracer wraps it by name: such a
function is listed in ``ENTRY_POINTS`` of `perfbench/tracing.py`, which is
read here, never edited.

The library is exact: no module in `src/weilmot` has a float literal, a
``float(...)`` call or a use of ``math.sqrt``, ``math.log``, ``math.exp`` or
``math.pow``; bounds such as sqrt(n/2) are taken with ``math.isqrt``.

`padic` answers on every irreducible input: it neither imports nor raises
``PrecisionExhausted``, which stays exported as public API only.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "weilmot").glob("*.py"))
SOURCES = sorted(
    [p for p in (ROOT / "src" / "weilmot").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=str,
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_detector_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom x import a, b as c\nprint(c)\n"
    assert unused_imports(src) == ["line 3: a", "line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def references(sources: dict[str, str]) -> dict[str, list[tuple[str, int]]]:
    """Every name, attribute and imported name in {module name: source}, with where it occurs."""
    refs: dict[str, list[tuple[str, int]]] = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((module, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs.setdefault(alias.name, []).append((module, node.lineno))
    return refs


def _unreferenced(module: str, node, refs) -> bool:
    return all(
        m == module and node.lineno <= line <= node.end_lineno
        for m, line in refs.get(node.name, [])
    )


def dead_private_defs(sources: dict[str, str]) -> list[str]:
    """Private defs of {module name: source} never referenced outside their own body."""
    refs = references(sources)
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _is_private(node.name) and _unreferenced(module, node, refs)
    ]


def test_detector_flags_a_dead_private_def():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\ndef _loop(): _loop()\n"
             "class _Gone:\n    def __init__(self): pass\n",
        "b": "from a import _used\n_used()\n",
    }
    assert dead_private_defs(sources) == ["a:2 _dead", "a:3 _loop", "a:4 _Gone"]


def test_no_dead_private_defs():
    assert dead_private_defs({p.stem: p.read_text() for p in PACKAGE}) == []


KERNELS = ("_modp", "_linalg")


def uncalled_kernel_functions(sources: dict[str, str], kernels, traced) -> list[str]:
    """Top-level functions of the kernel modules never referenced outside their own
    body, except those in traced, a set of (module name, function name)."""
    refs = references(sources)
    return [
        f"{module}:{node.lineno} {node.name}"
        for module in kernels
        for node in ast.parse(sources[module]).body
        if isinstance(node, ast.FunctionDef) and (module, node.name) not in traced
        and _unreferenced(module, node, refs)
    ]


def tracer_entry_points() -> set[tuple[str, str]]:
    """(module name, attribute) of every ENTRY_POINTS row in perfbench/tracing.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    rows = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets)
    )
    return {(module.rpartition(".")[2], attr) for module, attr, *_ in ast.literal_eval(rows)}


def test_detector_flags_an_uncalled_kernel_function():
    sources = {
        "k": "def used(): pass\ndef traced(): pass\ndef dead(): dead()\n"
             "def _helper(): pass\nclass Node: pass\n",
        "b": "from k import used, _helper\nused()\n",
    }
    assert uncalled_kernel_functions(sources, ["k"], {("k", "traced")}) == ["k:3 dead"]
    assert uncalled_kernel_functions(sources, ["k"], set()) == ["k:2 traced", "k:3 dead"]


def test_kernel_functions_have_a_caller_or_a_tracer_row():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert uncalled_kernel_functions(sources, KERNELS, tracer_entry_points()) == []
    # _linalg.det has no library caller; only the tracer's row keeps it
    [kept] = uncalled_kernel_functions(sources, KERNELS, set())
    assert kept.startswith("_linalg:") and kept.endswith(" det")


FLOAT_MATH = {"sqrt", "log", "exp", "pow"}


def float_uses(source: str) -> list[str]:
    """Float literals, float(...) calls and float-valued math functions in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...)"))
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{a.name}") for a in node.names
                         if a.name in FLOAT_MATH)
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_detector_flags_floats():
    src = ("import math\nfrom math import exp, gcd\nx = 1.5 + 2j\ny = float('2')\n"
           "z = math.sqrt(2)\nw = pow(3, -1, 7) + math.isqrt(9)\n")
    assert float_uses(src) == [
        "line 2: math.exp", "line 3: 1.5", "line 3: 2j", "line 4: float(...)",
        "line 5: math.sqrt",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_no_floats_in_the_library(path):
    assert float_uses(path.read_text()) == []


def give_up_uses(source: str, name: str = "PrecisionExhausted") -> list[str]:
    """Lines that import name, raise it, or raise anything spelled ``x.name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.rpartition(".")[2] == name for alias in node.names):
                found.append(f"line {node.lineno}: import {name}")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ((isinstance(exc, ast.Name) and exc.id == name)
                    or (isinstance(exc, ast.Attribute) and exc.attr == name)):
                found.append(f"line {node.lineno}: raise {name}")
    return found


def test_detector_flags_a_give_up():
    src = ("from .errors import NotMonic, PrecisionExhausted\nimport errors\n"
           "def f():\n    raise PrecisionExhausted('x')\n"
           "def g():\n    raise errors.PrecisionExhausted\n"
           "def h():\n    raise NotMonic('fine')\n")
    assert give_up_uses(src) == [
        "line 1: import PrecisionExhausted", "line 4: raise PrecisionExhausted",
        "line 6: raise PrecisionExhausted",
    ]


def test_padic_never_gives_up():
    assert give_up_uses((ROOT / "src" / "weilmot" / "padic.py").read_text()) == []
