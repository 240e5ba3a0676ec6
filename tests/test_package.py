import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import chern_gate

MODULES = (
    "exact",
    "obstruction",
    "pipeline",
    "report",
    "riemann_roch",
    "ring",
    "scenario",
    "search",
)


def test_package_exports_exactly_the_module_public_names():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"chern_gate.{name}")
        for public in module.__all__:
            assert public not in owner, (public, owner.get(public), name)
            owner[public] = module
    assert len(chern_gate.__all__) == len(set(chern_gate.__all__))
    assert set(chern_gate.__all__) == {"__version__", *owner}
    for public, module in owner.items():
        assert getattr(chern_gate, public) is getattr(module, public), public


# The math functions that stay in the integers; any other math name
# (sqrt, log, floor, pi, ...) computes with or returns a float.
_EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _float_uses(tree: ast.AST):
    """Each node that brings a float into the code, or that checks a fact
    with assert (which python -O strips), as (line, what)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "round", "complex"):
                yield node.lineno, f"call to {node.func.id}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in _EXACT_MATH:
                yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in _EXACT_MATH:
                    yield node.lineno, f"from math import {alias.name}"
        elif isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"


def test_package_source_has_no_floats_and_no_asserts():
    found = []
    for path in sorted(Path(chern_gate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in _float_uses(tree)]
    assert found == []


# The certificate checks in obstruction.py read only exact arithmetic, the
# Chern ring and the Pontryagin numbers. The enumeration in search and the
# pipeline must stay out of reach, so that a check cannot trust the code
# whose output it checks.
_TRUSTED_IMPORTS = {"exact", "ring", "riemann_roch"}


def _package_imports(tree: ast.AST):
    """Each package module (or package-level name) a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "chern_gate":
                    yield parts[1] if len(parts) > 1 else "chern_gate"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "chern_gate":
                    continue
                module = module.partition(".")[2]
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_obstruction_imports_only_the_trusted_modules():
    path = Path(chern_gate.__file__).parent / "obstruction.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(_package_imports(tree)) - _TRUSTED_IMPORTS == set()


# Start-up is the largest cost of a command that replays the lemmas, so
# the import of the package and its CLI leaves out the dataclasses
# machinery (records come from ring.record) and the thread pool.
_NOT_AT_IMPORT = ("dataclasses", "concurrent.futures")


def test_importing_the_cli_loads_neither_dataclasses_nor_the_thread_pool():
    script = (
        "import sys, chern_gate.cli\n"
        f"print(sorted(set({_NOT_AT_IMPORT!r}) & set(sys.modules)))\n"
    )
    src = str(Path(chern_gate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert proc.stdout == "[]\n"


# Records come from ring.record, and the search runs in one thread.
_NEVER_IMPORTED = {"dataclasses", "concurrent", "threading"}


def _imported_modules(tree: ast.AST):
    """Each absolute import under tree, inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_dataclasses_or_the_pool():
    found = []
    for path in sorted(Path(chern_gate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(tree):
            if name.split(".")[0] in _NEVER_IMPORTED:
                found.append(f"{path.name}: {name}")
    assert found == []
