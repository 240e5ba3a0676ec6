import ast
import importlib
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
