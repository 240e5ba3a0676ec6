import ast
import hashlib
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import chern_gate
from chern_gate import report, scenario, verify
from chern_gate.pipeline import SHIPPED_LEMMAS, scenario_bytes
from chern_gate.scenario import parse_scenario

MODULES = (
    "exact",
    "obstruction",
    "pipeline",
    "report",
    "riemann_roch",
    "ring",
    "scenario",
    "search",
    "verify",
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


# Every parameter with a default of a public function, and why it is
# there: the package's options. A new one has to be argued here.
OPTIONS = {
    ("eliminate", "max_modulus"): "the tests' seam to the divisor route",
    ("emit_report", "fmt"): "the report format, json or md, as --format picks",
    ("enumerate_cases", "workers"): "ignored; passed only by the benchmark harness",
    ("run_lemma", "baseline"): "a run of a scenario file has none to diff against",
    ("run_lemma", "workers"): "ignored; passed only by the benchmark harness",
}


def test_the_public_functions_have_only_the_listed_options():
    found = set()
    for public in chern_gate.__all__:
        obj = getattr(chern_gate, public)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            found |= {(public, p.name) for p in params if p.default is not p.empty}
    assert found == OPTIONS.keys()


def test_a_record_is_built_only_by_its_constructor():
    # A record class has no static or class method, so each value has one
    # constructor, except IntPoly.from_desc, which reads the descending
    # coefficients a scenario and the CLI give.
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"chern_gate.{name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and "_fields" in vars(cls):
                for attr, value in vars(cls).items():
                    if isinstance(value, (staticmethod, classmethod)):
                        found.add(f"{cls.__name__}.{attr}")
    assert found == {"IntPoly.from_desc"}


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


# The certificate checks in verify.py read only the Chern ring and the
# Pontryagin numbers. The enumeration in search, the engine in obstruction,
# the pipeline and the factorizer in exact must stay out of reach, so that
# a check cannot trust the code whose output it checks.
_TRUSTED_CLOSURE = {"ring", "riemann_roch"}


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


def _import_closure(name: str) -> set[str]:
    """The package modules that name imports, directly or through others."""
    package = Path(chern_gate.__file__).parent
    seen, todo = set(), [name]
    while todo:
        path = package / f"{todo.pop()}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        new = set(_package_imports(tree)) - seen
        seen |= new
        # The package itself, or a name imported from it, has no file.
        todo += [module for module in new if (package / f"{module}.py").exists()]
    return seen


def test_verify_reaches_only_ring_and_riemann_roch():
    assert _import_closure("verify") - _TRUSTED_CLOSURE == set()


# Each certificate class has one check and one JSON codec; a kind added to
# one table and not the other fails here, not at its first use. Each kind
# of printed obstruction completes a certificate type of the codecs, about
# a record key that run_lemma fills for a case or a polynomial.
def test_every_certificate_class_has_a_check_and_a_codec():
    codecs = [cls for cls, _, _ in report._CODECS.values()]
    assert len(set(codecs)) == len(codecs)
    assert set(verify._CHECKS) == set(codecs)
    for kind, (tag, about) in scenario._PRINTED.items():
        assert tag in report._CODECS, kind
        assert about in ("poly", "char_numbers", "case"), kind


# Start-up is the largest cost of a command that replays the lemmas, so
# the import of the package and its CLI leaves out the dataclasses
# machinery (records come from ring.record), the thread pool, and
# OpenSSL, which hashlib loads (scenario digests come from CPython's
# builtin SHA-256 module).
_NOT_AT_IMPORT = ("dataclasses", "concurrent.futures", "hashlib", "_hashlib")


def _loaded_by_the_cli_import(names, *options: str) -> str:
    """Which of names a fresh interpreter, started with options and the
    package source on PYTHONPATH, holds after `import chern_gate.cli`."""
    script = (
        "import sys, chern_gate.cli\n"
        f"print(sorted(set({names!r}) & set(sys.modules)))\n"
    )
    src = str(Path(chern_gate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *options, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return proc.stdout


def test_importing_the_cli_loads_neither_dataclasses_the_pool_nor_openssl():
    assert _loaded_by_the_cli_import(_NOT_AT_IMPORT) == "[]\n"


# The shipped data is read with open, so a clean import loads neither
# importlib.resources nor the modules it pulls in. Only under -S does
# this show: a site hook may load them before the package is imported.
_NOT_AT_CLEAN_IMPORT = ("importlib.resources", "pathlib", "tempfile", "shutil")


def test_a_clean_interpreter_imports_the_cli_without_importlib_resources():
    assert _loaded_by_the_cli_import(_NOT_AT_CLEAN_IMPORT, "-S") == "[]\n"


# Trailing JSON whitespace keeps a scenario valid and moves its length
# across SHA-256's 64-byte blocks and their 56-byte padding limit.
@settings(max_examples=20, deadline=None)
@given(st.text(" \t\r\n", max_size=130))
@example("")
@example(" " * 64)
def test_scenario_digests_are_hashlibs_sha256(pad):
    for lemma in SHIPPED_LEMMAS:
        raw = scenario_bytes(lemma) + pad.encode()
        assert parse_scenario(raw).input_sha256 == hashlib.sha256(raw).hexdigest()


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
