"""The benchmark harness in chernbench/ patches the program's functions by
module and name (tracing.LAYERS), reads the lattice bounds of every
enumeration it traces, and serves requests through the package's public
names. Its traced runs also time enumerate_cases with workers=2, a
keyword the package accepts and ignores. A change that drops or renames
one of them fails here, in the tier-1 run, and not only in the
benchmark's own traced run.

The harness is imported as it ships; nothing under chernbench/ is
written, bytecode included.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import chern_gate as cg

CHERNBENCH = Path(__file__).resolve().parent.parent / "chernbench"


def test_the_benchmark_finds_every_name_it_patches_and_calls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(CHERNBENCH))  # undone with the import's own
    import run
    import tracing

    expected = cg.emit_report(cg.reproduce_lemma("3.1"))
    restore = tracing.Tracer().install()  # looks up every LAYERS entry
    try:
        traced = run.serve(cg, cg.scenario_bytes("3.1"))
    finally:
        restore()
    assert traced == expected
    assert run.serve(cg, cg.scenario_bytes("3.1")) == expected
    requests = [
        SimpleNamespace(scenario=cg.scenario_bytes(lid))
        for lid in ("2.1", "2.2", "3.1", "4.2")
    ]
    assert all(ms > 0 for ms in run.enumerate_ms(cg, requests))
