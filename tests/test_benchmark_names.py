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

import pytest

import chern_gate as cg

CHERNBENCH = Path(__file__).resolve().parent.parent / "chernbench"


@pytest.fixture
def harness(monkeypatch):
    """The harness's run and tracing modules, imported as they ship."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(CHERNBENCH))  # undone with the import's own
    import run
    import tracing

    return run, tracing


def test_the_benchmark_finds_every_name_it_patches_and_calls(harness):
    run, tracing = harness
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


@pytest.mark.parametrize("lid", ["2.2", "3.1", "4.2"])
def test_a_traced_replay_records_the_filter_and_eliminate_spans(harness, lid):
    # The tracer rebinds the filters and eliminate by name on pipeline. A
    # filter table that held the functions themselves from import would
    # call past the wrappers, and their spans would go silent. install
    # registers every span name up front, so only the names of spans
    # actually recorded are read.
    run, tracing = harness
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        run.serve(cg, cg.scenario_bytes(lid))
    finally:
        restore()
    recorded = {tracer.names[i] for i in tracer.name}
    assert "obstruction.filters" in recorded
    routes = [name for name in recorded if name.startswith("obstruction.eliminate.")]
    assert routes or lid != "3.1"
