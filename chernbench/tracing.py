"""Spans around the program's public functions, for traced passes only.

`Tracer.install` replaces each function in LAYERS on the module whose
namespace the caller looks it up in, and returns a function that puts
the originals back; untraced passes run the program untouched. Each wrapper records a span: name, start, end, parent
span and request id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name). A layer that several functions make up
# lists each of them under one span name.
LAYERS = (
    ("chern_gate", "parse_scenario", "scenario.parse_scenario"),
    ("chern_gate", "load_baseline", "pipeline.load_baseline"),
    ("chern_gate", "run_lemma", "pipeline.run_lemma"),
    ("chern_gate", "emit_report", "report.emit_report"),
    ("chern_gate.pipeline", "invariants_from_diamond", "riemann_roch.invariants"),
    ("chern_gate.pipeline", "complete_invariants", "riemann_roch.invariants"),
    ("chern_gate.pipeline", "pontryagin_numbers", "riemann_roch.pontryagin"),
    ("chern_gate.pipeline", "l_genus_signature", "riemann_roch.pontryagin"),
    ("chern_gate.pipeline", "chi_O_from_class", "riemann_roch.pontryagin"),
    ("chern_gate.obstruction", "pontryagin_numbers", "riemann_roch.pontryagin"),
    ("chern_gate.pipeline", "enumerate_cases", "search.enumerate_cases"),
    ("chern_gate.search", "solve_quadratic_rational", "exact.solve_quadratic_rational"),
    ("chern_gate.pipeline", "char_number_table", "search.char_number_table"),
    ("chern_gate.pipeline", "chern_from_case", "ring.chern_from_case"),
    ("chern_gate.obstruction", "normal_c4_polynomial", "ring.normal_c4_polynomial"),
    (
        "chern_gate.pipeline",
        "build_embedding_polynomial",
        "obstruction.build_embedding_polynomial",
    ),
    ("chern_gate.pipeline", "eliminate", "obstruction.eliminate"),
    ("chern_gate.obstruction", "divisors", "exact.divisors"),
    ("chern_gate.pipeline", "verify_certificate", "obstruction.verify_certificate"),
    ("chern_gate.pipeline", "mod12_filter", "obstruction.filters"),
    ("chern_gate.pipeline", "ahat_filter", "obstruction.filters"),
    ("chern_gate.pipeline", "external_fact_filter", "obstruction.filters"),
    ("chern_gate.pipeline", "diff_baseline", "pipeline.diff_baseline"),
    ("chern_gate.pipeline", "certificate_to_json", "report.certificate_to_json"),
)

ROUTES = {
    "ModularObstruction": "modular",
    "ConstantDivisorTest": "divisor",
    "BoundedExhaustive": "exhaustive",
    "RootFound": "root",
}


def _grid_counts(counts: Counter, args, kwargs, cases) -> None:
    system = args[0] if args else kwargs["system"]
    lat = system.lattice
    points = {
        "rank1": lat.e_max,
        "rank2": lat.a_max * (lat.b_max + 1),
        "free": lat.d_max,
    }[lat.model]
    r_values = sum(1 for r in range(system.r_min, system.r_max + 1) if r != 0)
    counts["search.grid_points"] += points
    counts["search.grid_point_r"] += points * r_values
    counts["search.cases"] += len(cases)


def _scan_counts(counts: Counter, args, kwargs, cert) -> str:
    """Moduli and residues the scan went through, computed from the
    certificate: moduli 2..M, every residue of each, where M is the
    certificate's modulus, or max_modulus when no modulus worked."""
    route = ROUTES[type(cert).__name__]
    last = kwargs.get("max_modulus", args[1] if len(args) > 1 else 720)
    if route == "modular":
        last = cert.modulus
        counts["obstruction.modular_certificates"] += 1
    elif route == "exhaustive" and cert.bound == 0:
        last = 1  # a constant polynomial needs no scan
    counts["obstruction.moduli_tried"] += last - 1
    counts["obstruction.residues_evaluated"] += last * (last + 1) // 2 - 1
    return f"obstruction.eliminate.{route}"


# Wrappers that also count; they return the span's final name or None.
OBSERVERS = {"search.enumerate_cases": _grid_counts, "obstruction.eliminate": _scan_counts}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.request_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, observe=None):
        base = self._name_id(name)

        def traced(*args, **kwargs):
            ix = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.name.append(base)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(ix)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[ix] = t0
                self.end[ix] = t1
            if observe is not None:
                final = observe(self.counts[self.request_id], args, kwargs, result)
                if final is not None:
                    self.name[ix] = self._name_id(final)
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS; returns the undo function."""
        saved = []
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, OBSERVERS.get(name)))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated text, one span a line."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        covered, reach = 0, start[i]
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out
