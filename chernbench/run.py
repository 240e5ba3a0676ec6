"""chern-gate benchmark harness.

    python3 chernbench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Drives the public API in one process, closed loop, one client: each
request is parse_scenario -> load_baseline (when the scenario names one)
-> run_lemma(workers=1) -> emit_report, and the next request starts when
the previous one has returned. Every report is checked against ground
truth that the benchmark computes itself (checks.py); a request fails if
it raises, if any row is unverified, if a replay differs from its
baseline, if the ground truth disagrees, or if its bytes differ from the
same request's bytes in the first pass.

Times are in reference seconds (reference.py): each call is timed
between two runs of a fixed probe and rescaled to the speed at which the
probe takes 200 us, which takes the shared machine's drifting speed out
of the numbers. The results file keeps the wall times too.

--trace 0 prints the end-to-end metrics; --trace 1 traces every other
pass, so traced and untraced passes share the machine's slow and fast
spells, and prints the per-layer metrics. The last line of stdout is one
JSON object; the lines before it repeat the metrics with their units and
say what was run. Results, and the spans of a traced run, are written to
chernbench/results/. `--workload all` runs every workload in turn, each
in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from reference import REFERENCE_NS, timed  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

WORKLOADS = ("replay", "grid-sweep", "poly-certify")
MIN_REQUESTS = 100  # so that req_ms.p90 has at least ten samples above it
SETUP_SAMPLES = 15
HARD_STOP_NS = 140 * 10**9  # stop starting passes here, whatever --seconds says
IMPORT_PROBE = (
    "import time; t = time.perf_counter_ns(); import chern_gate; "
    "print(time.perf_counter_ns() - t, chern_gate.__file__)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("req_ms.p50", "ms"),
    ("req_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)
# Self time per pass, median over the traced passes.
SELF_MS = (
    "scenario.parse_scenario",
    "riemann_roch.invariants",
    "riemann_roch.pontryagin",
    "search.enumerate_cases",
    "exact.solve_quadratic_rational",
    "search.char_number_table",
    "ring.chern_from_case",
    "ring.normal_c4_polynomial",
    "obstruction.build_embedding_polynomial",
    "obstruction.eliminate.modular",
    "obstruction.eliminate.divisor",
    "obstruction.eliminate.exhaustive",
    "obstruction.eliminate.root",
    "exact.divisors",
    "obstruction.verify_certificate",
    "obstruction.filters",
    "pipeline.load_baseline",
    "pipeline.diff_baseline",
    "report.certificate_to_json",
    "report.emit_report",
)
# Spans per pass.
CALLS = (
    "exact.solve_quadratic_rational",
    "obstruction.eliminate.modular",
    "obstruction.eliminate.divisor",
    "obstruction.eliminate.exhaustive",
    "obstruction.eliminate.root",
    "exact.divisors",
    "obstruction.verify_certificate",
)
# Counts per pass that the wrappers record.
COUNTS = (
    "search.grid_points",
    "search.cases",
    "obstruction.moduli_tried",
    "obstruction.residues_evaluated",
)
PER_LAYER = (
    tuple((f"{name}.ms", "ms") for name in SELF_MS)
    + (
        ("pipeline.run_lemma.self_ms", "ms"),
        ("search.enumerate_cases.workers1.ms", "ms"),
        ("search.enumerate_cases.workers2.ms", "ms"),
    )
    + tuple((f"{name}.calls", "count") for name in CALLS)
    + tuple((name, "count") for name in COUNTS)
    + (
        ("search.hit_ratio", "ratio"),
        ("obstruction.modulus_hit_ratio", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
    )
)


def serve(cg, scenario: bytes) -> bytes:
    """One request: scenario bytes in, canonical report bytes out."""
    spec = cg.parse_scenario(scenario)
    baseline = cg.load_baseline(spec.baseline_id) if spec.baseline_id else None
    return cg.emit_report(cg.run_lemma(spec, baseline=baseline, workers=1))


def try_serve(cg, scenario: bytes):
    """serve(), with an exception returned instead of raised."""
    try:
        return serve(cg, scenario)
    except Exception as exc:  # a failed request is counted, not fatal
        return exc


class Runner:
    """Serves passes of one workload and judges every report."""

    def __init__(self, cg, check, requests):
        self.cg = cg
        self.check = check
        self.requests = requests
        self.latency_ns: list[float] = []  # reference ns, indexed by request id
        self.wall_ns: list[int] = []  # the same requests in wall ns
        self.pass_ns: list[float] = []  # reference ns per pass
        self.pass_ids: list[range] = []
        self.traced: list[int] = []  # indices of the traced passes
        self.failed = 0
        self.failures: list[str] = []
        # request index -> (digest of its first report, that report's problems)
        self.first: dict[int, tuple[str, list[str]]] = {}
        self.pass_digest: str | None = None

    def warm_up(self) -> None:
        for req in self.requests:
            try_serve(self.cg, req.scenario)  # the timed passes judge it

    def one_pass(self, tracer=None) -> None:
        outputs = []
        begin = len(self.latency_ns)
        restore = tracer.install() if tracer is not None else None
        try:
            for req in self.requests:
                if tracer is not None:
                    tracer.request_id = len(self.latency_ns)
                out, wall, ref = timed(try_serve, self.cg, req.scenario)
                self.wall_ns.append(wall)
                self.latency_ns.append(ref)
                outputs.append(out)
        finally:
            if restore is not None:
                restore()
        self.pass_ids.append(range(begin, len(self.latency_ns)))
        self.pass_ns.append(sum(self.latency_ns[begin:]))
        for i, (req, out) in enumerate(zip(self.requests, outputs)):
            self._judge(i, req, out)
        if self.pass_digest is None and all(isinstance(o, bytes) for o in outputs):
            self.pass_digest = hashlib.sha256(b"".join(outputs)).hexdigest()

    def _judge(self, i: int, req, out) -> None:
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            digest = hashlib.sha256(out).hexdigest()
            if i not in self.first:
                self.first[i] = (digest, self.check(req, out))
            first_digest, first_problems = self.first[i]
            problems = (
                first_problems
                if digest == first_digest
                else ["report bytes differ from the first pass"]
            )
        if problems:
            self.failed += 1
            line = f"FAIL {req.label}: {'; '.join(problems)}"
            print(line, file=sys.stderr)
            if len(self.failures) < 100:
                self.failures.append(line)

    def measure(self, seconds: float, started: int, tracer=None) -> None:
        """Whole passes until `seconds` have gone and MIN_REQUESTS ran.
        With a tracer, every other pass is traced."""
        deadline = perf_counter_ns() + int(seconds * 1e9)
        while True:
            if tracer is not None and len(self.pass_ns) % 2:
                self.traced.append(len(self.pass_ns))
                self.one_pass(tracer)
            else:
                self.one_pass()
            now = perf_counter_ns()
            enough = len(self.latency_ns) >= MIN_REQUESTS and len(self.pass_ns) >= 2
            if (now >= deadline and enough) or now - started > HARD_STOP_NS:
                return


def setup_seconds() -> tuple[float, float]:
    """Median wall and reference seconds to import chern_gate in a fresh
    interpreter. The import is rescaled by the probes around the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, samples = [], []
    for _ in range(SETUP_SAMPLES + 1):  # the first import may compile bytecode
        done, child_wall, child_ref = timed(
            subprocess.run,
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        wall, where = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported chern_gate from {where}")
        walls.append(int(wall) / 1e9)
        samples.append(int(wall) * child_ref / child_wall / 1e9)
    return statistics.median(walls[1:]), statistics.median(samples[1:])


def quantiles_ms(ns) -> tuple[float, float]:
    cuts = statistics.quantiles(ns, n=10, method="inclusive")
    return cuts[4] / 1e6, cuts[8] / 1e6


def end_to_end(runner: Runner, setup_s: float) -> dict:
    p50, p90 = quantiles_ms(runner.latency_ns)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(runner.pass_ns) / 1e9,
        "req_ms.p50": p50,
        "req_ms.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_figures(runner: Runner, setup_wall_s: float | None) -> dict:
    """The end-to-end timings in wall time, for the results file."""
    walls = [sum(runner.wall_ns[i] for i in ids) for ids in runner.pass_ids]
    p50, p90 = quantiles_ms(runner.wall_ns)
    return {
        "setup_s": setup_wall_s,
        "pass_s": statistics.median(walls) / 1e9,
        "req_ms.p50": p50,
        "req_ms.p90": p90,
    }


def enumerate_ms(cg, requests) -> tuple[float, float]:
    """enumerate_cases at workers=1 and workers=2 over one pass's
    pipeline scenarios, untraced, alternating which runs first."""
    totals = [0, 0]
    for n, req in enumerate(requests):
        spec = cg.parse_scenario(req.scenario)
        if spec.mode != "pipeline":
            continue
        inv = cg.complete_invariants(cg.invariants_from_diamond(spec.diamond))
        system = cg.constraint_system_for(spec, target=inv.target)
        for workers in (1, 2) if n % 2 == 0 else (2, 1):
            totals[workers - 1] += timed(cg.enumerate_cases, system, workers=workers)[2]
    return totals[0] / 1e6, totals[1] / 1e6


def per_layer(runner, tracer, workers_ms) -> dict:
    # Span times in reference ns, rescaled like the request they belong to.
    scale = [ref / wall for ref, wall in zip(runner.latency_ns, runner.wall_ns)]
    selfs = [
        ns * scale[rid]
        for ns, rid in zip(self_times(tracer.start, tracer.end, tracer.parent), tracer.request)
    ]
    passes = [runner.pass_ids[p] for p in runner.traced]
    untraced = [t for p, t in enumerate(runner.pass_ns) if p not in runner.traced]
    pass_of = {rid: p for p, ids in enumerate(passes) for rid in ids}
    spent = [Counter() for _ in passes]
    calls = [Counter() for _ in passes]
    for i, ns in enumerate(selfs):
        p = pass_of[tracer.request[i]]
        name = tracer.names[tracer.name[i]]
        spent[p][name] += ns
        calls[p][name] += 1
    counts = [sum((tracer.counts[rid] for rid in ids), Counter()) for ids in passes]
    every = sum(counts, Counter())

    def med(per_pass, key, scale=1):
        return statistics.median(c[key] for c in per_pass) / scale

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{n}.ms": med(spent, n, 1e6) for n in SELF_MS}
    out["pipeline.run_lemma.self_ms"] = med(spent, "pipeline.run_lemma", 1e6)
    out["search.enumerate_cases.workers1.ms"] = workers_ms[0]
    out["search.enumerate_cases.workers2.ms"] = workers_ms[1]
    out.update({f"{n}.calls": med(calls, n) for n in CALLS})
    out.update({n: med(counts, n) for n in COUNTS})
    out["search.hit_ratio"] = ratio(every["search.cases"], every["search.grid_point_r"])
    out["obstruction.modulus_hit_ratio"] = ratio(
        every["obstruction.modular_certificates"], every["obstruction.moduli_tried"]
    )
    request_ns = sum(runner.latency_ns[rid] for ids in passes for rid in ids)
    out["trace.coverage"] = ratio(sum(selfs), request_ns)
    out["trace.overhead"] = ratio(
        statistics.median(runner.pass_ns[p] for p in runner.traced),
        statistics.median(untraced),
    )
    return out


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def run_one(args) -> int:
    started = perf_counter_ns()
    if not (SRC / "chern_gate" / "__init__.py").is_file():
        print(f"error: no chern_gate sources under {SRC}", file=sys.stderr)
        return 2
    import chern_gate as cg

    if not Path(cg.__file__).resolve().is_relative_to(SRC):
        print(f"error: chern_gate imported from {cg.__file__}", file=sys.stderr)
        return 2
    import workloads  # imports chern_gate

    requests = workloads.build(args.workload, args.seed)
    setup_wall_s, setup_s = setup_seconds() if not args.trace else (None, None)
    runner = Runner(cg, checks.check, requests)
    runner.warm_up()
    if args.trace:
        tracer = Tracer()
        runner.measure(args.seconds, started, tracer)
        metrics = per_layer(runner, tracer, enumerate_ms(cg, requests))
        units = dict(PER_LAYER)
    else:
        runner.measure(args.seconds, started)
        metrics = end_to_end(runner, setup_s)
        units = dict(END_TO_END)

    attempted = len(runner.latency_ns)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_pass": len(requests),
        "passes": len(runner.pass_ns),
        "requests": attempted,
        "failed_frac": runner.failed / attempted,
        "report_sha256": runner.pass_digest,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": commit(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "loop": "closed, one client, workers=1",
        "reference_probe_ns": REFERENCE_NS,
        "wall": wall_figures(runner, setup_wall_s),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(f"{stem}-spans.tsv.gz")
    result = {
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem.with_suffix(".json").write_text(
        json.dumps({"meta": meta, "failures": runner.failures, **result}, indent=2)
        + "\n"
    )
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    worst, results = 0, {}
    for workload in WORKLOADS:
        print(f"## {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        print(done.stdout, end="", flush=True)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if done.returncode == 0 else None
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
