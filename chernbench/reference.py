"""Reference speed: rescale measured times by the machine's speed at the time.

On a shared machine the same work can take anywhere from 1x to 2x as long
from one second to the next, which swamps any regression bound. The probe
is a fixed piece of pure-Python work of the kinds the program does: a
canonical JSON round trip, small-integer modular arithmetic and Fraction
sums. It runs right before and right after each timed call, and the
call's time is reported in reference nanoseconds:

    measured * REFERENCE_NS / (mean of the two probe times)

On a machine where the probe takes REFERENCE_NS, reference time is wall
time.
"""

import json
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 200_000

_DOC = {
    f"k{i}": {"a": [str(i * 7919 + j) for j in range(9)], "b": f"{i}/{i + 3}"}
    for i in range(12)
}


def _work() -> int:
    json.loads(json.dumps(_DOC, sort_keys=True, indent=2))
    acc = 0
    for m in range(2, 45):
        for t in range(m):
            acc = (acc * t + 1234567) % m
    q = Fraction(0)
    for i in range(1, 30):
        q += Fraction(i, i + 7)
    return acc + q.numerator


def probe_ns() -> int:
    """Wall nanoseconds the reference work takes right now."""
    t0 = perf_counter_ns()
    _work()
    return perf_counter_ns() - t0


def timed(fn, *args, **kwargs):
    """(result, wall ns, reference ns) of one call."""
    before = probe_ns()
    t0 = perf_counter_ns()
    result = fn(*args, **kwargs)
    wall = perf_counter_ns() - t0
    after = probe_ns()
    return result, wall, wall * 2 * REFERENCE_NS / (before + after)
