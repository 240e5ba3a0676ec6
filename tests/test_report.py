"""The canonical JSON writer against the standard library's encoder.

`json.dumps(sort_keys=True, indent=2)` is the oracle: the writer must
produce its bytes on every JSON value a report can hold, and refuse what
the encoder would print or coerce (a float, an int key) or what no
report holds.
"""

import copy
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chern_gate.report import canonical_json, emit_report

from conftest import ALL_LEMMAS


def oracle(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")


# Quotes, backslashes, control characters, non-ASCII and astral-plane
# characters (written as surrogate-pair escapes) beside arbitrary text.
_ESCAPES = st.text(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\uffff\U0001f600')
)
_TEXT = st.text() | _ESCAPES
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**300), 10**300)
    | st.integers(-1000, 1000)
    | _TEXT
)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example({"": [{}, []], "b": {"a": None}, "a": [True, False, -1, 0]})
@example('q"b\\s/~\x00\U0001f600')
@example(None)
def test_writer_matches_the_encoder_on_json_values(obj):
    assert canonical_json(obj) == oracle(obj)


def test_writer_matches_the_encoder_on_every_shipped_report(shipped_reports):
    # The first is what `reproduce --lemma all` writes.
    assert canonical_json(shipped_reports) == oracle(shipped_reports)
    for lid in ALL_LEMMAS:
        assert emit_report(shipped_reports[lid]) == oracle(shipped_reports[lid]), lid


@pytest.mark.parametrize(
    "bad",
    [0.5, {7: "seven"}, Fraction(1, 2), Decimal("1"), (1, 2), {1, 2}],
    ids=["float", "int-key", "Fraction", "Decimal", "tuple", "set"],
)
def test_writer_refuses_what_a_report_never_holds(bad, shipped_reports):
    with pytest.raises(TypeError):
        canonical_json(bad)
    report = copy.deepcopy(shipped_reports["A.2"])
    report["polynomials"][0]["certificate"]["extra"] = bad
    with pytest.raises(TypeError):
        canonical_json(report)
    with pytest.raises(TypeError):
        canonical_json({"A.2": report})
