from fractions import Fraction

import pytest

from chern_gate.riemann_roch import (
    HodgeDiamond,
    chi_O_from_class,
    complete_invariants,
    invariants_from_diamond,
    l_genus_signature,
    pontryagin_numbers,
)
from chern_gate.ring import ChernCase, Geometry, char_number_table, replace
from chern_gate.scenario import ScenarioError, _parse_hodge

IDENTITY_ROWS = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
]
MIDDLE_TWO_ROWS = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 2, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
]
LEVEL_TWO_ROWS = [
    [1, 0, 1, 0, 0],
    [0, 2, 0, 2, 0],
    [1, 0, 2, 0, 1],
    [0, 2, 0, 2, 0],
    [0, 0, 1, 0, 1],
]


def test_diamond_validation():
    with pytest.raises(ValueError):
        HodgeDiamond(tuple(map(tuple, [[1, 0], [0, 1]])))
    asym = [row[:] for row in IDENTITY_ROWS]
    asym[0][1] = 3
    with pytest.raises(ValueError):
        HodgeDiamond(tuple(map(tuple, asym)))
    not_dual = [row[:] for row in IDENTITY_ROWS]
    not_dual[1][1] = 2
    with pytest.raises(ValueError, match=r"h\[1\]\[1\] != h\[3\]\[3\]"):
        HodgeDiamond(tuple(map(tuple, not_dual)))
    negative = [row[:] for row in MIDDLE_TWO_ROWS]
    negative[2][2] = -2
    with pytest.raises(ValueError):
        HodgeDiamond(tuple(map(tuple, negative)))
    unnormalized = [row[:] for row in IDENTITY_ROWS]
    unnormalized[0][0] = 2
    unnormalized[4][4] = 2
    with pytest.raises(ValueError):
        HodgeDiamond(tuple(map(tuple, unnormalized)))



@pytest.mark.parametrize("cell", [1.9, True])
def test_diamond_refuses_a_cell_that_is_not_an_int(cell):
    # h^{2,2} = 1.9 would give chi = 5.9 and a fractional target, and True
    # would pass for 1; the centre cell is its own mirror, so only the
    # check of each cell's type can refuse either.
    rows = [row[:] for row in MIDDLE_TWO_ROWS]
    rows[2][2] = cell
    with pytest.raises(ValueError, match=r"^h\[2\]\[2\] is not an integer$"):
        HodgeDiamond(tuple(map(tuple, rows)))


def test_diamond_rejects_inexact_entries():
    # h^{2,2} = 1.9 must not be truncated to 1: the scenario parser, where
    # a diamond comes in from outside, refuses it at its cell.
    rows = [row[:] for row in MIDDLE_TWO_ROWS]
    rows[2][2] = 1.9
    with pytest.raises(ScenarioError, match=r"^\[2\]\[2\]: expected integer"):
        _parse_hodge(rows)

@pytest.mark.parametrize(
    "rows, chi, chi_O, chi1, signature",
    [
        (IDENTITY_ROWS, 5, 1, -1, 1),
        (MIDDLE_TWO_ROWS, 6, 1, -1, 2),
        (LEVEL_TWO_ROWS, 16, 2, -4, 0),
    ],
)
def test_invariants_from_diamond(rows, chi, chi_O, chi1, signature):
    inv = invariants_from_diamond(HodgeDiamond(tuple(map(tuple, rows))))
    assert (inv.chi, inv.chi_O, inv.chi1, inv.signature) == (
        chi,
        chi_O,
        chi1,
        signature,
    )


@pytest.mark.parametrize(
    "rows, c1c3, target",
    [
        (IDENTITY_ROWS, 50, 675),
        (MIDDLE_TWO_ROWS, 48, 678),
        (LEVEL_TWO_ROWS, 112, 1344),
    ],
)
def test_rr_target_for_the_three_diamonds(rows, c1c3, target):
    inv = invariants_from_diamond(HodgeDiamond(tuple(map(tuple, rows))))
    assert complete_invariants(inv) == replace(inv, c1c3=c1c3, target=target)
    # the closed forms behind complete_invariants, recomputed longhand
    assert c1c3 == 12 * (4 * inv.chi_O - inv.chi1) - 2 * inv.chi
    assert target == 720 * inv.chi_O + inv.chi - c1c3


def test_chi_O_from_class_on_reference_manifolds(quadric_case, p4_case):
    for case in (quadric_case, p4_case):
        assert chi_O_from_class(char_number_table(case)) == 1


def test_chi_O_from_class_detects_wrong_class(quadric_case):
    # the quadric's row with c2 = 8 g^2 instead of 7 g^2: the Todd
    # pairing must move off 1
    cn = replace(char_number_table(quadric_case), c1_2c2=4 * 4 * 8 * 2, c2_2=8 * 8 * 2)
    assert chi_O_from_class(cn) != 1


def test_chi_O_matches_diamond_for_every_enumerated_case(pipeline_runs):
    from chern_gate import to_chern_case

    for spec, inv, solutions in pipeline_runs.values():
        for sol in solutions:
            cn = char_number_table(to_chern_case(sol, inv))
            assert chi_O_from_class(cn) == inv.chi_O


def test_pontryagin_numbers_spin_cases():
    # even index: spin applies, and this one has non-integral A-hat
    case = ChernCase(
        r=-2, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry.free(14)
    )
    pd = pontryagin_numbers(case)
    assert pd.spin_applicable is True
    assert (pd.p1_sq, pd.p2) == (224, 32)
    assert pd.a_hat == Fraction(1, 4)
    assert pd.a_hat == Fraction(7 * 224 - 4 * 32, 5760)


def test_pontryagin_numbers_integral_spin_case():
    case = ChernCase(
        r=-4, k=Fraction(1, 2), c1c3=112, euler=16, geometry=Geometry.free(3)
    )
    pd = pontryagin_numbers(case)
    assert pd.spin_applicable is True
    assert pd.a_hat == 0


def test_pontryagin_numbers_odd_index_is_not_spin():
    case = ChernCase(
        r=-1, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry.free(224)
    )
    assert pontryagin_numbers(case).spin_applicable is False


def test_l_genus_is_the_signature_on_references(quadric_case, p4_case):
    assert l_genus_signature(pontryagin_numbers(quadric_case)) == 2
    assert l_genus_signature(pontryagin_numbers(p4_case)) == 1


def test_l_genus_matches_signature_on_rank1_and_rank2_cases(pipeline_runs):
    from chern_gate import to_chern_case

    for lid in ("2.1", "2.2", "3.1"):
        spec, inv, solutions = pipeline_runs[lid]
        assert solutions, lid
        for sol in solutions:
            pd = pontryagin_numbers(to_chern_case(sol, inv))
            assert l_genus_signature(pd) == inv.signature
