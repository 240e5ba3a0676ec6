"""Enumeration tests.

The load-bearing one is the brute-force completeness oracle: instead of
solving the index quadratic, scan every admissible rational k = n/l
directly in integer arithmetic and demand the same case set. The scan
shares no code with the solver beyond the grid itself.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chern_gate import (
    CharNumbers,
    ConstraintSystem,
    LatticeSpec,
    char_number_table,
    chern_from_case,
    constraint_system_for,
    enumerate_cases,
    graded,
    invariants_from_diamond,
    load_scenario,
    to_chern_case,
    top_pairing,
)
from chern_gate.ring import replace


def case_keys(solutions):
    return {(sol.geometry.sort_params, sol.r, sol.k) for sol in solutions}


def brute_force_cases(system: ConstraintSystem):
    """Every admissible (geometry, r, k) by direct integer scanning."""
    found = set()
    rs = [r for r in range(system.r_min, system.r_max + 1) if r != 0]
    for geom in system.lattice.grid():
        d = geom.degree
        for r in rs:
            c14 = r**4 * d
            if system.c14_max is not None and c14 > system.c14_max:
                continue
            # |k| bound from the quadratic formula, padded
            rhs_ceil = -(-system.target // c14)
            bound = (4 + isqrt(16 + 12 * (rhs_ceil + 1))) // 6 + 2
            for el in range(1, _max_denominator(system, geom, r) + 1):
                if not _denominator_allowed(system, geom, r, el):
                    continue
                for n in range(-bound * el, bound * el + 1):
                    if (3 * n * n + 4 * n * el - el * el) * c14 != (
                        system.target * el * el
                    ):
                        continue
                    k = Fraction(n, el)
                    if not _denominator_allowed(system, geom, r, k.denominator):
                        continue
                    if system.k_lower is not None and k <= system.k_lower:
                        continue
                    found.add((geom.sort_params, r, k))
    return found


def _max_denominator(system, geom, r) -> int:
    params = geom.params
    if system.lattice.rule == "l_div_er2":
        return params["e"] * r * r
    if system.lattice.rule == "l_div_ar2_br2":
        return params["a"] * r * r  # b*r^2 may be 0; a >= 1 always divides
    return isqrt(geom.degree * r**4)


def _denominator_allowed(system, geom, r, el) -> bool:
    params = geom.params
    if system.lattice.rule == "l_div_er2":
        return params["e"] * r * r % el == 0
    if system.lattice.rule == "l_div_ar2_br2":
        return params["a"] * r * r % el == 0 and params["b"] * r * r % el == 0
    return params["d"] * r**4 % (el * el) == 0


def test_enumeration_matches_brute_force(pipeline_runs):
    for lid, (spec, inv, solutions) in pipeline_runs.items():
        system = constraint_system_for(spec, target=inv.target)
        assert case_keys(solutions) == brute_force_cases(system), lid


def test_expected_case_counts(pipeline_runs):
    counts = {"2.1": 1, "2.2": 10, "3.1": 10, "4.2": 5}
    for lid, n in counts.items():
        assert len(pipeline_runs[lid][2]) == n, lid


def test_ordinals_are_sorted_and_dense(pipeline_runs):
    for spec, inv, solutions in pipeline_runs.values():
        assert [sol.ordinal for sol in solutions] == list(
            range(1, len(solutions) + 1)
        )
        keys = [(sol.geometry.sort_params, sol.r, sol.k) for sol in solutions]
        assert keys == sorted(keys)


def test_rank1_negative_unique_case(pipeline_runs):
    spec, inv, solutions = pipeline_runs["2.1"]
    assert case_keys(solutions) == {((15,), -1, Fraction(2, 3))}
    # shrinking the grid to the survivor's shell changes nothing
    system = constraint_system_for(spec, target=inv.target)
    smaller = replace(system, lattice=replace(system.lattice, e_max=24))
    assert case_keys(enumerate_cases(smaller)) == case_keys(solutions)


def test_rank1_positive_case_set(pipeline_runs):
    spec, inv, solutions = pipeline_runs["2.2"]
    expected = {
        ((15,), 1, Fraction(2, 3)),
        ((15,), 1, Fraction(-2)),
        ((25,), 1, Fraction(2, 5)),
        ((40,), 1, Fraction(-13, 8)),
        ((60,), 1, Fraction(1, 4)),
        ((60,), 1, Fraction(-19, 12)),
        ((10,), 2, Fraction(-13, 8)),
        ((15,), 2, Fraction(1, 4)),
        ((15,), 2, Fraction(-19, 12)),
        ((1,), 5, Fraction(2, 5)),
    }
    assert case_keys(solutions) == expected


def test_c14_cap_excludes_exactly_the_high_degree_strays(pipeline_runs):
    spec, inv, solutions = pipeline_runs["2.2"]
    system = constraint_system_for(spec, target=inv.target)
    uncapped = replace(system, c14_max=None)
    extra = case_keys(enumerate_cases(uncapped)) - case_keys(solutions)
    # every stray sits above the cap, none below it
    assert ((15,), 3, Fraction(2, 9)) in extra
    for params, r, k in extra:
        e = params[0]
        assert r**4 * e**2 > 6561
    # nudging the cap to the first stray shell admits that shell alone
    nudged = replace(system, c14_max=81 * 225)
    assert case_keys(enumerate_cases(nudged)) - case_keys(solutions) == {
        ((15,), 3, Fraction(2, 9)),
        ((15,), 3, Fraction(-14, 9)),
    }
    # and widening the grid under the cap adds nothing
    wider = replace(system, lattice=replace(system.lattice, e_max=90))
    assert case_keys(enumerate_cases(wider)) == case_keys(solutions)


def test_k_lower_bound_is_strict(pipeline_runs):
    spec, inv, solutions = pipeline_runs["2.2"]
    system = constraint_system_for(spec, target=inv.target)
    bounded = replace(system, k_lower=Fraction(2, 5))
    # k = 2/5 sits exactly on the bound twice; only k = 2/3 clears it
    assert case_keys(enumerate_cases(bounded)) == {
        ((15,), 1, Fraction(2, 3))
    }


def test_rank2_case_set_and_redundant_cap(pipeline_runs):
    spec, inv, solutions = pipeline_runs["3.1"]
    expected = {
        ((1, 0), -3, Fraction(11, 9)),
        ((1, 1), -1, Fraction(10)),
        ((1, 1), -4, Fraction(7, 16)),
        ((4, 4), -2, Fraction(7, 16)),
        ((7, 8), -1, Fraction(1)),
        ((8, 7), -1, Fraction(1)),
        ((9, 0), -1, Fraction(11, 9)),
        ((3, 3), -2, Fraction(7, 12)),
        ((12, 12), -1, Fraction(7, 12)),
        ((16, 16), -1, Fraction(7, 16)),
    }
    assert case_keys(solutions) == expected
    # a degree cap near the largest surviving c1^4 value is redundant
    system = constraint_system_for(spec, target=inv.target)
    for cap in (626, 627, 628):
        capped = replace(system, c14_max=cap)
        assert case_keys(enumerate_cases(capped)) == expected


def test_free_model_case_set(pipeline_runs):
    spec, inv, solutions = pipeline_runs["4.2"]
    expected = {
        ((3,), -4, Fraction(1, 2)),
        ((14,), -2, Fraction(1)),
        ((48,), -2, Fraction(1, 2)),
        ((224,), -1, Fraction(1)),
        ((768,), -1, Fraction(1, 2)),
    }
    assert case_keys(solutions) == expected


def test_char_number_table_against_ring_pairing(pipeline_runs):
    for spec, inv, solutions in pipeline_runs.values():
        for sol in solutions:
            case = to_chern_case(sol, inv)
            cn = char_number_table(case)
            c = chern_from_case(case)
            geom = sol.geometry
            c1, c2, c3, c4 = c.coeffs[1:]
            assert cn.c1_4 == top_pairing(graded(0, 0, 0, 0, c1**4), geom)
            assert cn.c1c3 == top_pairing(graded(0, 0, 0, 0, c1 * c3), geom)
            assert cn.c1_2c2 == top_pairing(
                graded(0, 0, 0, 0, c1**2 * c2), geom
            )
            assert cn.c2_2 == top_pairing(graded(0, 0, 0, 0, c2**2), geom)
            assert cn.c4 == top_pairing(graded(0, 0, 0, 0, c4), geom)


def test_rank2_characteristic_table_rows(pipeline_runs):
    spec, inv, solutions = pipeline_runs["3.1"]
    expected = {
        ((1, 0), -3, Fraction(11, 9)): (81, 48, 99, 121, 6),
        ((1, 1), -1, Fraction(10)): (2, 48, 20, 200, 6),
        ((1, 1), -4, Fraction(7, 16)): (512, 48, 224, 98, 6),
        ((4, 4), -2, Fraction(7, 16)): (512, 48, 224, 98, 6),
        ((7, 8), -1, Fraction(1)): (113, 48, 113, 113, 6),
        ((8, 7), -1, Fraction(1)): (113, 48, 113, 113, 6),
        ((9, 0), -1, Fraction(11, 9)): (81, 48, 99, 121, 6),
        ((3, 3), -2, Fraction(7, 12)): (288, 48, 168, 98, 6),
        ((12, 12), -1, Fraction(7, 12)): (288, 48, 168, 98, 6),
        ((16, 16), -1, Fraction(7, 16)): (512, 48, 224, 98, 6),
    }
    for sol in solutions:
        key = (sol.geometry.sort_params, sol.r, sol.k)
        cn = char_number_table(to_chern_case(sol, inv))
        assert tuple(getattr(cn, name) for name in cn._fields) == expected[key]


def test_scenario_grids_match_shipped_bounds():
    assert load_scenario("2.1").lattice.e_max == 25
    assert load_scenario("2.2").lattice.e_max == 81
    lattice = load_scenario("3.1").lattice
    assert (lattice.a_max, lattice.b_max) == (25, 25)
    assert load_scenario("4.2").lattice.d_max == 1244


def test_lattice_system_and_case_refuse_what_they_cannot_search(pipeline_runs):
    with pytest.raises(ValueError, match="unknown lattice model 'rank3'"):
        LatticeSpec("rank3", e_max=5)
    lattice = LatticeSpec("rank1", e_max=5)
    for target, r_min, r_max, reason in (
        (0, 1, 5, "target must be positive"),
        (678, 3, 2, "empty r range"),
        (678, -1, 1, "r range must not contain zero"),
    ):
        with pytest.raises(ValueError, match=reason):
            ConstraintSystem(target, lattice, r_min, r_max)
    spec, _, solutions = pipeline_runs["2.1"]
    raw = invariants_from_diamond(spec.diamond)  # <c1 c3> not yet derived
    with pytest.raises(ValueError, match="invariants are not completed"):
        to_chern_case(solutions[0], raw)


# Each model's bounds, each drawn from its least value that leaves a grid
# point up to a small top: rank2 scans b from 0, the other bounds from 1.
SMALL_LATTICES = st.one_of(
    st.builds(LatticeSpec, st.just("rank1"), e_max=st.integers(1, 12)),
    st.builds(
        LatticeSpec,
        st.just("rank2"),
        a_max=st.integers(1, 5),
        b_max=st.integers(0, 5),
    ),
    st.builds(LatticeSpec, st.just("free"), d_max=st.integers(1, 40)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(SMALL_LATTICES)
@example(LatticeSpec("rank1", e_max=1))
@example(LatticeSpec("rank2", a_max=1, b_max=0))
@example(LatticeSpec("rank2", a_max=4, b_max=0))
@example(LatticeSpec("rank2", a_max=1, b_max=1))
@example(LatticeSpec("free", d_max=1))
def test_grid_size_largest_degree_and_degree_shells_agree_with_the_grid(lattice):
    grid = lattice.grid()
    assert lattice.points == len(grid)
    assert lattice.max_degree == max(geom.degree for geom in grid)
    for d in range(1, lattice.max_degree + 1):
        shell = [geom for geom in grid if geom.degree == d]
        assert lattice.at_degree(d) == shell, d
