"""Shared fixtures: shipped replays are expensive enough to run once."""

from fractions import Fraction

import pytest

from chern_gate import (
    ChernCase,
    Geometry,
    constraint_system_for,
    complete_invariants,
    enumerate_cases,
    invariants_from_diamond,
    load_scenario,
    reproduce_lemma,
)

PIPELINE_LEMMAS = ("2.1", "2.2", "3.1", "4.2")
DIRECT_LEMMAS = ("A.1", "A.2", "A.3")
ALL_LEMMAS = PIPELINE_LEMMAS + DIRECT_LEMMAS


@pytest.fixture(scope="session")
def shipped_reports():
    return {lid: reproduce_lemma(lid) for lid in ALL_LEMMAS}


@pytest.fixture(scope="session")
def pipeline_runs():
    """(spec, invariants, solutions) for each enumeration-backed lemma."""
    runs = {}
    for lid in PIPELINE_LEMMAS:
        spec = load_scenario(lid)
        inv = complete_invariants(invariants_from_diamond(spec.diamond))
        system = constraint_system_for(spec, target=inv.target)
        runs[lid] = (spec, inv, enumerate_cases(system))
    return runs


@pytest.fixture(scope="session")
def quadric_case():
    # The smooth quadric fourfold sits in the ambient space with m=1 and
    # degree 2; its embedding is real, so every filter must let it live.
    return ChernCase(
        r=4,
        k=Fraction(7, 16),
        c1c3=48,
        euler=6,
        geometry=Geometry("free", (2,)),
    )


@pytest.fixture(scope="session")
def p4_case():
    # Projective 4-space as a linear subspace: degree 1, m=1.
    return ChernCase(
        r=5,
        k=Fraction(2, 5),
        c1c3=50,
        euler=5,
        geometry=Geometry("free", (1,)),
    )
