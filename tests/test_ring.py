"""The graded ring, checked against two classical embeddings.

A linear 4-space (degree 1) and the smooth quadric fourfold (degree 2)
both genuinely sit inside the ambient 8-space with hyperplane multiplier
1, so for them the normal-bundle Euler number must equal d^2 exactly.
They anchor every identity the enumeration relies on. The last tests
hold ring.record's frozen records to what frozen dataclasses gave.
"""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import chern_gate
from chern_gate.pipeline import load_baseline, load_scenario
from chern_gate.riemann_roch import (
    complete_invariants,
    invariants_from_diamond,
    pontryagin_numbers,
)
from chern_gate.ring import (
    AMBIENT_BINOMIALS,
    CharNumbers,
    ChernCase,
    Geometry,
    GradedClass,
    ambient_pullback,
    chern_from_case,
    graded,
    normal_c4_polynomial,
    record,
    replace,
    top_pairing,
)
from chern_gate.search import CaseSolution, ConstraintSystem, LatticeSpec
from chern_gate.verify import (
    AhatNonIntegral,
    CongruenceMod12,
    ConstantDivisorTest,
    ExternalFactCertificate,
    IntPoly,
    ModularObstruction,
    RootFound,
)


def test_ambient_pullback_binomials():
    assert ambient_pullback(1).coeffs == tuple(
        Fraction(b) for b in AMBIENT_BINOMIALS
    )
    assert ambient_pullback(2).coeffs == (1, 18, 144, 672, 2016)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        ambient_pullback(0)


def test_unit_and_multiplication():
    one = graded(1, 0, 0, 0, 0)
    u = graded(1, 3, Fraction(1, 2), -7, Fraction(2, 9))
    assert (one * u).coeffs == u.coeffs
    v = graded(1, -1, 4, Fraction(5, 3), 0)
    assert (u * v).coeffs == (v * u).coeffs


def test_inverse_round_trip_on_1000_random_classes():
    rng = random.Random(20260816)
    one = graded(1, 0, 0, 0, 0)
    for _ in range(1000):
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4)
        ]
        u = graded(*coeffs)
        v = u.inverse()
        assert (u * v).coeffs == one.coeffs
        assert (v * u).coeffs == one.coeffs


def test_p4_linear_subspace_oracle():
    # c(X) = (1+g)^5 truncated, degree 1, m = 1
    c = graded(1, 5, 10, 10, 5)
    geom = Geometry("free", (1,))
    c_normal = ambient_pullback(1) * c.inverse()
    assert top_pairing(c_normal, geom) == 1  # d^2 m^8 with d = m = 1


def test_quadric_oracle_from_first_principles():
    # c(X) = (1+g)^6 * (1+2g)^(-1): six hyperplane directions over the
    # quadric relation. Expanded this is (1, 4, 7, 6, 3).
    sixth = graded(1, 6, 15, 20, 15)
    quadric_relation = graded(1, 2, 0, 0, 0)
    c = sixth * quadric_relation.inverse()
    assert c.coeffs == (1, 4, 7, 6, 3)
    geom = Geometry("free", (2,))
    c_normal = ambient_pullback(1) * c.inverse()
    assert c_normal.coeffs == (1, 5, 9, 7, 2)
    assert top_pairing(c_normal, geom) == 4  # d^2 m^8 with d = 2, m = 1


def test_chern_from_case_matches_quadric(quadric_case):
    assert chern_from_case(quadric_case).coeffs == (1, 4, 7, 6, 3)


def test_chern_from_case_matches_p4(p4_case):
    assert chern_from_case(p4_case).coeffs == (1, 5, 10, 10, 5)


def test_degree_225_class_pairings():
    # The one negative-index survivor of the rank-1 enumeration. All
    # five characteristic numbers must come back from the ring pairing.
    geom = Geometry("rank1", (15,))
    assert geom.degree == 225
    case = ChernCase(
        r=-1, k=Fraction(2, 3), c1c3=50, euler=5, geometry=geom
    )
    c = chern_from_case(case)
    assert c.coeffs == (1, -1, Fraction(2, 3), Fraction(-2, 9), Fraction(1, 45))
    d = geom.degree
    c1, c2, c3, c4 = c.coeffs[1:]
    assert c1**4 * d == 225
    assert c1 * c3 * d == 50
    assert c1**2 * c2 * d == 150
    assert c2**2 * d == 100
    assert c4 * d == 5


def test_normal_c4_polynomial_is_the_paired_c4(quadric_case, p4_case):
    for case in (quadric_case, p4_case):
        poly = normal_c4_polynomial(case)
        assert len(poly) == 5
        c = chern_from_case(case)
        for m in range(1, 21):
            c_normal = ambient_pullback(m) * c.inverse()
            paired = top_pairing(
                graded(0, 0, 0, 0, c_normal.coeffs[4]), case.geometry
            )
            assert sum(q * m**i for i, q in enumerate(poly)) == paired


def test_decomposition_identity_all_enumerated_cases(pipeline_runs):
    # c(X) * c(N) = pullback of the ambient class, for every case the
    # search produces and every hyperplane multiplier up to 20.
    from chern_gate import to_chern_case

    seen = 0
    for spec, inv, solutions in pipeline_runs.values():
        for sol in solutions:
            case = to_chern_case(sol, inv)
            c = chern_from_case(case)
            poly = normal_c4_polynomial(case)
            for m in range(1, 21):
                ambient = ambient_pullback(m)
                c_normal = ambient * c.inverse()
                assert (c * c_normal).coeffs == ambient.coeffs
                paired = top_pairing(
                    graded(0, 0, 0, 0, c_normal.coeffs[4]), case.geometry
                )
                assert sum(q * m**i for i, q in enumerate(poly)) == paired
            seen += 1
    assert seen == 26  # 1 + 10 + 10 + 5


def test_geometry_params():
    assert Geometry("rank1", (15,)).params == {"e": 15}
    assert Geometry("rank2", (3, 4)).params == {"a": 3, "b": 4}
    assert Geometry("free", (224,)).params == {"d": 224}
    assert Geometry("rank2", (3, 4)).degree == 25
    assert Geometry("rank1", (4,)).degree == 16
    assert Geometry("free", (224,)).degree == 224
    assert Geometry("rank2", (0, 3)).sort_params == (0, 3)


def test_geometry_refuses_what_has_no_degree():
    bad = (
        ("rank3", (1,)),  # unknown model
        ("rank1", (1, 1)),  # too many parameters
        ("rank2", (1,)),  # too few
        ("rank2", (-1, 2)),  # a negative parameter
        ("rank1", (0,)),  # degree 0
        ("rank2", (0, 0)),
        ("free", (0,)),
    )
    for model, values in bad:
        with pytest.raises(ValueError):
            Geometry(model, values)


def test_classes_and_cases_refuse_malformed_data():
    with pytest.raises(TypeError, match="float coefficients are not exact"):
        graded(0.5, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="exactly five coefficients"):
        GradedClass((Fraction(1),) * 4)
    with pytest.raises(ValueError, match="r must be nonzero"):
        ChernCase(r=0, k=Fraction(1), c1c3=0, euler=0, geometry=Geometry("free", (1,)))


def test_inverse_requires_nonzero_constant_term():
    with pytest.raises(ValueError):
        graded(0, 1, 0, 0, 0).inverse()


def test_records_are_frozen():
    geom = Geometry("rank2", (3, 4))
    for name in ("model", "degree", "anything"):
        with pytest.raises(AttributeError):
            setattr(geom, name, 1)
    with pytest.raises(AttributeError):
        del geom.sort_params
    assert (geom.model, geom.sort_params, geom.degree) == ("rank2", (3, 4), 25)


def test_computed_attributes_stay_out_of_equality():
    geom = Geometry("rank2", (3, 4))
    twin = Geometry("rank2", (3, 4))
    object.__setattr__(twin, "degree", 0)
    assert twin == geom and hash(twin) == hash(geom)
    assert repr(twin) == "Geometry(model='rank2', sort_params=(3, 4))"
    assert Geometry("rank2", (4, 3)) != geom


def test_records_compare_only_with_their_own_class():
    assert RootFound(5) == RootFound(m=5)
    assert RootFound(5) != (5,) and (5,) != RootFound(5)
    assert RootFound(5) != RootFound(6)
    assert repr(RootFound(5)) == "RootFound(m=5)"
    case = ChernCase(-1, Fraction(7, 16), 48, 6, Geometry("rank2", (3, 4)))
    assert case == ChernCase(-1, Fraction(7, 16), 48, 6, Geometry("rank2", (3, 4)))
    assert len({case, replace(case, c1c3=48)}) == 1


def test_replace_runs_the_checks_again():
    poly = IntPoly((1, 2), scale=3)
    assert replace(poly, coeffs=(4, 5, 0, 0)) == IntPoly((4, 5), 3)
    system = ConstraintSystem(
        target=10, lattice=LatticeSpec("free", d_max=5), r_min=1, r_max=2
    )
    assert replace(system, r_max=1).r_max == 1
    with pytest.raises(ValueError, match="empty r range"):
        replace(system, r_min=3)
    for name in ("degree", "nonsense"):
        with pytest.raises(TypeError):
            replace(Geometry("free", (3,)), **{name: 3})


def test_a_field_without_a_default_may_not_follow_one():
    # As with dataclasses, the generated __init__ could not take it
    # positionally.
    class Bad:
        label: str = ""
        value: int

    with pytest.raises(TypeError, match="Bad: a field without a default follows one"):
        record(Bad)


def _record_classes():
    """Every class of the package that record made."""
    for info in pkgutil.iter_modules(chern_gate.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"chern_gate.{info.name}")
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module.__name__:
                    if "_fields" in vars(value):
                        yield value


def _one_of_each_record():
    spec = load_scenario("2.2")
    geom = Geometry("rank2", (3, 4))
    case = ChernCase(-1, Fraction(7, 16), 48, 6, geom)
    return [
        spec,
        load_baseline("2.1"),
        spec.diamond,
        spec.lattice,
        spec.facts[0],
        complete_invariants(invariants_from_diamond(spec.diamond)),
        ConstraintSystem(10, spec.lattice, 1, 2, Fraction(1, 5), 700),
        CaseSolution(ordinal=0, geometry=geom, r=-1, k=Fraction(7, 16)),
        geom,
        case,
        pontryagin_numbers(case),
        CharNumbers(c1_4=81, c1c3=48, c1_2c2=99, c2_2=121, c4=6),
        graded(1, 3, Fraction(1, 2), -7, 0),
        IntPoly((1, 2), scale=3),
        ModularObstruction(content=2, m_power=1, modulus=3, residues=(1, 2)),
        ConstantDivisorTest(content=1, m_power=0, divisors=(1, 3), values=(4, 8)),
        RootFound(5),
        CongruenceMod12(value=261, residue=9),
        AhatNonIntegral(value=Fraction(1, 4)),
        ExternalFactCertificate(1, "degree <= 4", "a source", "eliminated", 9),
    ]


def test_every_record_compares_hashes_and_shows_its_field_tuple():
    records = _one_of_each_record()
    assert sorted(type(x).__name__ for x in records) == sorted(
        cls.__name__ for cls in _record_classes()
    )
    for x, other in zip(records, records[1:] + records[:1]):
        values = tuple(getattr(x, f) for f in x._fields)
        assert hash(x) == hash(values)
        twin = type(x)(*values)
        assert twin is not x and twin == x and not twin != x
        assert x.__eq__(other) is NotImplemented and x != other
        assert x.__eq__(values) is NotImplemented and x != values
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(x._fields, values))
        assert repr(x) == f"{type(x).__qualname__}({shown})"
