"""Exact replay of the rationally-elliptic-fourfold case eliminations.

The package walks the whole chain with rational arithmetic only: Hodge
diamonds to Riemann-Roch targets, lattice enumeration of candidate
Chern data, characteristic-number tables, and no-positive-integer-root
certificates for the resulting embedding obstruction polynomials.
Every elimination carries a machine-checkable certificate, and shipped
baselines pin the printed values a run must reproduce.
"""

from .exact import (
    divisors,
    factorize,
    integer_sqrt_exact,
    is_probable_prime,
    polynomial_content,
    rational_sqrt,
    solve_quadratic_rational,
)
from .obstruction import (
    AhatNonIntegral,
    BoundedExhaustive,
    CongruenceMod12,
    ConstantDivisorTest,
    ExternalFact,
    ExternalFactCertificate,
    IntPoly,
    ModularObstruction,
    RootFound,
    ahat_filter,
    build_embedding_polynomial,
    eliminate,
    external_fact_filter,
    mod12_filter,
    verify_certificate,
    verify_certificate_detailed,
)
from .pipeline import (
    SHIPPED_LEMMAS,
    constraint_system_for,
    diff_baseline,
    load_baseline,
    load_scenario,
    reproduce_lemma,
    run_lemma,
    scenario_bytes,
)
from .report import (
    canonical_json,
    certificate_from_json,
    certificate_to_json,
    emit_report,
    frac_str,
    int_str,
    parse_frac,
    parse_int_str,
    sci_5,
)
from .riemann_roch import (
    DerivedInvariants,
    HodgeDiamond,
    PontryaginData,
    chi_O_from_class,
    complete_invariants,
    invariants_from_diamond,
    l_genus_signature,
    pontryagin_numbers,
    rr_target,
)
from .ring import (
    AMBIENT_BINOMIALS,
    ChernCase,
    Geometry,
    GradedClass,
    ambient_pullback,
    chern_from_case,
    graded,
    normal_c4_polynomial,
    top_pairing,
)
from .scenario import (
    FILTER_NAMES,
    LEMMA_IDS,
    LemmaSpec,
    ScenarioError,
    emit_scenario,
    parse_scenario,
)
from .search import (
    CaseSolution,
    CharNumbers,
    ConstraintSystem,
    LatticeSpec,
    char_number_table,
    enumerate_cases,
    to_chern_case,
)
from .version import __version__

__all__ = [
    "__version__",
    # exact
    "integer_sqrt_exact",
    "rational_sqrt",
    "solve_quadratic_rational",
    "polynomial_content",
    "is_probable_prime",
    "factorize",
    "divisors",
    # ring
    "AMBIENT_BINOMIALS",
    "GradedClass",
    "Geometry",
    "ChernCase",
    "graded",
    "top_pairing",
    "chern_from_case",
    "ambient_pullback",
    "normal_c4_polynomial",
    # riemann_roch
    "HodgeDiamond",
    "DerivedInvariants",
    "PontryaginData",
    "invariants_from_diamond",
    "rr_target",
    "complete_invariants",
    "chi_O_from_class",
    "pontryagin_numbers",
    "l_genus_signature",
    # search
    "LatticeSpec",
    "ConstraintSystem",
    "CaseSolution",
    "CharNumbers",
    "enumerate_cases",
    "char_number_table",
    "to_chern_case",
    # obstruction
    "IntPoly",
    "ModularObstruction",
    "ConstantDivisorTest",
    "BoundedExhaustive",
    "RootFound",
    "CongruenceMod12",
    "AhatNonIntegral",
    "ExternalFact",
    "ExternalFactCertificate",
    "build_embedding_polynomial",
    "eliminate",
    "verify_certificate",
    "verify_certificate_detailed",
    "mod12_filter",
    "ahat_filter",
    "external_fact_filter",
    # report
    "frac_str",
    "parse_frac",
    "int_str",
    "parse_int_str",
    "sci_5",
    "canonical_json",
    "certificate_to_json",
    "certificate_from_json",
    "emit_report",
    # scenario
    "LEMMA_IDS",
    "FILTER_NAMES",
    "LemmaSpec",
    "ScenarioError",
    "parse_scenario",
    "emit_scenario",
    # pipeline
    "SHIPPED_LEMMAS",
    "constraint_system_for",
    "run_lemma",
    "diff_baseline",
    "scenario_bytes",
    "load_scenario",
    "load_baseline",
    "reproduce_lemma",
]
