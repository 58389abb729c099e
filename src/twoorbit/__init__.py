"""Exact invariants and tangent-bundle stability of the two-orbit Fano catalog."""

from .rootsys import (
    DynkinType,
    Root,
    RootSystem,
    SimpleFactor,
    UnsupportedTypeError,
    Weight,
    build_root_system,
    weyl_dim,
)
from .flagvar import FlagInvariants, ParabolicMarking, flag_invariants
from .pasquier import (
    Family,
    FoliationInvariants,
    StabilityReport,
    TripleSpec,
    VarietyInvariants,
    Verdict,
    enumerate_triples,
    foliation_invariants,
    parse_triple_id,
    report_record,
    stability_verdict,
    variety_invariants,
)

__all__ = [
    "DynkinType", "Root", "RootSystem", "SimpleFactor", "UnsupportedTypeError", "Weight",
    "build_root_system", "weyl_dim",
    "FlagInvariants", "ParabolicMarking", "flag_invariants",
    "Family", "FoliationInvariants", "StabilityReport", "TripleSpec",
    "VarietyInvariants", "Verdict", "enumerate_triples",
    "foliation_invariants", "parse_triple_id", "report_record", "stability_verdict",
    "variety_invariants",
]

__version__ = "0.1.0"
