"""Exact invariants and tangent-bundle stability of the two-orbit Fano catalog."""

from .rootsys import (
    DynkinType,
    RootSystem,
    SimpleFactor,
    UnsupportedTypeError,
    build_root_system,
    weyl_dim,
)
from .flagvar import flag_invariants
from .pasquier import (
    Family,
    StabilityReport,
    TripleSpec,
    VarietyInvariants,
    Verdict,
    enumerate_triples,
    parse_triple_id,
    report_record,
    report_row,
    stability_verdict,
    variety_invariants,
)

__all__ = [
    "DynkinType", "RootSystem", "SimpleFactor", "UnsupportedTypeError",
    "build_root_system", "weyl_dim",
    "flag_invariants",
    "Family", "StabilityReport", "TripleSpec",
    "VarietyInvariants", "Verdict", "enumerate_triples",
    "parse_triple_id", "report_record", "report_row", "stability_verdict",
    "variety_invariants",
]

__version__ = "0.1.0"
