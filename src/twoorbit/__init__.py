"""Exact invariants and tangent-bundle stability of the two-orbit Fano catalog."""

import importlib.util
import sys

from .rootsys import (
    DynkinType,
    RootSystem,
    SimpleFactor,
    UnsupportedTypeError,
    build_root_system,
    weyl_dim,
)
from .flagvar import flag_invariants


def _lazy(name: str):
    """The submodule `name`, put in sys.modules now; its code runs when one of its attributes is first read.

    This is the "Implementing lazy imports" recipe of the importlib docs.  The
    module object is in sys.modules from the start, so code that looks a
    twoorbit module up there, or walks the package's modules, finds it.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the catalog modules: roots, dim and flag read neither, so those commands run
# neither module's code and never import fractions or decimal.  A from-import
# of one of their names reads it and loads the module.
pasquier = _lazy("pasquier")
fixtures = _lazy("fixtures")

_PASQUIER_EXPORTS = (
    "Family", "StabilityReport", "TripleSpec",
    "VarietyInvariants", "Verdict", "enumerate_triples",
    "parse_triple_id", "report_record", "report_row", "stability_verdict",
    "stability_verdicts", "variety_invariants",
)

__all__ = [
    "DynkinType", "RootSystem", "SimpleFactor", "UnsupportedTypeError",
    "build_root_system", "weyl_dim",
    "flag_invariants",
    *_PASQUIER_EXPORTS,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The package's pasquier exports, read from the module when asked for (PEP 562)."""
    if name in _PASQUIER_EXPORTS:
        return getattr(pasquier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
