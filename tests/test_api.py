import twoorbit

# enumeration-only functions that moved to tests/oracles.py, and the types
# that only wrapped an integer tuple, a part of VarietyInvariants, or the
# marked nodes and result of flag_invariants
REMOVED = [
    "coroot_pairing", "rho", "root_to_weight", "anticanonical_weight", "fano_index", "flag_dimension",
    "Root", "Weight", "FoliationInvariants", "foliation_invariants",
    "ParabolicMarking", "FlagInvariants",
]


def test_every_export_exists():
    missing = [name for name in twoorbit.__all__ if not hasattr(twoorbit, name)]
    assert missing == []
    assert len(set(twoorbit.__all__)) == len(twoorbit.__all__)


def test_removed_names_are_not_exported():
    assert [name for name in REMOVED if name in twoorbit.__all__] == []
    assert [name for name in REMOVED if hasattr(twoorbit, name)] == []
    assert not hasattr(twoorbit.TripleSpec, "layout")
