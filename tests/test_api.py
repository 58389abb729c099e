import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twoorbit
from twoorbit import (
    DynkinType,
    Family,
    RootSystem,
    SimpleFactor,
    StabilityReport,
    TripleSpec,
    UnsupportedTypeError,
    VarietyInvariants,
    build_root_system,
    stability_verdict,
    variety_invariants,
)
from twoorbit.fixtures import Mismatch

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


def _fresh(code: str, *argv: str) -> str:
    """The stdout of `code` run with `argv` in a new interpreter that imports twoorbit from this checkout."""
    src = str(Path(twoorbit.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout


def test_cli_import_loads_no_heavy_modules():
    """`import twoorbit.cli` adds none of these to a bare interpreter's modules; each costs start-up time."""
    code = "import sys; bare = set(sys.modules); import twoorbit.cli; print(*sorted(set(sys.modules) - bare))"
    added = set(_fresh(code).split())
    assert "twoorbit.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "json", "fractions", "decimal", "argparse"} == set()


@pytest.mark.parametrize("argv, plain", [
    (["flag", "B3", "--mark", "1"], True),
    (["table", "--max-n", "3"], True),
    (["--help"], False),
], ids=["flag", "table", "help"])
def test_only_unusual_argv_loads_argparse(argv, plain):
    """A plain argv is read without argparse, or the gettext and locale it loads; --help is argparse's."""
    code = (
        "import contextlib, io, sys; from twoorbit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit): cli.main(sys.argv[1:])\n"
        "print(*(name for name in ('argparse', 'gettext', 'locale') if name in sys.modules))"
    )
    loaded = _fresh(code, *argv).split()
    assert (loaded == []) if plain else ("argparse" in loaded)


@pytest.mark.parametrize("argv, loads_catalog", [
    (["roots", "C3"], False),
    (["dim", "C3", "1,0,0"], False),
    (["flag", "B3", "--mark", "1"], False),
    (["check", "Bn:n=5"], True),
], ids=["roots", "dim", "flag", "check"])
def test_only_catalog_commands_load_the_catalog(argv, loads_catalog):
    """roots, dim and flag run no code of pasquier or fixtures, so they never import fractions."""
    code = (
        "import contextlib, io, sys; bare = set(sys.modules); from twoorbit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()): status = cli.main(sys.argv[1:])\n"
        "print(status, 'fractions' in set(sys.modules) - bare)"
    )
    assert _fresh(code, *argv).split() == ["0", str(loads_catalog)]


def test_catalog_modules_are_registered_before_they_load():
    """The benchmark's tracer wraps functions of the twoorbit modules in sys.modules after `import twoorbit.cli`."""
    code = (
        "import sys; bare = set(sys.modules); import twoorbit.cli; import twoorbit\n"
        "print(*(name in sys.modules for name in ('twoorbit.pasquier', 'twoorbit.fixtures')))\n"
        "print(*(hasattr(twoorbit, name) for name in sys.argv[1:]), 'fractions' in set(sys.modules) - bare)\n"
        "twoorbit.pasquier.stability_verdict; print('fractions' in sys.modules)\n"
        "from twoorbit import Family, stability_verdict\n"
        "print(stability_verdict(twoorbit.TripleSpec(Family.BN_SPINOR, n=5)).verdict.name)"
    )
    assert _fresh(code, *REMOVED).splitlines() == [
        "True True",
        " ".join(["False"] * len(REMOVED) + ["False"]),
        "True",
        "UNSTABLE",
    ]


# --- the record contract ------------------------------------------------------

_CN = TripleSpec(Family.CN, n=4, k=3)

# (class, field names, a builder of one value, hashable) for every record type;
# each call of the builder makes a new object.  DynkinType is the tuple of its
# factors, with no fields; its own contract test below checks the rest
RECORDS = [
    (SimpleFactor, ("series", "rank"), lambda: SimpleFactor(series="B", rank=3), True),
    (DynkinType, (), lambda: DynkinType((SimpleFactor("A", 1), SimpleFactor("G", 2))), True),
    (RootSystem, ("dynkin", "cartan", "symmetrizer", "positive_roots"),
     lambda: build_root_system(DynkinType.parse("G2")), True),
    (TripleSpec, ("family", "n", "k"), lambda: TripleSpec(family=Family.CN, n=4, k=3), True),
    # c1_z is a dict, so these two are not hashable, as the frozen dataclasses were not
    (VarietyInvariants,
     ("dim_y", "dim_z", "dim_x", "c1_y", "c1_z", "r_x", "rank_f", "c1_f", "rank_ey", "c1_ey"),
     lambda: variety_invariants(_CN), False),
    (StabilityReport, ("triple", "variety", "mu_f", "mu_theta", "verdict"), lambda: stability_verdict(_CN), False),
    (Mismatch, ("fixture", "row", "column", "expected", "actual"),
     lambda: Mismatch(fixture="stab", row="Bn:n=4", column="mu_F", expected=Fraction(1, 2), actual=0), True),
]


@pytest.mark.parametrize("cls, fields, build, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecordContract:
    def test_fields_in_order(self, cls, fields, build, hashable):
        assert getattr(cls, "_fields", ()) == fields
        assert isinstance(build(), cls)

    def test_immutable(self, cls, fields, build, hashable):
        record = build()
        for name in (*fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_equal_values_equal_records(self, cls, fields, build, hashable):
        a, b = build(), build()
        assert a == b and a is not b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)


def test_dynkin_type_is_the_tuple_of_its_factors():
    a, b = (DynkinType((SimpleFactor("A", 1), SimpleFactor("G", 2))) for _ in range(2))
    assert type(a) is DynkinType and isinstance(a, tuple) and [type(f) for f in a] == [SimpleFactor] * 2
    assert a == b == (("A", 1), ("G", 2)) and a is not b
    assert hash(a) == hash(b) == hash((("A", 1), ("G", 2)))
    for name in ("rank", "factors", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(TypeError):
        a[0] = SimpleFactor("B", 3)
    assert repr(a) == "DynkinType((SimpleFactor(series='A', rank=1), SimpleFactor(series='G', rank=2)))"
    rebuilt = eval(repr(a), {"DynkinType": DynkinType, "SimpleFactor": SimpleFactor})
    assert rebuilt == a and type(rebuilt) is DynkinType
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied == a and type(copied) is DynkinType
    # slicing or adding makes no DynkinType, so none skips the constructor's checks
    assert type(a[:1]) is tuple and type(a + a) is tuple and type(a * 2) is tuple


# each validated record type: (a valid record, one built past __new__, the
# error and message its constructor gives for the latter)
_UNCHECKED = {
    "SimpleFactor": (SimpleFactor("B", 3), tuple.__new__(SimpleFactor, ("D", 4)),
                     UnsupportedTypeError, "unsupported type D4: only A, B, C, F4, G2"),
    "DynkinType": (DynkinType((SimpleFactor("A", 1), SimpleFactor("G", 2))), tuple.__new__(DynkinType, (("D", 4),)),
                   ValueError, "Dynkin type factor ('D', 4) is not a SimpleFactor"),
    "TripleSpec": (_CN, tuple.__new__(TripleSpec, (Family.CN, 3, 9)),
                   ValueError, "C_n family needs n >= 2 and 2 <= k <= n"),
}

# pickle at every protocol: 0 and 1 rebuild a tuple subclass through
# tuple.__new__ unless the record's __reduce__ calls its class
_REBUILDS = {
    **{f"pickle-{p}": (lambda x, p=p: pickle.loads(pickle.dumps(x, p))) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("rebuild", _REBUILDS.values(), ids=list(_REBUILDS))
@pytest.mark.parametrize("valid, unchecked, error, message", _UNCHECKED.values(), ids=list(_UNCHECKED))
def test_copies_of_a_record_go_through_its_checks(valid, unchecked, error, message, rebuild):
    copied = rebuild(valid)
    assert copied == valid and type(copied) is type(valid)
    with pytest.raises(error) as exc:
        rebuild(unchecked)
    assert str(exc.value) == message


def test_keyword_defaults():
    assert TripleSpec(Family.PAS_F4).n is None
    assert TripleSpec(Family.PAS_F4).k is None
    assert TripleSpec(family=Family.BN_SPINOR, n=5) == TripleSpec(Family.BN_SPINOR, 5, None)


def test_record_equals_its_plain_tuple():
    assert TripleSpec(Family.PAS_F4) == (Family.PAS_F4, None, None)
    assert SimpleFactor("G", 2) == ("G", 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: SimpleFactor("D", 4), UnsupportedTypeError, "unsupported type D4: only A, B, C, F4, G2"),
    (lambda: SimpleFactor("B", 1), ValueError, "rank 1 too small for series B"),
    (lambda: SimpleFactor("G", 3), ValueError, "series G has rank 2"),
    (lambda: DynkinType(()), ValueError, "Dynkin type needs at least one factor"),
    (lambda: DynkinType((("D", 4),)), ValueError, "Dynkin type factor ('D', 4) is not a SimpleFactor"),
    (lambda: DynkinType(("B3",)), ValueError, "Dynkin type factor 'B3' is not a SimpleFactor"),
    (lambda: DynkinType([SimpleFactor("B", 3)]), ValueError,
     "Dynkin type factors must be a tuple of SimpleFactor, not [SimpleFactor(series='B', rank=3)]"),
    (lambda: TripleSpec(Family.BN_SPINOR, n=2), ValueError, "spinor family needs n >= 3 and takes no k"),
    (lambda: TripleSpec(Family.BN_SPINOR, n=5, k=2), ValueError, "spinor family needs n >= 3 and takes no k"),
    (lambda: TripleSpec(Family.CN, n=3, k=4), ValueError, "C_n family needs n >= 2 and 2 <= k <= n"),
    (lambda: TripleSpec(Family.PAS_F4, n=1), ValueError, "family PasF4 takes no parameters"),
    (lambda: TripleSpec("Bn", 5), ValueError,
     "unknown triple family 'Bn'; expected one of: Bn, B3special, Cn, F4horo, G2horo, PasF4, PasA1G2"),
    (lambda: TripleSpec(Family.BN_SPINOR, 5.5), ValueError, "spinor family needs n >= 3 and takes no k"),
    (lambda: TripleSpec(Family.BN_SPINOR, True), ValueError, "spinor family needs n >= 3 and takes no k"),
    (lambda: TripleSpec(Family.CN, 4, 2.5), ValueError, "C_n family needs n >= 2 and 2 <= k <= n"),
    (lambda: TripleSpec(Family.CN, Fraction(4), 2), ValueError, "C_n family needs n >= 2 and 2 <= k <= n"),
    # _replace builds through _make, so both refuse what the constructor refuses
    (lambda: SimpleFactor._make(("D", 4)), UnsupportedTypeError, "unsupported type D4: only A, B, C, F4, G2"),
    (lambda: SimpleFactor("B", 3)._replace(rank=1), ValueError, "rank 1 too small for series B"),
    (lambda: SimpleFactor("G", 2)._replace(rank=3), ValueError, "series G has rank 2"),
    (lambda: TripleSpec(Family.BN_SPINOR, n=5)._replace(n=2), ValueError, "spinor family needs n >= 3 and takes no k"),
    (lambda: TripleSpec(Family.CN, 5, 3)._replace(k=None), ValueError, "C_n family needs n >= 2 and 2 <= k <= n"),
    (lambda: TripleSpec._make((Family.PAS_F4, 1, None)), ValueError, "family PasF4 takes no parameters"),
    # a rank is an int as TripleSpec's n is: no float, bool or Fraction
    (lambda: SimpleFactor("B", 3.5), ValueError, "rank of series B must be an int, got 3.5"),
    (lambda: SimpleFactor("G", 2.0), ValueError, "rank of series G must be an int, got 2.0"),
    (lambda: SimpleFactor("A", True), ValueError, "rank of series A must be an int, got True"),
    (lambda: SimpleFactor("C", Fraction(3)), ValueError, "rank of series C must be an int, got Fraction(3, 1)"),
    (lambda: SimpleFactor("B", 3)._replace(rank=4.0), ValueError, "rank of series B must be an int, got 4.0"),
], ids=[
    "unsupported", "rank-too-small", "fixed-rank", "no-factor", "pair-factor", "str-factor", "list-factors",
    "spinor-n", "spinor-k", "cn", "no-parameters",
    "family-name", "spinor-float-n", "spinor-bool-n", "cn-float-k", "cn-fraction-n",
    "make-unsupported", "replace-rank-too-small", "replace-fixed-rank", "replace-spinor-n",
    "replace-cn-k", "make-no-parameters",
    "float-rank", "float-fixed-rank", "bool-rank", "fraction-rank", "replace-float-rank",
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_make_and_replace_keep_valid_values():
    assert SimpleFactor("B", 3)._replace(rank=5) == SimpleFactor("B", 5)
    assert type(TripleSpec._make((Family.CN, 5, 4))) is TripleSpec
    assert TripleSpec(Family.CN, 5, 3)._replace(k=4) == TripleSpec(Family.CN, 5, 4)


def test_root_system_repr_leaves_out_the_positive_roots():
    assert repr(build_root_system(DynkinType.parse("A1xG2"))) == (
        "RootSystem(dynkin=DynkinType((SimpleFactor(series='A', rank=1), SimpleFactor(series='G', rank=2))),"
        " cartan=((2, 0, 0), (0, 2, -1), (0, -3, 2)), symmetrizer=(1, 3, 1))"
    )
