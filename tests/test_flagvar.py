import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoorbit import rootsys
from twoorbit.flagvar import _run_data, _walk, flag_invariants
from twoorbit.rootsys import (
    DynkinType,
    SimpleFactor,
    build_root_system,
    closure_from_cartan,
    factor_bond,
)
from oracles import anticanonical_weight, fano_index, flag_dimension, nilradical_roots
from strategies import dynkin_products, marked_products


def rs_of(spec):
    return build_root_system(DynkinType.parse(spec))


def assert_diagram_matches_enumeration(rs, marked):
    """flag_invariants against the enumeration oracle, with -K expanded to a dense weight."""
    dimension, anti = flag_invariants(rs.dynkin, marked)
    assert dimension == flag_dimension(rs, marked)
    assert tuple(anti.get(i, 0) for i in range(rs.rank)) == anticanonical_weight(rs, marked)
    assert list(anti) == sorted(marked)


class TestKnownVarieties:
    def test_b3_spinor_variety_is_six_dim_quadric(self):
        rs = rs_of("B3")
        m = (2,)
        assert flag_dimension(rs, m) == 6
        assert fano_index(rs, m) == 6

    def test_c2_lagrangian_grassmannian(self):
        rs = rs_of("C2")
        assert flag_dimension(rs, (1,)) == 3

    def test_f4_node_two_grassmannian(self):
        rs = rs_of("F4")
        m = (1,)
        assert flag_dimension(rs, m) == 20
        assert fano_index(rs, m) == 5

    def test_f4_node_three_grassmannian(self):
        rs = rs_of("F4")
        m = (2,)
        assert flag_dimension(rs, m) == 20
        assert fano_index(rs, m) == 7

    def test_f4_adjoint_variety(self):
        rs = rs_of("F4")
        assert fano_index(rs, (0,)) == 8
        assert flag_dimension(rs, (0,)) == 15

    def test_g2_five_dim_quadric(self):
        rs = rs_of("G2")
        m = (1,)
        assert flag_dimension(rs, m) == 5
        assert fano_index(rs, m) == 5

    def test_g2_adjoint_variety(self):
        rs = rs_of("G2")
        m = (0,)
        assert flag_dimension(rs, m) == 5
        assert fano_index(rs, m) == 3

    def test_f4_two_step_flag(self):
        rs = rs_of("F4")
        m = (0, 2)
        assert flag_dimension(rs, m) == 22
        assert anticanonical_weight(rs, m) == (3, 0, 5, 0)

    @pytest.mark.parametrize("spec", ["A3", "B3", "C3", "F4", "G2"])
    def test_complete_flag_anticanonical_is_two_rho(self, spec):
        rs = rs_of(spec)
        m = tuple(range(rs.rank))
        assert flag_dimension(rs, m) == len(rs.positive_roots)
        assert anticanonical_weight(rs, m) == (2,) * rs.rank

    def test_g2_complete_flag_dimension(self):
        rs = rs_of("G2")
        assert flag_dimension(rs, (0, 1)) == 6


@pytest.mark.parametrize("n", range(3, 13))
def test_b_series_closed_forms(n):
    rs = rs_of(f"B{n}")
    # quadric of dimension 2n-1 at the first node
    first = (0,)
    assert flag_dimension(rs, first) == 2 * n - 1
    assert fano_index(rs, first) == 2 * n - 1
    # spinor variety at the last node
    spinor = (n - 1,)
    assert flag_dimension(rs, spinor) == n * (n + 1) // 2
    assert fano_index(rs, spinor) == 2 * n
    # the second orthogonal Grassmannian of the two-orbit construction
    og = (n - 2,)
    assert flag_dimension(rs, og) == (n + 4) * (n - 1) // 2
    assert fano_index(rs, og) == n + 1


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 5) for n in range(2, 13) if k <= n])
def test_c_series_closed_forms(n, k):
    rs = rs_of(f"C{n}")
    m = (k - 1,)
    assert flag_dimension(rs, m) == k * (2 * n - k) - k * (k - 1) // 2
    assert fano_index(rs, m) == 2 * n - k + 1


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2"])
def test_dimension_monotone_in_marking(spec):
    rs = rs_of(spec)
    nodes = range(rs.rank)
    for size in range(1, rs.rank):
        for sub in itertools.combinations(nodes, size):
            small = flag_dimension(rs, sub)
            for extra in nodes:
                if extra in sub:
                    continue
                big = flag_dimension(rs, tuple(sorted((*sub, extra))))
                assert big > small


@pytest.mark.parametrize("spec", ["A2", "B4", "C4", "F4", "G2"])
def test_anticanonical_supported_on_marking(spec):
    rs = rs_of(spec)
    for size in range(1, rs.rank + 1):
        for sub in itertools.combinations(range(rs.rank), size):
            anti = anticanonical_weight(rs, sub)
            for i, c in enumerate(anti):
                if i in sub:
                    assert c >= 2
                else:
                    assert c == 0


def test_product_marking_is_additive():
    prod = rs_of("A1xG2")
    a1, g2 = rs_of("A1"), rs_of("G2")
    m = (0, 2)
    assert flag_dimension(prod, m) == flag_dimension(a1, (0,)) + flag_dimension(g2, (1,))
    anti = anticanonical_weight(prod, m)
    assert anti[0] == anticanonical_weight(a1, (0,))[0]
    assert anti[1:] == anticanonical_weight(g2, (1,))


def test_flag_invariants_bundle():
    rs = rs_of("F4")
    # one marked node: Picard rank 1, and the Fano index is its coefficient
    assert flag_invariants(rs.dynkin, (1,)) == (20, {1: 5})
    # two: Picard rank 2, so `flag` prints no index
    _, anti = flag_invariants(rs.dynkin, (0, 2))
    assert len(anti) == 2


def test_nilradical_roots_union_levi_is_everything():
    rs = rs_of("C3")
    m = (1,)
    nil = nilradical_roots(rs, m)
    levi = [a for a in rs.positive_roots if a[1] == 0]
    assert len(nil) + len(levi) == len(rs.positive_roots)


# every list flag_invariants refuses, with its message: the out-of-range nodes
# when there are any, whatever the order of the list
UNSORTED = "must be nonempty and strictly increasing"
REFUSED = [
    ("B3", (5, 1), "marked nodes [5] out of range 0..2"),
    ("B3", (0, -1), "marked nodes [-1] out of range 0..2"),
    ("F4", (2, 0), f"marked nodes [2, 0] {UNSORTED}"),
    ("F4", (1, 1), f"marked nodes [1, 1] {UNSORTED}"),
    ("A3xA3", (4, 1), f"marked nodes [4, 1] {UNSORTED}"),
    ("F4", (), f"marked nodes [] {UNSORTED}"),
    ("B3", (1, 3, 5), "marked nodes [3, 5] out of range 0..2"),
    ("A1xG2", (-1, 0, 2), "marked nodes [-1] out of range 0..2"),
    # a step back across a factor boundary, and nodes past the last factor
    ("A1xG2xB3", (4, 2), f"marked nodes [4, 2] {UNSORTED}"),
    ("A1xG2xB3", (3, 1), f"marked nodes [3, 1] {UNSORTED}"),
    ("A3xA3", (2, 4, 3), f"marked nodes [2, 4, 3] {UNSORTED}"),
    ("A1xG2xB3", (6,), "marked nodes [6] out of range 0..5"),
    ("A1xG2xB3", (2, 6), "marked nodes [6] out of range 0..5"),
    ("A1xG2xB3", (0, 9, 6), "marked nodes [6, 9] out of range 0..5"),
    # a node is an int, as TripleSpec's n is: no float or bool
    ("B3", (0.0,), "marked nodes [0.0] must be ints"),
    ("B3", (True,), "marked nodes [True] must be ints"),
    ("A1xG2", (0, 2.0), "marked nodes [0, 2.0] must be ints"),
    ("F4", (0, 9.5), "marked nodes [0, 9.5] must be ints"),
]


class TestErrors:
    def test_empty_marking_rejected(self):
        with pytest.raises(ValueError):
            flag_invariants(DynkinType.parse("B3"), ())

    def test_out_of_range_node(self):
        rs = rs_of("B3")
        with pytest.raises(ValueError):
            flag_dimension(rs, (3,))
        with pytest.raises(ValueError):
            flag_invariants(rs.dynkin, (5,))

    @pytest.mark.parametrize(
        "spec,nodes,message", REFUSED, ids=[f"{s}-{','.join(map(str, n)) or 'empty'}" for s, n, _ in REFUSED]
    )
    def test_refused_marking(self, spec, nodes, message):
        with pytest.raises(ValueError) as exc:
            flag_invariants(DynkinType.parse(spec), nodes)
        assert str(exc.value) == message

    def test_index_requires_maximal_parabolic(self):
        rs = rs_of("B3")
        with pytest.raises(ValueError):
            fano_index(rs, (0, 1))


# A1xG2xB3: every marking, so the walk's one pass skips whole factors and
# stops at the last node of each
FAST_PATH_TYPES = ["A1", "A4", "B2", "B4", "C4", "F4", "G2", "A1xG2", "A2xB3", "A1xG2xB3", "B12", "C12"]


@pytest.mark.parametrize("spec", FAST_PATH_TYPES)
def test_fast_path_agrees_with_enumeration(spec):
    dynkin = DynkinType.parse(spec)
    rs = build_root_system(dynkin)
    nodes = list(range(dynkin.rank))
    if dynkin.rank <= 8:
        subsets = [
            sub
            for size in range(1, dynkin.rank + 1)
            for sub in itertools.combinations(nodes, size)
        ]
    else:
        # all singletons, pairs, plus markings that leave long unmarked runs,
        # which is what exercises the closed-form branch
        subsets = [(i,) for i in nodes]
        subsets += list(itertools.combinations(nodes, 2))
        subsets += [(0, dynkin.rank - 1), tuple(nodes)]
    for sub in subsets:
        assert_diagram_matches_enumeration(rs, sub)


RUN_FACTORS = (
    [SimpleFactor("A", r) for r in range(1, 13)]
    + [SimpleFactor(s, r) for s in "BC" for r in range(2, 13)]
    + [SimpleFactor("F", 4), SimpleFactor("G", 2)]
)


def assert_run_closed_forms_match_closure(factor):
    cartan = build_root_system(DynkinType((factor,))).cartan
    for lo in range(factor.rank):
        for hi in range(lo, factor.rank):
            roots = closure_from_cartan([row[lo : hi + 1] for row in cartan[lo : hi + 1]])
            rho2 = [sum(r[j] for r in roots) for j in range(hi - lo + 1)]
            assert _run_data(*factor_bond(factor), lo, hi) == (len(roots), rho2[0], rho2[-1])


@pytest.mark.parametrize("factor", RUN_FACTORS, ids=str)
def test_run_closed_forms_match_closure(factor):
    assert_run_closed_forms_match_closure(factor)


def test_walk_follows_a_redrawn_bond_table(monkeypatch):
    """With every multiple bond drawn the other way round, the walk still agrees with the oracle.

    The bond field of the series table is then the only thing that says
    where a chain's multiple bond sits, so a run type read from anything else
    would disagree here.
    """
    redrawn = {
        "B": lambda n: (0, 1, -2),
        "C": lambda n: (1, 0, -2),
        "F": lambda n: (1, 2, -2),
        "G": lambda n: (0, 1, -3),
    }
    for series, bond in redrawn.items():
        monkeypatch.setitem(rootsys._SERIES, series, (*rootsys._SERIES[series][:2], bond))
    factors = [SimpleFactor(s, r) for s in "BC" for r in range(2, 8)]
    factors += [SimpleFactor("F", 4), SimpleFactor("G", 2)]
    for factor in factors:
        rs = build_root_system(DynkinType((factor,)))
        for size in range(1, factor.rank + 1):
            for sub in itertools.combinations(range(factor.rank), size):
                assert_diagram_matches_enumeration(rs, sub)
    for factor in factors:
        assert_run_closed_forms_match_closure(factor)


# D4 as an unchecked (series, rank) pair: a bond lookup that fell back to type
# A would have the walk answer P^4 for the quadric Q^6
@pytest.mark.parametrize("call", [
    lambda: factor_bond(("D", 4)),
    lambda: _walk((("D", 4),), [(0,)]),
    lambda: build_root_system(DynkinType((tuple.__new__(SimpleFactor, ("D", 4)),))),
], ids=["factor_bond", "walk", "build_root_system"])
def test_a_series_without_a_row_raises(call):
    with pytest.raises(KeyError):
        call()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(marked_products())
@example((DynkinType.parse("A2xF4"), (1,)))
def test_diagram_path_matches_enumeration_on_products(case):
    dynkin, m = case
    assert_diagram_matches_enumeration(build_root_system(dynkin), m)


@st.composite
def batches(draw, max_rank=12):
    """A product type and 1-3 markings of it, node lists that flag_invariants accepts."""
    dynkin = draw(dynkin_products(max_rank))
    marking = st.frozensets(st.integers(0, dynkin.rank - 1), min_size=1).map(sorted)
    return dynkin, draw(st.lists(marking, min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(batches())
@example((DynkinType.parse("A1xG2"), [[1], [0, 2], [0, 1, 2]]))
@example((DynkinType.parse("B3"), [[0], [1, 2], [2]]))
@example((DynkinType.parse("A1xG2xB3"), [[5], [3, 5], [0, 2], [2, 5]]))
def test_one_walk_equals_one_call_per_marking(case):
    """The engine's batch gives what flag_invariants gives marking by marking."""
    dynkin, markings = case
    expected = [(dimension, list(anti.items())) for dimension, anti in (flag_invariants(dynkin, m) for m in markings)]
    assert [(dimension, list(anti.items())) for dimension, anti in _walk(dynkin, markings)] == expected
