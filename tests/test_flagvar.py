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


# (type, marked nodes, dimension, -K) of named flag varieties: the quadrics Q^6
# of B3 and Q^5 of G2, LG(2, 4) = Q^3, the adjoint varieties of G2 and F4, two
# more maximal ones of F4, and a two-step flag of F4
KNOWN = [
    ("B3", (2,), 6, {2: 6}),
    ("C2", (1,), 3, {1: 3}),
    ("F4", (0,), 15, {0: 8}),
    ("F4", (1,), 20, {1: 5}),
    ("F4", (2,), 20, {2: 7}),
    ("G2", (0,), 5, {0: 3}),
    ("G2", (1,), 5, {1: 5}),
    ("F4", (0, 2), 22, {0: 3, 2: 5}),
]


@pytest.mark.parametrize(
    "spec,marked,dimension,anti", KNOWN, ids=[f"{s}-{','.join(map(str, m))}" for s, m, _, _ in KNOWN]
)
def test_known_flag_varieties(spec, marked, dimension, anti):
    assert flag_invariants(DynkinType.parse(spec), marked) == (dimension, anti)


class TestKnownVarieties:
    # a complete flag G/B has dimension |R+|, counted here by the closure, and -K = 2 rho
    @pytest.mark.parametrize("spec", ["A3", "B3", "C3", "F4", "G2"])
    def test_complete_flag_anticanonical_is_two_rho(self, spec):
        rs = rs_of(spec)
        nodes = range(rs.rank)
        assert flag_invariants(rs.dynkin, nodes) == (len(rs.positive_roots), dict.fromkeys(nodes, 2))

    def test_g2_complete_flag_dimension(self):
        # G2/B is a P^1-bundle over each of the two five-dimensional G2/P
        g2 = DynkinType.parse("G2")
        assert flag_invariants(g2, (0, 1))[0] == 6
        assert flag_invariants(g2, (0,))[0] + 1 == flag_invariants(g2, (1,))[0] + 1 == 6


# the walk's cost does not grow with the rank, so each closed form is also
# checked at a rank no enumeration could reach
HUGE = 10**30


@pytest.mark.parametrize("n", [*range(3, 13), pytest.param(HUGE, id="1e30")])
def test_b_series_closed_forms(n):
    dynkin = DynkinType((SimpleFactor("B", n),))
    # quadric of dimension 2n-1 at the first node
    assert flag_invariants(dynkin, (0,)) == (2 * n - 1, {0: 2 * n - 1})
    # spinor variety at the last node
    assert flag_invariants(dynkin, (n - 1,)) == (n * (n + 1) // 2, {n - 1: 2 * n})
    # the second orthogonal Grassmannian of the two-orbit construction
    assert flag_invariants(dynkin, (n - 2,)) == ((n + 4) * (n - 1) // 2, {n - 2: n + 1})


@pytest.mark.parametrize(
    "k,n",
    [(k, n) for k in range(1, 5) for n in range(2, 13) if k <= n]
    + [pytest.param(1, HUGE, id="1-1e30"), pytest.param(HUGE // 10, HUGE, id="1e29-1e30")],
)
def test_c_series_closed_forms(n, k):
    dimension = k * (2 * n - k) - k * (k - 1) // 2
    assert flag_invariants(DynkinType((SimpleFactor("C", n),)), (k - 1,)) == (dimension, {k - 1: 2 * n - k + 1})


# the properties of criterion 6, each on a few types of its own
@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2"])
def test_dimension_monotone_in_marking(spec):
    dynkin = DynkinType.parse(spec)
    nodes = range(dynkin.rank)
    for size in range(1, dynkin.rank):
        for sub in itertools.combinations(nodes, size):
            small = flag_invariants(dynkin, sub)[0]
            for extra in set(nodes) - set(sub):
                assert flag_invariants(dynkin, sorted((*sub, extra)))[0] > small


@pytest.mark.parametrize("spec", ["A2", "B4", "C4", "F4", "G2"])
def test_anticanonical_supported_on_marking(spec):
    dynkin = DynkinType.parse(spec)
    for size in range(1, dynkin.rank + 1):
        for sub in itertools.combinations(range(dynkin.rank), size):
            anti = flag_invariants(dynkin, sub)[1]
            assert list(anti) == list(sub) and min(anti.values()) >= 2


def test_product_marking_is_additive():
    a1_dim, a1_anti = flag_invariants(DynkinType.parse("A1"), (0,))
    g2_dim, g2_anti = flag_invariants(DynkinType.parse("G2"), (1,))
    assert flag_invariants(DynkinType.parse("A1xG2"), (0, 2)) == (a1_dim + g2_dim, {0: a1_anti[0], 2: g2_anti[1]})


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
    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            flag_dimension(rs_of("B3"), (3,))

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


# every type of criterion 6 and of KNOWN, so the oracle agrees with the walk
# wherever the walk is pinned; A1xG2xB3: every marking, so the walk's one pass
# skips whole factors and stops at the last node of each
FAST_PATH_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "F4", "G2", "A1xG2", "A2xB3", "A1xG2xB3", "B12", "C12",
]


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


@settings(max_examples=150)
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


@settings(max_examples=300)
@given(batches())
@example((DynkinType.parse("A1xG2"), [[1], [0, 2], [0, 1, 2]]))
@example((DynkinType.parse("B3"), [[0], [1, 2], [2]]))
@example((DynkinType.parse("A1xG2xB3"), [[5], [3, 5], [0, 2], [2, 5]]))
def test_one_walk_equals_one_call_per_marking(case):
    """The engine's batch gives what flag_invariants gives marking by marking."""
    dynkin, markings = case
    expected = [(dimension, list(anti.items())) for dimension, anti in (flag_invariants(dynkin, m) for m in markings)]
    assert [(dimension, list(anti.items())) for dimension, anti in _walk(dynkin, markings)] == expected
