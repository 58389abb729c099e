import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoorbit
from twoorbit.rootsys import (
    DynkinType,
    RootSystem,
    SimpleFactor,
    UnsupportedTypeError,
    build_root_system,
    closure_from_cartan,
    node_labels,
    parse_nodes,
    weight_label,
    weyl_dim,
)
from oracles import (
    coroot_pairing,
    freudenthal_dim,
    reflection_closure_positive_roots,
    rho,
    root_to_weight,
)
from strategies import dynkin_products


def rs_of(spec):
    return build_root_system(DynkinType.parse(spec))


CLASSICAL_COUNTS = (
    [(f"A{n}", n * (n + 1) // 2) for n in range(1, 13)]
    + [(f"B{n}", n * n) for n in range(2, 13)]
    + [(f"C{n}", n * n) for n in range(2, 13)]
    + [("F4", 24), ("G2", 6), ("A1xG2", 7), ("A1", 1), ("B3xC2", 13)]
    + [("A100", 5050), ("B100", 10000), ("C100", 10000)]
)


@pytest.mark.parametrize("spec,count", CLASSICAL_COUNTS)
def test_positive_root_counts(spec, count):
    assert len(rs_of(spec).positive_roots) == count


def test_rank_100_roots_come_out_by_height_then_coefficients():
    roots = list(rs_of("C100").positive_roots)
    assert roots == sorted(roots, key=lambda m: (sum(m), m))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_node_labels_parse_back(data):
    """parse_nodes reads the labels node_labels writes, in any order, back to sorted global nodes."""
    dynkin = data.draw(dynkin_products())
    nodes = data.draw(st.lists(st.integers(0, dynkin.rank - 1), min_size=1, unique=True))
    assert parse_nodes(dynkin, ",".join(node_labels(dynkin.factors, nodes))) == sorted(nodes)


def test_labels_refuse_a_dynkin_type():
    """A DynkinType is a 1-tuple of its factors: read as factors it would label A1xG2's nodes "1" and "3"."""
    dynkin = DynkinType.parse("A1xG2")
    with pytest.raises(ValueError, match=r"pass its \.factors"):
        node_labels(dynkin, [0, 2])
    with pytest.raises(ValueError, match=r"pass its \.factors"):
        weight_label(dynkin, {0: 2, 2: 5})
    assert node_labels(dynkin.factors, [0, 2]) == ["1.1", "2.2"]
    assert weight_label(dynkin.factors, {0: 2, 2: 5}) == "2w1.1+5w2.2"


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "F4", "G2", "A1xG2", "B20", "C20"])
def test_roots_match_reflection_closure(spec):
    rs = rs_of(spec)
    assert set(rs.positive_roots) == reflection_closure_positive_roots(rs)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(dynkin_products())
def test_closure_matches_reflection_closure_on_products(dynkin):
    rs = build_root_system(dynkin)
    roots = list(rs.positive_roots)
    assert set(roots) == reflection_closure_positive_roots(rs)
    assert len(roots) == len(set(roots))
    assert roots == sorted(roots, key=lambda m: (sum(m), m))


def simply_laced_cartan(n, edges):
    """The Cartan matrix on nodes 0..n-1 with a single bond on each edge."""
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


# D4 and E6-E8 (Bourbaki: node 1 hangs off node 3, 0-based) lie outside the
# supported types, but the closure takes any finite-type matrix; E8's highest
# root has the largest coefficient of any root system, 6 at node 3
E_EDGES = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]


@pytest.mark.parametrize(
    "cartan,count,top",
    [
        (simply_laced_cartan(4, [(0, 1), (1, 2), (1, 3)]), 12, 2),
        (simply_laced_cartan(6, E_EDGES[:5]), 36, 3),
        (simply_laced_cartan(7, E_EDGES[:6]), 63, 4),
        (simply_laced_cartan(8, E_EDGES), 120, 6),
    ],
    ids=["D4", "E6", "E7", "E8"],
)
def test_closure_of_other_finite_types(cartan, count, top):
    roots = closure_from_cartan(cartan)
    assert len(roots) == count
    assert max(map(max, roots)) == top


@pytest.mark.parametrize(
    "cartan",
    [[[2, -2], [-2, 2]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [[2, -3], [-3, 2]]],
    ids=["affine A1", "affine A2", "hyperbolic rank 2"],
)
def test_closure_refuses_matrix_not_of_finite_type(cartan):
    """Runs in a child with a timeout, so that a closure that never ends fails the test rather than hanging it."""
    src = str(Path(twoorbit.__file__).resolve().parents[1])
    code = (
        "from twoorbit.rootsys import closure_from_cartan\n"
        f"try:\n    closure_from_cartan({cartan!r})\n"
        "except ValueError as exc:\n    print(exc)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=20,
    ).stdout
    assert out == "not a Cartan matrix of finite type: a root coefficient passes 6\n"


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "F4", "G2", "A1xG2"])
def test_nonsimple_roots_lower_to_roots(spec):
    rs = rs_of(spec)
    coords = set(rs.positive_roots)
    for r in rs.positive_roots:
        if sum(r) == 1:
            continue
        lowered = [
            tuple(c - (1 if j == i else 0) for j, c in enumerate(r))
            for i in range(rs.rank)
            if r[i] > 0
        ]
        assert any(low in coords for low in lowered), r


def test_a1_positive_root():
    rs = rs_of("A1")
    assert rs.positive_roots == ((1,),)


def test_product_roots_never_mix_factors():
    rs = rs_of("A1xG2")
    for r in rs.positive_roots:
        assert not (r[0] and (r[1] or r[2]))


@pytest.mark.parametrize("series,rank", [("D", 4), ("E", 6), ("E", 8)])
def test_unsupported_series_rejected(series, rank):
    with pytest.raises(UnsupportedTypeError):
        SimpleFactor(series, rank)
    with pytest.raises(UnsupportedTypeError):
        DynkinType.parse(f"{series}{rank}")


@pytest.mark.parametrize("spec", ["B1", "C1", "F6", "G3", "A0"])
def test_bad_ranks_rejected(spec):
    with pytest.raises(ValueError):
        DynkinType.parse(spec)


# at rank 2 the B and C bonds sit at nodes 0-1, the edge of the short-side rule
@pytest.mark.parametrize(
    "spec", ["A3", "B2", "B3", "B12", "C2", "C3", "C12", "F4", "G2", "A1xG2", "G2xA2", "C2xB3"]
)
def test_symmetrized_cartan_symmetric_positive_definite(spec):
    rs = rs_of(spec)
    n = rs.rank
    s = [[rs.symmetrizer[i] * rs.cartan[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert s[i][j] == s[j][i]
    # leading principal minors, exact
    for k in range(1, n + 1):
        sub = [row[:k] for row in s[:k]]
        assert _det(sub) > 0


def _det(mat):
    mat = [[Fraction(x) for x in row] for row in mat]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


# d_i is 1 on type A and on short nodes and |a[short][long]| on long ones, per factor
@pytest.mark.parametrize(
    "spec,symmetrizer",
    [
        ("A3", (1, 1, 1)),
        ("B3", (2, 2, 1)),
        ("C3", (1, 1, 2)),
        ("F4", (2, 2, 1, 1)),
        ("G2", (3, 1)),
        ("A1xG2", (1, 3, 1)),
        ("B2xG2", (2, 1, 3, 1)),
        ("B2", (2, 1)),
        ("C2", (1, 2)),
        ("G2xA2", (3, 1, 1, 1)),
        ("A2xC2xB2", (1, 1, 1, 2, 2, 1)),
    ],
)
def test_symmetrizer_is_integer_per_factor(spec, symmetrizer):
    assert rs_of(spec).symmetrizer == symmetrizer


@pytest.mark.parametrize("spec", ["A2", "B3", "C3", "F4", "G2", "A1xG2"])
def test_fundamental_weight_coroot_duality(spec):
    rs = rs_of(spec)
    for i in range(rs.rank):
        omega = tuple(int(i == j) for j in range(rs.rank))
        for j in range(rs.rank):
            alpha = tuple(int(j == l) for l in range(rs.rank))
            assert coroot_pairing(rs, omega, alpha) == int(i == j)


@pytest.mark.parametrize("spec", ["A2", "B3", "C3", "F4", "G2", "A1xG2"])
def test_rho_pairs_to_one_with_simple_coroots(spec):
    rs = rs_of(spec)
    for j in range(rs.rank):
        alpha = tuple(int(j == l) for l in range(rs.rank))
        assert coroot_pairing(rs, rho(rs), alpha) == 1


def test_g2_highest_root_pairing_matches_coroot_expansion():
    rs = rs_of("G2")
    highest = max(rs.positive_roots, key=sum)
    # expand the highest coroot in simple coroots: coefficients m_i d_i / d_alpha
    aa = sum(
        rs.symmetrizer[i] * rs.cartan[i][j] * highest[i] * highest[j]
        for i in range(2)
        for j in range(2)
    )
    expansion = [Fraction(2 * highest[i] * rs.symmetrizer[i], 1) / aa for i in range(2)]
    omega1 = (1, 0)
    assert coroot_pairing(rs, omega1, highest) == expansion[0] == 2


def test_coroot_pairing_rejects_non_roots():
    rs = rs_of("G2")
    with pytest.raises(ValueError):
        coroot_pairing(rs, rho(rs), (1, 1, 0))
    with pytest.raises(ValueError):
        coroot_pairing(rs, rho(rs), (5, 5))


@pytest.mark.parametrize("spec", ["B3", "F4", "G2", "A1xG2"])
def test_root_weight_conversion_gives_cartan_columns(spec):
    rs = rs_of(spec)
    for j in range(rs.rank):
        alpha = tuple(int(j == l) for l in range(rs.rank))
        converted = root_to_weight(rs, alpha)
        for i in range(rs.rank):
            simple_i = tuple(int(i == l) for l in range(rs.rank))
            assert coroot_pairing(rs, converted, simple_i) == rs.cartan[i][j]


class TestWeylDim:
    def test_symplectic_vector_rep(self):
        assert weyl_dim(rs_of("C3"), (1, 0, 0)) == 6

    def test_b3_spinor_rep(self):
        assert weyl_dim(rs_of("B3"), (0, 0, 1)) == 8

    def test_g2_small_reps(self):
        # node 1 is the long simple root, so omega_2 carries the
        # 7-dimensional representation and omega_1 the adjoint
        rs = rs_of("G2")
        assert weyl_dim(rs, (0, 1)) == 7
        assert weyl_dim(rs, (1, 0)) == 14

    def test_trivial_rep(self):
        assert weyl_dim(rs_of("B4"), (0, 0, 0, 0)) == 1

    @pytest.mark.parametrize(
        "spec,lam",
        [
            ("C3", (1, 0, 0)),
            ("C3", (0, 1, 0)),
            ("B3", (0, 0, 1)),
            ("B3", (1, 0, 0)),
            ("G2", (1, 0)),
            ("G2", (0, 1)),
            ("G2", (1, 1)),
            ("F4", (1, 0, 0, 0)),
            ("F4", (0, 0, 0, 1)),
            ("A1xG2", (2, 0, 1)),
        ],
    )
    def test_matches_freudenthal_oracle(self, spec, lam):
        rs = rs_of(spec)
        assert weyl_dim(rs, lam) == freudenthal_dim(rs, lam)

    def test_multiplicative_over_product_factors(self):
        prod = rs_of("A1xG2")
        a1, g2 = rs_of("A1"), rs_of("G2")
        for a, b, c in itertools.product(range(3), repeat=3):
            assert weyl_dim(prod, (a, b, c)) == weyl_dim(a1, (a,)) * weyl_dim(g2, (b, c))

    def test_factor_relabeling_invariance(self):
        ab = rs_of("A2xB3")
        ba = rs_of("B3xA2")
        for lam in [(1, 0, 2, 0, 1), (0, 1, 0, 0, 3)]:
            swapped = lam[2:] + lam[:2]
            assert weyl_dim(ab, lam) == weyl_dim(ba, swapped)

    def test_refuses_a_dimension_at_the_digit_limit_estimate(self):
        # A1 with c = 2**(L+1) - 1 has one ratio, 2**(L+1)/1: the estimate is
        # exactly L, the bit length of 10**limit, so the result cannot print
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no int/str digit limit")
        bits = (10**limit).bit_length()
        with pytest.raises(ValueError) as exc:
            weyl_dim(rs_of("A1"), [2 ** (bits + 1) - 1])
        assert str(exc.value) == f"the dimension has more than {limit} digits"

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weyl_dim(rs_of("G2"), (-1, 0))

    # a coefficient is an int: a float or bool is refused even where int() reads it
    @pytest.mark.parametrize(
        "c", [Fraction(1, 2), float("inf"), float("nan"), 1.0, True], ids=["fraction", "inf", "nan", "float", "bool"]
    )
    def test_rejects_non_integral(self, c):
        with pytest.raises(ValueError) as exc:
            weyl_dim(rs_of("G2"), [c, 0])
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"highest weight must be integral: {[c, 0]}"

    @pytest.mark.parametrize("lam", [(1,), (1, 0, 0)])
    def test_rejects_wrong_length(self, lam):
        with pytest.raises(ValueError, match="needs 2 coefficients"):
            weyl_dim(rs_of("G2"), lam)

    def test_inexact_product_raises(self):
        # A2 short of its simple roots: the product over (1,1) alone is 3/2
        rs = rs_of("A2")
        broken = RootSystem(rs.dynkin, rs.cartan, rs.symmetrizer, ((1, 1),))
        with pytest.raises(ArithmeticError, match="not a positive integer"):
            weyl_dim(broken, (1, 0))

    # past this many weights (counted with multiplicity) the oracle stops and
    # only proves the dimension is larger: a weight of F4 or B4 with
    # coefficients up to 2 would otherwise take it seconds to minutes
    ORACLE_MAX_DIM = 150

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_freudenthal_on_products(self, data):
        rs = build_root_system(data.draw(dynkin_products(max_rank=4)))
        lam = tuple(data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
        expected = freudenthal_dim(rs, lam, max_dim=self.ORACLE_MAX_DIM)
        if expected is None:
            assert weyl_dim(rs, lam) > self.ORACLE_MAX_DIM
        else:
            assert weyl_dim(rs, lam) == expected


def test_no_floats_anywhere():
    rs = rs_of("F4")
    for val in rs.symmetrizer:
        assert type(val) is int
    pairing = coroot_pairing(rs, rho(rs), rs.positive_roots[-1])
    assert isinstance(pairing, Fraction)
    assert isinstance(weyl_dim(rs, (1, 0, 0, 0)), int)
