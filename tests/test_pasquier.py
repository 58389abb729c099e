import copy
import itertools
import math
import operator
import os
import pickle
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twoorbit
from twoorbit import cli, fixtures, pasquier
from twoorbit.flagvar import flag_invariants
from twoorbit.pasquier import (
    RECORD_FIELDS,
    Family,
    TripleSpec,
    Verdict,
    enumerate_triples,
    parse_triple_id,
    report_record,
    report_row,
    stability_verdict,
    stability_verdicts,
    variety_invariants,
)
from twoorbit.rootsys import DynkinType, SimpleFactor, build_root_system
from oracles import (
    anticanonical_degree,
    flag_dimension,
    harder_narasimhan,
    invariant_submodules,
    layout_type,
    moment_barycenter,
    poincare_polynomial,
)


class TestEnumeration:
    def test_count_and_order_at_three(self):
        triples = enumerate_triples(3)
        assert [t.triple_id for t in triples] == [
            "Bn:n=3",
            "B3special",
            "Cn:n=2:k=2",
            "Cn:n=3:k=2",
            "Cn:n=3:k=3",
            "F4horo",
            "G2horo",
            "PasF4",
            "PasA1G2",
        ]

    def test_count_at_four(self):
        assert len(list(enumerate_triples(4))) == 13

    def test_count_grows_by_n_plus_one(self):
        # one new spinor triple plus n-1 new C_n triples at each step
        for n in range(4, 9):
            assert len(list(enumerate_triples(n))) - len(list(enumerate_triples(n - 1))) == n

    def test_no_duplicates(self):
        triples = list(enumerate_triples(12))
        assert len(triples) == len(set(triples))

    @pytest.mark.parametrize(
        "max_n, message",
        [
            (2, "max_n must be at least 3, got 2"),
            (10.0, "max_n must be an int, got 10.0"),
            (3.5, "max_n must be an int, got 3.5"),
            ("5", "max_n must be an int, got '5'"),
        ],
        ids=["2", "float", "fractional", "str"],
    )
    def test_rejects_small_bound(self, max_n, message):
        # refused at the call, not at the first next() of the generator
        with pytest.raises(ValueError) as exc:
            enumerate_triples(max_n)
        assert str(exc.value) == message

    def test_validation_and_enumeration_agree_on_the_domain(self):
        # the domain is stated once, in each Family member: a triple is
        # accepted exactly when enumeration yields it
        catalog = set(enumerate_triples(15))
        values = [None, *range(-1, 16)]
        for f in Family:
            for n in values:
                for k in values:
                    try:
                        TripleSpec(f, n, k)
                    except ValueError:
                        accepted = False
                    else:
                        accepted = True
                    assert accepted == ((f, n, k) in catalog), (f, n, k)
        # enumeration builds its triples past the checks; each is one they accept
        enumerated = list(enumerate_triples(40))
        assert enumerated == [TripleSpec(*t) for t in enumerated]
        assert {type(t) for t in enumerated} == {TripleSpec}
        # the walk takes each layout unchecked: every triple with n <= 30, and
        # each family at a huge n, lays out valid factors and a Y and a Z that
        # are nonempty, strictly increasing, disjoint and in range
        huge = dict.fromkeys(TripleSpec(f, f.first_n and HUGE_N, f.first_k and k)
                             for f in Family for k in (2, 3, HUGE_N - 1, HUGE_N))
        for t in [*enumerate_triples(30), *huge]:
            factors, y, z = t.family.layout(t.n, t.k)
            assert DynkinType(tuple(SimpleFactor(*f) for f in factors)) == factors, t
            rank = sum(r for _, r in factors)
            for nodes in (y, z):
                assert nodes and 0 <= nodes[0] and nodes[-1] < rank, t
                assert all(a < b for a, b in zip(nodes, nodes[1:])), t
            assert not set(y) & set(z), t

    def test_first_triple_comes_before_the_rest_exist(self):
        # about 5*10^17 triples: a list of them fails under the child's
        # 1 GB address-space limit instead of filling the machine's memory
        code = (
            "from twoorbit.pasquier import enumerate_triples, stability_verdicts;"
            " print(next(enumerate_triples(10**9)).triple_id);"
            " print(next(stability_verdicts(enumerate_triples(10**9))).triple.triple_id)"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(Path(twoorbit.__file__).resolve().parents[1])),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"Bn:n=3\nBn:n=3\n", b"")
        assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f} s"


class TestTripleIds:
    @pytest.mark.parametrize(
        "text,triple",
        [
            ("Bn:n=5", TripleSpec(Family.BN_SPINOR, n=5)),
            ("B3special", TripleSpec(Family.B3_SPECIAL)),
            ("Cn:n=4:k=3", TripleSpec(Family.CN, n=4, k=3)),
            ("F4horo", TripleSpec(Family.F4_HORO)),
            ("G2horo", TripleSpec(Family.G2_HORO)),
            ("PasF4", TripleSpec(Family.PAS_F4)),
            ("PasA1G2", TripleSpec(Family.PAS_A1G2)),
            (f"Cn:n={10**30}:k={10**29 + 7}", TripleSpec(Family.CN, n=10**30, k=10**29 + 7)),
            (f"Bn:n={10**30}", TripleSpec(Family.BN_SPINOR, n=10**30)),
        ],
    )
    def test_round_trip(self, text, triple):
        assert parse_triple_id(text) == triple
        assert parse_triple_id(text).triple_id == text

    def test_head_is_case_insensitive(self):
        assert parse_triple_id("pasf4") == TripleSpec(Family.PAS_F4)

    BAD_IDS = {
        "Dn:n=4": "unknown triple family 'Dn'; expected one of: Bn, B3special, Cn, F4horo, G2horo, PasF4, PasA1G2",
        "Bn": "spinor family needs n >= 3 and takes no k",
        "Bn:n=2": "spinor family needs n >= 3 and takes no k",
        "Cn:n=4": "C_n family needs n >= 2 and 2 <= k <= n",
        "Cn:n=4:k=5": "C_n family needs n >= 2 and 2 <= k <= n",
        "Cn:n=4:m=2": "bad triple parameter 'm=2' in 'Cn:n=4:m=2'",
        "PasF4:n=3": "family PasF4 takes no parameters",
        "Bn:n=5:n=6": "triple parameter 'n' given twice in 'Bn:n=5:n=6'",
        "Bn:n=5:k=2": "spinor family needs n >= 3 and takes no k",
        "Cn:n=4:k=2:k=3": "triple parameter 'k' given twice in 'Cn:n=4:k=2:k=3'",
    }

    @pytest.mark.parametrize("text, message", BAD_IDS.items(), ids=list(BAD_IDS))
    def test_bad_ids_rejected(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_triple_id(text)
        assert str(exc.value) == message


# the report_row of each member whose `check` stdout is pinned, and of Bn:n=4, the first
# unstable Bn: its 18 cells in RECORD_FIELDS order, as `check` prints them after
# their field names, with None printed as nothing
KNOWN_MEMBERS = [
    ("PasA1G2", "PasA1G2", None, None, 5, 3, 6, "2w1.1+5w2.2", 8, 6, 2, None, None, 3, 0, "0/1", "3/4", "Stable"),
    ("PasF4", "PasF4", None, None, 15, 8, 20, 7, 23, 8, 3, None, None, 8, 0, "0/1", "8/23", "Stable"),
    ("Bn:n=3", "Bn", 3, None, 7, 4, 6, 6, 9, 5, 3, 2, 1, 2, 1, "1/2", "5/9", "Stable"),
    ("Bn:n=4", "Bn", 4, None, 12, 5, 10, 8, 14, 6, 4, 2, 1, 2, 1, "1/2", "3/7", "Unstable"),
    ("Bn:n=5", "Bn", 5, None, 18, 6, 15, 10, 20, 7, 5, 2, 1, 2, 1, "1/2", "7/20", "Unstable"),
    ("Cn:n=4:k=3", "Cn", 4, 3, 12, 6, 11, 7, 15, 7, 4, 3, 2, 3, 1, "1/3", "7/15", "Stable"),
    ("Bn:n=20000", "Bn", 20000, None, 200029998, 20001, 200010000, 40000, 200030000, 20002, 20000, 2, 1, 2, 1,
     "1/2", "10001/100015000", "Unstable"),
    ("Cn:n=3000:k=1500", "Cn", 3000, 1500, 5625750, 4501, 5624248, 4502, 5627250, 4502, 3002, 1500, 1499, 1500, 1,
     "1/1500", "2251/2813625", "Stable"),
    ("F4horo", "F4horo", None, None, 20, 5, 20, 7, 23, 6, 3, 3, 2, 3, 1, "1/3", "6/23", "Unstable"),
    ("G2horo", "G2horo", None, None, 5, 3, 5, 5, 7, 4, 2, 2, 1, 2, 1, "1/2", "4/7", "Stable"),
    ("B3special", "B3special", None, None, 5, 5, 6, 6, 9, 7, 3, 4, 2, 4, 2, "1/2", "7/9", "Stable"),
]


@pytest.mark.parametrize("row", KNOWN_MEMBERS, ids=operator.itemgetter(0))
def test_known_catalog_members(capsys, row):
    assert report_row(stability_verdict(parse_triple_id(row[0]))) == row
    assert cli.main(["check", row[0]]) == 0
    lines = (f"{field}: {'' if cell is None else cell}\n" for field, cell in zip(RECORD_FIELDS, row, strict=True))
    assert capsys.readouterr().out == "".join(lines)


class TestVarietyInvariants:
    def test_a1g2_exceptional(self):
        # what a printed row cannot show: Z's two coefficients as a dict, and no scalar
        v = variety_invariants(TripleSpec(Family.PAS_A1G2))
        assert v.c1_z == {0: 2, 2: 5}
        assert v.c1_z_scalar() is None

    @pytest.mark.parametrize("t", enumerate_triples(8))
    def test_open_orbit_dimension_route(self, t):
        # dim X is one more than the flag variety of the joint marking
        v = variety_invariants(t)
        dynkin, y, z = layout_type(t)
        assert v.dim_x == flag_dimension(build_root_system(dynkin), sorted({*y, *z})) + 1
        if t.is_horospherical():
            f = stability_verdict(t).variety
            assert v.dim_x == v.dim_y + f.rank_ey

    def test_lean_path_matches_flag_invariants(self):
        # variety_invariants puts together the walks of the layout's Y and Z tuples
        # and of their union, Z's two factors for PasA1G2 included
        checked = set()
        for t in enumerate_triples(30):
            dynkin, y, z = layout_type(t)
            (dim_y, anti_y), (dim_z, anti_z), (dim_x, _) = (
                flag_invariants(dynkin, m) for m in (y, z, sorted({*y, *z}))
            )
            v = variety_invariants(t)
            assert len(anti_y) == 1, t.triple_id
            expected = (dim_y, dim_z, dim_x + 1, anti_y[y[0]])
            assert (v.dim_y, v.dim_z, v.dim_x, v.c1_y) == expected, t.triple_id
            assert list(v.c1_z.items()) == list(anti_z.items()), t.triple_id
            checked.add(t.family)
        assert checked == set(Family)


def test_fano_degree_symbolic():
    # for the two infinite families the first Chern class coefficient of X
    # equals 2*dim X - dim Y - dim Z as polynomials in (n, k)
    n, k = sympy.symbols("n k")
    spinor = 2 * (n * (n + 3) / 2) - (n + 4) * (n - 1) / 2 - n * (n + 1) / 2
    assert sympy.simplify(spinor - (n + 2)) == 0
    c_family = (
        2 * (k * (4 * n - 3 * k + 3) / 2)
        - k * (4 * n + 1 - 3 * k) / 2
        - (k - 1) * (4 * n + 4 - 3 * k) / 2
    )
    assert sympy.simplify(c_family - (2 * n - k + 2)) == 0


def test_slope_numerator_symbolic():
    # mu_F - mu_Theta has the sign of c1_F * dim_X - r_X * rank_F.  From the
    # fixture closed forms that numerator is (n^2 - n - 8)/2 for Bn, which is
    # (a^2 + 7a + 4)/2 > 0 at n = 4 + a and -1 at n = 3, and -k(k + 1)/2 < 0
    # for Cn: STAB's third column, n >= 4 for Bn and False for Cn, holds for
    # every n and k, not only for the n that verify samples
    n, k, a = sympy.symbols("n k a")
    closed = {  # dim_X, r_X, rank_F, c1_F
        Family.BN_SPINOR: (n * (n + 3) / 2, n + 2, 2, 1),
        Family.CN: (k * (4 * n - 3 * k + 3) / 2, 2 * n - k + 2, k, 1),
    }
    numerator = {f: c1_f * dim_x - r_x * rank_f for f, (dim_x, r_x, rank_f, c1_f) in closed.items()}
    spinor, c_family = numerator[Family.BN_SPINOR], numerator[Family.CN]
    assert sympy.expand(spinor - (n**2 - n - 8) / 2) == 0
    shifted = sympy.Poly(sympy.expand(2 * spinor.subs(n, 4 + a)), a)
    assert shifted == sympy.Poly(a**2 + 7 * a + 4, a) and all(c > 0 for c in shifted.coeffs())
    assert spinor.subs(n, 3) == -1
    assert sympy.expand(c_family + k * (k + 1) / 2) == 0
    # the hand-written polynomials are the fixture lambdas, at every (n, k) with n <= 50
    for t in enumerate_triples(50):
        if t.family not in closed:
            continue
        bl_h_num, values = fixtures.BL_H_NUM[t.family], {n: sympy.Integer(t.n), k: sympy.Integer(t.k or 0)}
        lambdas = (bl_h_num["dim_X"](t.n, t.k), bl_h_num["c1_X"](t.n, t.k), *fixtures.CF[t.family](t.n, t.k))
        assert tuple(sympy.sympify(p).xreplace(values) for p in closed[t.family]) == lambdas, t.triple_id
        mu_f, mu_theta, unstable = fixtures.STAB[t.family](t.n, t.k)
        assert bool(numerator[t.family].xreplace(values) > 0) is unstable is (mu_f > mu_theta), t.triple_id


class TestStability:
    @settings(max_examples=300)
    @given(st.integers(), st.integers(min_value=1))
    @example(-6, 4)
    @example(0, 5)
    def test_slope_is_the_reduced_fraction(self, num, den):
        slope, expected = pasquier._slope(num, den), Fraction(num, den)
        assert type(slope) is Fraction
        assert slope == expected and hash(slope) == hash(expected)
        assert (str(slope), repr(slope)) == (str(expected), repr(expected))
        assert slope.as_integer_ratio() == expected.as_integer_ratio()
        assert pickle.loads(pickle.dumps(slope)) == expected
        assert slope + slope == expected + expected and slope + 1 == expected + 1

    @pytest.mark.parametrize(
        "c1_f,verdict",
        [(8, Verdict.STRICTLY_SEMISTABLE_BOUNDARY), (9, Verdict.UNSTABLE), (7, Verdict.STABLE)],
    )
    def test_pinned_foliation_decides_the_verdict(self, monkeypatch, c1_f, verdict):
        # no catalog member lies on the boundary, so PasF4 (dim X = 23, r_X = 8)
        # is given a foliation of rank 23: mu_Theta = 8/23 and mu_F = c1_F/23
        monkeypatch.setattr(Family.PAS_F4, "pinned", (8, 23, c1_f))
        r = stability_verdict(TripleSpec(Family.PAS_F4))
        assert (r.mu_f, r.mu_theta) == (Fraction(c1_f, 23), Fraction(8, 23))
        assert r.verdict is verdict
        assert report_row(r)[-3:] == (f"{c1_f}/23", "8/23", verdict.value)


def test_colour_route_to_the_fano_index():
    # Brion's anticanonical divisor of a spherical variety X is the sum of its
    # G-stable prime divisors plus a_D D over the colours D; for horospherical
    # X, a_D is the -K coefficient of G/P_{Y u Z} at D's node (Pasquier 2008).
    # Y and Z have codimension at least 2, so X has no G-stable prime divisor,
    # and each colour generates Pic X: r_X is the sum of those coefficients.
    # For PasF4 (3 + 5) and PasA1G2 (2 + 2 + 2) the match is only an
    # observation; it guards Family.pinned and does not replace it.
    for t in enumerate_triples(100):
        dynkin, y, z = layout_type(t)
        colours = flag_invariants(dynkin, sorted(y + z))[1]
        assert sum(colours.values()) == variety_invariants(t).r_x, t.triple_id


def horospherical_submodules(factors, y, z):
    """invariant_submodules of g/h, for the horospherical X of the layout (factors, y, z).

    X contains G/H as its open orbit, with P the intersection of P_Y and P_Z and
    P/H = C^* (Pasquier 2008), so g/h, multiplicity-free, is g/p with the
    weight-0 line p/h added; every P-submodule holds that line.
    """
    return {s: (rank + 1, c1) for s, (rank, c1) in invariant_submodules(factors, y + z).items()}


def whole_and_proper(lattice):
    """(rank, c1) of the largest module of `lattice` and the sorted (rank, c1) of the others."""
    lattice = dict(lattice)
    return lattice.pop(max(lattice)), sorted(lattice.values())


# the two pinned families are left out: they are not horospherical, and their
# g/h is not multiplicity-free
HOROSPHERICAL_TO_12 = [t for t in enumerate_triples(12) if t.is_horospherical()]


@pytest.mark.parametrize("t", HOROSPHERICAL_TO_12, ids=operator.attrgetter("triple_id"))
def test_invariant_submodules_oracle(t):
    """The verdict, dim X, r_X and F, against the P-submodules of g/h, which share nothing with the walk."""
    (dim_x, r_x), proper = whole_and_proper(horospherical_submodules(*t.family.layout(t.n, t.k)))
    r = stability_verdict(t)
    v = r.variety
    assert (dim_x, r_x) == (v.dim_x, v.r_x)
    top = max(Fraction(c1, rank) for rank, c1 in proper)
    assert r.verdict is (Verdict.UNSTABLE if top > r.mu_theta else Verdict.STRICTLY_SEMISTABLE_BOUNDARY
                         if top == r.mu_theta else Verdict.STABLE)
    assert (v.rank_f, v.c1_f) in proper
    if t.family is Family.BN_SPINOR:
        n = t.n
        assert proper == sorted([(1, 0), (2, 1), (n, 2 - n), (n + 1, 3 - n), (2 * n, 4 - n), (3 * n - 1, 4)])


# (rank, slope) of each factor of the Harder-Narasimhan filtration of T_X; for
# Bn the quotient by F is (dim X - 2, r_X - 1)
PINNED_HN = {
    "Bn:n=4": [(2, Fraction(1, 2)), (12, Fraction(5, 12))],
    "Bn:n=9": [(2, Fraction(1, 2)), (52, Fraction(5, 26))],
    "F4horo": [(3, Fraction(1, 3)), (20, Fraction(1, 4))],
}


@pytest.mark.parametrize("t", HOROSPHERICAL_TO_12, ids=operator.attrgetter("triple_id"))
def test_harder_narasimhan_filtration(t):
    """F is the first piece of the Harder-Narasimhan filtration of an "Unstable" T_X, and a "Stable" T_X has no other.

    The filtration is unique (Harder-Narasimhan, Math. Ann. 1975;
    Huybrechts-Lehn, section 1.3), so every connected group acting on X keeps
    each piece, and each piece is read on the open orbit as a P-submodule of
    g/h, as in test_invariant_submodules_oracle.  An "Unstable" T_X then has
    the two steps 0 < F < T_X, and T_X / F is semistable among invariant
    quotients.
    """
    r = stability_verdict(t)
    v = r.variety
    hn = harder_narasimhan(horospherical_submodules(*t.family.layout(t.n, t.k)))
    if r.verdict is Verdict.UNSTABLE:
        assert hn == [(v.rank_f, r.mu_f), (v.dim_x - v.rank_f, Fraction(v.r_x - v.c1_f, v.dim_x - v.rank_f))]
    else:
        assert hn == [(v.dim_x, r.mu_theta)]
    if t.triple_id in PINNED_HN:
        assert hn == PINNED_HN[t.triple_id]


# every maximal parabolic of A1-A7, B2-B7, C2-C7, F4 and G2: 88 in all
MAXIMAL_PARABOLIC_TYPES = (
    [SimpleFactor("A", r) for r in range(1, 8)]
    + [SimpleFactor(s, r) for s in "BC" for r in range(2, 8)]
    + [SimpleFactor("F", 4), SimpleFactor("G", 2)]
)


@pytest.mark.parametrize("factor", MAXIMAL_PARABOLIC_TYPES, ids=str)
def test_lattice_finds_every_g_mod_p_stable(factor):
    """A positive control of the lattice oracle: T_{G/P} is stable for every maximal P (Umemura, Nagoya Math. J. 1978).

    Its slope index / dim comes from the walk, and every proper nonzero
    P-submodule of g/p must lie below it; an irreducible g/p has none.
    """
    for node in range(factor.rank):
        dimension, anti = flag_invariants((factor,), (node,))
        whole, proper = whole_and_proper(invariant_submodules((factor,), (node,)))
        assert whole == (dimension, anti[node])
        assert all(Fraction(c1, rank) < Fraction(anti[node], dimension) for rank, c1 in proper if rank)


def _shifted_sum(p, shift, r):
    """The coefficients of q^shift * p + r."""
    total = [0] * max(len(p) + shift, len(r))
    for i, c in enumerate(p):
        total[i + shift] += c
    for i, c in enumerate(r):
        total[i] += c
    return total


@pytest.mark.parametrize("t", HOROSPHERICAL_TO_12, ids=operator.attrgetter("triple_id"))
def test_betti_numbers_by_bialynicki_birula(t):
    """dim X, dim Y and dim Z against Poincare polynomials of G/P_Y and G/P_Z, which share nothing with the walk.

    P/H = C^* acts on X with fixed locus Y and Z, and the plus and minus
    Bialynicki-Birula decompositions (Ann. Math. 1973) give P_X(q) =
    q^(dim X - dim Y) P_Y + P_Z = P_Y + q^(dim X - dim Z) P_Z, in q = t^2.  P_X is
    palindromic, as X is smooth and projective, and b2 = 1.  Where P_Y = P_Z, on
    Cn:n=2:k=2, Cn:n=5:k=4, Cn:n=8:k=6, Cn:n=11:k=8, F4horo and G2horo, the two
    forms are one for every dim X: a dim X shifted by one fails the other 73
    triples, and of these six only Cn:n=2:k=2, whose P_X is pinned.
    """
    v = variety_invariants(t)
    dynkin, y, z = layout_type(t)
    rs = build_root_system(dynkin)
    p_y, p_z = poincare_polynomial(rs, y), poincare_polynomial(rs, z)
    assert (len(p_y) - 1, len(p_z) - 1) == (v.dim_y, v.dim_z)
    p_x = _shifted_sum(p_y, v.dim_x - v.dim_y, p_z)
    assert p_x == _shifted_sum(p_z, v.dim_x - v.dim_z, p_y)
    assert p_x == p_x[::-1] and p_x[1] == 1
    if t == TripleSpec(Family.CN, 2, 2):
        # by Lefschetz, the Betti numbers of a smooth hyperplane section of Gr(2, 5)
        assert p_x == [1, 1, 2, 2, 1, 1]


# deg_H X = (-K_X)^dim X / r_X^dim X: with k = 2, Cn:n=m is Catalan(2m - 1); the
# n = 2 member is a smooth hyperplane section of Gr(2, 5), of degree 5 and index 4
PINNED_DEGREES = {
    **{f"Cn:n={m}:k=2": c for m, c in zip(range(2, 9), [5, 42, 429, 4862, 58786, 742900, 9694845])},
    "G2horo": 56, "B3special": 12, "Bn:n=3": 180,
}


# the two pinned families are left out: they are not horospherical, so their
# moment polytope is not a segment
on_the_moment_segment = pytest.mark.parametrize(
    "t", [t for t in enumerate_triples(8) if t.is_horospherical()], ids=operator.attrgetter("triple_id")
)


@on_the_moment_segment
def test_anticanonical_degree_by_the_moment_segment(t):
    """dim X and r_X against Brion's degree integral over the moment segment, which shares nothing with the walk.

    The oracle asserts that it multiplies dim X - 1 linear factors; the
    degree in the hyperplane class must be an integer.  That degree does not
    depend on r_X, which only the pinned (-K)^5 of Cn:n=2:k=2 checks.
    """
    v = variety_invariants(t)
    dynkin, y, z = layout_type(t)
    degree = anticanonical_degree(build_root_system(dynkin), y, z, v.dim_x, v.r_x)
    deg_h = degree / v.r_x ** v.dim_x
    assert deg_h.denominator == 1
    if t.triple_id in PINNED_DEGREES:
        assert deg_h == PINNED_DEGREES[t.triple_id]
    if t == TripleSpec(Family.CN, 2, 2):
        assert degree == 5120


# (t-bar, t0) of the moment segment, as tests/oracles.py sets out its conventions
PINNED_BARYCENTERS = {
    "Cn:n=2:k=2": (Fraction(8, 15), Fraction(1, 2)),
    "G2horo": (Fraction(67, 112), Fraction(1, 2)),
    "Bn:n=3": (Fraction(67, 100), Fraction(3, 5)),
    "B3special": (Fraction(9, 20), Fraction(3, 7)),
}


@on_the_moment_segment
def test_moment_barycenter_is_not_two_rho_p(t):
    """Delcroix's K-semistability test fails: the barycenter p(t-bar) of the moment segment is not 2 rho_P = p(t0).

    2 rho_P = a omega_Y + b omega_Z, with a and b read off the walk of Y u Z,
    is on the segment only if a + b = r_X, and then t0 = a / r_X.  The
    barycenter comes from the segment density alone, not from the walk.
    """
    v = variety_invariants(t)
    dynkin, y, z = layout_type(t)
    (y_node,), (z_node,) = y, z
    colours = flag_invariants(dynkin, sorted(y + z))[1]
    a, b = colours[y_node], colours[z_node]
    assert a + b == v.r_x
    t_bar, t0 = moment_barycenter(build_root_system(dynkin), y, z), Fraction(a, v.r_x)
    assert t_bar > t0
    if t.triple_id in PINNED_BARYCENTERS:
        assert (t_bar, t0) == PINNED_BARYCENTERS[t.triple_id]


def grassmannian(k, n):
    """(dim, index, degree) of Gr(k, n), with its Plucker degree (k(n - k))! prod_{j < k} j! / (n - k + j)!."""
    dim = k * (n - k)
    degree = Fraction(math.factorial(dim) * math.prod(map(math.factorial, range(k))),
                      math.prod(math.factorial(n - k + j) for j in range(k)))
    return dim, n, degree


# (r, p, q) and (dim X, r_X, deg_H X) of the horospherical X of A_r with Y at
# omega_p and Z at omega_q that are homogeneous (Pasquier 2008): (omega_i,
# omega_(i+1)) gives Gr(i + 1, r + 2), and (omega_1, omega_r) the quadric Q^2r
HOMOGENEOUS = [
    *((r, i, i + 1, *grassmannian(i + 1, r + 2)) for r in range(2, 8) for i in range(1, r)),
    *((r, 1, r, 2 * r, 2 * r, 2) for r in range(3, 8)),
]


@pytest.mark.parametrize(
    "r,p,q,dim_x,r_x,degree", HOMOGENEOUS, ids=[f"A{r}-{p},{q}" for r, p, q, *_ in HOMOGENEOUS]
)
def test_homogeneous_members_control_the_oracles(r, p, q, dim_x, r_x, degree):
    """Positive controls of the lattice, moment-segment and Harder-Narasimhan oracles, with classical answers.

    T_X of a homogeneous X of Picard rank one is stable (Umemura), and X is
    Kahler-Einstein, so by Delcroix's criterion its barycenter is 2 rho_P:
    t-bar = t0 = q / r_X, as -K of the flag variety Fl(p, q; r + 1) is
    q omega_p + (r + 1 - p) omega_q.  No expected value comes from an oracle.
    """
    y, z = (p - 1,), (q - 1,)
    lattice = horospherical_submodules((("A", r),), y, z)
    whole, proper = whole_and_proper(lattice)
    assert whole == (dim_x, r_x)
    assert max(Fraction(c1, rank) for rank, c1 in proper) < Fraction(r_x, dim_x)
    assert harder_narasimhan(lattice) == [(dim_x, Fraction(r_x, dim_x))]
    rs = build_root_system(DynkinType((SimpleFactor("A", r),)))
    assert moment_barycenter(rs, y, z) == Fraction(q, r_x)
    assert anticanonical_degree(rs, y, z, dim_x, r_x) == degree * r_x**dim_x


@pytest.mark.parametrize(
    "copy_member", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_family_hashes_by_identity(copy_member):
    # a pickled or deep-copied member is the member itself, with the same
    # hash, so it finds its rows in the Family-keyed fixture tables
    for f in Family:
        g = copy_member(f)
        assert g is f and hash(g) == hash(f)
        tables = (fixtures.CF, fixtures.STAB, *((fixtures.BL_H_NUM,) if f.pinned is None else ()))
        assert all(table[g] is table[f] for table in tables)
    t = TripleSpec(Family.CN, 5, 3)
    assert hash(copy_member(t)) == hash(t)


class _CountingTable(dict):
    """A fixture table that counts its reads by key."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_verify_reads_each_closed_form_once_per_family_run(monkeypatch):
    # the catalog comes in Family order, so each family is one run of reports
    # and verify reads each of its tables once for it, not once per triple
    tables = {name: _CountingTable(getattr(fixtures, name)) for name in ("STAB", "CF", "CF_NUM", "BL_H_NUM")}
    for name, table in tables.items():
        monkeypatch.setattr(fixtures, name, table)
    assert fixtures.verify(12) == []
    every_family = Counter(dict.fromkeys(Family, 1))
    horospherical = Counter({f: 1 for f in Family if f.pinned is None})
    assert tables["STAB"].reads == tables["CF"].reads == every_family
    assert tables["CF_NUM"].reads == tables["BL_H_NUM"].reads == horospherical
    assert sum(tables["STAB"].reads.values()) == 7  # of 81 triples


def test_one_triple_is_one_variety_invariants_call(monkeypatch):
    # stability_verdict reads variety_invariants by its module name, so a
    # wrapper put there, as the benchmark's tracer puts one, sees each query once
    calls = []
    uncounted = pasquier.variety_invariants

    def counting(t):
        calls.append(t)
        return uncounted(t)

    monkeypatch.setattr(pasquier, "variety_invariants", counting)
    t = TripleSpec(Family.CN, 7, 4)
    stability_verdict(t)
    assert calls == [t]


class TestOneEvaluationPerTriple:
    """Every distinct Y, Z and Y u Z marking of a run is walked exactly once, counted at the engine."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        uncounted = pasquier._walk

        def counting(factors, markings):
            calls.append((factors, [tuple(m) for m in markings]))
            return uncounted(factors, markings)

        monkeypatch.setattr(pasquier, "_walk", counting)
        return calls

    @staticmethod
    def markings(triples):
        """(layout factor pairs, marking) of each of the triples' three markings, as a multiset."""
        expected = Counter()
        for t in triples:
            factors, y, z = t.family.layout(t.n, t.k)
            expected.update((factors, m) for m in (y, z, tuple(sorted(y + z))))
        return expected

    @staticmethod
    def walked(walks):
        return Counter((factors, m) for factors, markings in walks for m in markings)

    def test_stability_verdict(self, walks):
        # a run of one triple walks its three markings
        triples = list(enumerate_triples(12))
        for t in triples:
            stability_verdict(t)
        assert len(walks) == len(triples)
        assert self.walked(walks) == self.markings(triples)

    def test_verify(self, walks):
        assert fixtures.verify(12) == []
        self.assert_one_walk_per_run(walks)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_table(self, walks, fmt):
        assert cli.main(["table", "--max-n", "12", "--format", fmt]) == 0
        self.assert_one_walk_per_run(walks)

    def test_two_families_share_a_run_at_three(self, walks):
        assert fixtures.verify(3) == []
        self.assert_one_walk_per_run(walks, max_n=3)
        # Bn:n=3 and B3special both lie on B3 and both have Z = (2,): one walk
        # over the five distinct markings of the two triples
        assert walks[0] == ((("B", 3),), [(1,), (2,), (1, 2), (0,), (0, 2)])

    def test_catalog_to_one_hundred_walks_each_distinct_marking(self, walks, capsys):
        # 5,053 triples have 15,159 markings; in each Cn run, Z of k is Y of k - 1
        assert cli.main(["table", "--max-n", "100"]) == 0
        assert sum(len(markings) for _, markings in walks) == 10_308

    def assert_one_walk_per_run(self, walks, max_n=12):
        triples = list(enumerate_triples(max_n))
        # one call per run of consecutive triples on one Dynkin type
        runs = [list(run) for _, run in itertools.groupby(triples, key=lambda t: t.family.layout(t.n, t.k)[0])]
        assert len(walks) == len(runs)
        for (factors, markings), run in zip(walks, runs):
            # each distinct marking of the run, and each exactly once
            assert len(set(markings)) == len(markings)
            assert {(factors, m) for m in markings} == set(self.markings(run))


def test_no_validated_record_between_layout_and_walk(monkeypatch, capsys):
    # the walk and the weight labels take a layout's (series, rank) pairs as
    # they are: the catalog builds no SimpleFactor or DynkinType, down to its
    # printed rows
    built = Counter()
    for cls in (SimpleFactor, DynkinType):
        def counting(kind, *args, _new=cls.__new__, **kwargs):
            built[kind.__name__] += 1
            return _new(kind, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    assert fixtures.verify(12) == []
    for t in enumerate_triples(12):
        report_record(stability_verdict(t))
    for fmt in ("md", "csv", "json"):
        assert cli.main(["table", "--max-n", "12", "--format", fmt]) == 0
    assert "2w1.1+5w2.2" in capsys.readouterr().out
    assert built == Counter()
    DynkinType.parse("A1xG2")  # the counter sees what is built
    assert built == Counter({"SimpleFactor": 2, "DynkinType": 1})


HUGE_N = 10**30


class TestHugeRank:
    """Every closed form is a Python int, so a huge rank costs no more than a small one."""

    @staticmethod
    def mismatches(t):
        """fixtures' mismatches for the single-triple report and the batched one."""
        formulas = fixtures._closed_forms(t.family)
        return [fixtures._check_report(r, formulas) for r in (stability_verdict(t), *stability_verdicts([t]))]

    def test_spinor_family(self):
        assert self.mismatches(TripleSpec(Family.BN_SPINOR, n=HUGE_N)) == [[], []]

    @pytest.mark.parametrize("k", [2, 1000, HUGE_N - 1, HUGE_N], ids=["2", "1000", "n-1", "n"])
    def test_c_family(self, k):
        assert self.mismatches(TripleSpec(Family.CN, n=HUGE_N, k=k)) == [[], []]


# the catalog up to n = 8 in catalog order, and Cn triples of a huge n: slices
# of it give runs of one Dynkin type, single triples interleave them
_SMALL_CATALOG = [
    *enumerate_triples(8),
    *(TripleSpec(Family.CN, HUGE_N, k) for k in (2, 3, HUGE_N)),
    TripleSpec(Family.BN_SPINOR, HUGE_N),
]


@st.composite
def triple_sequences(draw):
    """A sequence of triples: catalog slices and single triples, mixed families and n, repeats allowed."""
    pieces = draw(st.lists(st.one_of(
        st.sampled_from(_SMALL_CATALOG).map(lambda t: [t]),
        st.tuples(st.integers(0, len(_SMALL_CATALOG) - 1), st.integers(1, 10)).map(
            lambda ij: _SMALL_CATALOG[ij[0]:ij[0] + ij[1]]),
    ), max_size=8))
    return [t for piece in pieces for t in piece]


def assert_batch_equals_single_path(seq):
    batch, single = list(stability_verdicts(seq)), [stability_verdict(t) for t in seq]
    assert batch == single
    # walking a marking once for several triples shares no c1_Z dict between reports
    assert len({id(r.variety.c1_z) for r in batch}) == len(batch)
    # == does not see the order of a c1_Z dict, which a weight label prints in
    assert list(map(report_row, batch)) == list(map(report_row, single))


class TestBatchEqualsSinglePath:
    @given(triple_sequences())
    @settings(max_examples=200)
    def test_any_sequence(self, seq):
        assert_batch_equals_single_path(seq)

    @pytest.mark.parametrize("seq", [[], list(enumerate_triples(3))], ids=["empty", "catalog-3"])
    def test_edge_sequences(self, seq):
        assert_batch_equals_single_path(seq)


# runs whose triples share a marking: a repeated triple; Cn triples of one n,
# where Y of k is Z of k + 1; Bn:n=3 and B3special, whose Z are both (2,)
SHARED_MARKINGS = {
    "repeat": [TripleSpec(Family.G2_HORO)] * 2,
    "repeat-in-a-run": [TripleSpec(Family.CN, 5, 3), TripleSpec(Family.CN, 5, 4), TripleSpec(Family.CN, 5, 3)],
    "cn-run": [TripleSpec(Family.CN, 6, k) for k in range(2, 7)],
    "b3": list(enumerate_triples(3)),
}


@pytest.mark.parametrize("seq", list(SHARED_MARKINGS.values()), ids=list(SHARED_MARKINGS))
def test_reports_share_no_dict(seq):
    reports = list(stability_verdicts(seq))
    assert len({id(r.variety.c1_z) for r in reports}) == len(reports)
    for i in range(len(reports)):
        reports = list(stability_verdicts(seq))
        reports[i].variety.c1_z[0] = -1
        others = [j for j in range(len(seq)) if j != i]
        assert [reports[j] for j in others] == [stability_verdict(seq[j]) for j in others]


class TestMismatchReport:
    """A wrong closed form is reported cell by cell, in catalog order, then fixture and column order."""

    @staticmethod
    def patched(monkeypatch, table, family, **columns):
        formulas = dict(table[family])
        formulas.update(columns)
        monkeypatch.setitem(table, family, formulas)

    def test_bl_h_num(self, monkeypatch):
        self.patched(monkeypatch, fixtures.BL_H_NUM, Family.CN, dim_Y=lambda n, k: 0)
        assert fixtures.verify(3) == [
            fixtures.Mismatch("bl_h_num", "Cn:n=2:k=2", "dim_Y", 0, 3),
            fixtures.Mismatch("bl_h_num", "Cn:n=3:k=2", "dim_Y", 0, 7),
            fixtures.Mismatch("bl_h_num", "Cn:n=3:k=3", "dim_Y", 0, 6),
        ]

    def test_cf_num(self, monkeypatch):
        monkeypatch.setitem(fixtures.CF_NUM, Family.G2_HORO, lambda n, k: (2, 2))
        assert fixtures.verify(3) == [fixtures.Mismatch("cf_num", "G2horo", "c1_EY", 2, 1)]

    def test_cf_of_a_pinned_family(self, monkeypatch):
        monkeypatch.setitem(fixtures.CF, Family.PAS_F4, lambda n, k: (7, 0))
        assert fixtures.verify(3) == [fixtures.Mismatch("cf", "PasF4", "rank_F", 7, 8)]

    def test_stab(self, monkeypatch):
        monkeypatch.setitem(fixtures.STAB, Family.F4_HORO, lambda n, k: (Fraction(1, 3), Fraction(6, 23), False))
        mismatches = fixtures.verify(3)
        assert mismatches == [fixtures.Mismatch("stab", "F4horo", "mu_F > mu_Theta", False, True)]
        assert str(mismatches[0]) == "stab[F4horo].mu_F > mu_Theta: expected False, actual True"

    def test_stab_slope_alone(self, monkeypatch):
        # every other cell of G2horo agrees, so only the slope comparison can see it
        monkeypatch.setitem(fixtures.STAB, Family.G2_HORO, lambda n, k: (Fraction(1, 2), Fraction(5, 7), False))
        mismatches = fixtures.verify(3)
        assert mismatches == [fixtures.Mismatch("stab", "G2horo", "mu_Theta", Fraction(5, 7), Fraction(4, 7))]
        assert str(mismatches[0]) == "stab[G2horo].mu_Theta: expected 5/7, actual 4/7"

    def test_cells_of_one_triple_keep_their_order(self, monkeypatch):
        self.patched(monkeypatch, fixtures.BL_H_NUM, Family.G2_HORO, c1_X=lambda n, k: 5, dim_Y=lambda n, k: 6)
        monkeypatch.setitem(fixtures.STAB, Family.G2_HORO, lambda n, k: (Fraction(1, 3), Fraction(4, 7), False))
        assert fixtures.verify(3) == [
            fixtures.Mismatch("bl_h_num", "G2horo", "dim_Y", 6, 5),
            fixtures.Mismatch("bl_h_num", "G2horo", "c1_X", 5, 4),
            fixtures.Mismatch("stab", "G2horo", "mu_F", Fraction(1, 3), Fraction(1, 2)),
        ]


# one triple of each family; PasA1G2's c1_Z is a weight label
ONE_PER_FAMILY = ("Bn:n=5", "B3special", "Cn:n=4:k=3", "F4horo", "G2horo", "PasF4", "PasA1G2")


class TestReportRecord:
    @pytest.mark.parametrize("triple_id", ONE_PER_FAMILY)
    def test_record_is_the_row_keyed_by_field(self, triple_id):
        report = stability_verdict(parse_triple_id(triple_id))
        row = report_row(report)
        assert isinstance(row, tuple) and len(row) == len(RECORD_FIELDS)
        record = report_record(report)
        assert list(record) == list(RECORD_FIELDS)
        assert record == dict(zip(RECORD_FIELDS, row))
