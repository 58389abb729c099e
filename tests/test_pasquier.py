from collections import Counter
from fractions import Fraction

import pytest
import sympy

from twoorbit import fixtures, pasquier
from twoorbit.flagvar import flag_dimension
from twoorbit.pasquier import (
    Family,
    TripleSpec,
    Verdict,
    ambient_dimension,
    enumerate_triples,
    parse_triple_id,
    report_record,
    stability_verdict,
    variety_invariants,
)
from twoorbit.rootsys import DynkinType, Weight, build_root_system


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
        assert len(enumerate_triples(4)) == 13

    def test_count_grows_by_n_plus_one(self):
        # one new spinor triple plus n-1 new C_n triples at each step
        for n in range(4, 9):
            assert len(enumerate_triples(n)) - len(enumerate_triples(n - 1)) == n

    def test_no_duplicates(self):
        triples = enumerate_triples(12)
        assert len(triples) == len(set(triples))

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            enumerate_triples(2)


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
        ],
    )
    def test_round_trip(self, text, triple):
        assert parse_triple_id(text) == triple
        assert parse_triple_id(text).triple_id == text

    def test_head_is_case_insensitive(self):
        assert parse_triple_id("pasf4") == TripleSpec(Family.PAS_F4)

    @pytest.mark.parametrize(
        "text",
        ["Dn:n=4", "Bn", "Bn:n=2", "Cn:n=4", "Cn:n=4:k=5", "Cn:n=4:m=2", "PasF4:n=3", "Bn:n=5:n=6", "Bn:n=5:k=2"],
    )
    def test_bad_ids_rejected(self, text):
        with pytest.raises(ValueError):
            parse_triple_id(text)


class TestVarietyInvariants:
    def test_spinor_triple_b3(self):
        v = variety_invariants(TripleSpec(Family.BN_SPINOR, n=3))
        assert (v.dim_y, v.c1_y) == (7, 4)
        assert (v.dim_z, v.c1_z_scalar()) == (6, 6)
        assert (v.dim_x, v.r_x) == (9, 5)
        assert v.codim_z == 3

    def test_f4_horospherical(self):
        v = variety_invariants(TripleSpec(Family.F4_HORO))
        assert (v.dim_y, v.c1_y) == (20, 5)
        assert (v.dim_z, v.c1_z_scalar()) == (20, 7)
        assert (v.dim_x, v.r_x) == (23, 6)

    def test_g2_horospherical(self):
        v = variety_invariants(TripleSpec(Family.G2_HORO))
        assert (v.dim_y, v.c1_y) == (5, 3)
        assert (v.dim_z, v.c1_z_scalar()) == (5, 5)
        assert (v.dim_x, v.r_x) == (7, 4)

    def test_f4_exceptional(self):
        v = variety_invariants(TripleSpec(Family.PAS_F4))
        assert (v.dim_y, v.c1_y) == (15, 8)
        assert (v.dim_z, v.c1_z_scalar()) == (20, 7)
        assert (v.dim_x, v.r_x) == (23, 8)

    def test_a1g2_exceptional(self):
        v = variety_invariants(TripleSpec(Family.PAS_A1G2))
        assert (v.dim_y, v.c1_y) == (5, 3)
        assert v.dim_z == 6
        assert v.c1_z == Weight((2, 0, 5))
        assert v.c1_z_scalar() is None
        assert (v.dim_x, v.r_x) == (8, 6)

    @pytest.mark.parametrize("t", enumerate_triples(8))
    def test_open_orbit_dimension_route(self, t):
        # dim X is one more than the flag variety of the joint marking
        v = variety_invariants(t)
        rs = build_root_system(t.dynkin)
        assert v.dim_x == flag_dimension(rs, t.marking_y.union(t.marking_z)) + 1
        if t.is_horospherical():
            f = stability_verdict(t).foliation
            assert v.dim_x == v.dim_y + f.rank_ey


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


class TestFoliation:
    def test_spinor_rows(self):
        for n in (3, 4, 7):
            f = stability_verdict(TripleSpec(Family.BN_SPINOR, n=n)).foliation
            assert (f.rank_ey, f.c1_ey, f.rank_f, f.c1_f) == (2, 1, 2, 1)

    def test_b3_special_row(self):
        f = stability_verdict(TripleSpec(Family.B3_SPECIAL)).foliation
        assert (f.rank_ey, f.c1_ey, f.rank_f, f.c1_f) == (4, 2, 4, 2)

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (4, 3), (5, 5)])
    def test_symplectic_rows(self, n, k):
        f = stability_verdict(TripleSpec(Family.CN, n=n, k=k)).foliation
        assert (f.rank_ey, f.c1_ey, f.rank_f, f.c1_f) == (k, k - 1, k, 1)

    def test_exceptional_rows_have_no_bundle_part(self):
        f4 = stability_verdict(TripleSpec(Family.PAS_F4)).foliation
        assert (f4.rank_f, f4.c1_f, f4.rank_ey, f4.c1_ey) == (8, 0, None, None)
        a1g2 = stability_verdict(TripleSpec(Family.PAS_A1G2)).foliation
        assert (a1g2.rank_f, a1g2.c1_f, a1g2.rank_ey, a1g2.c1_ey) == (3, 0, None, None)


class TestStability:
    def test_f4_horospherical_is_unstable(self):
        r = stability_verdict(TripleSpec(Family.F4_HORO))
        assert (r.mu_f, r.mu_theta) == (Fraction(1, 3), Fraction(6, 23))
        assert r.verdict is Verdict.UNSTABLE

    def test_b3_spinor_is_stable(self):
        r = stability_verdict(TripleSpec(Family.BN_SPINOR, n=3))
        assert (r.mu_f, r.mu_theta) == (Fraction(1, 2), Fraction(5, 9))
        assert r.verdict is Verdict.STABLE

    def test_b4_spinor_is_unstable(self):
        r = stability_verdict(TripleSpec(Family.BN_SPINOR, n=4))
        assert r.mu_f > r.mu_theta
        assert r.verdict is Verdict.UNSTABLE

    def test_a1g2_exceptional_is_stable(self):
        r = stability_verdict(TripleSpec(Family.PAS_A1G2))
        assert (r.mu_f, r.mu_theta) == (Fraction(0), Fraction(3, 4))
        assert r.verdict is Verdict.STABLE

    def test_unstable_set_up_to_twenty(self):
        unstable = {
            t.triple_id
            for t in enumerate_triples(20)
            if stability_verdict(t).verdict is Verdict.UNSTABLE
        }
        expected = {f"Bn:n={n}" for n in range(4, 21)} | {"F4horo"}
        assert unstable == expected

    def test_no_boundary_cases(self):
        for t in enumerate_triples(20):
            assert stability_verdict(t).verdict is not Verdict.STRICTLY_SEMISTABLE_BOUNDARY


class TestOneEvaluationPerTriple:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        uncounted = pasquier.variety_invariants

        def counting(t):
            counts[t] += 1
            return uncounted(t)

        monkeypatch.setattr(pasquier, "variety_invariants", counting)
        return counts

    def test_stability_verdict(self, calls):
        triples = enumerate_triples(12)
        for t in triples:
            stability_verdict(t)
        assert calls == Counter(triples)

    def test_verify(self, calls):
        assert fixtures.verify(12) == []
        assert calls == Counter(enumerate_triples(12))


class TestAmbientDimension:
    def test_g2_drum_spans_both_small_reps(self):
        assert ambient_dimension(TripleSpec(Family.G2_HORO)) == 21

    def test_b3_spinor_drum(self):
        assert ambient_dimension(TripleSpec(Family.BN_SPINOR, n=3)) == 29

    def test_a1g2_octonion_model(self):
        assert ambient_dimension(TripleSpec(Family.PAS_A1G2)) == 14

    def test_f4_exceptional_has_no_drum(self):
        with pytest.raises(ValueError):
            ambient_dimension(TripleSpec(Family.PAS_F4))


class TestReportRecord:
    def test_scalar_row(self):
        rec = report_record(stability_verdict(TripleSpec(Family.F4_HORO)))
        assert rec == {
            "triple": "F4horo",
            "family": "F4horo",
            "n": None,
            "k": None,
            "dim_Y": 20,
            "c1_Y": 5,
            "dim_Z": 20,
            "c1_Z": 7,
            "dim_X": 23,
            "r_X": 6,
            "codim_Z": 3,
            "rank_EY": 3,
            "c1_EY": 2,
            "rank_F": 3,
            "c1_F": 1,
            "mu_F": "1/3",
            "mu_Theta": "6/23",
            "verdict": "Unstable",
        }

    def test_product_row_keeps_weight_label(self):
        rec = report_record(stability_verdict(TripleSpec(Family.PAS_A1G2)))
        assert rec["c1_Z"] == "2w1.1+5w2.2"
        assert rec["mu_Theta"] == "3/4"
        assert rec["rank_EY"] is None

    def test_parameters_survive(self):
        rec = report_record(stability_verdict(TripleSpec(Family.CN, n=4, k=3)))
        assert (rec["n"], rec["k"]) == (4, 3)
        assert rec["triple"] == "Cn:n=4:k=3"
