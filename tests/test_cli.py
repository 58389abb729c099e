import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoorbit
from twoorbit import cli, fixtures
from twoorbit.cli import RECORD_FIELDS, main
from twoorbit.pasquier import enumerate_triples, report_record, stability_verdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRoots:
    def test_g2(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "G2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "type: G2"
        assert "  (1,0)" in lines and "  (2,3)" in lines
        assert lines[-1] == "count: 6"

    def test_a1(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "A1")
        assert code == 0
        assert "  (1)" in out.splitlines()
        assert "count: 1" in out

    def test_unsupported_type_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "roots", "E8")
        assert code == 2
        assert "unsupported type E8" in err

    def test_garbage_type(self, capsys):
        code, _, err = run_cli(capsys, "roots", "Q9")
        assert code == 2
        assert "Q9" in err

    def test_non_decimal_rank(self, capsys):
        code, _, err = run_cli(capsys, "roots", "B\u00b2")
        assert code == 2
        assert "cannot parse factor" in err


class TestRankCap:
    """roots and dim enumerate every root, so they refuse a rank above the cap before building."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(dynkin):
            raise AssertionError(f"built a root system for {dynkin}")

        monkeypatch.setattr(cli, "build_root_system", refuse)

    @pytest.mark.parametrize("argv", [("roots", "A101"), ("dim", "A101", ",".join(["1"] * 101))])
    def test_above_cap_exits_two_at_once(self, capsys, no_build, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "A101 has rank 101, above the limit of 100" in err

    def test_cap_is_inclusive(self, capsys, no_build):
        with pytest.raises(AssertionError, match="built a root system for A100"):
            run_cli(capsys, "roots", "A100")

    def test_flag_is_not_capped(self, capsys):
        code, out, _ = run_cli(capsys, "flag", "B101", "--mark", "1")
        assert code == 0
        assert "dimension: 201" in out  # the quadric Q^201


class TestFlag:
    def test_f4_adjoint(self, capsys):
        code, out, _ = run_cli(capsys, "flag", "F4", "--mark", "1")
        assert code == 0
        assert "dimension: 15" in out
        assert "picard_rank: 1" in out
        assert "anticanonical: 8w1" in out
        assert "index: 8" in out

    def test_f4_two_step(self, capsys):
        code, out, _ = run_cli(capsys, "flag", "F4", "--mark", "1,3")
        assert code == 0
        assert "dimension: 22" in out
        assert "anticanonical: 3w1+5w3" in out
        assert "index:" not in out

    def test_b3_complete_flag(self, capsys):
        code, out, _ = run_cli(capsys, "flag", "B3", "--mark", "1,2,3")
        assert code == 0
        assert "dimension: 9" in out
        assert "anticanonical: 2w1+2w2+2w3" in out

    def test_product_marking(self, capsys):
        code, out, _ = run_cli(capsys, "flag", "A1xG2", "--mark", "1.1,2.2")
        assert code == 0
        assert "dimension: 6" in out
        assert "anticanonical: 2w1.1+5w2.2" in out

    def test_product_needs_qualified_nodes(self, capsys):
        code, _, err = run_cli(capsys, "flag", "A1xG2", "--mark", "2")
        assert code == 2
        assert "factor-qualified" in err

    @pytest.mark.parametrize("spec,mark", [("B3", "1,1"), ("A1xG2", "1.1,1.1")])
    def test_repeated_node(self, capsys, spec, mark):
        code, _, err = run_cli(capsys, "flag", spec, "--mark", mark)
        assert code == 2
        assert "marked twice" in err

    @pytest.mark.parametrize("spec,mark", [("B3", "\u00b2"), ("A1xG2", "\u00b2.1"), ("A1xG2", "1.\u00b2")])
    def test_non_decimal_node(self, capsys, spec, mark):
        code, _, err = run_cli(capsys, "flag", spec, "--mark", mark)
        assert code == 2
        assert err.startswith("error: node") and "Traceback" not in err

    def test_node_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "flag", "B3", "--mark", "4")
        assert code == 2
        assert "1..3" in err


class TestDim:
    def test_g2_seven_dim_rep(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "G2", "0,1")
        assert code == 0
        assert out.strip() == "7"

    def test_wrong_length(self, capsys):
        code, _, err = run_cli(capsys, "dim", "G2", "0,1,0")
        assert code == 2
        assert "2 coefficients" in err

    def test_non_dominant(self, capsys):
        code, _, err = run_cli(capsys, "dim", "G2", "0,-1")
        assert code == 2
        assert "dominant" in err


class TestTable:
    def test_csv_at_three(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(RECORD_FIELDS)
        assert len(lines) == 10
        joined = "\n".join(lines)
        assert "1/3,6/23,Unstable" in joined
        assert "1/2,4/7,Stable" in joined

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--format", "json")
        assert code == 0
        records = json.loads(out)
        expected = [report_record(stability_verdict(t)) for t in enumerate_triples(4)]
        assert records == expected

    def test_md_has_header_rule(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| triple")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 11

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "csv")
        _, second, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "csv")
        assert first == second

    def test_bad_format(self, capsys):
        code, _, err = run_cli(capsys, "table", "--format", "xml")
        assert code == 2
        assert "xml" in err

    def test_bad_bound(self, capsys):
        code, _, err = run_cli(capsys, "table", "--max-n", "2")
        assert code == 2
        assert "at least 3" in err


class TestCheck:
    def test_single_triple(self, capsys):
        code, out, _ = run_cli(capsys, "check", "Cn:n=4:k=3")
        assert code == 0
        got = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert list(got) == list(RECORD_FIELDS)
        assert got["dim_X"] == "15"
        assert got["mu_F"] == "1/3"
        assert got["verdict"] == "Stable"

    def test_exceptional_triple(self, capsys):
        code, out, _ = run_cli(capsys, "check", "PasA1G2")
        assert code == 0
        assert "c1_Z: 2w1.1+5w2.2" in out
        assert "rank_EY: \n" in out

    @pytest.mark.parametrize("triple_id", ["Bn:n=--5", "Bn:n=\u00b2"])
    def test_bad_parameter(self, capsys, triple_id):
        code, out, err = run_cli(capsys, "check", triple_id)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "invalid literal" not in err

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "check", "En:n=6")
        assert code == 2
        assert "unknown triple family" in err


class TestVerify:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "8")
        assert code == 0
        assert out.strip() == "bl_h_num: PASS, cf_num: PASS, cf: PASS, stab: PASS"

    def test_corrupted_fixture_is_reported(self, capsys, monkeypatch):
        broken = dict(fixtures.BL_H_NUM[fixtures.Family.G2_HORO])
        broken["dim_X"] = lambda n, k: 8
        monkeypatch.setitem(fixtures.BL_H_NUM, fixtures.Family.G2_HORO, broken)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "bl_h_num[G2horo].dim_X: expected 8, actual 7" in out
        assert "bl_h_num: FAIL" in out
        assert "stab: PASS" in out

    def test_bad_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "2")
        assert code == 2
        assert "at least 3" in err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_propagates_exit_status(monkeypatch):
    monkeypatch.setattr("sys.argv", ["twoorbit", "dim", "A1", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0


def test_closed_stdout_exits_141_quietly():
    # what `twoorbit table --max-n 60 | head -1` does: the reader leaves after one line
    src = str(Path(twoorbit.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "twoorbit.cli", "table", "--max-n", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline().startswith(b"| triple")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
