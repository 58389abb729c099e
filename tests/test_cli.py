import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twoorbit
from twoorbit import cli, fixtures, rootsys
from twoorbit.cli import main
from twoorbit.pasquier import RECORD_FIELDS, Family, enumerate_triples, report_record, stability_verdict
from twoorbit.rootsys import node_labels
from strategies import dynkin_products


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# an integer of 5,001 digits, past Python's default int/str limit of 4,300, and
# the one error line each command gives for it
HUGE = "1" + "0" * 5000
HUGE_ERROR = "error: cannot read the integer 1000000000...: it has 5001 digits, more than the limit of 4300\n"
UNPRINTABLE_ERROR = "error: cannot print the result: it has an integer of more than 4300 digits\n"


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

    def test_rank_past_int_digit_limit(self, capsys):
        assert run_cli(capsys, "roots", "A" + HUGE) == (2, "", HUGE_ERROR)


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

    @pytest.mark.parametrize(
        "spec,weight",
        [("C60", "x"), ("C60", "1,1"), ("G2", "1_0,1"), ("C60", ",".join(["-1"] + ["1"] * 59))],
    )
    def test_dim_checks_weight_before_building(self, capsys, no_build, spec, weight):
        code, out, err = run_cli(capsys, "dim", spec, "--", weight)
        assert code == 2
        assert out == ""
        assert "invalid literal" not in err

    def test_cap_is_inclusive(self, capsys, no_build):
        with pytest.raises(AssertionError, match="built a root system for A100"):
            run_cli(capsys, "roots", "A100")

    def test_flag_is_not_capped(self, capsys):
        code, out, _ = run_cli(capsys, "flag", "B101", "--mark", "1")
        assert code == 0
        assert "dimension: 201" in out  # the quadric Q^201

    def test_huge_rank(self, capsys):
        n = 99999999999999999999
        code, out, _ = run_cli(capsys, "flag", f"B{n}", "--mark", "1")
        assert code == 0
        assert f"dimension: {2 * n - 1}\n" in out  # the quadric Q^(2n-1)
        assert f"index: {2 * n - 1}\n" in out


class TestCatalogEnumeratesNoRoots:
    """The catalog commands and flag work from the Dynkin diagram alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--max-n", "12"),
            ("verify", "--max-n", "12"),
            ("check", "PasA1G2"),
            ("check", "Bn:n=20000"),
            ("flag", "B60", "--mark", "30"),
        ],
    )
    def test_no_closure(self, capsys, monkeypatch, argv):
        def refuse(cartan):
            raise AssertionError("enumerated the roots of a Cartan matrix")

        monkeypatch.setattr(rootsys, "closure_from_cartan", refuse)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0


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

    @pytest.mark.parametrize("mark", ["3.1", "0.1"])
    def test_factor_out_of_range(self, capsys, mark):
        expected = (2, "", f"error: node '{mark}': factor out of range 1..2\n")
        assert run_cli(capsys, "flag", "A1xG2", "--mark", mark) == expected

    @pytest.mark.parametrize("mark", ["", ","])
    def test_empty_node(self, capsys, mark):
        expected = (2, "", "error: node '': valid range is 1..3 within B3\n")
        assert run_cli(capsys, "flag", "B3", "--mark", mark) == expected

    def test_dimension_past_int_digit_limit(self, capsys):
        # a rank of 3,001 digits is parsed, but the dimension has about 6,000
        code, out, err = run_cli(capsys, "flag", "B1" + "0" * 3000, "--mark", "1" + "0" * 2999)
        assert code == 2
        assert out == ""
        assert err == UNPRINTABLE_ERROR

    def test_wide_product_every_node_marked(self, capsys):
        # 16,000 factors: labels, the per-factor walk and the repeat check stay linear
        n = 16000
        mark = ",".join(f"{i}.1" for i in range(1, n + 1))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "flag", "x".join(["A1"] * n), "--mark", mark)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert f"dimension: {n}\npicard_rank: {n}\n" in out
        assert "anticanonical: 2w1.1+2w2.1+" in out and out.endswith(f"+2w{n}.1\n")
        assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f} s"

    @pytest.mark.parametrize(
        "spec,mark",
        [("B3", HUGE), ("A1xG2", HUGE + ".1"), ("A1xG2", "1." + HUGE), ("B" + HUGE, "1")],
        ids=["node", "factor", "factor-node", "rank"],
    )
    def test_input_past_int_digit_limit(self, capsys, spec, mark):
        assert run_cli(capsys, "flag", spec, "--mark", mark) == (2, "", HUGE_ERROR)


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

    def test_leading_minus_needs_double_dash(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "C3", "-1,0,0"])
        assert exc.value.code == 2
        assert "the following arguments are required: weight" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "dim", "C3", "--", "-1,0,0")
        assert code == 2
        assert out == ""
        assert "highest weight must be dominant" in err
        assert err == "error: highest weight must be dominant: (-1, 0, 0)\n"

    @pytest.mark.parametrize("spec,weight", [("A1", HUGE), ("A2", "1," + HUGE)], ids=["A1", "A2"])
    def test_weight_past_int_digit_limit(self, capsys, spec, weight):
        assert run_cli(capsys, "dim", spec, weight) == (2, "", HUGE_ERROR)

    @pytest.mark.parametrize(
        "spec,weight", [("A1", "9" * 4300), ("A2", ",".join(["9" * 2500] * 2))], ids=["A1", "A2"]
    )
    def test_dimension_past_int_digit_limit(self, capsys, spec, weight):
        # each coefficient is readable, but the dimension has more than 4,300 digits
        assert run_cli(capsys, "dim", spec, weight) == (2, "", UNPRINTABLE_ERROR)

    def test_dimension_at_int_digit_limit_prints(self, capsys):
        # the early refusal takes only what cannot print: 10**4299 has 4,300 digits
        assert run_cli(capsys, "dim", "A1", "9" * 4299) == (0, "1" + "0" * 4299 + "\n", "")

    def test_unprintable_dimension_is_refused_before_the_product(self, capsys, monkeypatch):
        # 1,600 factors of about 10,000 bits each: the product alone took over a minute
        def refuse(factors):
            raise AssertionError("took the Weyl product")

        monkeypatch.setattr(rootsys.math, "prod", refuse)
        assert run_cli(capsys, "dim", "C40", ",".join(["9" * 3000] * 40)) == (2, "", UNPRINTABLE_ERROR)


# sha256 of the stdout of the commands that enumerate roots, of the catalog
# in each format and of verify, check and flag, so that a change of order or
# format fails here
PINNED_STDOUT = {
    ("roots", "G2"): "4e1cefd6fc6fcd8ac83e75daf9d469ae32627cfff533c3f15a40daefd2b46e44",
    ("roots", "F4"): "d45be0caecc2b7f1511ce809ed6c61d1569fe2f2b160f968f8d29d9c602b6874",
    ("roots", "B3xC2"): "85d5e0743d10d461f6db91a6531e3edb8f9209c42922c33633f16a853cfe13d6",
    ("roots", "C12"): "a8664e134a1d252f62c8195a13de119bf71bc46b405d22fbe0f45908042ff47c",
    ("dim", "F4", "1,1,1,1"): "1c717f8a059be27832853ed4d506f3c7ab305023703aefda2b2272606e13ee01",
    ("table", "--max-n", "12"): "be5acbf504dcc470bd1dce20f46da729070eeac5fdfef486d53ee717f852df7a",
    ("table", "--max-n", "12", "--format", "csv"): "af38dd68919c1158f2c1e1ca9aa98c664c5136014074dc2127b8a8eae444bb63",
    ("table", "--max-n", "12", "--format", "json"): "b2f7240b34057d313e2a68505fa327760c7863d56fa984c7aaea5babc1022aa4",
    ("verify", "--max-n", "12"): "847dae72c9cfa943480e49a78d56064da0ed7731dc50b70be3e643fca2719dd5",
    ("check", "PasA1G2"): "bd1c51753ea4e01bb74b43e72ad2488f8db91af118568b648966701c1cef44e9",
    ("check", "PasF4"): "b87369a7265f3baa5622fe84c14daf48821bf5723c21ef672065f2863cfba904",
    ("check", "Bn:n=3"): "d4538ab9a33864e404b2b53c9a734c6315d524f153e3024cc81e56364fe2d47d",
    ("check", "Bn:n=5"): "03ab8c1d3ebd541220dc93ba446d8a634ccad2fb162db768c5ec6af10a50a767",
    ("check", "Cn:n=4:k=3"): "c2f9c6f82d803ed55918d6c0a262e6f302579d47f7d43575138c823d9eaa075e",
    ("check", "Bn:n=20000"): "f1468cf7d2a32508ef6eec2b0278d981fc6b4b2c5e472d3b885b0eb0ebe31fab",
    ("check", "Cn:n=3000:k=1500"): "0e5c8b0dc515abafc4a4c2c988e9c6ac260984f77f5b0fd1505e3d2d5727ad4d",
    ("check", "F4horo"): "96ca31986ae4716aa43a4435415b45a1ba74242ef88d0198552e02f58823305a",
    ("check", "G2horo"): "5b25634ffd9831a84017cbe31527b91d293b9024b5519ed08e5fd39745d8ca84",
    ("check", "B3special"): "342d1b63cdb6e117f30a314c2c01d953681e2c7325a92572c8b193170c3f712f",
    ("flag", "F4", "--mark", "1,3"): "642c4789f4d5c329f6fb2aa71398ed615ba58e4cd5182d5937ccb7baacacddb9",
    # the nodes in any order print the same bytes
    ("flag", "F4", "--mark", "3,1"): "642c4789f4d5c329f6fb2aa71398ed615ba58e4cd5182d5937ccb7baacacddb9",
    ("flag", "A1xG2", "--mark", "1.1,2.2"): "c1ea77713fa52b72deb20e40d5abb9e8aa547b4502afdc5d625f8d932f93c488",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_enumeration_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


# (exit status, the stream written, sha256 of what it holds) of --help and of
# usage errors, recorded with the argparse of Python 3.11 at COLUMNS=80 from
# the parser the grammar had before it became one table: the other stream is
# empty.  Other Python versions word and wrap some of these lines differently
ARGPARSE_PINS = {
    ("--help",): (0, "out", "01557827b84888eeadf3a50445a27ed4cbfaec38c12452af65c2558eb0268e30"),
    ("roots", "--help"): (0, "out", "a174bf606702cfb101cc491bc8718be12d73e708f5db8bad24374445b0a9ec15"),
    ("flag", "--help"): (0, "out", "66cb9aebb9e0a78d63c98a0b953891c081052c72d88dcc66c9680bb764ef732d"),
    ("dim", "--help"): (0, "out", "72eca3f197d888bd040991511d596ff773a8d8ab72d4805d4d75a63cf61f0e63"),
    ("table", "--help"): (0, "out", "e3010ac688d2a629b98b2d996f234d3324808891f1478f6beea4fffe09121889"),
    ("check", "--help"): (0, "out", "d242ed8b3fad51667c990b5fdf9c58ac463d552facca2ef5cda3964aa9f913de"),
    ("verify", "--help"): (0, "out", "679e3794fe080a3a2486530d5791e89415fbb812a11d0efa6704abceead6f9df"),
    ("flag", "B3"): (2, "err", "84a8bd64cff66d114f11a588b093402c71b9d1a4765f4ea98b89d4ae8a570f13"),
    ("flag", "B3", "--mark"): (2, "err", "5e62fbb4c4ed4ff9ddcd89f101d90971e469ce68f4b0c2f5fe3ebfdb683b86ca"),
    ("table", "--max-n"): (2, "err", "52ac8d46db8d438b6ab14eb377e8f4b7cac08599fcd05758d6a5c7adbf11ca16"),
    ("dim", "C3", "-1,0,0"): (2, "err", "b9bb1fb0d8acb708c05289178b430b173a13fdca135c73572d3a9c5cf98dd6db"),
    ("roots", "B3", "C3"): (2, "err", "0f615fbe7b690a25efd7b8b78df5fc4d2f44c34e3532241615fdec7d6b72c931"),
    ("bogus",): (2, "err", "6edb0b6d2706e6269552c8c2165768134c2a724c7986fe447b4aea78cc736d0b"),
    (): (2, "err", "3d3b72ff6cfe80a653768dc994c72e2d4a6cd131bcbd5059da55bee1f1707971"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned with the argparse of Python 3.11")
@pytest.mark.parametrize("argv", list(ARGPARSE_PINS), ids=lambda argv: " ".join(argv) or "no-arguments")
def test_argparse_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    status, stream, digest = ARGPARSE_PINS[argv]
    written = capsys.readouterr()._asdict()  # {"out": stdout, "err": stderr}
    assert exc.value.code == status
    assert hashlib.sha256(written.pop(stream).encode()).hexdigest() == digest
    assert list(written.values()) == [""]  # the other stream


# the directory that holds the twoorbit package, for child processes
SRC = str(Path(twoorbit.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-n", "12"),
        ("table", "--max-n", "12", "--format", "csv"),
        ("table", "--max-n", "12", "--format", "json"),
        ("roots", "C12"),
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("unbuffered", [True, False], ids=["PYTHONUNBUFFERED=1", "buffered"])
def test_real_stdout_is_pinned(argv, unbuffered):
    # capsys above replaces sys.stdout; here the bytes go through the real
    # stream into a pipe, written through at once or buffered
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "twoorbit.cli", *argv], capture_output=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_STDOUT[argv]


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# at most one write call per block of 1,024 lines: the md table at n <= 100
# has 5,056 lines and roots C40 1,644
@pytest.mark.parametrize(
    "argv,most",
    [
        (("table", "--max-n", "100"), 6),
        (("table", "--max-n", "100", "--format", "csv"), 6),
        (("roots", "C40"), 3),
    ],
    ids=["table md", "table csv", "roots C40"],
)
def test_output_is_written_in_blocks(monkeypatch, argv, most):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    assert stdout.getvalue().count("\n") > 1600
    assert stdout.writes <= most


# the benchmark's correctness gate: each command's stdout, by size and sha256
BENCH_REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)


@pytest.mark.parametrize("command", list(BENCH_REFERENCES))
def test_benchmark_references_replay(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    data = out.encode()
    expected = BENCH_REFERENCES[command]
    assert (len(data), hashlib.sha256(data).hexdigest()) == (expected["bytes"], expected["sha256"])


def _argparse_args(argv):
    """vars() of the namespace build_parser() reads from `argv`, or its exit status if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("command", list(BENCH_REFERENCES))
def test_benchmark_commands_are_plain(command):
    # every command the benchmark times skips argparse, and reads as argparse reads it
    args = cli._plain_args(command.split())
    assert args is not None
    assert vars(args) == _argparse_args(command.split())


@pytest.mark.parametrize("argv", [
    ["table", "--max", "5"], ["flag", "B3", "--mark=1"], ["verify", "--max-n", "5", "--max-n", "6"],
    ["dim", "C3", "--", "-1,0,0"], ["check", "-h"], ["roots", "B3", "C3"], ["flag", "B3"], ["bogus"], [],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_unusual_argv_is_left_to_argparse(argv):
    assert cli._plain_args(argv) is None


# argument tokens that argparse reads and the plain reader refuses, mixed with
# plain ones: full and abbreviated option names, --opt=value, -h, --, values
# that start with -, the empty string and ordinary values
VALUES = ["", "B3", "C3", "1", "1,0,0", "5", "csv", "x=y", "Bn:n=5"]
ARGV_TOKENS = VALUES + [
    *cli._COMMANDS, "bogus", "--mark", "--max-n", "--format", "--ma", "--max", "--form", "--m",
    "--mark=1", "--max-n=5", "--format=csv", "-h", "--help", "--", "-", "-1,0", "-1",
]


@st.composite
def near_plain_argv(draw):
    """A plain argv of a command, options in any place and each given or not, with up to two tokens edited."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, positionals, options = cli._COMMANDS[command]
    argv = [[draw(st.sampled_from(VALUES))] for _ in positionals]
    for flag in options:
        if draw(st.booleans()):
            argv.insert(draw(st.integers(0, len(argv))), [flag, draw(st.sampled_from(VALUES))])
    argv = [command, *(token for group in argv for token in group)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit != "insert":
            del argv[at:at + 1]
        if edit != "delete":
            argv.insert(at, draw(st.sampled_from(ARGV_TOKENS)))
    return argv


@settings(max_examples=400)
@given(near_plain_argv())
@example(["flag", "--mark", "1", "B3"])
@example(["table", "--max-n", "5", "--max-n", "6"])
@example(["table", "--format", "csv", "--max-n", "5"])
def test_plain_args_read_as_argparse_does(argv):
    # whenever the plain reader takes an argv, it reads what argparse reads
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == _argparse_args(argv)


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

    def test_no_cell_holds_a_comma(self):
        # csv joins a row's cells with commas and md splits that line again.
        # The catalog at n <= 30 holds every family, PasA1G2 with its two-term
        # weight label for c1_Z
        rows = [RECORD_FIELDS, *(cli._cells(stability_verdict(t)) for t in enumerate_triples(30))]
        assert {row[1] for row in rows[1:]} == {f.value for f in Family}
        assert [cell for row in rows for cell in row if "," in cell] == []

    def test_md_keeps_lines_not_lists_of_cells(self, monkeypatch):
        # on Python 3.11 the peak is about 1.3 MB.  tracemalloc slows the run
        # about sixfold, hence n = 100
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                assert main(["table", "--max-n", "100"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 * 2**20, f"md table at --max-n 100 peaked at {peak / 2**20:.1f} MB"


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

    def test_huge_rank(self, capsys):
        code, out, _ = run_cli(capsys, "check", f"Bn:n={10**30}")
        assert code == 0
        assert f"c1_Z: {2 * 10**30}\n" in out
        assert "verdict: Unstable\n" in out

    def test_slope_past_int_digit_limit(self, capsys):
        # n has 2,201 digits and the denominator of mu_Theta more than 4,300
        code, out, err = run_cli(capsys, "check", "Bn:n=1" + "0" * 2200)
        assert code == 2
        assert out == ""
        assert err == UNPRINTABLE_ERROR

    def test_parameter_past_int_digit_limit(self, capsys):
        assert run_cli(capsys, "check", "Bn:n=" + HUGE) == (2, "", HUGE_ERROR)

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


@pytest.mark.parametrize("command", ["table", "verify"])
@pytest.mark.parametrize(
    "max_n, error",
    [
        (cli.MAX_CATALOG_N + 1, f"must be at most {cli.MAX_CATALOG_N}, got {cli.MAX_CATALOG_N + 1}"),
        (10**6, f"must be at most {cli.MAX_CATALOG_N}, got {10**6}"),
        # int() reads each of these as 12: only ASCII decimal digits are read
        ("+12", "must be a decimal integer, got '+12'"),
        (" 12 ", "must be a decimal integer, got ' 12 '"),
        ("1_2", "must be a decimal integer, got '1_2'"),
    ],
    ids=[str(cli.MAX_CATALOG_N + 1), str(10**6), "plus-sign", "spaces", "underscore"],
)
def test_catalog_bound_is_refused(capsys, monkeypatch, command, max_n, error):
    # fail at once, not after hours, if the catalog is started past the cap
    monkeypatch.setattr(cli.pasquier, "enumerate_triples", None)
    monkeypatch.setattr(fixtures, "verify", None)
    assert run_cli(capsys, command, "--max-n", str(max_n)) == (2, "", f"error: --max-n {error}\n")


@pytest.mark.parametrize(
    "argv,digits",
    [
        (["check", "Bn:n=\u0665"], "'\u0665'"),
        (["roots", "B\u0663"], "'\u0663'"),
        (["flag", "B4", "--mark", "\u0662"], "'\u0662'"),
        (["dim", "B2", "\u0661,0"], "'\u0661'"),
        (["table", "--max-n", "\u0663"], "'\u0663'"),
        (["verify", "--max-n", "\u0663"], "'\u0663'"),
    ],
    ids=["triple-id", "type-spec", "node-list", "weight", "table-max-n", "verify-max-n"],
)
def test_non_ascii_digits_are_refused(capsys, argv, digits):
    # Arabic-Indic digits pass str.isdecimal() and int() reads them: the
    # program would answer for an input other than the one it prints back
    error = f"error: cannot read the integer {digits}: digits must be ASCII 0-9\n"
    assert run_cli(capsys, *argv) == (2, "", error)


def test_a_refusal_from_any_library_call_exits_two(capsys, monkeypatch):
    # flag does not check the nodes it gives flag_invariants: main reports
    # flag_invariants' own ValueError as it reports the parser's
    monkeypatch.setattr(cli, "parse_nodes", lambda dynkin, text: [2, 0])
    expected = (2, "", "error: marked nodes [2, 0] must be nonempty and strictly increasing\n")
    assert run_cli(capsys, "flag", "B3", "--mark", "1") == expected


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_propagates_exit_status(monkeypatch):
    monkeypatch.setattr("sys.argv", ["twoorbit", "dim", "A1", "1"])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        # the rest of the session collects as before
        gc.unfreeze()


def test_run_freezes_the_heap_before_atexit(capsys, monkeypatch):
    # run() leaves the exit-time collection nothing to walk, yet atexit
    # handlers still run, and the exit status, stdout and stderr are main()'s;
    # a usage error and --help end in argparse's SystemExit and freeze too
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
    for argv in (["table", "--max-n", "12", "--format", "csv"], ["roots"], ["--help"]):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        out, err = capsys.readouterr()
        code = (
            "import atexit, gc, sys; from twoorbit import cli;"
            " atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count() > 0}'));"
            f" sys.argv = ['twoorbit', *{argv!r}]; cli.run()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60
        )
        assert (proc.returncode, proc.stderr) == (status, err.encode() + b"frozen=True"), argv
        assert proc.stdout == out.encode(), argv
    assert status == 0 and out.startswith("usage: twoorbit")


def _read_then_close(argv, lines):
    """Run `twoorbit argv`, read `lines` lines and close stdout, as `| head -<lines>` does.

    Returns (the lines read, the exit status, stderr, the seconds it took).  The
    child may map 1 GB, so a command that builds its whole output first fails
    fast instead of filling the machine's memory.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "twoorbit.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    return read, code, err, time.perf_counter() - start


def test_closed_stdout_exits_141_quietly():
    # what `twoorbit table --max-n 60 | head -1` does: the reader leaves after one line
    (line,), code, err, _ = _read_then_close(["table", "--max-n", "60"], 1)
    assert line.startswith(b"| triple")
    assert code == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv,lines,first",
    [
        (["table", "--max-n", "300", "--format", "json"], 1, b"[\n"),
        # about 5*10^5 triples at the cap: a table that renders every row
        # before it prints one misses the budget.  That enumerate_triples is
        # lazy is checked in test_pasquier, past the cap
        (["table", "--max-n", str(cli.MAX_CATALOG_N), "--format", "csv"], 3, b"triple,family,"),
    ],
    ids=["json", "csv-huge"],
)
def test_streamed_table_closed_early(argv, lines, first):
    read, code, err, elapsed = _read_then_close(argv, lines)
    assert read[0].startswith(first) and all(read)
    assert (code, err) == (141, b"")
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f} s"


# argument lists from the command grammar, real and bad.  roots and dim get a
# real type of rank at most 12 or a bad one, which is refused before any root
# is enumerated; flag also gets types of huge rank
BAD_TYPES = ["E8", "Q9", "A0", "B1", "G3", "F4x", "xA1", "B\u00b2", "", "A101", "C500xG2", "A" + HUGE]
HUGE_TYPES = ["B101", f"C{10**20}", "A1x" * 50 + "G2", "B1" + "0" * 3000]
BAD_NODES = ["", "0", "99", "0.1", "3.1", "1.", ".1", "1.1.1", "x", "\u00b2", HUGE, "-1"]
BAD_COEFFICIENTS = ["", "x", "-1", "--1", "1_0", "\u00b2", "9" * 4400, "9" * 3000]
TRIPLE_IDS = [t.triple_id for t in enumerate_triples(6)] + [
    "", "Bn", "bn:N=3", "Bn:n=2", "Cn:n=4:k=9", "Cn:n=4:k=3:k=3", "En:n=6", "PasF4:n=3", "Bn:n=--5",
    "Bn:n=" + HUGE, "Bn:n=1" + "0" * 2200,
]
MAX_N = ["3", "4", "5", "6", "2", "1001", str(10**6), "x"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["roots", "flag", "dim", "table", "check", "verify"]))
    if command in ("table", "verify"):
        argv = [command]
        if draw(st.booleans()):
            argv += ["--max-n", draw(st.sampled_from(MAX_N))]
        if command == "table" and draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["md", "csv", "json", "xml", ""]))]
        return argv
    if command == "check":
        return [command, draw(st.sampled_from(TRIPLE_IDS))]
    dynkin = draw(st.one_of(dynkin_products(), st.none()))
    if dynkin is None:
        spec, rank = draw(st.sampled_from(BAD_TYPES + (HUGE_TYPES if command == "flag" else []))), 2
        labels = ["1", "2", "1.1"]
    else:
        spec, rank, labels = str(dynkin), dynkin.rank, node_labels(dynkin, range(dynkin.rank))
    if command == "roots":
        return [command, spec]
    if command == "flag":
        nodes = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4))
        if draw(st.booleans()):
            nodes.append(draw(st.sampled_from(BAD_NODES)))
        return [command, spec, "--mark", ",".join(nodes)]
    size = rank + draw(st.sampled_from([0, 0, 0, -1, 1]))
    weight = [str(c) for c in draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))]
    if weight and draw(st.booleans()):
        weight[draw(st.integers(0, len(weight) - 1))] = draw(st.sampled_from(BAD_COEFFICIENTS))
    # without -- a weight that starts with - is an unknown option
    return [command, spec, *draw(st.sampled_from([["--"], []])), ",".join(weight)]


@settings(max_examples=200)
@given(cli_argv())
def test_main_returns_a_status_or_argparse_exits_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code == 2:
        # a refusal prints nothing but its one error line
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv
