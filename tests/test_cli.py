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


# (exit status, stdout, stderr) of each short run of the CLI, whole: every
# output short enough to read, and every refusal, which prints one error line
# and exits 2.  Longer outputs are pinned by sha256 in PINNED_STDOUT below
TRANSCRIPTS = {
    ("roots", "G2"): (0, (
        "type: G2\nCartan matrix:\n  [  2  -1]\n  [ -3   2]\npositive roots (simple-root coordinates):\n"
        "  (0,1)\n  (1,0)\n  (1,1)\n  (1,2)\n  (1,3)\n  (2,3)\ncount: 6\n"
    ), ""),
    ("roots", "A1"): (
        0, "type: A1\nCartan matrix:\n  [  2]\npositive roots (simple-root coordinates):\n  (1)\ncount: 1\n", ""
    ),
    ("roots", "E8"): (2, "", "error: unsupported type E8: only A, B, C, F4, G2\n"),
    ("roots", "Q9"): (2, "", "error: unsupported type Q9: only A, B, C, F4, G2\n"),
    ("roots", "B\u00b2"): (2, "", "error: cannot parse factor 'B\u00b2' in type spec 'B\u00b2'\n"),
    ("roots", "A" + HUGE): (2, "", HUGE_ERROR),
    # flag reads the diagram alone, so the rank cap of roots and dim does not
    # hold: the quadrics Q^201 and Q^(2n - 1) at n = 10^20 - 1
    ("flag", "B101", "--mark", "1"): (
        0, "type: B101  marked: 1\ndimension: 201\npicard_rank: 1\nanticanonical: 201w1\nindex: 201\n", ""
    ),
    ("flag", "B99999999999999999999", "--mark", "1"): (0, (
        "type: B99999999999999999999  marked: 1\ndimension: 199999999999999999997\npicard_rank: 1\n"
        "anticanonical: 199999999999999999997w1\nindex: 199999999999999999997\n"
    ), ""),
    ("flag", "F4", "--mark", "1"): (
        0, "type: F4  marked: 1\ndimension: 15\npicard_rank: 1\nanticanonical: 8w1\nindex: 8\n", ""
    ),
    # the nodes in either order print the same bytes, and a Picard rank above 1 no index line
    ("flag", "F4", "--mark", "1,3"): (
        0, "type: F4  marked: 1,3\ndimension: 22\npicard_rank: 2\nanticanonical: 3w1+5w3\n", ""
    ),
    ("flag", "F4", "--mark", "3,1"): (
        0, "type: F4  marked: 1,3\ndimension: 22\npicard_rank: 2\nanticanonical: 3w1+5w3\n", ""
    ),
    ("flag", "B3", "--mark", "1,2,3"): (
        0, "type: B3  marked: 1,2,3\ndimension: 9\npicard_rank: 3\nanticanonical: 2w1+2w2+2w3\n", ""
    ),
    ("flag", "A1xG2", "--mark", "1.1,2.2"): (
        0, "type: A1xG2  marked: 1.1,2.2\ndimension: 6\npicard_rank: 2\nanticanonical: 2w1.1+5w2.2\n", ""
    ),
    ("flag", "A1xG2", "--mark", "2"): (
        2, "", "error: node '2': product types need factor-qualified nodes like 1.1\n"
    ),
    ("flag", "B3", "--mark", "1,1"): (2, "", "error: node '1' is marked twice\n"),
    ("flag", "A1xG2", "--mark", "1.1,1.1"): (2, "", "error: node '1.1' is marked twice\n"),
    ("flag", "B3", "--mark", "\u00b2"): (2, "", "error: node '\u00b2': valid range is 1..3 within B3\n"),
    ("flag", "A1xG2", "--mark", "\u00b2.1"): (
        2, "", "error: node '\u00b2.1': product types need factor-qualified nodes like 1.1\n"
    ),
    ("flag", "A1xG2", "--mark", "1.\u00b2"): (2, "", "error: node '1.\u00b2': valid range is 1..1 within A1\n"),
    ("flag", "B3", "--mark", "4"): (2, "", "error: node '4': valid range is 1..3 within B3\n"),
    ("flag", "A1xG2", "--mark", "3.1"): (2, "", "error: node '3.1': factor out of range 1..2\n"),
    ("flag", "A1xG2", "--mark", "0.1"): (2, "", "error: node '0.1': factor out of range 1..2\n"),
    ("flag", "B3", "--mark", ""): (2, "", "error: node '': valid range is 1..3 within B3\n"),
    ("flag", "B3", "--mark", ","): (2, "", "error: node '': valid range is 1..3 within B3\n"),
    # a rank of 3,001 digits is parsed, but the dimension has about 6,000
    ("flag", "B1" + "0" * 3000, "--mark", "1" + "0" * 2999): (2, "", UNPRINTABLE_ERROR),
    ("flag", "B3", "--mark", HUGE): (2, "", HUGE_ERROR),
    ("flag", "A1xG2", "--mark", HUGE + ".1"): (2, "", HUGE_ERROR),
    ("flag", "A1xG2", "--mark", "1." + HUGE): (2, "", HUGE_ERROR),
    ("flag", "B" + HUGE, "--mark", "1"): (2, "", HUGE_ERROR),
    ("dim", "G2", "0,1"): (0, "7\n", ""),
    ("dim", "F4", "1,1,1,1"): (0, "16777216\n", ""),
    ("dim", "G2", "0,1,0"): (2, "", "error: weight needs 2 coefficients, got 3\n"),
    ("dim", "G2", "0,-1"): (2, "", "error: highest weight must be dominant: (0, -1)\n"),
    # without -- argparse takes -1,0,0 for an option
    ("dim", "C3", "--", "-1,0,0"): (2, "", "error: highest weight must be dominant: (-1, 0, 0)\n"),
    ("dim", "A1", HUGE): (2, "", HUGE_ERROR),
    ("dim", "A2", "1," + HUGE): (2, "", HUGE_ERROR),
    # each coefficient is readable, but the dimension has more than 4,300
    # digits; 10^4299, of 4,300 digits, still prints
    ("dim", "A1", "9" * 4300): (2, "", UNPRINTABLE_ERROR),
    ("dim", "A2", ",".join(["9" * 2500] * 2)): (2, "", UNPRINTABLE_ERROR),
    ("dim", "A1", "9" * 4299): (0, "1" + "0" * 4299 + "\n", ""),
    ("table", "--format", "xml"): (2, "", "error: unknown format 'xml'; valid formats: md, csv, json\n"),
    ("check", "Bn:n=--5"): (2, "", "error: bad triple parameter 'n=--5' in 'Bn:n=--5'\n"),
    ("check", "Bn:n=\u00b2"): (2, "", "error: bad triple parameter 'n=\u00b2' in 'Bn:n=\u00b2'\n"),
    ("check", "En:n=6"): (2, "", (
        "error: unknown triple family 'En'; expected one of: Bn, B3special, Cn, F4horo, G2horo, PasF4, PasA1G2\n"
    )),
    ("check", "Bn:n=" + HUGE): (2, "", HUGE_ERROR),
    # n has 2,201 digits and the denominator of mu_Theta more than 4,300
    ("check", "Bn:n=1" + "0" * 2200): (2, "", UNPRINTABLE_ERROR),
    ("verify", "--max-n", "12"): (0, "bl_h_num: PASS, cf_num: PASS, cf: PASS, stab: PASS\n", ""),
    # Arabic-Indic digits pass str.isdecimal() and int() reads them: the
    # program would answer for an input other than the one it prints back
    ("check", "Bn:n=\u0665"): (2, "", "error: cannot read the integer '\u0665': digits must be ASCII 0-9\n"),
    ("roots", "B\u0663"): (2, "", "error: cannot read the integer '\u0663': digits must be ASCII 0-9\n"),
    ("flag", "B4", "--mark", "\u0662"): (2, "", "error: cannot read the integer '\u0662': digits must be ASCII 0-9\n"),
    ("dim", "B2", "\u0661,0"): (2, "", "error: cannot read the integer '\u0661': digits must be ASCII 0-9\n"),
    ("table", "--max-n", "\u0663"): (2, "", "error: cannot read the integer '\u0663': digits must be ASCII 0-9\n"),
    ("verify", "--max-n", "\u0663"): (2, "", "error: cannot read the integer '\u0663': digits must be ASCII 0-9\n"),
}


def _shown(token):
    """An argv token as a test id shows it: the empty one as '', a long one by its start and length."""
    if not token:
        return "''"
    return token if len(token) <= 40 else f"{token[:10]}...({len(token)} chars)"


@pytest.mark.parametrize("argv", list(TRANSCRIPTS), ids=lambda argv: " ".join(map(_shown, argv)))
def test_transcript(capsys, argv):
    assert run_cli(capsys, *argv) == TRANSCRIPTS[argv]


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


class TestDim:
    def test_leading_minus_needs_double_dash(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "C3", "-1,0,0"])
        assert exc.value.code == 2
        assert "the following arguments are required: weight" in capsys.readouterr().err

    def test_unprintable_dimension_is_refused_before_the_product(self, capsys, monkeypatch):
        # 1,600 factors of about 10,000 bits each: the product alone took over a minute
        def refuse(factors):
            raise AssertionError("took the Weyl product")

        monkeypatch.setattr(rootsys.math, "prod", refuse)
        assert run_cli(capsys, "dim", "C40", ",".join(["9" * 3000] * 40)) == (2, "", UNPRINTABLE_ERROR)


# sha256 of the stdout of the commands that enumerate roots and of the catalog
# in each format, so that a change of order or format fails here: outputs too
# long to read.  Short ones are whole in TRANSCRIPTS, and
# test_known_catalog_members pins `check` row by row
PINNED_STDOUT = {
    ("roots", "F4"): "d45be0caecc2b7f1511ce809ed6c61d1569fe2f2b160f968f8d29d9c602b6874",
    ("roots", "B3xC2"): "85d5e0743d10d461f6db91a6531e3edb8f9209c42922c33633f16a853cfe13d6",
    ("roots", "C12"): "a8664e134a1d252f62c8195a13de119bf71bc46b405d22fbe0f45908042ff47c",
    ("table", "--max-n", "12"): "be5acbf504dcc470bd1dce20f46da729070eeac5fdfef486d53ee717f852df7a",
    ("table", "--max-n", "12", "--format", "csv"): "af38dd68919c1158f2c1e1ca9aa98c664c5136014074dc2127b8a8eae444bb63",
    ("table", "--max-n", "12", "--format", "json"): "b2f7240b34057d313e2a68505fa327760c7863d56fa984c7aaea5babc1022aa4",
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
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--format", "json")
        assert code == 0
        records = json.loads(out)
        expected = [report_record(stability_verdict(t)) for t in enumerate_triples(4)]
        assert records == expected

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
    def test_huge_rank(self, capsys):
        code, out, _ = run_cli(capsys, "check", f"Bn:n={10**30}")
        assert code == 0
        assert f"c1_Z: {2 * 10**30}\n" in out
        assert "verdict: Unstable\n" in out


class TestVerify:
    def test_corrupted_fixture_is_reported(self, capsys, monkeypatch):
        broken = dict(fixtures.BL_H_NUM[fixtures.Family.G2_HORO])
        broken["dim_X"] = lambda n, k: 8
        monkeypatch.setitem(fixtures.BL_H_NUM, fixtures.Family.G2_HORO, broken)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "bl_h_num[G2horo].dim_X: expected 8, actual 7" in out
        assert "bl_h_num: FAIL" in out
        assert "stab: PASS" in out


@pytest.mark.parametrize("command", ["table", "verify"])
@pytest.mark.parametrize(
    "max_n, error",
    [
        (2, "must be at least 3, got 2"),
        (cli.MAX_CATALOG_N + 1, f"must be at most {cli.MAX_CATALOG_N}, got {cli.MAX_CATALOG_N + 1}"),
        (10**6, f"must be at most {cli.MAX_CATALOG_N}, got {10**6}"),
        # int() reads each of these as 12: only ASCII decimal digits are read
        ("+12", "must be a decimal integer, got '+12'"),
        (" 12 ", "must be a decimal integer, got ' 12 '"),
        ("1_2", "must be a decimal integer, got '1_2'"),
    ],
    ids=["2", str(cli.MAX_CATALOG_N + 1), str(10**6), "plus-sign", "spaces", "underscore"],
)
def test_catalog_bound_is_refused(capsys, monkeypatch, command, max_n, error):
    # fail at once, not after hours, if the catalog is started past the cap;
    # below 3 the refusal is the CLI's own, not enumerate_triples'
    monkeypatch.setattr(cli.pasquier, "enumerate_triples", None)
    monkeypatch.setattr(fixtures, "verify", None)
    assert run_cli(capsys, command, "--max-n", str(max_n)) == (2, "", f"error: --max-n {error}\n")


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
