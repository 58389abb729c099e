"""Command-line front end.

The commands and their arguments are in _COMMANDS.  Exit status is 0 on
success, 1 on a verification mismatch, 2 on usage or parse errors, 141 when
stdout is closed before all of the output is written.

Every ValueError the library raises is a refused input: whichever command made
the call, `main` reports it as one "error:" line on stderr and exit 2.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import sys
import types

# pasquier and fixtures load lazily (see __init__): read their names at call
# time, never from-import them, or every command pays for loading them
from . import fixtures, pasquier
from .flagvar import flag_invariants
from .rootsys import (
    DynkinType,
    build_root_system,
    check_highest_weight,
    node_labels,
    parse_decimal,
    parse_nodes,
    weight_label,
    weyl_dim,
)

FORMATS = ("md", "csv", "json")
# roots and dim enumerate every positive root: on a 2-vCPU Xeon VM at this cap
# `roots C100` takes about 0.17 s and `dim C100 1,...,1` about 0.2 s, start-up
# included; flag uses the diagram path and has no cap
MAX_ENUMERATION_RANK = 100
# --max-n cap of table and verify, about 500,000 triples.  md `table` holds
# every row before it prints, so the cap bounds its memory, and it bounds the
# run time of every format; README gives both at the cap
MAX_CATALOG_N = 1000
# lines per sys.stdout.write call.  With PYTHONUNBUFFERED set each print() is
# two write(2) calls and a block is one.  The cap bounds the memory a block
# holds: about 170 KB of the md table at --max-n 100
_BLOCK_LINES = 1024
# rows of cells md holds at once while it widens its columns.  At --max-n 100
# the tracemalloc peak of md `table` is about the same for 128 and 256 and
# twice as high for 1024
_WIDTH_BATCH = 256


@contextlib.contextmanager
def _printable():
    """Render output in this block, refusing an integer past Python's int-to-str digit limit.

    Output is printed only after the block, so a refused result prints nothing.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(
            f"cannot print the result: it has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _write_lines(lines) -> None:
    """Write each string of `lines` and a newline to stdout, one write call per block of lines."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        block.append("")
        sys.stdout.write("\n".join(block))


def _catalog_bound(text: str) -> int:
    """The --max-n of table and verify, read as ASCII decimal digits, refused below 3 or above MAX_CATALOG_N."""
    if not text.removeprefix("-").isdecimal():
        raise ValueError(f"--max-n must be a decimal integer, got {text!r}")
    max_n = parse_decimal(text)
    if max_n < 3:
        raise ValueError(f"--max-n must be at least 3, got {max_n}")
    if max_n > MAX_CATALOG_N:
        raise ValueError(f"--max-n must be at most {MAX_CATALOG_N}, got {max_n}")
    return max_n


def _cells(report) -> list[str]:
    """The text of each value of `pasquier.report_row(report)`: "" for None, str() for the rest."""
    return ["" if v is None else str(v) for v in pasquier.report_row(report)]


def _enumerable_type(spec: str) -> DynkinType:
    dynkin = DynkinType.parse(spec)
    if dynkin.rank > MAX_ENUMERATION_RANK:
        raise ValueError(f"{dynkin} has rank {dynkin.rank}, above the limit of {MAX_ENUMERATION_RANK}")
    return dynkin


def _parse_weight(dynkin: DynkinType, text: str) -> tuple[int, ...]:
    """Comma-separated decimal coefficients, one per node, of a dominant weight."""
    tokens = [token.strip() for token in text.split(",")]
    if not all(token.removeprefix("-").isdecimal() for token in tokens):
        raise ValueError(f"cannot parse weight {text!r}: coefficients must be decimal integers")
    if len(tokens) != dynkin.rank:
        raise ValueError(f"weight needs {dynkin.rank} coefficients, got {len(tokens)}")
    weight = tuple(map(parse_decimal, tokens))
    check_highest_weight(weight)
    return weight


def cmd_roots(args) -> int:
    rs = build_root_system(_enumerable_type(args.type))
    # one % template per line kind, built once for the rank: formatting a line
    # through it costs about half of joining its numbers one by one
    row = "  [" + " ".join(["%3d"] * rs.rank) + "]"
    root = "  (" + ",".join(["%d"] * rs.rank) + ")"
    _write_lines(itertools.chain(
        [f"type: {rs.dynkin}", "Cartan matrix:"],
        map(row.__mod__, rs.cartan),
        ["positive roots (simple-root coordinates):"],
        map(root.__mod__, rs.positive_roots),
        [f"count: {len(rs.positive_roots)}"],
    ))
    return 0


def cmd_flag(args) -> int:
    dynkin = DynkinType.parse(args.type)
    dimension, anti = flag_invariants(dynkin, parse_nodes(dynkin, args.mark))
    with _printable():
        marked = ",".join(node_labels(dynkin, anti))
        lines = [
            f"type: {dynkin}  marked: {marked}",
            f"dimension: {dimension}",
            f"picard_rank: {len(anti)}",
            f"anticanonical: {weight_label(dynkin, anti)}",
        ]
        if len(anti) == 1:
            lines.append(f"index: {next(iter(anti.values()))}")
    _write_lines(lines)
    return 0


def cmd_dim(args) -> int:
    dynkin = _enumerable_type(args.type)
    weight = _parse_weight(dynkin, args.weight)
    rs = build_root_system(dynkin)
    with _printable():
        line = str(weyl_dim(rs, weight))
    _write_lines([line])
    return 0


def cmd_table(args) -> int:
    max_n = _catalog_bound(args.max_n)
    if args.format not in FORMATS:
        raise ValueError(f"unknown format {args.format!r}; valid formats: {', '.join(FORMATS)}")
    reports = pasquier.stability_verdicts(pasquier.enumerate_triples(max_n))
    if args.format == "json":
        _write_lines(_json_lines(map(pasquier.report_record, reports)))
        return 0
    rows = itertools.chain([pasquier.RECORD_FIELDS], map(_cells, reports))
    if args.format == "csv":
        _write_lines(map(",".join, rows))
        return 0
    # md needs every row for the column widths: it keeps each as its csv line
    # and widens the columns a batch of rows at a time, column by column
    widths, kept = [0] * len(pasquier.RECORD_FIELDS), []
    while batch := list(itertools.islice(rows, _WIDTH_BATCH)):
        widths = [max(w, max(map(len, column))) for w, column in zip(widths, zip(*batch))]
        kept += map(",".join, batch)
    line = "| " + " | ".join(f"%-{w}s" for w in widths) + " |"
    rule = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    lines = (line % tuple(text.split(",")) for text in kept)
    _write_lines(itertools.chain([next(lines), rule], lines))
    return 0


def _json_lines(records):
    """The lines of json.dumps(list(records), indent=2), encoding one record at a time."""
    import json  # here only: the other commands do not pay for importing it

    encode = json.JSONEncoder(indent=2).encode
    yield "["
    last = None
    for rec in records:
        if last is not None:
            yield last + ","
        # encode([rec]) is "[\n  {\n    ...\n  }\n]": keep the record's lines and
        # hold back its closing "  }" for the comma that the next record needs
        *body, last = encode([rec])[2:-2].split("\n")
        yield from body
    if last is not None:
        yield last
    yield "]"


def cmd_check(args) -> int:
    report = pasquier.stability_verdict(pasquier.parse_triple_id(args.triple_id))
    with _printable():
        lines = [f"{key}: {cell}" for key, cell in zip(pasquier.RECORD_FIELDS, _cells(report))]
    _write_lines(lines)
    return 0


def cmd_verify(args) -> int:
    mismatches = fixtures.verify(_catalog_bound(args.max_n))
    failed = {m.fixture for m in mismatches}
    summary = ", ".join(f"{fid}: {'FAIL' if fid in failed else 'PASS'}" for fid in fixtures.FIXTURE_IDS)
    _write_lines(itertools.chain(map(str, mismatches), [summary]))
    return 1 if mismatches else 0


# The command grammar, written once: build_parser() makes argparse's parser of
# it and _plain_args() reads a plain argv with it.  A command maps to its help,
# its positionals as (dest, help) and its options as {flag: (default, help)}.
# An option's dest is argparse's, worked out from its flag, and it is required
# when its default is None
_MAX_N = {"--max-n": ("12", None)}
_COMMANDS = {
    "roots": ("list the positive roots of a Dynkin type", [("type", "type spec, e.g. B4, F4, A1xG2")], {}),
    "flag": (
        "invariants of a generalized flag variety G/P",
        [("type", None)],
        {"--mark": (None, "marked nodes, e.g. 1,3 or 1.1,2.2")},
    ),
    "dim": (
        "Weyl dimension of a highest-weight representation",
        [
            ("type", None),
            ("weight", "fundamental-weight coefficients, e.g. 0,1; put -- before a weight that starts with -"),
        ],
        {},
    ),
    "table": ("full catalog table with slopes and verdicts", [], {**_MAX_N, "--format": (FORMATS[0], None)}),
    "check": ("report for a single triple", [("triple_id", 'e.g. "Bn:n=5", "Cn:n=4:k=3", "PasF4"')], {}),
    "verify": ("recompute the embedded fixture tables", [], _MAX_N),
}


def build_parser():
    """The argparse parser of _COMMANDS: it reads every argv, and writes help, usage and usage errors."""
    import argparse  # here only: a plain argv never needs it, nor gettext and locale, which it loads

    parser = argparse.ArgumentParser(
        prog="twoorbit",
        description="Invariants and tangent-bundle stability of the two-orbit Fano catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        for flag, (default, text) in options.items():
            p.add_argument(flag, default=default, required=default is None, help=text)
    return parser


def _plain_args(argv):
    """The namespace build_parser() gives for a plain `argv`, or None if `argv` is not plain.

    Plain is a known command, then exactly its positionals and its options in
    any order, each option spelled in full as a separate "--opt value" pair
    and given at most once, and no other token that starts with "-".  Every
    other argv, --help and usage errors among them, is argparse's to read.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *tokens = argv
    _, positionals, options = _COMMANDS[command]
    given, values = {}, []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
            continue
        value = next(tokens, "-")  # an option at the end has no value: read it as one that starts with "-"
        if token not in options or token in given or value.startswith("-"):
            return None
        given[token] = value
    # argparse's dest of each option; a required one left out keeps its default, None
    args = {flag[2:].replace("-", "_"): given.get(flag, default) for flag, (default, _) in options.items()}
    if len(values) != len(positionals) or None in args.values():
        return None
    args.update(zip([dest for dest, _ in positionals], values))
    return types.SimpleNamespace(command=command, **args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        # looked up at each call: a handler rebound in this module (as the
        # benchmark's tracer rebinds them) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except SystemExit as exc:
        # argparse ends a usage error (exit 2) and --help (exit 0) inside main():
        # that exit too goes through the freeze below, with its status as it is
        code = exc.code
    except BrokenPipeError:
        # the reader closed stdout early, as `twoorbit table | head` does: send
        # what is left to devnull so the exit flush cannot fail again, and exit
        # as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    # The output is written.  At exit CPython clears every module and then runs
    # a full collection that walks and frees the whole heap, about 12,000
    # objects after `flag B48`, most of them from site and the stdlib; the OS
    # reclaims that memory anyway.  Freezing moves every object into the
    # permanent generation, which no collection visits, and saves 3-9 ms a
    # process.  atexit handlers, the std-stream flush and the exit status stay
    # as they are: os._exit would skip atexit handlers (coverage.py's among
    # them), and gc.disable() saves nothing, since shutdown collects anyway
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
