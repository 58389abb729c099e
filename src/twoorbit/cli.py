"""Command-line front end.

Subcommands: roots, flag, dim, table, check, verify.  Exit status is 0 on
success, 1 on a verification mismatch, 2 on usage or parse errors, 141 when
stdout is closed before all of the output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from operator import itemgetter

from . import fixtures
from .flagvar import flag_invariants
from .pasquier import (
    RECORD_FIELDS,
    enumerate_triples,
    parse_triple_id,
    report_record,
    stability_verdict,
)
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
# `roots C100` takes about 0.4 s and `dim C100 1,...,1` about 0.35 s, start-up
# included; flag uses the diagram path and has no cap
MAX_ENUMERATION_RANK = 100
# lines per sys.stdout.write call.  With PYTHONUNBUFFERED set each print() is
# two write(2) calls and a block is one.  The cap bounds the memory a block
# holds: about 170 KB of the md table at --max-n 100
_BLOCK_LINES = 1024


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _printable():
    """Render output in this block, refusing an integer past Python's int-to-str digit limit.

    Output is printed only after the block, so a refused result prints nothing.
    """
    try:
        yield
    except ValueError as exc:
        raise UsageError(
            f"cannot print the result: it has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _write_lines(lines) -> None:
    """Write each string of `lines` and a newline to stdout, one write call per block of lines."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        block.append("")
        sys.stdout.write("\n".join(block))


def _usage(call, *args):
    """call(*args), reporting the ValueError of bad input as a usage error."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _enumerable_type(spec: str) -> DynkinType:
    dynkin = _usage(DynkinType.parse, spec)
    if dynkin.rank > MAX_ENUMERATION_RANK:
        raise UsageError(f"{dynkin} has rank {dynkin.rank}, above the limit of {MAX_ENUMERATION_RANK}")
    return dynkin


def _parse_weight(dynkin: DynkinType, text: str) -> tuple[int, ...]:
    """Comma-separated decimal coefficients, one per node, of a dominant weight."""
    tokens = [token.strip() for token in text.split(",")]
    if not all(token.removeprefix("-").isdecimal() for token in tokens):
        raise UsageError(f"cannot parse weight {text!r}: coefficients must be decimal integers")
    if len(tokens) != dynkin.rank:
        raise UsageError(f"weight needs {dynkin.rank} coefficients, got {len(tokens)}")
    weight = tuple(_usage(parse_decimal, token) for token in tokens)
    _usage(check_highest_weight, weight)
    return weight


def cmd_roots(args) -> int:
    rs = build_root_system(_enumerable_type(args.type))
    _write_lines(itertools.chain(
        [f"type: {rs.dynkin}", "Cartan matrix:"],
        ("  [" + " ".join(f"{v:3d}" for v in row) + "]" for row in rs.cartan),
        ["positive roots (simple-root coordinates):"],
        ("  (" + ",".join(map(str, alpha)) + ")" for alpha in rs.positive_roots),
        [f"count: {len(rs.positive_roots)}"],
    ))
    return 0


def cmd_flag(args) -> int:
    dynkin = _usage(DynkinType.parse, args.type)
    dimension, anti = flag_invariants(dynkin, _usage(parse_nodes, dynkin, args.mark))
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
    if args.max_n < 3:
        raise UsageError(f"--max-n must be at least 3, got {args.max_n}")
    if args.format not in FORMATS:
        raise UsageError(f"unknown format {args.format!r}; valid formats: {', '.join(FORMATS)}")
    records = (report_record(stability_verdict(t)) for t in enumerate_triples(args.max_n))
    if args.format == "json":
        _write_lines(_json_lines(records))
        return 0
    # csv writes the rows as they are rendered; md needs them all for the column widths
    rows = itertools.chain(
        [RECORD_FIELDS], (["" if v is None else str(v) for v in rec.values()] for rec in records)
    )
    if args.format == "csv":
        _write_lines(map(",".join, rows))
        return 0
    rows = list(rows)
    widths = [max(map(len, map(itemgetter(i), rows))) for i in range(len(RECORD_FIELDS))]
    line = "| " + " | ".join(f"{{:<{w}}}" for w in widths) + " |"
    rule = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    lines = itertools.starmap(line.format, rows)
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
    report = stability_verdict(_usage(parse_triple_id, args.triple_id))
    with _printable():
        rec = report_record(report)
        lines = [f"{key}: {'' if value is None else value}" for key, value in rec.items()]
    _write_lines(lines)
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 3:
        raise UsageError(f"--max-n must be at least 3, got {args.max_n}")
    mismatches = fixtures.verify(args.max_n)
    failed = {m.fixture for m in mismatches}
    summary = ", ".join(f"{fid}: {'FAIL' if fid in failed else 'PASS'}" for fid in fixtures.FIXTURE_IDS)
    _write_lines(itertools.chain(map(str, mismatches), [summary]))
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoorbit",
        description="Invariants and tangent-bundle stability of the two-orbit Fano catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the positive roots of a Dynkin type")
    p.add_argument("type", help="type spec, e.g. B4, F4, A1xG2")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("flag", help="invariants of a generalized flag variety G/P")
    p.add_argument("type")
    p.add_argument("--mark", required=True, help="marked nodes, e.g. 1,3 or 1.1,2.2")
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("dim", help="Weyl dimension of a highest-weight representation")
    p.add_argument("type")
    p.add_argument(
        "weight",
        help="fundamental-weight coefficients, e.g. 0,1; put -- before a weight that starts with -",
    )
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("table", help="full catalog table with slopes and verdicts")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--format", default="md")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="report for a single triple")
    p.add_argument("triple_id", help='e.g. "Bn:n=5", "Cn:n=4:k=3", "PasF4"')
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="recompute the embedded fixture tables")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `twoorbit table | head` does: send
        # what is left to devnull so the exit flush cannot fail again, and exit
        # as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    run()
