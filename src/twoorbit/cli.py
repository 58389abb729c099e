"""Command-line front end.

Subcommands: roots, flag, dim, table, check, verify.  Exit status is 0 on
success, 1 on a verification mismatch, 2 on usage or parse errors, 141 when
stdout is closed before all of the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures
from .flagvar import ParabolicMarking, flag_invariants
from .pasquier import (
    RECORD_FIELDS,
    enumerate_triples,
    parse_triple_id,
    report_record,
    stability_verdict,
)
from .rootsys import (
    DynkinType,
    RootSystem,
    UnsupportedTypeError,
    Weight,
    build_root_system,
    node_labels,
    weight_label,
    weyl_dim,
)

FORMATS = ("md", "csv", "json")
# roots and dim enumerate every positive root, at a cost that grows like
# rank^4; flag uses the diagram path and has no cap
MAX_ENUMERATION_RANK = 100


class UsageError(ValueError):
    pass


def _parse_type(spec: str) -> DynkinType:
    try:
        return DynkinType.parse(spec)
    except (UnsupportedTypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _enumerated_root_system(spec: str) -> RootSystem:
    dynkin = _parse_type(spec)
    if dynkin.rank > MAX_ENUMERATION_RANK:
        raise UsageError(f"{dynkin} has rank {dynkin.rank}, above the limit of {MAX_ENUMERATION_RANK}")
    return build_root_system(dynkin)


def _parse_nodes(dynkin: DynkinType, text: str) -> ParabolicMarking:
    """Node list grammar: 1-based within a factor, "f.i" for products."""
    offsets = dynkin.factor_offsets()
    indices = []
    for token in text.split(","):
        token = token.strip()
        if len(dynkin.factors) == 1:
            factor_pos, node_text = 1, token
        else:
            factor_text, dot, node_text = token.partition(".")
            if not dot or not factor_text.isdecimal():
                raise UsageError(
                    f"node {token!r}: product types need factor-qualified nodes like 1.1"
                )
            factor_pos = int(factor_text)
        if not 1 <= factor_pos <= len(dynkin.factors):
            raise UsageError(f"node {token!r}: factor out of range 1..{len(dynkin.factors)}")
        factor = dynkin.factors[factor_pos - 1]
        if not node_text.isdecimal() or not 1 <= int(node_text) <= factor.rank:
            raise UsageError(f"node {token!r}: valid range is 1..{factor.rank} within {factor}")
        index = offsets[factor_pos - 1] + int(node_text) - 1
        if index in indices:
            raise UsageError(f"node {token!r} is marked twice")
        indices.append(index)
    if not indices:
        raise UsageError("empty node list")
    return ParabolicMarking(frozenset(indices))


def cmd_roots(args) -> int:
    rs = _enumerated_root_system(args.type)
    print(f"type: {rs.dynkin}")
    print("Cartan matrix:")
    for row in rs.cartan:
        print("  [" + " ".join(f"{v:3d}" for v in row) + "]")
    print("positive roots (simple-root coordinates):")
    for alpha in rs.positive_roots:
        print("  (" + ",".join(str(c) for c in alpha.coeffs) + ")")
    print(f"count: {len(rs.positive_roots)}")
    return 0


def cmd_flag(args) -> int:
    dynkin = _parse_type(args.type)
    marking = _parse_nodes(dynkin, args.mark)
    inv = flag_invariants(dynkin, marking)
    labels = node_labels(dynkin)
    marked = ",".join(labels[i] for i in sorted(marking.marked))
    print(f"type: {dynkin}  marked: {marked}")
    print(f"dimension: {inv.dimension}")
    print(f"picard_rank: {inv.picard_rank}")
    print(f"anticanonical: {weight_label(dynkin, inv.anticanonical)}")
    if inv.index is not None:
        print(f"index: {inv.index}")
    return 0


def cmd_dim(args) -> int:
    rs = _enumerated_root_system(args.type)
    try:
        coeffs = tuple(int(c) for c in args.weight.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse weight {args.weight!r}: {exc}") from exc
    if len(coeffs) != rs.rank:
        raise UsageError(f"weight needs {rs.rank} coefficients, got {len(coeffs)}")
    try:
        print(weyl_dim(rs, Weight(coeffs)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0


def _records(max_n: int) -> list[dict]:
    return [report_record(stability_verdict(t)) for t in enumerate_triples(max_n)]


def _render_value(v) -> str:
    return "" if v is None else str(v)


def cmd_table(args) -> int:
    if args.max_n < 3:
        raise UsageError(f"--max-n must be at least 3, got {args.max_n}")
    if args.format not in FORMATS:
        raise UsageError(f"unknown format {args.format!r}; valid formats: {', '.join(FORMATS)}")
    records = _records(args.max_n)
    if args.format == "json":
        print(json.dumps(records, indent=2))
    elif args.format == "csv":
        print(",".join(RECORD_FIELDS))
        for rec in records:
            print(",".join(_render_value(rec[f]) for f in RECORD_FIELDS))
    else:
        cells = [[_render_value(rec[f]) for f in RECORD_FIELDS] for rec in records]
        widths = [
            max(len(name), *(row[i] and len(row[i]) or 0 for row in cells))
            for i, name in enumerate(RECORD_FIELDS)
        ]
        print("| " + " | ".join(n.ljust(w) for n, w in zip(RECORD_FIELDS, widths)) + " |")
        print("|-" + "-|-".join("-" * w for w in widths) + "-|")
        for row in cells:
            print("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return 0


def cmd_check(args) -> int:
    try:
        triple = parse_triple_id(args.triple_id)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rec = report_record(stability_verdict(triple))
    for key in RECORD_FIELDS:
        print(f"{key}: {_render_value(rec[key])}")
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 3:
        raise UsageError(f"--max-n must be at least 3, got {args.max_n}")
    mismatches = fixtures.verify(args.max_n)
    failed = {m.fixture for m in mismatches}
    for m in mismatches:
        print(str(m))
    print(", ".join(f"{fid}: {'FAIL' if fid in failed else 'PASS'}" for fid in fixtures.FIXTURE_IDS))
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
    p.add_argument("weight", help="fundamental-weight coefficients, e.g. 0,1")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("table", help="full catalog table with slopes and verdicts")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--format", default="md", choices=None)
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
