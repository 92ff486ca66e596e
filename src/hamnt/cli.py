"""Command-line front end.

Exit codes (stable across output formats):
  0  everything verified / informational command succeeded
  1  mathematical falsification (a lemma or theorem clause failed)
  2  usage, parse, hypothesis, or feasibility problem
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .code_model import is_linear_binary, read_code_file
from .errors import (CodeFormatError, FeasibilityError, HypothesisError,
                     LemmaViolationError)
from .family_codes import verify_family
from .hamming_core import neighbours
from .lemmas import run_lemma_suite
from .reporting import format_clauses_text
from .transitivity import VIOLATION, analyze_stabilizer, classify_theorem
# unused here, but perfbench's tracer self-test checks that tracing rebinds it
from .transitivity import setwise_stabilizer  # noqa: F401
from .wreath_group import DEFAULT_GROUP_CAP, automorphism_to_text


# -- command implementations -------------------------------------------------

def _emit(report_json: dict, text: str, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report_json, indent=2), file=out)
    else:
        print(text, file=out)


def cmd_family(args, out, err) -> int:
    if args.m is None:
        print("family needs --m", file=err)
        return 2
    if args.m < 4 or args.m % 2 != 0:
        print("m must be even and >= 4", file=err)
        return 2
    report = verify_family(args.m, exhaustive=args.exhaustive,
                           group_cap=args.resolved_group_cap)
    order = "" if report.stabilizer_order is None else \
        f"\n  stabilizer order: {report.stabilizer_order}"
    text = (f"family m={report.m} exhaustive={report.exhaustive}\n"
            f"{format_clauses_text(report.clauses)}{order}\n"
            f"  all clauses pass: {report.all_pass}")
    _emit(report.to_json(), text, args.format, out)
    return 0 if report.all_pass else 1


def cmd_classify(args, out, err) -> int:
    report = classify_theorem(read_code_file(args.input),
                              group_cap=args.resolved_group_cap)
    witness = automorphism_to_text(report.witness) if report.witness else "-"
    text = (f"delta: {report.delta}\nverdict: {report.verdict}\n"
            f"witness: {witness}\ntheorem_case: {report.theorem_case or '-'}\n"
            f"stabilizer_order: {report.stabilizer_order}\n"
            f"transitive_on_neighbours: {report.transitive_on_neighbours}")
    _emit(report.to_json(), text, args.format, out)
    return 1 if report.theorem_case == VIOLATION else 0


def cmd_lemmas(args, out, err) -> int:
    report = run_lemma_suite(args.m, args.q, seed=args.seed,
                             group_cap=args.resolved_group_cap)
    text = (f"lemma suite on H({report.m},{report.q}) seed={report.seed}\n"
            f"{format_clauses_text(report.checks)}\n"
            f"  all checks pass: {report.all_pass}")
    _emit(report.to_json(), text, args.format, out)
    return 0 if report.all_pass else 1


def cmd_analyze(args, out, err) -> int:
    code = read_code_file(args.input)
    delta = code.min_distance
    nbrs = code.neighbour_set
    union = set()
    total = 0
    for w in code.words:
        nbhd = neighbours(w)
        total += len(nbhd)
        union.update(nbhd)
    data = {
        "m": code.scheme.m,
        "q": code.scheme.q,
        "size": len(code),
        "delta": None if delta == math.inf else int(delta),
        "neighbour_count": len(nbrs),
        "linear_binary": is_linear_binary(code),
        "neighbourhoods_disjoint": total == len(union),
    }
    text = "\n".join(f"{k}: {v}" for k, v in data.items())
    _emit(data, text, args.format, out)
    return 0


def cmd_stabilizer(args, out, err) -> int:
    code = read_code_file(args.input)
    if not code.neighbour_set:
        print("neighbour set is empty; nothing to stabilize", file=err)
        return 2
    analysis = analyze_stabilizer(code, args.resolved_group_cap)
    first = analysis.first_nonfixing
    data = {
        "m": code.scheme.m,
        "q": code.scheme.q,
        "neighbour_count": len(code.neighbour_set),
        "stabilizer_order": len(analysis.stabilizer),
        "fixes_code": first is None,
        "transitive_on_neighbours": analysis.transitive_on_neighbours,
        "first_nonfixing": automorphism_to_text(first) if first else None,
    }
    text = "\n".join(f"{k}: {v}" for k, v in data.items())
    _emit(data, text, args.format, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamnt",
        description="Codes in Hamming graphs: neighbour sets, wreath-product "
                    "automorphisms, stabilizer search and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--group-cap", type=int, default=None,
                       help="bound on (q!)^m * m! for full-group sweeps "
                            "(default %(default)s; env HNT_GROUP_CAP overrides)")

    p = sub.add_parser("family", help="build and verify one doubled-vector family member")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true",
                   help="also compare the full neighbour-set stabilizer")
    add_common(p)

    p = sub.add_parser("classify", help="run the trichotomy classifier on a code file")
    p.add_argument("--input", required=True)
    add_common(p)

    p = sub.add_parser("lemmas", help="run the structural lemma suite on H(m,q)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("analyze", help="basic statistics of a code file")
    p.add_argument("--input", required=True)
    add_common(p)

    p = sub.add_parser("stabilizer", help="neighbour-set stabilizer of a code file")
    p.add_argument("--input", required=True)
    add_common(p)

    return parser


_COMMANDS = {
    "family": cmd_family,
    "classify": cmd_classify,
    "lemmas": cmd_lemmas,
    "analyze": cmd_analyze,
    "stabilizer": cmd_stabilizer,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cap = args.group_cap
    if cap is None:
        env = os.environ.get("HNT_GROUP_CAP", str(DEFAULT_GROUP_CAP))
        try:
            cap = int(env)
        except ValueError:
            print(f"HNT_GROUP_CAP must be an integer, got {env!r}", file=err)
            return 2
    if cap <= 0:
        print("group cap must be positive", file=err)
        return 2
    args.resolved_group_cap = cap
    # the one map from errors to exit codes; see errors.py
    try:
        return _COMMANDS[args.command](args, out, err)
    except (CodeFormatError, OSError) as exc:
        print(f"cannot read code: {exc}", file=err)
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=err)
    except FeasibilityError as exc:
        print(f"feasibility: {exc}", file=err)
    except LemmaViolationError as exc:
        print(f"lemma violated: {exc}", file=err)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
