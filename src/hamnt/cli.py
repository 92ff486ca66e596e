"""Command-line front end.

Exit codes (stable across output formats):
  0  everything verified / informational command succeeded
  1  mathematical falsification (a lemma or theorem clause failed)
  2  usage, parse, hypothesis, or feasibility problem
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .code_model import (is_linear_binary, neighbour_count,
                         neighbourhoods_disjoint, read_code_file)
from .errors import CodeFormatError, FeasibilityError, HypothesisError
from .family_codes import verify_family
from .lemmas import run_lemma_suite
from .reporting import format_clauses_text
from .transitivity import VIOLATION, analyze_stabilizer, classify_theorem
# unused here, but perfbench's tracer self-test checks that tracing rebinds it
from .transitivity import setwise_stabilizer  # noqa: F401
from .wreath_group import automorphism_to_text


# -- command implementations -------------------------------------------------

def _emit(report_json: dict, text: str, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report_json, indent=2), file=out)
    else:
        print(text, file=out)


def cmd_family(args, out, err) -> int:
    report = verify_family(args.m, exhaustive=args.exhaustive)
    order = "" if report.stabilizer_order is None else \
        f"\n  stabilizer order: {report.stabilizer_order}"
    text = (f"family m={report.m} exhaustive={report.exhaustive}\n"
            f"{format_clauses_text(report.clauses)}{order}\n"
            f"  all clauses pass: {report.all_pass}")
    _emit(report.to_json(), text, args.format, out)
    return 0 if report.all_pass else 1


def cmd_classify(args, out, err) -> int:
    report = classify_theorem(read_code_file(args.input))
    witness = automorphism_to_text(report.witness) if report.witness else "-"
    text = (f"delta: {report.delta}\nverdict: {report.verdict}\n"
            f"witness: {witness}\ntheorem_case: {report.theorem_case or '-'}\n"
            f"stabilizer_order: {report.stabilizer_order}\n"
            f"transitive_on_neighbours: {report.transitive_on_neighbours}")
    _emit(report.to_json(), text, args.format, out)
    return 1 if report.theorem_case == VIOLATION else 0


def cmd_lemmas(args, out, err) -> int:
    report = run_lemma_suite(args.m, args.q, seed=args.seed)
    text = (f"lemma suite on H({report.m},{report.q}) seed={report.seed}\n"
            f"{format_clauses_text(report.checks)}\n"
            f"  all checks pass: {report.all_pass}")
    _emit(report.to_json(), text, args.format, out)
    return 0 if report.all_pass else 1


def cmd_analyze(args, out, err) -> int:
    code = read_code_file(args.input)
    delta = code.min_distance
    data = {
        "m": code.scheme.m,
        "q": code.scheme.q,
        "size": len(code),
        "delta": None if delta == math.inf else int(delta),
        "neighbour_count": neighbour_count(code),
        "linear_binary": is_linear_binary(code),
        "neighbourhoods_disjoint": neighbourhoods_disjoint(code),
    }
    text = "\n".join(f"{k}: {v}" for k, v in data.items())
    _emit(data, text, args.format, out)
    return 0


def cmd_stabilizer(args, out, err) -> int:
    code = read_code_file(args.input)
    analysis = analyze_stabilizer(code)
    first = analysis.first_nonfixing
    data = {
        "m": code.scheme.m,
        "q": code.scheme.q,
        "neighbour_count": neighbour_count(code),
        "stabilizer_order": analysis.order,
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
    p = sub.add_parser("family", help="build and verify one doubled-vector family member")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="also compare the full neighbour-set stabilizer")

    p = sub.add_parser("classify", help="run the trichotomy classifier on a code file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("lemmas", help="run the structural lemma suite on H(m,q)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="basic statistics of a code file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("stabilizer", help="neighbour-set stabilizer of a code file")
    p.add_argument("--input", required=True)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


#: The parser, built on the first main() call and reused by later ones.
_shared_parser = functools.cache(build_parser)

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
    try:
        # argparse prints usage errors to sys.stderr and help to sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the one map from errors to exit codes; see errors.py
    try:
        return _COMMANDS[args.command](args, out, err)
    except (CodeFormatError, OSError) as exc:
        print(f"cannot read code: {exc}", file=err)
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=err)
    except FeasibilityError as exc:
        print(f"feasibility: {exc}", file=err)
    return 2


if __name__ == "__main__":
    sys.exit(main())
