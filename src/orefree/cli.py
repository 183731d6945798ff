"""Command-line front end: problem files in, deterministic JSON out.

Every subcommand reads one problem file, runs a single pipeline, and
prints a JSON document to standard output; a one-line human summary goes
to standard error so scripts can consume stdout unfiltered.  Identical
inputs produce byte-identical output: the payload carries no timestamps,
and run metadata sits under a `meta` key that certificate digests never
see.

Exit codes: 0 success, 1 malformed input or bad usage, 2 structurally
inconsistent presentation, 3 configured resource bound exceeded, 4
internal invariant violation.  Every failure also emits JSON of the
shape {"error", "detail", "position"?} on standard output.

The commands and their options sit in one table.  A run whose first
argument names a command builds that command's parser alone; the full
tree of subcommands, built from the same table, serves the top-level
help, --version, and the errors of an argument list that names no
command.
"""

import argparse
import json
import sys

from . import __version__
from .classify import classify_problem, normalize_presentation, ProblemSpec
from .errors import (
    ParseError, PresentationError, ResourceBoundExceeded, UsageError,
)
from .freeness import freeness_certify
from .problems import (
    parse_field_expr, parse_ore_expr, parse_problem, print_problem,
)
from .skew import delta_tower, orbit_analyze


# command -> (help line, options); each option is (flag, add_argument
# keywords), and every command also takes the problem file
_COMMANDS = {
    "classify": ("route the presentation to a verdict", ()),
    "freeness": ("bounded word-independence certificate", (
        ("--b", dict(required=True, metavar="EXPR",
                     help="witness element of the base field")),
        ("--max-len", dict(type=int, default=3, metavar="L",
                           help="word length bound (default 3)")),
    )),
    "normalize": ("rewrite a mixed presentation as a pure one", ()),
    "orbit": ("orbit type of an element under sigma", (
        ("--elem", dict(required=True, metavar="EXPR")),
        ("--bound", dict(type=int, default=64, metavar="B",
                         help="iteration bound in several variables "
                              "(default 64); one-variable orbits are "
                              "exact")),
    )),
    "tower": ("iterate delta and watch subfield growth", (
        ("--elem", dict(required=True, metavar="EXPR")),
        ("--depth", dict(type=int, default=5, metavar="M",
                         help="tower depth (default 5)")),
    )),
    "compute": ("evaluate an Ore fraction expression", (
        ("--expr", dict(required=True, metavar="EXPR",
                        help="expression in X, inv(...), and the "
                             "generators")),
    )),
}


def _add_arguments(parser, command):
    parser.add_argument("problem", help="path to a problem file, - for stdin")
    for flag, kwargs in _COMMANDS[command][1]:
        parser.add_argument(flag, **kwargs)


def _build_parser():
    """The full tree: the top parser and one subparser per command."""
    top = argparse.ArgumentParser(
        prog="orefree",
        description="exact certificates for Ore extension division rings")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_), name)
    return top


def _parse_args(argv):
    """Parse with the named command's parser alone; the full tree only
    when argv names no command (help, --version, errors)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog="orefree " + argv[0])
    _add_arguments(parser, argv[0])
    parser.set_defaults(command=argv[0])
    return parser.parse_args(argv[1:])


def _read_problem(path):
    if path == "-":
        return parse_problem(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _run(args):
    """Dispatch to the pipeline; returns (payload dict, summary line)."""
    spec = _read_problem(args.problem)
    pair = spec.pair
    if args.command == "classify":
        verdict = classify_problem(spec)
        payload = verdict.to_json_dict()
        bits = [payload["kind"]]
        if verdict.theorem_tag:
            bits.append("(%s)" % verdict.theorem_tag)
        if verdict.witness is not None:
            bits.append("witness %s" % verdict.witness)
        if verdict.central_power is not None:
            bits.append("x^%d central" % verdict.central_power)
        return payload, "verdict: " + " ".join(bits)
    if args.command == "freeness":
        b = parse_field_expr(pair.ff, args.b)
        cert = freeness_certify(pair, b, args.max_len)
        return (cert.to_json_dict(),
                "certificate: %s, rank %d of %d words"
                % (cert.verdict, cert.rank, cert.word_count))
    if args.command == "normalize":
        pure, shift, report = normalize_presentation(pair)
        payload = {
            "shift": None if shift is None else str(shift),
            "report": report,
            "problem": print_problem(ProblemSpec(pure, spec.options)),
        }
        return payload, "normalize: " + report
    if args.command == "orbit":
        elem = parse_field_expr(pair.ff, args.elem)
        rep = orbit_analyze(pair.sigma, elem, args.bound)
        summary = "orbit: " + rep.kind
        if rep.period:
            summary += " period %d" % rep.period
        return rep.to_json_dict(), summary
    if args.command == "tower":
        elem = parse_field_expr(pair.ff, args.elem)
        rep = delta_tower(pair.delta, elem, args.depth)
        statuses = [lv.status for lv in rep.levels]
        return rep.to_json_dict(), "tower: " + ", ".join(statuses)
    if args.command != "compute":
        raise AssertionError("unhandled command %r" % args.command)
    value = parse_ore_expr(pair, args.expr)
    return ({"expr": args.expr, "value": str(value)},
            "compute: %s" % value)


def _emit(payload, command):
    payload = dict(payload)
    payload["meta"] = {"tool": "orefree", "version": __version__,
                       "command": command}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# exit code of each expected error class, first match wins (ParseError is
# a UsageError); any other exception is an internal error, code 4
_EXIT_CODES = {ParseError: 1, ResourceBoundExceeded: 3, PresentationError: 2,
               UsageError: 1, OSError: 1}


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for bad flags; the
        # latter is a usage error in this tool's code scheme
        if exc.code == 0:
            return 0
        _emit({"error": "UsageError", "detail": "invalid arguments"}, None)
        return 1
    try:
        payload, summary = _run(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES.items()
                    if isinstance(exc, cls))
        doc = {"error": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, ParseError) and exc.line is not None:
            doc["position"] = {"line": exc.line, "col": exc.col}
        _emit(doc, args.command)
        print("error: %s" % exc, file=sys.stderr)
        return code
    except Exception as exc:
        _emit({"error": "InternalError",
               "detail": "%s: %s" % (type(exc).__name__, exc)},
              args.command)
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    _emit(payload, args.command)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
