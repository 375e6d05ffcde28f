"""Command-line front end: evaluate expressions over the extended number
line, take derivatives through infinitesimal increments, run the worked
examples, and batch-check identity corpora.

Exit codes: 0 success, 2 usage or parse error, 3 evaluation error,
4 failed claim or failed identity (the report is still printed).
Nothing is written to standard error on success.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence, TextIO

from .calculus import derivative_at, product_rule_report
from .core import (
    DEFAULT_PRECISION,
    Classification,
    LCError,
    LCNumber,
    classify,
    standard_part,
)
from .dsl import (
    Const,
    Expr,
    LexError,
    Neg,
    NonRationalNode,
    ParseError,
    RESERVED_WORDS,
    TransferReport,
    _ensure_rational,
    evaluate,
    identities_transfer_check,
    parse_text,
    tokenize,
)
from .gallery import (
    ellipse_parabola_report,
    infinitesimal_equality_report,
    parallel_lines_report,
    write_parabola_csv,
)

__all__ = [
    "load_corpus",
    "main",
    "run",
]

# Each worked example's report, built at a precision given by keyword.
GALLERY = {
    "parallel_lines": parallel_lines_report,
    "infinitesimal_equality": infinitesimal_equality_report,
    "ellipse_parabola": ellipse_parabola_report,
    "product_rule": functools.partial(
        product_rule_report, parse_text("x"), parse_text("x^2"), "x", 1
    ),
}


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line input that is not a DSL parse error.  Raised by an
    argument's type, argparse reports it as that argument's usage error."""


# Series work grows with the square of the precision; at this bound a
# one-line ``eval`` still answers in about a second.
MAX_PRECISION = 1000


def _integer_in(low: int, high: int, message: str):
    """An argparse type for an integer from ``low`` to ``high``; any other
    text, an integer or not, is refused with ``message``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if low <= value <= high:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message)

    return parse


def _rational(text: str) -> Fraction:
    """``text`` as a point: a DSL number literal or ``p/q``, optionally negated."""
    try:
        node = parse_text(text)
    except ParseError as exc:
        raise UsageError(str(exc)) from exc
    match node:
        case Const(value=value):
            return value
        case Neg(arg=Const(value=value)):
            return -value
    raise UsageError(f"not a rational number: {text!r}")


def _name(text: str) -> str:
    """``text`` as a variable name: text that tokenizes as exactly one
    identifier that is not a reserved word."""
    try:
        tokens = tokenize(text)
    except LexError as exc:
        raise UsageError(str(exc)) from exc
    match tokens:
        case [token] if token.kind == "identifier" and token.text not in RESERVED_WORDS:
            return token.text
    raise UsageError(f"not a variable name: {text.strip()!r}")


# Every option a subcommand may take: its flags and its add_argument settings.
OPTIONS = {
    "-T": (
        ("-T", "--precision"),
        dict(
            type=_integer_in(2, MAX_PRECISION, f"precision must be from 2 to {MAX_PRECISION}"),
            default=DEFAULT_PRECISION,
            help=f"relative truncation order (default 16, 2 to {MAX_PRECISION})",
        ),
    ),
    "--format": (
        ("--format",),
        dict(choices=("text", "json"), default="text", help="output format (default text)"),
    ),
    "--seed": (
        ("--seed",),
        dict(
            type=_integer_in(0, 2**64 - 1, "seed must fit in 64 unsigned bits"),
            default=0,
            help="sampling seed for transfer checks (default 0)",
        ),
    ),
    "-b": (
        ("-b", "--bind"),
        dict(
            action="append",
            default=[],
            metavar="NAME=EXPR",
            help="bind a variable; may reference eps, H, and earlier bindings",
        ),
    ),
    "--csv": (
        ("--csv",),
        dict(metavar="PATH", help="write (x0, y0, st_of_lhs) rows; ellipse_parabola only"),
    ),
}


class _Refused(argparse.Action):
    """An option only other subcommands take: refused by name wherever it stands."""

    def __call__(self, parser, namespace, values, option_string=None):
        command = parser.prog.rpartition(" ")[2]  # "lcfield eval" -> "eval"
        parser.error(f"{command} does not take {option_string}")


_REFUSED = dict(action=_Refused, nargs="?", help=argparse.SUPPRESS, default=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lcfield`` argument parser, built once per process.

    ``parse_args`` leaves the parser unchanged (``--bind`` appends to a
    fresh copy of its empty default), so one instance serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="lcfield",
        description="exact arithmetic with infinitesimal and infinite quantities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, reads) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=handler.__doc__)
        for key, (flags, settings) in OPTIONS.items():
            subparser.add_argument(*flags, **(settings if key in reads else _REFUSED))
        subparser.set_defaults(handler=handler)
        return subparser

    p_eval = command("eval", cmd_eval, ("-T", "--format", "-b"))
    p_eval.add_argument("expr", help="expression in the DSL grammar")

    p_diff = command("diff", cmd_diff, ("-T", "--format", "-b"))
    p_diff.add_argument("expr", help="expression to differentiate")
    p_diff.add_argument("var", type=_name, help="variable of differentiation")
    p_diff.add_argument("point", type=_rational, help="assignable point, e.g. 3 or 5/2")

    p_gallery = command("gallery", cmd_gallery, ("-T", "--format", "--csv"))
    p_gallery.add_argument("example_id", choices=GALLERY)

    p_transfer = command("transfer", cmd_transfer, ("-T", "--format", "--seed"))
    p_transfer.add_argument("file", help="one 'lhs == rhs' per line, '#' comments")

    command("repl", cmd_repl, ("-T", "-b"))
    return parser


# -- bindings -----------------------------------------------------------------


def parse_bindings(pairs: Sequence[str]) -> tuple[tuple[str, Expr], ...]:
    """Split and parse name=expr pairs; later pairs may use earlier names."""
    parsed = []
    for pair in pairs:
        name_text, sep, expr_text = pair.partition("=")
        if not sep:
            raise UsageError(f"binding must look like name=expr, got {pair!r}")
        parsed.append((_name(name_text), parse_text(expr_text.lstrip())))
    return tuple(parsed)


def _environment(args) -> dict[str, LCNumber]:
    env: dict[str, LCNumber] = {}
    for name, expr in parse_bindings(args.bind):
        env[name] = evaluate(expr, env, args.precision)
    return env


# -- rendering ----------------------------------------------------------------


def _render_value_text(value: LCNumber, out: TextIO) -> None:
    kind = classify(value)
    print(f"{value.render()} ({kind.value})", file=out)
    if kind is not Classification.INFINITE:
        print(f"shadow: {standard_part(value)}", file=out)


# -- subcommands --------------------------------------------------------------


def cmd_eval(args, out: TextIO, err: TextIO) -> int:
    """evaluate an expression"""
    env = _environment(args)
    value = evaluate(parse_text(args.expr), env, args.precision)
    if args.format == "json":
        print(json.dumps(value.to_json()), file=out)
    else:
        _render_value_text(value, out)
    return 0


def cmd_diff(args, out: TextIO, err: TextIO) -> int:
    """derivative via an infinitesimal increment"""
    # argparse before 3.12 gives a positional that received only a second
    # "--" the value [], without calling its type
    if [] in (args.var, args.point):
        raise UsageError("'--' may appear only once")
    env = _environment(args)
    result = derivative_at(
        parse_text(args.expr), args.var, args.point, env, args.precision
    )
    if args.format == "json":
        payload = {
            "quotient": result.quotient.to_json(),
            "shadow": str(result.shadow),
            "superfluous": result.discarded.to_json(),
        }
        print(json.dumps(payload), file=out)
    else:
        print(f"quotient: {result.quotient.render()}", file=out)
        print(f"shadow: {result.shadow}", file=out)
        print(f"superfluous: {result.discarded.render()}", file=out)
    return 0


def cmd_gallery(args, out: TextIO, err: TextIO) -> int:
    """run a worked example"""
    if args.csv and args.example_id != "ellipse_parabola":
        raise UsageError("--csv applies only to ellipse_parabola")
    report = GALLERY[args.example_id](precision=args.precision)
    if args.csv:
        try:
            write_parabola_csv(args.csv, precision=args.precision)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
    if args.format == "json":
        print(json.dumps(report.to_json()), file=out)
    else:
        print(report.render_text(), file=out)
    return 0 if report.passed else 4


# -- transfer corpus ----------------------------------------------------------


def load_corpus(path: str) -> list[tuple[int, str, str]]:
    """(line number, lhs text, rhs text) triples from a corpus file.

    Blank lines and '#' comments (whole-line or trailing) are skipped.
    Raises UsageError for a line without exactly one '=='.  The file is
    decoded in one piece, so a UnicodeDecodeError gives its byte offset.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    entries = []
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sides = line.split("==")
        if len(sides) != 2:
            raise UsageError(f"line {number}: expected exactly one '==', got {raw.strip()!r}")
        entries.append((number, sides[0].strip(), sides[1].strip()))
    return entries


def _parse_corpus(
    entries: list[tuple[int, str, str]], err: TextIO
) -> list[tuple[int, str, str, Expr, Expr]] | None:
    """Parse every side and require it to be rational, reporting all
    failures before giving up."""
    parsed = []
    bad = False
    for number, lhs_text, rhs_text in entries:
        try:
            lhs = parse_text(lhs_text)
            rhs = parse_text(rhs_text)
            _ensure_rational(lhs)
            _ensure_rational(rhs)
        except (ParseError, NonRationalNode) as exc:
            print(f"line {number}: {exc}", file=err)
            bad = True
            continue
        parsed.append((number, lhs_text, rhs_text, lhs, rhs))
    return None if bad else parsed


def _counterexample_text(report: TransferReport) -> str:
    point = report.counterexample["point"]
    where = ", ".join(f"{name} = {value}" for name, value in sorted(point.items()))
    if not where:
        where = "(no variables)"
    return (
        f"counterexample at {where}: "
        f"{report.counterexample['lhs']} != {report.counterexample['rhs']}"
    )


def cmd_transfer(args, out: TextIO, err: TextIO) -> int:
    """check a corpus of claimed identities"""
    try:
        entries = load_corpus(args.file)
    except (UsageError, OSError, UnicodeDecodeError) as exc:
        print(exc, file=err)
        return 2
    parsed = _parse_corpus(entries, err)
    if parsed is None:
        return 2

    results = []
    for number, lhs_text, rhs_text, lhs, rhs in parsed:
        report = identities_transfer_check(
            lhs, rhs, seed=args.seed, precision=args.precision
        )
        results.append((number, lhs_text, rhs_text, report))

    held = sum(1 for *_rest, r in results if r.identity)
    failed = len(results) - held
    if args.format == "json":
        payload = [
            {
                "line": number,
                "lhs": lhs_text,
                "rhs": rhs_text,
                "report": report.to_json(),
            }
            for number, lhs_text, rhs_text, report in results
        ]
        print(json.dumps(payload), file=out)
    else:
        for number, lhs_text, rhs_text, report in results:
            mark = "PASS" if report.identity else "FAIL"
            print(f"[{mark}] line {number}: {lhs_text} == {rhs_text}", file=out)
            if not report.identity and report.counterexample is not None:
                print(f"       {_counterexample_text(report)}", file=out)
        print(f"checked {len(results)}: {held} hold, {failed} fail", file=out)
    return 4 if failed else 0


# -- repl ---------------------------------------------------------------------


def cmd_repl(args, out: TextIO, err: TextIO) -> int:
    """interactive evaluation loop"""
    try:
        import readline  # noqa: F401  (line editing when the host provides it)
    except ImportError:
        pass
    env = _environment(args)
    prompt = "lc> " if sys.stdin.isatty() else ""
    while True:
        try:
            line = input(prompt)
        except EOFError:
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("exit", "quit"):
            break
        name_text, sep, expr_text = line.partition("=")
        try:
            name = _name(name_text) if sep and not expr_text.startswith("=") else None
        except UsageError:  # not a binding: the line is an expression
            name = None
        try:
            source = line if name is None else expr_text.lstrip()
            value = evaluate(parse_text(source), env, args.precision)
            if name is not None:
                env[name] = value
            _render_value_text(value, out)
        except (ParseError, LCError) as exc:
            print(f"error: {exc}", file=err)
    return 0


# -- dispatch -----------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, sys.stdout, sys.stderr)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
