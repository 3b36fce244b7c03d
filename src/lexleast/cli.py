"""Command line interface.

Subcommands: ``generate`` (write a prefix of a least avoiding word),
``term`` (one sequence value), ``scan`` (test an input word for forbidden
repetitions), and ``verify`` (run a structural check).

Exit codes are uniform: 0 means pass or clean, 1 means a violation or
forbidden factor was found, 2 means a usage or parse error.  Standard
output is fully deterministic; timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import count, islice
from typing import Iterable, Iterator, TextIO

from . import checks
from .detect import AvoidanceMode, contains_forbidden
from .formulas import (
    b_closed,
    b_rec,
    c_closed,
    c_term,
    d_closed,
    d_term,
    f_term,
    ruler_term,
    w32_term,
    x32_term,
)
from .greedy import GreedyState
from .morphic import w32_stream, x32_stream
from .words import Exponent, check_letters

THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT


def _exponent_arg(text: str) -> Exponent:
    try:
        return Exponent.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _mode_arg(text: str) -> AvoidanceMode:
    try:
        return AvoidanceMode(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"mode must be threshold or exact, got {text!r}") from None


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def parse_letters_text(text: str) -> list[int]:
    """Parse a word from text: whitespace or comma separated naturals, or a
    JSON array of naturals.  This accepts everything ``generate`` emits."""
    text = text.strip()
    if not text:
        return []
    if text.startswith("["):
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("JSON input must be an array of naturals")
        return check_letters(data)
    return check_letters([int(tok) for tok in text.replace(",", " ").split()])


def _emit(out: TextIO, letters: Iterable[int], fmt: str) -> None:
    if fmt == "json":
        json.dump([int(v) for v in letters], out)
        out.write("\n")
        return
    if fmt == "lines":
        for v in letters:
            out.write(f"{v}\n")
        return
    first = True
    for v in letters:
        if not first:
            out.write(",")
        out.write(str(v))
        first = False
    out.write("\n")


def _greedy_iter(exponent: Exponent, mode: AvoidanceMode) -> Iterator[int]:
    state = GreedyState(exponent, mode)
    while True:
        yield state.step()


_CLOSED = {
    (3, 2, THRESHOLD): w32_term,
    (3, 2, EXACT): f_term,
    (2, 1, THRESHOLD): ruler_term,
}

_MORPHIC = {
    (3, 2, THRESHOLD): w32_stream,
    (3, 2, EXACT): x32_stream,
}


def cmd_generate(args: argparse.Namespace) -> int:
    key = (args.exponent.p, args.exponent.q, args.mode)
    if args.method == "greedy":
        stream: Iterator[int] = _greedy_iter(args.exponent, args.mode)
    elif args.method == "closed":
        term = _CLOSED.get(key)
        if term is None:
            print(
                f"error: no closed form for exponent {args.exponent} in {args.mode.value} mode",
                file=sys.stderr,
            )
            return 2
        stream = (term(i) for i in count())
    else:
        maker = _MORPHIC.get(key)
        if maker is None:
            print(
                f"error: no morphic generator for exponent {args.exponent} in {args.mode.value} mode",
                file=sys.stderr,
            )
            return 2
        stream = maker()
    _emit(sys.stdout, islice(stream, args.length), args.format)
    return 0


_TERMS = {
    "w32": (w32_term, None),
    "b": (b_rec, b_closed),
    "c": (c_term, c_closed),
    "d": (d_term, d_closed),
    "f": (f_term, None),
    "x32": (x32_term, None),
    "ruler": (ruler_term, None),
}


def cmd_term(args: argparse.Namespace) -> int:
    plain, closed = _TERMS[args.which]
    if args.closed:
        if closed is None:
            print(f"error: --closed is not available for {args.which}", file=sys.stderr)
            return 2
        if args.which in ("c", "d") and args.index < 1:
            print(f"error: the closed form of {args.which} needs index >= 1", file=sys.stderr)
            return 2
        print(closed(args.index))
        return 0
    print(plain(args.index))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        letters = parse_letters_text(text)
        occ = contains_forbidden(letters, args.exponent, args.mode)
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if occ is None:
        print("clean")
        return 0
    print(f"forbidden start={occ.start} period={occ.period} length={occ.length}")
    return 1


_VERIFY = {
    "powerfree": (checks.check_powerfree, ("source", "length")),
    "minimality": (checks.check_minimality, ("source", "length")),
    "cross": (checks.check_cross, ("length",)),
    "ell-claim": (checks.check_ell_claim, ("n_max",)),
    "eq6-intervals": (checks.check_eq6_intervals, ("n_max",)),
    "b-inequality": (checks.check_b_inequality, ("s_max", "j_max")),
    "b-window": (checks.check_b_window, ("n_max", "r_max")),
    "x-squares": (checks.check_x_squares, ("source", "length")),
    "x-overlap": (checks.check_x_overlapfree, ("source", "length")),
}

_VERIFY_DEFAULT_TARGET = {"powerfree": "w32", "minimality": "w32"}


def cmd_verify(args: argparse.Namespace) -> int:
    runner, accepted = _VERIFY[args.check]
    kwargs: dict[str, object] = {}
    if "source" in accepted:
        kwargs["source"] = args.target or _VERIFY_DEFAULT_TARGET.get(args.check, "x32")
    for cli_name, kw_name in (
        ("length", "length"),
        ("n_max", "n_max"),
        ("r_max", "r_max"),
        ("s_max", "s_max"),
        ("j_max", "j_max"),
    ):
        if kw_name in accepted and getattr(args, cli_name) is not None:
            kwargs[kw_name] = getattr(args, cli_name)
    try:
        report = runner(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexleast",
        description="Lexicographically least power-avoiding sequences over the naturals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a prefix of a least avoiding word")
    gen.add_argument("--exponent", type=_exponent_arg, default=Exponent(3, 2), metavar="P/Q")
    gen.add_argument("--mode", type=_mode_arg, default=THRESHOLD, metavar="threshold|exact")
    gen.add_argument("--length", type=_nonnegative, required=True, metavar="N")
    gen.add_argument("--method", choices=("greedy", "closed", "morphism"), default="greedy")
    gen.add_argument("--format", choices=("lines", "csv", "json"), default="csv")
    gen.set_defaults(func=cmd_generate)

    term = sub.add_parser("term", help="print one sequence value")
    term.add_argument("--which", choices=sorted(_TERMS), required=True)
    term.add_argument("--index", type=_nonnegative, required=True, metavar="N")
    term.add_argument("--closed", action="store_true", help="use the closed form (b, c, d)")
    term.set_defaults(func=cmd_term)

    scan = sub.add_parser("scan", help="test a word for forbidden repetitions")
    scan.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    scan.add_argument("--exponent", type=_exponent_arg, default=Exponent(3, 2), metavar="P/Q")
    scan.add_argument("--mode", type=_mode_arg, default=THRESHOLD, metavar="threshold|exact")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify", help="run a structural check")
    verify.add_argument("check", choices=sorted(_VERIFY))
    verify.add_argument("--target", default=None, help="generator id for targeted checks")
    verify.add_argument("--length", type=_nonnegative, default=None)
    verify.add_argument("--n-max", dest="n_max", type=_nonnegative, default=None)
    verify.add_argument("--r-max", dest="r_max", type=_nonnegative, default=None)
    verify.add_argument("--s-max", dest="s_max", type=_nonnegative, default=None)
    verify.add_argument("--j-max", dest="j_max", type=_nonnegative, default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return args.func(args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # flush at exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    run()
