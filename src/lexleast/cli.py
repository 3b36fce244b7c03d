"""Command line interface.

Subcommands: ``generate`` (write a prefix of a least avoiding word),
``term`` (one sequence value), ``scan`` (test an input word for forbidden
repetitions), and ``verify`` (run a structural check).  Only ``verify``
imports ``lexleast.checks``, so the other commands start without it.

Exit codes are uniform: 0 means pass or clean, 1 means a violation or
forbidden factor was found, 2 means a usage or parse error.  Standard
output is fully deterministic; timings go to stderr.  ``json`` is imported
only to read JSON input or print a JSON report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
from functools import cache
from itertools import chain, islice
from typing import Iterable, Iterator, TextIO

from .detect import AvoidanceMode, contains_forbidden
from .formulas import (
    BLOCKS,
    b_closed,
    b_rec,
    by_blocks,
    c_closed,
    c_term,
    d_closed,
    d_term,
    f_term,
    ruler_term,
    w32_term,
)
from .greedy import chunks
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
    # ASCII digits alone, as scan's letters: int() also reads '1_0', '+1', ' 1' and other scripts' digits
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer in ASCII digits, got {text!r}")
    return int(text)


def parse_letters_text(text: str) -> list[int]:
    """The word in ``text``, read as ``read_letters`` reads it."""
    return list(read_letters(io.StringIO(text)))


CHUNK = 8192


def read_letters(handle: TextIO) -> Iterator[int]:
    """The word in ``handle``, read ``CHUNK`` characters at a time: naturals
    split by whitespace or commas, each ASCII digits alone (``int`` would
    also take ``1_0``, ``+1`` and other scripts' digits), streamed as ints,
    or a JSON array, known by its first non-space character, read whole."""
    pieces = iter(lambda: handle.read(CHUNK), "")
    for chunk in pieces:
        chunk = chunk.lstrip()
        if chunk:
            break
    else:
        return
    if chunk[0] == "[":
        import json

        yield from check_letters(json.loads("".join([chunk, *pieces]).strip()))
        return
    carry = ""
    while chunk:
        text = carry + chunk
        tokens = text.replace(",", " ").split()
        # a token that runs to the end of the chunk may go on in the next
        carry = "" if chunk[-1] == "," or chunk[-1].isspace() else tokens.pop()
        # an ASCII text's isascii() is read off its header: only other spaces test each token
        if not (all(map(str.isdigit, tokens)) and (text.isascii() or all(map(str.isascii, tokens)))):
            bad = next(t for t in tokens if not (t.isascii() and t.isdigit()))
            raise ValueError(f"not a natural number: {bad!r}")
        yield from map(int, tokens)
        # past the last chunk, a space ends the token carried from it
        chunk = next(pieces, " " if carry else "")


# the text of letters 0-63, which hold every letter of the closed-form words
# far past 10^6 letters; larger letters are formatted as they come
_LINES = tuple(f"{v}\n" for v in range(64))
# each cell format's opening text, separator and closing text, and its cells
_FRAMES = {"csv": ("", ",", "\n"), "json": ("[", ", ", "]\n")}
_CELLS = {fmt: tuple(f"{v}{sep}" for v in range(64)) for fmt, (_, sep, _) in _FRAMES.items()}


def _emit(out: TextIO, letters: Iterable[int], fmt: str) -> None:
    """Write the natural numbers ``letters`` to ``out`` in ``fmt``: under
    ``lines`` one ``write`` per letter, else 4,096 cells per ``write``."""
    write = out.write
    if fmt == "lines":
        for v in letters:
            write(_LINES[v] if v < 64 else f"{v}\n")
        return
    opening, sep, closing = _FRAMES[fmt]
    table, letters, lead = _CELLS[fmt], iter(letters), ""
    write(opening)
    while cells := [table[v] if v < 64 else f"{v}{sep}" for v in islice(letters, 4096)]:
        # each cell ends with the separator, the block's last too
        write(lead + "".join(cells)[: -len(sep)])
        lead = sep
    write(closing)


# the ``by_blocks`` settings (term, size, cycle) of each closed form
_CLOSED = {
    (3, 2, THRESHOLD): BLOCKS["w32"],
    (3, 2, EXACT): BLOCKS["x32"],
    (2, 1, THRESHOLD): BLOCKS["ruler"],
}

_MORPHIC = {
    (3, 2, THRESHOLD): w32_stream,
    (3, 2, EXACT): x32_stream,
}


def cmd_generate(args: argparse.Namespace) -> int:
    if args.method == "greedy":
        stream = chain.from_iterable(chunks(args.exponent, args.mode, args.length))
    else:
        table, what = (_CLOSED, "closed form") if args.method == "closed" else (_MORPHIC, "morphic generator")
        entry = table.get((args.exponent.p, args.exponent.q, args.mode))
        if entry is None:
            print(f"error: no {what} for exponent {args.exponent} in {args.mode.value} mode", file=sys.stderr)
            return 2
        stream = by_blocks(*entry) if table is _CLOSED else entry()
    _emit(sys.stdout, islice(stream, args.length), args.format)
    return 0


_TERMS = {
    "w32": (w32_term, None),
    "b": (b_rec, b_closed),
    "c": (c_term, c_closed),
    "d": (d_term, d_closed),
    "f": (f_term, None),
    "x32": (f_term, None),
    "ruler": (ruler_term, None),
}


def cmd_term(args: argparse.Namespace) -> int:
    plain, closed = _TERMS[args.which]
    term = closed if args.closed else plain
    if term is None:
        print(f"error: --closed is not available for {args.which}", file=sys.stderr)
        return 2
    try:
        print(term(args.index))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        with contextlib.nullcontext(sys.stdin) if args.path == "-" else open(args.path, encoding="utf-8") as handle:
            occ = contains_forbidden(read_letters(handle), args.exponent, args.mode)
    except (OSError, ValueError, OverflowError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the decoder can follow
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if occ is None:
        print("clean")
        return 0
    print(f"forbidden start={occ.start} period={occ.period} length={occ.length}")
    return 1


# each check's function in ``lexleast.checks``, by name: the module is
# imported, and the function looked up, only when ``verify`` runs
_VERIFY = {
    "powerfree": "check_powerfree",
    "minimality": "check_minimality",
    "cross": "check_cross",
    "ell-claim": "check_ell_claim",
    "eq6-intervals": "check_eq6_intervals",
    "b-inequality": "check_b_inequality",
    "b-window": "check_b_window",
    "x-squares": "check_x_squares",
    "x-overlap": "check_x_overlapfree",
}


def cmd_verify(args: argparse.Namespace) -> int:
    import inspect

    from . import checks

    runner = getattr(checks, _VERIFY[args.check])
    accepted = inspect.signature(runner).parameters
    kwargs: dict[str, object] = {}
    for name in ("source", "length", "n_max", "r_max", "s_max", "j_max"):
        value = getattr(args, name)
        if value is None:
            continue  # the check keeps its own default
        if name not in accepted:
            flag = "--target" if name == "source" else "--" + name.replace("_", "-")
            print(f"error: verify {args.check} takes no {flag}", file=sys.stderr)
            return 2
        kwargs[name] = value
    t0 = time.perf_counter()
    try:
        report = runner(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
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
    verify.add_argument("--target", dest="source", default=None, help="generator id for targeted checks")
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
