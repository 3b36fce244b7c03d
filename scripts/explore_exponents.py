#!/usr/bin/env python3
"""Greedy experiments across exponents.

Prints the opening of the least avoiding word and its letter usage for a
grid of exponents in both disciplines.  Nothing here is a proven statement;
the interesting open direction is whether thresholds like 5/2 keep the
alphabet finite, and this gives a quick empirical look.
"""

import argparse
import os
import sys
from collections import Counter

from lexleast.cli import _exponent_arg
from lexleast.detect import AvoidanceMode
from lexleast.greedy import generate

DEFAULT_EXPONENTS = ("4/3", "3/2", "5/3", "2/1", "5/2", "3/1")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=2_000)
    parser.add_argument(
        "--exponents", nargs="*", type=_exponent_arg,
        default=[_exponent_arg(text) for text in DEFAULT_EXPONENTS], metavar="P/Q",
    )
    args = parser.parse_args()
    if args.length < 1:
        parser.error(f"--length must be at least 1, got {args.length}")

    for exponent in args.exponents:
        for mode in AvoidanceMode:
            word = generate(exponent, mode, args.length)
            usage = Counter(word)
            head = " ".join(str(v) for v in word[:30])
            print(f"{exponent} {mode.value:9s} letters<= {max(word):3d}  "
                  f"distinct {len(usage):3d}  head {head}")
        print()


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # flush at exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
