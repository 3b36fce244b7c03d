#!/usr/bin/env python3
"""Run the whole verification battery at desk scale and print a summary.

The battery and its bounds are ``lexleast.checks.BATTERY``; default bounds
match the acceptance suite, and --fast shrinks everything for a quick smoke
run.  Exits non-zero if any check fails.
"""

import argparse
import sys
import time

from lexleast.checks import BATTERY


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="shrink all bounds")
    args = parser.parse_args()

    failures = 0
    total_elapsed = 0.0
    for check, bounds, fast_bounds in BATTERY:
        t0 = time.perf_counter()
        report = check(**(fast_bounds if args.fast else bounds))
        elapsed = time.perf_counter() - t0
        total_elapsed += elapsed
        print(f"{report.summary()}  [{elapsed:.2f}s]")
        if not report.passed:
            failures += 1
    print(f"\n{failures} failing check(s), {total_elapsed:.1f}s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
