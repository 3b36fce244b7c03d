#!/usr/bin/env python3
"""Time greedy and the scan path at several sizes and write ``BENCH_<label>.json``.

    python scripts/bench.py --label NAME [--out DIR]

Standard library only.  Each row times one call at each size, as many
times as it takes to time ``LETTERS`` letters in all and never fewer than
``REPEATS``, and fits the slope of log time against log size (1 means
linear in the letters):

* ``GreedyState(...).extend_to(n)`` for w32 (3/2, threshold) and x32
  (3/2, exact) at 10^4, 3*10^4 and 10^5 letters, and for 401/400 and
  101/100 threshold at 3*10^3 and 10^4;
* ``contains_forbidden`` on w32 and on x32 at 10^4, 3*10^4, 10^5 and 10^6
  letters, each a clean verdict;
* ``check_x_squares`` and ``check_x_overlapfree`` on x32 at 10^4 and 10^5.

The scanned words are built before the clock starts.  The speed of a shared
machine drifts within a run and swings between runs, so every timed call
sits between two calls of perfbench's reference loop for ``scan``, and is
scaled as perfbench scales a job: to a machine where that loop takes
``REFERENCE_S``.  A row keeps, at each size, the number of calls, the
median raw seconds, the median reference time next to them and the
median scaled seconds; its
microseconds per letter and slope are read from the scaled ones, so two
files compare through them.  The environment block holds the Python
version, the CPU count and the git revision of the measured ``lexleast``
sources.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import lexleast
from lexleast.checks import CheckReport, check_x_overlapfree, check_x_squares
from lexleast.detect import AvoidanceMode, contains_forbidden
from lexleast.formulas import w32_prefix, x32_prefix
from lexleast.greedy import GreedyState
from lexleast.words import Exponent

ROOT = Path(__file__).resolve().parent.parent
E32 = Exponent(3, 2)
GREEDY_SIZES = (10_000, 30_000, 100_000)
NEAR_ONE_SIZES = (3_000, 10_000)
SCAN_SIZES = (10_000, 30_000, 100_000, 1_000_000)
CHECK_SIZES = (10_000, 100_000)
# the letters timed at each size: 20 calls at 10^4 letters, where one call
# of about 30 ms is too short to resolve 10% over 3 calls
LETTERS = 200_000
REPEATS = 3


def _greedy(exponent: Exponent, mode: AvoidanceMode) -> Callable[[int], Callable[[], bool]]:
    """A greedy row: the timed call builds the word of n letters from
    scratch, and is True once it holds them."""

    def prepare(n: int) -> Callable[[], bool]:
        def call() -> bool:
            state = GreedyState(exponent, mode)
            state.extend_to(n)
            return len(state) == n

        return call

    return prepare


def _scan(make: Callable[[int], list[int]], mode: AvoidanceMode) -> Callable[[int], Callable[[], bool]]:
    """A ``contains_forbidden`` row: the word of n letters is built first,
    and the timed call is True on a clean verdict."""

    def prepare(n: int) -> Callable[[], bool]:
        word = make(n)
        return lambda: contains_forbidden(word, E32, mode) is None

    return prepare


def _check(check: Callable[..., CheckReport]) -> Callable[[int], Callable[[], bool]]:
    """An x32 structure check's row, on an explicit x32 word built first."""

    def prepare(n: int) -> Callable[[], bool]:
        word = x32_prefix(n)
        return lambda: check(n, source=word).passed

    return prepare


# row name -> (the timed call at each size, the sizes)
ROWS: dict[str, tuple[Callable[[int], Callable[[], bool]], Sequence[int]]] = {
    "greedy w32 threshold": (_greedy(E32, AvoidanceMode.THRESHOLD), GREEDY_SIZES),
    "greedy x32 exact": (_greedy(E32, AvoidanceMode.EXACT), GREEDY_SIZES),
    "greedy 401/400 threshold": (_greedy(Exponent(401, 400), AvoidanceMode.THRESHOLD), NEAR_ONE_SIZES),
    "greedy 101/100 threshold": (_greedy(Exponent(101, 100), AvoidanceMode.THRESHOLD), NEAR_ONE_SIZES),
    "contains_forbidden w32 threshold": (_scan(w32_prefix, AvoidanceMode.THRESHOLD), SCAN_SIZES),
    "contains_forbidden x32 exact": (_scan(x32_prefix, AvoidanceMode.EXACT), SCAN_SIZES),
    "check_x_squares": (_check(check_x_squares), CHECK_SIZES),
    "check_x_overlapfree": (_check(check_x_overlapfree), CHECK_SIZES),
}


def slope(sizes: Sequence[int], seconds: Sequence[float]) -> float | None:
    """Least-squares slope of log(seconds) against log(size); None below two sizes."""
    if len(sizes) < 2:
        return None
    xs, ys = [math.log(n) for n in sizes], [math.log(s) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def calls_at(n: int) -> int:
    """The timed calls at n letters: enough to time ``LETTERS`` letters,
    and never fewer than ``REPEATS``."""
    return max(REPEATS, -(-LETTERS // n))


def row(name: str, sizes: Sequence[int], repeats: int | None = None) -> dict:
    """Timed calls of row ``name`` at each size, ``repeats`` of them or
    ``calls_at(n)``, each between two calls of the reference loop.  Per
    size: the median raw seconds, the median reference seconds (mean of the
    loop just before and just after a call) and the median scaled seconds;
    microseconds per letter and the fitted slope come from the scaled
    seconds."""
    prepare, _ = ROWS[name]
    perfbench = _perfbench()
    reference, scaled = perfbench.REFERENCES["scan"], perfbench.scaled
    calls = [repeats or calls_at(n) for n in sizes]
    raw, references, seconds = [], [], []
    for n, k in zip(sizes, calls):
        call, times, refs = prepare(n), [], []
        for _ in range(k):
            before = reference()
            t0 = time.perf_counter()
            clean = call()
            times.append(time.perf_counter() - t0)
            refs.append((before + reference()) / 2)
            if not clean:
                raise RuntimeError(f"{name} at {n} letters: the call's check failed")
        raw.append(statistics.median(times))
        references.append(statistics.median(refs))
        seconds.append(statistics.median(scaled(t, r) for t, r in zip(times, refs)))
    return {
        "row": name,
        "sizes": list(sizes),
        "calls": calls,
        "raw_seconds": raw,
        "reference_s": references,
        "seconds": seconds,
        "us_per_letter": [s / n * 1e6 for n, s in zip(sizes, seconds)],
        "slope": slope(sizes, seconds),
    }


@functools.cache
def _perfbench():
    """perfbench's driver module, loaded once from its file."""
    folder = str(ROOT / "perfbench")
    sys.path.insert(0, folder)  # run.py imports its tracer by module name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name while the class is built
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(folder)
    return module


def revision(sources: Path = Path(lexleast.__file__).parent.parent) -> str | None:
    """``git describe --always`` of the checkout holding ``sources`` (the
    measured package's ``src``), with ``-dirty`` only when a file under
    ``sources`` differs from it: a BENCH file written elsewhere in the
    checkout leaves the next run clean."""

    def git(*args: str) -> str:
        proc = subprocess.run(["git", *args], cwd=sources, capture_output=True, text=True, timeout=30)
        return proc.stdout.strip()

    try:
        commit, changed = git("describe", "--always"), git("status", "--porcelain", "--", ".")
    except OSError:
        return None
    return commit + "-dirty" * bool(changed) if commit else None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the file (default: the repository)")
    args = parser.parse_args(argv)
    rows = []
    for name, (_, sizes) in ROWS.items():
        rows.append(row(name, sizes))
        print(f"{name}: " + ", ".join(f"{us:.2f}" for us in rows[-1]["us_per_letter"]) + " us/letter", file=sys.stderr)
    report = {
        "schema": "bench/3",
        "label": args.label,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "git_revision": revision(),
            "letters_per_size": LETTERS,
            "min_repeats": REPEATS,
            "scaled_to_reference_s": _perfbench().REFERENCE_S,
        },
        "rows": rows,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
