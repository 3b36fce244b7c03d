#!/usr/bin/env python3
"""Time greedy and the scan path at several sizes and write ``BENCH_<label>.json``.

    python scripts/bench.py --label NAME [--parent SRC] [--out DIR]

Standard library only.  The calls run in one worker process per source
tree: this checkout's ``src`` and, given ``--parent``, the ``src`` of
another checkout (the parent commit's, say), which is written to
``BENCH_<label>-parent.json``.  The workers take turns call by call, the
order alternating from one call to the next, so both files of a run see the
same machine.  Each row times one call at each size, as many times as it
takes to time ``LETTERS`` letters in all and never fewer than ``REPEATS``,
and fits the slope of log time against log size (1 means linear in the
letters):

* ``GreedyState(...).extend_to(n)`` for w32 (3/2, threshold) and x32
  (3/2, exact) at 10^4, 3*10^4 and 10^5 letters, for 5/4 exact and 4/3
  threshold at 10^4 and 3*10^4, and for 401/400 and 101/100 threshold at
  3*10^3 and 10^4;
* ``contains_forbidden`` on w32 and on x32 at 10^4, 3*10^4, 10^5 and 10^6
  letters, on the greedy words of 5/4 exact and 4/3 threshold at 10^4 and
  3*10^4, and on those of 401/400 and 101/100 threshold at 3*10^3 and
  10^4, each a clean verdict;
* ``check_x_squares`` and ``check_x_overlapfree`` on x32 at 10^4 and 10^5.

The scanned words are built before the clock starts.  The speed of a shared
machine drifts within a run and swings between runs, so every timed call
sits between two calls of perfbench's reference loop for ``scan``, and is
scaled as perfbench scales a job: to a machine where that loop takes
``REFERENCE_S``.  A row keeps, at each size, the number of calls, the
median raw seconds, the median reference time next to them and the
median scaled seconds; its microseconds per letter and slope are read from
the scaled ones, so two files compare through them.  The environment block
holds the Python version, the CPU count, the git revision of the measured
``lexleast`` sources and that of the tree timed beside them, if any.
"""

from __future__ import annotations

import argparse
import contextlib
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
from lexleast.greedy import GreedyState, generate
from lexleast.words import Exponent

ROOT = Path(__file__).resolve().parent.parent
E32 = Exponent(3, 2)
THRESHOLD, EXACT = AvoidanceMode.THRESHOLD, AvoidanceMode.EXACT
GREEDY_SIZES = (10_000, 30_000, 100_000)
MID_SIZES = (10_000, 30_000)
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


def _scan(
    make: Callable[[int], list[int]], mode: AvoidanceMode, exponent: Exponent = E32
) -> Callable[[int], Callable[[], bool]]:
    """A ``contains_forbidden`` row: the word of n letters is built first,
    and the timed call is True on a clean verdict."""

    def prepare(n: int) -> Callable[[], bool]:
        word = make(n)
        return lambda: contains_forbidden(word, exponent, mode) is None

    return prepare


def _scan_greedy(exponent: Exponent, mode: AvoidanceMode) -> Callable[[int], Callable[[], bool]]:
    """A ``contains_forbidden`` row on the greedy word of its rule."""
    return _scan(lambda n: generate(exponent, mode, n), mode, exponent)


def _check(check: Callable[..., CheckReport]) -> Callable[[int], Callable[[], bool]]:
    """An x32 structure check's row, on an explicit x32 word built first."""

    def prepare(n: int) -> Callable[[], bool]:
        word = x32_prefix(n)
        return lambda: check(n, source=word).passed

    return prepare


E54, E43, E401, E101 = Exponent(5, 4), Exponent(4, 3), Exponent(401, 400), Exponent(101, 100)
# row name -> (the timed call at each size, the sizes)
ROWS: dict[str, tuple[Callable[[int], Callable[[], bool]], Sequence[int]]] = {
    "greedy w32 threshold": (_greedy(E32, THRESHOLD), GREEDY_SIZES),
    "greedy x32 exact": (_greedy(E32, EXACT), GREEDY_SIZES),
    "greedy 5/4 exact": (_greedy(E54, EXACT), MID_SIZES),
    "greedy 4/3 threshold": (_greedy(E43, THRESHOLD), MID_SIZES),
    "greedy 401/400 threshold": (_greedy(E401, THRESHOLD), NEAR_ONE_SIZES),
    "greedy 101/100 threshold": (_greedy(E101, THRESHOLD), NEAR_ONE_SIZES),
    "contains_forbidden w32 threshold": (_scan(w32_prefix, THRESHOLD), SCAN_SIZES),
    "contains_forbidden x32 exact": (_scan(x32_prefix, EXACT), SCAN_SIZES),
    "contains_forbidden 5/4 exact": (_scan_greedy(E54, EXACT), MID_SIZES),
    "contains_forbidden 4/3 threshold": (_scan_greedy(E43, THRESHOLD), MID_SIZES),
    "contains_forbidden 401/400 threshold": (_scan_greedy(E401, THRESHOLD), NEAR_ONE_SIZES),
    "contains_forbidden 101/100 threshold": (_scan_greedy(E101, THRESHOLD), NEAR_ONE_SIZES),
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


def summary(name: str, sizes: Sequence[int], samples: Sequence[Sequence[tuple[float, float]]]) -> dict:
    """Row ``name`` of a file, from the (raw seconds, reference seconds) of
    each timed call at each size.  Per size: the median raw seconds, the
    median reference seconds (mean of the loop just before and just after a
    call) and the median scaled seconds; microseconds per letter and the
    fitted slope come from the scaled seconds."""
    scaled = _perfbench().scaled
    seconds = [statistics.median(scaled(t, r) for t, r in calls) for calls in samples]
    return {
        "row": name,
        "sizes": list(sizes),
        "calls": [len(calls) for calls in samples],
        "raw_seconds": [statistics.median(t for t, _ in calls) for calls in samples],
        "reference_s": [statistics.median(r for _, r in calls) for calls in samples],
        "seconds": seconds,
        "us_per_letter": [s / n * 1e6 for n, s in zip(sizes, seconds)],
        "slope": slope(sizes, seconds),
    }


class Worker:
    """This script in a process of its own, importing ``lexleast`` from
    ``src``, that times one call of a row at a size per request."""

    def __init__(self, src: Path) -> None:
        self.src = src.resolve()
        path = os.pathsep.join(filter(None, (str(self.src), os.environ.get("PYTHONPATH"))))
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        package = Path(self._read()).resolve()
        if self.src not in package.parents:
            self.close()
            raise RuntimeError(f"the worker for {self.src} imported lexleast from {package}")

    def _read(self):
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker for {self.src} exited with {self._proc.wait()}")
        return json.loads(line)

    def time(self, name: str, n: int) -> tuple[float, float]:
        """(raw seconds, reference seconds) of one call of row ``name`` at n letters."""
        self._proc.stdin.write(json.dumps([name, n]) + "\n")
        self._proc.stdin.flush()
        seconds, reference, clean = self._read()
        if not clean:
            raise RuntimeError(f"{name} at {n} letters from {self.src}: the call's check failed")
        return seconds, reference

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def serve() -> None:
    """The worker's loop: report where ``lexleast`` came from, then for each
    request line ``[row, n]`` time one call between two reference loops and
    write ``[seconds, reference seconds, check passed]``."""
    reference = _perfbench().REFERENCES["scan"]
    print(json.dumps(lexleast.__file__), flush=True)
    prepared: dict[tuple[str, int], Callable[[], bool]] = {}
    for line in sys.stdin:
        name, n = json.loads(line)
        if (name, n) not in prepared:
            prepared.clear()  # the previous size's word goes
            prepared[name, n] = ROWS[name][0](n)
        call = prepared[name, n]
        before = reference()
        t0 = time.perf_counter()
        clean = call()
        seconds = time.perf_counter() - t0
        print(json.dumps([seconds, (before + reference()) / 2, clean]), flush=True)


def measure(
    sources: Sequence[Path], plan: Sequence[tuple[str, Sequence[int]]], repeats: int | None = None
) -> list[list[dict]]:
    """The rows of ``plan`` (row name, sizes), timed in one worker per tree
    of ``sources``, ``repeats`` calls at each size or ``calls_at(n)``: the
    workers time each call in turn, the first one first at even calls and
    last at odd ones.  Returns the rows of each tree."""
    with contextlib.ExitStack() as stack:
        workers = []
        for src in sources:
            workers.append(Worker(src))
            stack.callback(workers[-1].close)
        results: list[list[dict]] = [[] for _ in workers]
        for name, sizes in plan:
            samples = [[[] for _ in sizes] for _ in workers]
            for j, n in enumerate(sizes):
                for k in range(repeats or calls_at(n)):
                    for i in range(len(workers))[:: -1 if k % 2 else 1]:
                        samples[i][j].append(workers[i].time(name, n))
            for rows, tree in zip(results, samples):
                rows.append(summary(name, sizes, tree))
        return results


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
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--parent", type=Path, help="the src of a second checkout, timed beside this one")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the file (default: the repository)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve()
        return 0
    if not args.label:
        parser.error("--label is required")
    trees = [(ROOT / "src", args.label), *([(args.parent, f"{args.label}-parent")] if args.parent else [])]
    revisions = [revision(src) for src, _ in trees]
    results = measure([src for src, _ in trees], [(name, sizes) for name, (_, sizes) in ROWS.items()])
    for i, ((_, label), rows) in enumerate(zip(trees, results)):
        for entry in rows:
            print(f"{label} {entry['row']}: " + ", ".join(f"{us:.2f}" for us in entry["us_per_letter"]) + " us/letter",
                  file=sys.stderr)
        report = {
            "schema": "bench/4",
            "label": label,
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "cpu_count": os.cpu_count(),
                "git_revision": revisions[i],
                "timed_beside": [rev for j, rev in enumerate(revisions) if j != i],
                "letters_per_size": LETTERS,
                "min_repeats": REPEATS,
                "scaled_to_reference_s": _perfbench().REFERENCE_S,
            },
            "rows": rows,
        }
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
