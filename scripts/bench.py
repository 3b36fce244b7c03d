#!/usr/bin/env python3
"""Time greedy, the scan path and ``generate`` at several sizes and write
``BENCH_<label>.json``.

    python scripts/bench.py --label NAME [--parent SRC] [--out DIR]
    python scripts/bench.py --compare PARENT.json CHANGE.json

Standard library only, and run from any checkout: only the workers import
``lexleast``.  The calls run in one worker process per source tree: this
checkout's ``src`` and, given ``--parent``, the ``src`` of another checkout
(the parent commit's, say), which is written to
``BENCH_<label>-parent.json``.  The workers take turns call by call, the
order alternating from one call to the next, so both files of a run see the
same machine.  Each row times one call at each size, as many times as it
takes to time ``LETTERS`` (200,000) letters in all, never fewer than
``REPEATS`` (9) times, and until each tree's worker has spent ``SECONDS``
(2 s) on the size, reference loops included; it fits the slope of log time
against log size (1 means linear in the letters):

* ``GreedyState(...).extend_to(n)`` for w32 (3/2, threshold) and x32
  (3/2, exact) at 10^4, 3*10^4, 10^5 and 10^6 letters, for 5/4 exact, 4/3
  threshold, and 5/1 threshold and 11/2 exact (above exponent 3, where S is
  16) at 10^4 and 3*10^4, and for 401/400 and 101/100, threshold and exact,
  at 3*10^3, 10^4 and 3*10^4, so that their slopes span a decade;
* ``contains_forbidden`` on w32 and on x32 at 10^4, 3*10^4, 10^5 and 10^6
  letters, on w32 with each letter times 257 (2 bytes a letter in the
  scan's word) at 10^4 and 3*10^4, on the greedy words of 5/4 exact, 4/3
  threshold, 5/1 threshold and 11/2 exact at 10^4 and 3*10^4, and on those
  of 401/400 and 101/100, threshold and exact, at 3*10^3, 10^4 and 3*10^4,
  each a clean verdict;
* ``check_x_squares`` and ``check_x_overlapfree`` on x32 at 10^4 and 10^5;
* ``lexleast generate --method closed|morphism`` at 3/2 threshold, in
  ``lines``, ``csv`` and ``json``, at 10^4, 10^5 and 10^6 letters, and
  ``--method greedy`` at 10^4 and 10^5, written to the null device; and
  the other routes of perfbench's ``stream``, in ``lines`` at 10^4 to 10^6
  letters: ``closed`` and ``morphism`` at 3/2 exact, ``closed`` at 2/1.

The scanned words are built before the clock starts.  The speed of a shared
machine drifts within a run and swings between runs, so every timed call
sits between two calls of perfbench's reference loop for ``scan``, and is
scaled as perfbench scales a job: to a machine where that loop takes
``REFERENCE_S``.  A row keeps, at each size, the number of calls, the
median raw seconds, the median reference time next to them, the median
scaled seconds and their spread (interquartile range over median); its
microseconds per letter and slope are read from the scaled ones, so two
files compare through them.  ``--compare PARENT CHANGE`` prints, for each
row of two such files, the ratio CHANGE/PARENT of the microseconds per
letter at each size, called slower or faster only beyond the larger of the
two spreads, and the change of the slope.  The environment block
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

ROOT = Path(__file__).resolve().parent.parent
GREEDY_SIZES = (10_000, 30_000, 100_000, 1_000_000)
MID_SIZES = (10_000, 30_000)
NEAR_ONE_SIZES = (3_000, 10_000, 30_000)
SCAN_SIZES = (10_000, 30_000, 100_000, 1_000_000)
CHECK_SIZES = (10_000, 100_000)
GENERATE_SIZES = (10_000, 100_000, 1_000_000)
GREEDY_GENERATE_SIZES = (10_000, 100_000)
# the letters timed at each size: 20 calls at 10^4 letters, where one call
# of about 30 ms is too short to resolve 10% over 3 calls
LETTERS = 200_000
# and at least 9 calls and 2 s of each worker's time, its reference loops
# included: 3 calls of 0.1-0.3 s at 10^5 letters read 1.26 on unchanged
# code, and 5 at 10^6 read 1.08, then 0.74, on the same scan loop
REPEATS = 9
SECONDS = 2.0

# The rows import ``lexleast`` only when a worker prepares a call.


def _rule(exponent: str, mode: str) -> tuple:
    """(Exponent, AvoidanceMode) of a row's rule, as written on the command line."""
    from lexleast import AvoidanceMode, Exponent

    return Exponent.parse(exponent), AvoidanceMode(mode)


def _greedy(exponent: str, mode: str) -> Callable[[int], Callable[[], bool]]:
    """A greedy row: the timed call builds the word of n letters from
    scratch, and is True once it holds them."""

    def prepare(n: int) -> Callable[[], bool]:
        from lexleast.greedy import GreedyState

        rule = _rule(exponent, mode)

        def call() -> bool:
            state = GreedyState(*rule)
            state.extend_to(n)
            return len(state) == n

        return call

    return prepare


def _scan(exponent: str, mode: str, word: str | None = None, times: int = 1) -> Callable[[int], Callable[[], bool]]:
    """A ``contains_forbidden`` row: the word of n letters, ``word``'s prefix
    from ``lexleast.formulas`` or else the rule's greedy word, each letter
    times ``times``, is built first, and the timed call is True on a clean
    verdict."""

    def prepare(n: int) -> Callable[[], bool]:
        from lexleast import formulas
        from lexleast.detect import contains_forbidden
        from lexleast.greedy import generate

        rule = _rule(exponent, mode)
        letters = [v * times for v in (getattr(formulas, word)(n) if word else generate(*rule, n))]
        return lambda: contains_forbidden(letters, *rule) is None

    return prepare


def _check(check: str) -> Callable[[int], Callable[[], bool]]:
    """An x32 structure check's row, on an explicit x32 word built first."""

    def prepare(n: int) -> Callable[[], bool]:
        from lexleast import checks
        from lexleast.formulas import x32_prefix

        word = x32_prefix(n)
        return lambda: getattr(checks, check)(n, source=word).passed

    return prepare


def _generate(
    method: str, fmt: str, exponent: str = "3/2", mode: str = "threshold"
) -> Callable[[int], Callable[[], bool]]:
    """A ``generate`` row: the timed call runs the command for n letters,
    written to the null device (the worker's stdout carries its replies),
    and is True when it exits 0."""

    def prepare(n: int) -> Callable[[], bool]:
        from lexleast.cli import main

        argv = [
            "generate", "--exponent", exponent, "--mode", mode, "--method", method,
            "--format", fmt, "--length", str(n),
        ]

        def call() -> bool:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                return main(argv) == 0

        return call

    return prepare


# row name -> (the timed call at each size, the sizes)
ROWS: dict[str, tuple[Callable[[int], Callable[[], bool]], Sequence[int]]] = {
    "greedy w32 threshold": (_greedy("3/2", "threshold"), GREEDY_SIZES),
    "greedy x32 exact": (_greedy("3/2", "exact"), GREEDY_SIZES),
    "greedy 5/4 exact": (_greedy("5/4", "exact"), MID_SIZES),
    "greedy 4/3 threshold": (_greedy("4/3", "threshold"), MID_SIZES),
    "greedy 5/1 threshold": (_greedy("5/1", "threshold"), MID_SIZES),
    "greedy 11/2 exact": (_greedy("11/2", "exact"), MID_SIZES),
    "greedy 401/400 threshold": (_greedy("401/400", "threshold"), NEAR_ONE_SIZES),
    "greedy 101/100 threshold": (_greedy("101/100", "threshold"), NEAR_ONE_SIZES),
    "greedy 401/400 exact": (_greedy("401/400", "exact"), NEAR_ONE_SIZES),
    "greedy 101/100 exact": (_greedy("101/100", "exact"), NEAR_ONE_SIZES),
    "contains_forbidden w32 threshold": (_scan("3/2", "threshold", "w32_prefix"), SCAN_SIZES),
    "contains_forbidden x32 exact": (_scan("3/2", "exact", "x32_prefix"), SCAN_SIZES),
    "contains_forbidden w32×257 threshold": (_scan("3/2", "threshold", "w32_prefix", 257), MID_SIZES),
    "contains_forbidden 5/4 exact": (_scan("5/4", "exact"), MID_SIZES),
    "contains_forbidden 4/3 threshold": (_scan("4/3", "threshold"), MID_SIZES),
    "contains_forbidden 5/1 threshold": (_scan("5/1", "threshold"), MID_SIZES),
    "contains_forbidden 11/2 exact": (_scan("11/2", "exact"), MID_SIZES),
    "contains_forbidden 401/400 threshold": (_scan("401/400", "threshold"), NEAR_ONE_SIZES),
    "contains_forbidden 101/100 threshold": (_scan("101/100", "threshold"), NEAR_ONE_SIZES),
    "contains_forbidden 401/400 exact": (_scan("401/400", "exact"), NEAR_ONE_SIZES),
    "contains_forbidden 101/100 exact": (_scan("101/100", "exact"), NEAR_ONE_SIZES),
    "check_x_squares": (_check("check_x_squares"), CHECK_SIZES),
    "check_x_overlapfree": (_check("check_x_overlapfree"), CHECK_SIZES),
    **{
        f"generate {method} {fmt}": (_generate(method, fmt), GENERATE_SIZES)
        for method in ("closed", "morphism")
        for fmt in ("lines", "csv", "json")
    },
    **{
        f"generate greedy {fmt}": (_generate("greedy", fmt), GREEDY_GENERATE_SIZES)
        for fmt in ("lines", "csv", "json")
    },
    "generate closed lines x32 exact": (_generate("closed", "lines", "3/2", "exact"), GENERATE_SIZES),
    "generate morphism lines x32 exact": (_generate("morphism", "lines", "3/2", "exact"), GENERATE_SIZES),
    "generate closed lines 2/1": (_generate("closed", "lines", "2/1"), GENERATE_SIZES),
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


def more_calls(n: int, calls: int, seconds: Sequence[float]) -> bool:
    """Whether to time another call at n letters after ``calls`` calls, on
    which each tree's worker spent ``seconds``: until ``calls_at(n)`` calls
    and ``SECONDS`` in every tree."""
    return calls < calls_at(n) or min(seconds) < SECONDS


def spent(calls: Sequence[tuple[float, float]]) -> float:
    """A worker's seconds on its (raw seconds, reference seconds) calls:
    each call and the two reference loops around it."""
    return sum(t + 2 * r for t, r in calls)


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median; 0 below two values."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


def summary(name: str, sizes: Sequence[int], samples: Sequence[Sequence[tuple[float, float]]]) -> dict:
    """Row ``name`` of a file, from the (raw seconds, reference seconds) of
    each timed call at each size.  Per size: the median raw seconds, the
    median reference seconds (mean of the loop just before and just after a
    call), the median scaled seconds and their ``spread``; microseconds per
    letter and the fitted slope come from the scaled seconds."""
    scaled = _perfbench().scaled
    scaled_calls = [[scaled(t, r) for t, r in calls] for calls in samples]
    seconds = [statistics.median(calls) for calls in scaled_calls]
    return {
        "row": name,
        "sizes": list(sizes),
        "calls": [len(calls) for calls in samples],
        "raw_seconds": [statistics.median(t for t, _ in calls) for calls in samples],
        "reference_s": [statistics.median(r for _, r in calls) for calls in samples],
        "seconds": seconds,
        "spread": [spread(calls) for calls in scaled_calls],
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
    import lexleast

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
    of ``sources``, ``repeats`` calls at each size or as ``more_calls``
    asks: the workers time each call in turn, the first one first at even
    calls and last at odd ones.  Returns the rows of each tree."""
    with contextlib.ExitStack() as stack:
        workers = []
        for src in sources:
            workers.append(Worker(src))
            stack.callback(workers[-1].close)
        results: list[list[dict]] = [[] for _ in workers]
        for name, sizes in plan:
            samples = [[[] for _ in sizes] for _ in workers]
            for j, n in enumerate(sizes):
                k = 0
                while k < repeats if repeats else more_calls(n, k, [spent(tree[j]) for tree in samples]):
                    for i in range(len(workers))[:: -1 if k % 2 else 1]:
                        samples[i][j].append(workers[i].time(name, n))
                    k += 1
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


def revision(sources: Path) -> str | None:
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


def compare(parent: dict, change: dict) -> list[str]:
    """The lines of ``--compare``: per row and size the microseconds per
    letter of both files and their ratio CHANGE/PARENT, called slower or
    faster only when it is off 1 by more than the larger spread of the two
    (``~`` within it, ``-`` in a file without spreads), then the slopes and
    their change.  A row of one file alone is named as such."""
    rows = {row["row"]: row for row in parent["rows"]}
    lines = [f"{'row':<38} {'size':>9} {'parent':>8} {'change':>8} {'ratio':>6} {'spread':>6}  verdict"]
    for new in change["rows"]:
        old = rows.pop(new["row"], None)
        if old is None:
            lines.append(f"{new['row']:<38} only in {change['label']}")
            continue
        at = dict(zip(old["sizes"], range(len(old["sizes"]))))
        for j, n in enumerate(new["sizes"]):
            if n not in at:
                continue
            i = at[n]
            a, b = old["us_per_letter"][i], new["us_per_letter"][j]
            ratio = b / a
            if "spread" in old and "spread" in new:
                width = max(old["spread"][i], new["spread"][j])
                verdict = "slower" if ratio > 1 + width else "faster" if ratio < 1 - width else "~"
                lines.append(f"{new['row']:<38} {n:>9} {a:>8.3f} {b:>8.3f} {ratio:>6.3f} {width:>6.3f}  {verdict}")
            else:
                lines.append(f"{new['row']:<38} {n:>9} {a:>8.3f} {b:>8.3f} {ratio:>6.3f} {'-':>6}  -")
        if old["slope"] is not None and new["slope"] is not None:
            change_of_slope = new["slope"] - old["slope"]
            lines.append(
                f"{new['row']:<38} {'slope':>9} {old['slope']:>8.3f} {new['slope']:>8.3f} {change_of_slope:>+6.3f}"
            )
    lines += [f"{row:<38} only in {parent['label']}" for row in rows]
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--parent", type=Path, help="the src of a second checkout, timed beside this one")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the file (default: the repository)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="print CHANGE/PARENT per row and size of two BENCH files, and run nothing")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve()
        return 0
    if args.compare:
        parent, change = (json.loads(path.read_text()) for path in args.compare)
        print("\n".join(compare(parent, change)))
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
            "schema": "bench/5",
            "label": label,
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "cpu_count": os.cpu_count(),
                "git_revision": revisions[i],
                "timed_beside": [rev for j, rev in enumerate(revisions) if j != i],
                "letters_per_size": LETTERS,
                "min_repeats": REPEATS,
                "min_seconds": SECONDS,
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
