#!/usr/bin/env python3
"""The lexleast benchmark.

    python3 perfbench/run.py --workload greedy|scan|stream --seed N --seconds S --trace 0|1

One client runs the workload's jobs in a closed loop, each job starting when
the previous one ends, in whole passes over the batch until ``--seconds``
have gone by.  Every job's output is checked after each pass.

``--trace 0`` reports the end-to-end metrics: the cold start of the
workload's CLI command (median of several), the medians over the timed
passes, and the peak allocation of one extra pass run under ``tracemalloc``
before the timed ones.  ``--trace 1`` times untraced passes the same way,
then runs one pass with the tracer installed and reports the per-layer
metrics, including the tracing overhead.

The speed of a shared virtual machine can swing by a factor of two over
seconds to minutes, and CPU time swings with wall time.  So a fixed
pure-Python loop that no code of the program runs (the workload's entry in
``REFERENCES``) is timed before and after every job and every cold start,
and each end-to-end time is scaled to a machine on which that loop takes
``REFERENCE_S``: a job that took t seconds next to a loop that took r
seconds counts as t * REFERENCE_S / r.  The cold starts are spread over the
run, one after each timed pass.  The per-layer times of the tracer are not
scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
when every output checked out, 1 when one did not, 2 on a usage error or
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing

WORKLOADS = ("greedy", "scan", "stream")
COLD_STARTS = 11
MIB = 1 << 20
REFERENCE_S = 0.010  # nominal seconds of one call of a reference loop


def reference_chain() -> float:
    """Seconds for a chain of integer multiplications and remainders."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def reference_objects() -> float:
    """Seconds for a loop that makes small objects and strings and joins them."""
    t0 = time.perf_counter()
    words = []
    total = 0
    for i in range(15_000):
        point = _Point(i, i + 1)
        total += point.x + point.y
        words.append(str(i & 63))
        if len(words) == 32:
            total += len("".join(words))
            words = []
    return time.perf_counter() - t0


# How much a slow stretch of the machine slows code depends on the code: the
# detector's numpy calls slow about as much as the integer chain, the pure
# Python of formulas, morphic and cli emit about as much as the object loop.
# Each workload is scaled by the loop whose time moves most like its jobs'.
REFERENCES = {"greedy": reference_chain, "scan": reference_chain, "stream": reference_objects}


@dataclass
class Pass:
    seconds: dict = field(default_factory=dict)
    # job name -> mean of the reference loop's times just before and just after it
    reference: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)
    peak_bytes: int = 0
    job_stats: dict = field(default_factory=dict)  # job name -> tracing.Mark delta


def run_pass(jobs, tracer=None, memory: bool = False, reference=reference_chain) -> Pass:
    """Run every job once, in order, timing ``reference`` (unless None)
    around each job, then check every output.

    With ``memory`` (``tracemalloc`` already started) record the largest
    allocation peak of any one job; with ``tracer`` run the jobs traced."""
    result = Pass()
    gc.collect()
    with tracer.installed() if tracer else contextlib.nullcontext():
        before = reference() if reference else None
        for job in jobs:
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            if tracer:
                mark = tracer.mark()
                tracer.enter(f"job.{job.name}", span=True)
            t0 = time.perf_counter()
            try:
                outcome = job.run()
            except Exception:  # a crashing job is a failed job; keep going
                traceback.print_exc()
                outcome = None
            result.seconds[job.name] = time.perf_counter() - t0
            if tracer:
                tracer.exit()
                result.job_stats[job.name] = tracer.since(mark)
            if memory:
                result.peak_bytes = max(result.peak_bytes, tracemalloc.get_traced_memory()[1] - base)
            result.outcomes[job.name] = outcome
            if reference:
                after = reference()
                result.reference[job.name] = (before + after) / 2
                before = after
    for job in jobs:
        outcome = result.outcomes[job.name]
        if outcome is None or not job.check(outcome, result.outcomes):
            result.failed.append(job.name)
    return result


def timed_passes(jobs, seconds: float, reference=reference_chain, between=None) -> tuple[list[Pass], list]:
    """At least two passes, and more until ``seconds`` have gone by.  After
    each pass call ``between()``, if given; return the passes and what
    ``between`` returned."""
    passes: list[Pass] = []
    extras = []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(jobs, reference=reference))
        if between:
            extras.append(between())
    return passes, extras


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` measured next to a reference loop that took
    ``reference_s``, as they would be where that loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


def _median_seconds(passes, name: str) -> float:
    return statistics.median(scaled(p.seconds[name], p.reference[name]) for p in passes)


def end_to_end(jobs, passes, setup_s: float, peak_bytes: int) -> dict:
    wall = sum(_median_seconds(passes, job.name) for job in jobs)
    producing = [job for job in jobs if job.letters]
    letters_s = sum(_median_seconds(passes, job.name) for job in producing)
    tops = [
        job.name for job in jobs
        if all(p.outcomes[job.name] is not None and p.outcomes[job.name].top_s is not None for p in passes)
    ]
    top_s = sum(
        statistics.median(scaled(p.outcomes[name].top_s, p.reference[name]) for p in passes)
        for name in tops
    )
    top_letters = sum(passes[0].outcomes[name].top_letters for name in tops)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "letters_per_s": (sum(job.letters for job in producing) / letters_s, "letters/s"),
        "top_letters_per_s": (top_letters / top_s, "letters/s"),
        "peak_mem_mib": (peak_bytes / MIB, "MiB"),
    }


def _slope(points) -> float:
    """Least-squares slope of log y over log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def _step_growth(steps) -> float:
    """Slope of log mean step time over log position, in eighths of the word."""
    n = len(steps)
    eighth = n // 8
    if eighth < 1:
        return 0.0
    points = [
        ((k + 0.5) * eighth, statistics.fmean(steps[k * eighth:(k + 1) * eighth]))
        for k in range(8)
    ]
    return _slope(points)


def _query_growth(jobs, traced: Pass) -> float:
    """Slope of log mean query time over log size across the clean scans,
    taken per word and averaged."""
    families: dict[str, list] = {}
    for job in jobs:
        parts = job.name.split("-")
        if parts[0] != "scan" or len(parts) != 3:  # clean scans are named scan-<word>-<size>
            continue
        stats = traced.job_stats[job.name]
        calls = stats.calls.get("detect.query", 0)
        if calls:
            families.setdefault(parts[1], []).append((job.letters, stats.total_s["detect.query"] / calls))
    slopes = [_slope(points) for points in families.values() if len(points) > 1]
    return statistics.fmean(slopes) if slopes else 0.0


def per_layer(jobs, tracer, traced: Pass, untraced, failed_ratio: float) -> dict:
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    steps = tracer.samples["greedy.step"]
    step_us = [s * 1e6 for s in steps]
    # one greedy job after another: split the step durations per job
    step_growths = []
    offset = 0
    for job in jobs:
        count = traced.job_stats[job.name].samples.get("greedy.step", 0)
        if count:
            step_growths.append(_step_growth(steps[offset:offset + count]))
        offset += count
    lookup_jobs = [job for job in jobs if job.lookups]
    lookup_s = sum(_median_seconds(untraced, job.name) for job in lookup_jobs)
    traced_wall = sum(scaled(traced.seconds[job.name], traced.reference[job.name]) for job in jobs)
    untraced_wall = sum(_median_seconds(untraced, job.name) for job in jobs)
    metrics = {
        "detect.query.calls": (calls["detect.query"], "count"),
        "detect.query.s": (total["detect.query"], "s"),
        "detect.query.hit_ratio": (
            tracer.hits["detect.query"] / calls["detect.query"] if calls["detect.query"] else 0.0, "ratio"),
        "detect.append.calls": (calls["detect.append"], "count"),
        "detect.append.s": (total["detect.append"], "s"),
        "detect.pop.calls": (calls["detect.pop"], "count"),
        "detect.scan.calls": (calls["detect.scan"], "count"),
        "detect.scan.self_s": (own["detect.scan"], "s"),
        "detect.query_growth_exp": (_query_growth(jobs, traced), "slope"),
        "greedy.step.calls": (calls["greedy.step"], "count"),
        "greedy.step.self_s": (own["greedy.step"], "s"),
        "greedy.trials_per_letter": (
            calls["detect.query"] / calls["greedy.step"] if calls["greedy.step"] else 0.0, "queries/letter"),
        "greedy.step_p50_us": (statistics.median(step_us) if step_us else 0.0, "us"),
        "greedy.step_p99_us": (statistics.quantiles(step_us, n=100)[98] if len(step_us) > 1 else 0.0, "us"),
        "greedy.growth_exp": (statistics.median(step_growths) if step_growths else 0.0, "slope"),
        "formulas.term.calls": (calls["formulas.term"], "count"),
        "formulas.term.s": (own["formulas.term"], "s"),
        "formulas.term_lookups_per_s": (
            sum(job.lookups for job in lookup_jobs) / lookup_s if lookup_jobs else 0.0, "lookups/s"),
        "morphic.expand.calls": (calls["morphic.expand"], "count"),
        "morphic.stream.s": (total["morphic.stream"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "cli.parse.s": (total["cli.parse"], "s"),
        "cli.out_bytes": (sum(o.out_bytes for o in traced.outcomes.values() if o is not None), "bytes"),
    }
    for name in tracing.CHECKS:
        metrics[f"checks.{name}.s"] = (total[f"checks.{name}"], "s")
    metrics["checks.self_s"] = (sum(own[f"checks.{name}"] for name in tracing.CHECKS), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["failed_ratio"] = (failed_ratio, "ratio")
    return metrics


def _git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, args, reference_s: list[float]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "git_revision": _git_revision(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # quartiles of the reference loop's raw seconds: how fast the machine was
        "reference_s": statistics.quantiles(reference_s, n=4) if len(reference_s) > 1 else reference_s,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM too, so the temporary work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spans, per_job = [], {}
    attempted = 0
    failed = 0
    references: list[float] = []

    def tally(passes) -> None:
        nonlocal attempted, failed
        for p in passes:
            references.extend(p.reference.values())
            attempted += len(p.seconds)
            failed += len(p.failed)
            for name in p.failed:
                print(f"FAILED check: {name}", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as work:
        jobs = workloads.build(args.workload, args.seed, Path(work))
        reference = REFERENCES[args.workload]
        if args.trace:
            untraced, _ = timed_passes(jobs, args.seconds, reference)
            tracer = tracing.Tracer()
            traced = run_pass(jobs, tracer=tracer, reference=reference)
            tally(untraced + [traced])
            metrics = per_layer(jobs, tracer, traced, untraced, failed / attempted)
            spans = tracer.spans
            per_job = {  # job -> layer -> [calls, seconds]
                name: {k: [n, stats.total_s[k]] for k, n in stats.calls.items() if n}
                for name, stats in traced.job_stats.items()
            }
        else:
            def cold_start() -> tuple[float, bool]:
                before = reference()
                seconds, ok = workloads.cold_start(args.workload)
                after = reference()
                references.extend((before, after))
                return scaled(seconds, (before + after) / 2), ok

            tracemalloc.start()
            try:
                measured = run_pass(jobs, memory=True, reference=None)
            finally:
                tracemalloc.stop()
            passes, starts = timed_passes(jobs, args.seconds, reference, between=cold_start)
            starts += [cold_start() for _ in range(COLD_STARTS - len(starts))]
            attempted += len(starts)
            failed += sum(not ok for _, ok in starts)
            tally([measured] + passes)
            setup_s = statistics.median(s for s, _ in starts)
            metrics = end_to_end(jobs, passes, setup_s, measured.peak_bytes)

    print("env " + json.dumps(environment(workloads.ROOT, args, references), sort_keys=True))
    if spans:
        print("spans " + json.dumps([asdict(span) for span in spans]))
        print("jobs " + json.dumps(per_job))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
