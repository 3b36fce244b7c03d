"""Workloads of the lexleast benchmark: seeded inputs, jobs and output checks.

Each workload is a fixed batch of jobs.  A job calls the program through its
public modules, looking every function up at call time so that a tracer
patched in from outside sees the call.  Each job's output is checked after
the timed region against a route the job did not time: the closed form for
greedy output, a direct letter comparison for scan witnesses, the other
generator route and ``tests/golden.py`` for streamed output, the helper
sequence's recurrence for term lookups.

The seed draws every job's exact size from a band just above its nominal
size (at most 0.1% above), the mutation positions and letters of ``scan``
and the lookup indices of ``stream``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "lexleast" / "__init__.py").is_file():
    raise ImportError(f"lexleast sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import lexleast  # noqa: E402
from lexleast import checks, cli, formulas, greedy  # noqa: E402
from lexleast.detect import AvoidanceMode  # noqa: E402
from lexleast.words import Exponent  # noqa: E402

if Path(lexleast.__file__).resolve().parent != SRC / "lexleast":
    raise ImportError(f"imported lexleast from {lexleast.__file__}, not from {SRC}")

E32 = Exponent(3, 2)
E21 = Exponent(2, 1)
THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT


def _load_golden():
    path = ROOT / "tests" / "golden.py"
    spec = importlib.util.spec_from_file_location("lexleast_golden", path)
    if spec is None or not path.is_file():
        raise ImportError(f"golden prefixes not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Outcome:
    """What a job returns: its output, and the time and letters of the top
    window (the last eighth of a stream, or a whole top-size scan)."""

    value: object
    top_s: float | None = None
    top_letters: int = 0
    out_bytes: int = 0


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]
    # check(outcome, outcomes of the whole pass by job name)
    check: Callable[[Outcome, Mapping[str, Outcome]], bool]
    letters: int = 0  # letters emitted or judged; 0 for jobs outside that count
    lookups: int = 0


def _size(rng: random.Random, nominal: int) -> int:
    return nominal + rng.randrange(nominal // 1000 + 1)


# ---------------------------------------------------------------- greedy

GREEDY_ROUTES = (
    ("w32", E32, THRESHOLD, "w32_prefix"),
    ("x32", E32, EXACT, "x32_prefix"),
    ("ruler", E21, THRESHOLD, "ruler_prefix"),
)


def _greedy_run(exponent: Exponent, mode: AvoidanceMode, n: int) -> Outcome:
    state = greedy.GreedyState(exponent, mode)
    top_from = n - n // 8
    state.extend_to(top_from)
    t0 = time.perf_counter()
    state.extend_to(n)
    return Outcome(state.word, time.perf_counter() - t0, n - top_from)


def build_greedy(seed: int, n: int = 5_000) -> list[Job]:
    """GreedyState builds each word from scratch; the closed form checks it."""
    rng = random.Random(f"greedy/{seed}")
    jobs = []
    for label, exponent, mode, closed in GREEDY_ROUTES:
        size = _size(rng, n)
        expected = getattr(formulas, closed)(size)
        jobs.append(Job(
            f"greedy-{label}",
            lambda e=exponent, m=mode, s=size: _greedy_run(e, m, s),
            lambda out, _, x=expected: out.value == x,
            letters=size,
        ))
    return jobs


# ---------------------------------------------------------------- scan

_WITNESS = re.compile(r"forbidden start=(\d+) period=(\d+) length=(\d+)\n")


def _scan_run(path: Path, exponent: Exponent, mode: AvoidanceMode, top_letters: int) -> Outcome:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["scan", str(path), "--exponent", str(exponent), "--mode", mode.value])
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    return Outcome((code, text), seconds if top_letters else None, top_letters, len(text))


def is_forbidden(word: Sequence[int], exponent: Exponent, mode: AvoidanceMode,
                 start: int, period: int, length: int) -> bool:
    """Direct test that word[start:start+length] is a forbidden repetition."""
    if not (0 <= start and 1 <= period < length and start + length <= len(word)):
        return False
    if any(word[i] != word[i + period] for i in range(start, start + length - period)):
        return False
    if mode is THRESHOLD:
        return exponent.meets(length, period)
    return length % exponent.p == 0 and period * exponent.p == length * exponent.q


def witness_check(word: Sequence[int], exponent: Exponent, mode: AvoidanceMode,
                  position: int) -> Callable[[Outcome, Mapping[str, Outcome]], bool]:
    """A mutated scan exits 1 with a genuine witness ending at ``position``."""

    def check(out: Outcome, _: Mapping[str, Outcome]) -> bool:
        code, text = out.value
        found = _WITNESS.fullmatch(text)
        if code != 1 or found is None:
            return False
        start, period, length = map(int, found.groups())
        return start + length - 1 == position and is_forbidden(word, exponent, mode, start, period, length)

    return check


def build_scan(seed: int, workdir: Path, sizes: Sequence[int] = (1_250, 2_500, 5_000),
               minimality: int = 2_000, structure: int = 5_000) -> list[Job]:
    """Verdicts on clean and mutated prefixes through ``cli.main(["scan", file])``,
    plus the minimality and x32 structure checks."""
    rng = random.Random(f"scan/{seed}")
    jobs = []
    top_size = max(sizes)
    for label, exponent, mode, closed in GREEDY_ROUTES[:2]:
        for nominal in sizes:
            word = getattr(formulas, closed)(_size(rng, nominal))
            n = len(word)
            path = workdir / f"{label}-{nominal}.txt"
            path.write_text(",".join(map(str, word)))
            jobs.append(Job(
                f"scan-{label}-{nominal}",
                lambda p=path, e=exponent, m=mode, top=n if nominal == top_size else 0: _scan_run(p, e, m, top),
                lambda out, _: out.value == (0, "clean\n"),
                letters=n,
            ))
            # Minimality: lowering any letter makes a forbidden factor end
            # exactly there, and the prefix before it is clean.  The scan
            # time grows with the position, so the band is kept narrow (the
            # last eighth) for the seed to move the time little.
            pos = rng.randrange(n - n // 8, n)
            while word[pos] == 0:
                pos = rng.randrange(n - n // 8, n)
            mutated = list(word)
            mutated[pos] = rng.randrange(word[pos])
            path = workdir / f"{label}-{nominal}-mutated.txt"
            path.write_text(",".join(map(str, mutated)))
            jobs.append(Job(
                f"scan-{label}-{nominal}-mutated",
                lambda p=path, e=exponent, m=mode: _scan_run(p, e, m, 0),
                witness_check(mutated, exponent, mode, pos),
                letters=pos + 1,
            ))
    passed = lambda out, _: out.value.passed  # noqa: E731
    for label in ("w32", "x32"):
        jobs.append(Job(
            f"minimality-{label}",
            lambda s=label: Outcome(checks.check_minimality(s, length=minimality)),
            passed,
        ))
    jobs.append(Job("x-squares", lambda: Outcome(checks.check_x_squares(length=structure)), passed))
    jobs.append(Job("x-overlap", lambda: Outcome(checks.check_x_overlapfree(length=structure)), passed))
    return jobs


# ---------------------------------------------------------------- stream

class LetterSink:
    """Stands in for stdout under ``generate --format lines``, where each
    write is one letter.  It counts and hashes the output, keeps the opening
    text, and notes the time at which the last eighth of the stream starts."""

    CHUNK = 4096

    def __init__(self, top_from: int) -> None:
        self.letters = 0
        self.bytes = 0
        self.opening = ""
        self.top_t0: float | None = None
        self.top_mark = 0
        self._top_from = top_from
        self._buf: list[str] = []
        self._hash = hashlib.blake2b(digest_size=16)

    def write(self, text: str) -> int:
        buf = self._buf
        buf.append(text)
        if len(buf) >= self.CHUNK:
            self.flush()
        return len(text)

    def flush(self) -> None:
        if not self._buf:
            return
        chunk = "".join(self._buf)
        if not self.opening:
            self.opening = chunk
        self.letters += len(self._buf)
        self.bytes += len(chunk)
        self._hash.update(chunk.encode())
        self._buf.clear()
        if self.top_t0 is None and self.letters >= self._top_from:
            self.top_t0 = time.perf_counter()
            self.top_mark = self.letters

    def digest(self) -> str:
        return self._hash.hexdigest()


GENERATE_ROUTES = (
    # name, exponent, mode, method, the other route, golden opening
    ("w32-closed", "3/2", "threshold", "closed", "w32-morphism", "W32_100"),
    ("w32-morphism", "3/2", "threshold", "morphism", "w32-closed", "W32_100"),
    ("x32-closed", "3/2", "exact", "closed", "x32-morphism", "X32_144"),
    ("x32-morphism", "3/2", "exact", "morphism", "x32-closed", "X32_144"),
    ("ruler-closed", "2/1", "threshold", "closed", None, "SQUAREFREE_32"),
)


def _generate_run(exponent: str, mode: str, method: str, n: int) -> Outcome:
    sink = LetterSink(n - n // 8)
    with contextlib.redirect_stdout(sink):
        code = cli.main([
            "generate", "--exponent", exponent, "--mode", mode, "--method", method,
            "--length", str(n), "--format", "lines",
        ])
        sink.flush()
    end = time.perf_counter()
    top_s = None if sink.top_t0 is None else end - sink.top_t0
    value = (code, sink.letters, sink.digest(), sink.opening)
    return Outcome(value, top_s, sink.letters - sink.top_mark, sink.bytes)


def generate_check(n: int, other: str | None, golden: Sequence[int]):
    opening = "".join(f"{v}\n" for v in golden)

    def check(out: Outcome, outcomes: Mapping[str, Outcome]) -> bool:
        code, letters, digest, head = out.value
        if code != 0 or letters != n or not head.startswith(opening):
            return False
        return other is None or (other in outcomes and outcomes[other].value[2] == digest)

    return check


LOOKUP_K = 8 * 10**10  # keeps 12k + 11 below 10**12


def _lookup_run(ks: Sequence[int]) -> Outcome:
    # a flat byte array, so that the results do not dominate the peak memory
    w32_term, f_term, b_closed = formulas.w32_term, formulas.f_term, formulas.b_closed
    out = bytearray(3 * len(ks))
    for i, k in enumerate(ks):
        out[3 * i] = w32_term(10 * k + 9)
        out[3 * i + 1] = f_term(12 * k + 11)
        out[3 * i + 2] = b_closed(k)
    return Outcome(out)


def build_stream(seed: int, n: int = 200_000, lookups: int = 10**5,
                 battery: Mapping[str, Mapping[str, int]] | None = None) -> list[Job]:
    """Closed-form and morphic output through ``cli.main(["generate", ...])``,
    random-access term lookups, and the base-6 arithmetic checks."""
    rng = random.Random(f"stream/{seed}")
    size = _size(rng, n)
    golden_prefixes = _load_golden()
    jobs = []
    for name, exponent, mode, method, other, golden in GENERATE_ROUTES:
        jobs.append(Job(
            name,
            lambda e=exponent, m=mode, k=method: _generate_run(e, m, k, size),
            generate_check(size, other, getattr(golden_prefixes, golden)),
            letters=size,
        ))
    ks = [rng.randrange(LOOKUP_K) for _ in range(lookups)]
    expected = [formulas.b_rec(k) for k in ks]
    jobs.append(Job(
        "lookups",
        lambda: _lookup_run(ks),
        lambda out, _: len(out.value) == 3 * len(expected) and all(
            out.value[3 * i] == out.value[3 * i + 2] == e and out.value[3 * i + 1] == e - 1
            for i, e in enumerate(expected)
        ),
        lookups=3 * lookups,
    ))
    battery = battery or BATTERY
    for check_name, kwargs in battery.items():
        jobs.append(Job(
            check_name.replace("_", "-"),
            lambda c=check_name, kw=kwargs: Outcome(getattr(checks, f"check_{c}")(**kw)),
            lambda out, _: out.value.passed,
        ))
    return jobs


# The bounds of the full verification battery in scripts/run_checks.py.
BATTERY = {
    "b_window": {"n_max": 2_000, "r_max": 200},
    "b_inequality": {"s_max": 300, "j_max": 300},
    "ell_claim": {"n_max": 2_000},
    "eq6_intervals": {"n_max": 2_000},
}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    if workload == "greedy":
        return build_greedy(seed)
    if workload == "scan":
        return build_scan(seed, workdir)
    if workload == "stream":
        return build_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- cold start

COLD_START = {
    # CLI arguments, stdin, expected stdout: the workload's own command on a
    # one-letter input
    "greedy": (["generate", "--method", "greedy", "--length", "1"], "", "0\n"),
    "scan": (["scan", "-"], "0\n", "clean\n"),
    "stream": (["generate", "--method", "closed", "--length", "1"], "", "0\n"),
}


def cold_start(workload: str) -> tuple[float, bool]:
    """Seconds for a fresh ``python -m lexleast`` to run the workload's
    command on a one-letter input, and whether its output was right."""
    args, stdin, expected = COLD_START[workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lexleast", *args],
        input=stdin, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode == 0 and proc.stdout == expected
