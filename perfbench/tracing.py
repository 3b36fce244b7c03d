"""Outside-in tracing of the ``lexleast`` layers.

A ``Tracer`` wraps public functions and methods of the package from outside:
methods at class level, functions wherever a ``lexleast`` module holds a
reference to them (as a module attribute, or as a value in a module-level
dispatch table such as ``cli._CLOSED``).  Everything it patches is put back
when ``installed()`` exits, also on error.

Hot calls (detector queries, appends, term evaluations, morphic expansion)
are kept only as per-name aggregates: calls, total time, self time, and for
a few names every duration or the number of non-None results.  Job-level
calls are also kept as ``Span`` records with a parent link.  A call's self
time is its duration minus the time covered by its traced children; calls
are nested and sequential (one thread), so the covered time is the sum of
the children's durations.

Code the wrappers cannot see stays in its caller's self time.  In
particular ``checks.check_x_squares`` and ``checks.check_x_overlapfree``
call private ``LceIndex`` methods, so their detector work is counted in
``checks`` self time, not under ``detect``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

MARK = "__perfbench_target__"


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``name`` or ``Class.method`` in
    ``lexleast.<module>``; ``layer`` names the aggregate it feeds."""

    module: str
    attr: str
    layer: str
    span: bool = False  # also record a Span with a parent link
    samples: bool = False  # keep every duration, for percentiles
    stream: bool = False  # returns an iterator; time each next() instead
    hits: bool = False  # count results that are not None


_TERMS = (
    "w32_term", "f_term", "x32_term", "ruler_term",
    "b_rec", "b_closed", "c_term", "d_term", "c_closed", "d_closed",
)
CHECKS = (
    "powerfree", "minimality", "cross", "x_squares", "x_overlapfree",
    "b_window", "b_inequality", "ell_claim", "eq6_intervals",
)

TARGETS: tuple[Target, ...] = (
    Target("detect", "LceIndex.threshold_hit", "detect.query", hits=True),
    Target("detect", "LceIndex.exact_hit", "detect.query", hits=True),
    Target("detect", "LceIndex.append", "detect.append"),
    Target("detect", "LceIndex.pop", "detect.pop"),
    Target("detect", "contains_forbidden", "detect.scan", span=True),
    Target("greedy", "GreedyState.step", "greedy.step", samples=True),
    *(Target("formulas", name, "formulas.term") for name in _TERMS),
    Target("morphic", "phi_letter", "morphic.expand"),
    Target("morphic", "w32_stream", "morphic.stream", stream=True),
    Target("morphic", "x32_stream", "morphic.stream", stream=True),
    *(Target("checks", f"check_{name}", f"checks.{name}", span=True) for name in CHECKS),
    Target("cli", "main", "cli.main", span=True),
    Target("cli", "parse_letters_text", "cli.parse", span=True),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float


@dataclass(frozen=True)
class Mark:
    """Aggregate counters at one instant, to take differences over a job."""

    calls: dict[str, int]
    total_s: dict[str, float]
    samples: dict[str, int]


class Tracer:
    """In-memory call aggregates and spans.  ``clock`` is replaceable so the
    arithmetic can be tested with made-up times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.hits: defaultdict[str, int] = defaultdict(int)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.spans: list[Span] = []
        # open calls: [layer, start, covered_s, span id or None, parent span id]
        self._stack: list[list] = []
        self._open_spans: list[int] = []
        self._next_id = 0

    def enter(self, layer: str, span: bool = False) -> None:
        sid = parent = None
        if span:
            sid, self._next_id = self._next_id, self._next_id + 1
            parent = self._open_spans[-1] if self._open_spans else None
            self._open_spans.append(sid)
        self._stack.append([layer, self.clock(), 0.0, sid, parent])

    def exit(self) -> float:
        """Close the innermost open call and return its duration."""
        layer, start, covered, sid, parent = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[layer] += 1
        self.total_s[layer] += duration
        self.self_s[layer] += duration - covered
        if sid is not None:
            self._open_spans.pop()
            self.spans.append(Span(sid, parent, layer, start, end, duration - covered))
        return duration

    def mark(self) -> Mark:
        return Mark(
            dict(self.calls),
            dict(self.total_s),
            {layer: len(values) for layer, values in self.samples.items()},
        )

    def since(self, mark: Mark) -> Mark:
        """Counters accumulated after ``mark``."""
        return Mark(
            {k: v - mark.calls.get(k, 0) for k, v in self.calls.items()},
            {k: v - mark.total_s.get(k, 0.0) for k, v in self.total_s.items()},
            {k: len(v) - mark.samples.get(k, 0) for k, v in self.samples.items()},
        )

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer = target.layer
        if target.stream:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._timed_iter(layer, fn(*args, **kwargs))

        else:
            span, samples, hits = target.span, target.samples, target.hits

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.enter(layer, span)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    duration = self.exit()
                    if samples:
                        self.samples[layer].append(duration)
                    if hits and result is not None:
                        self.hits[layer] += 1

        setattr(traced, MARK, target)
        return traced

    def _timed_iter(self, layer: str, it: Iterator) -> Iterator:
        while True:
            self.enter(layer)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            yield value

    @contextmanager
    def installed(self, targets: tuple[Target, ...] = TARGETS) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        undo: list[Callable[[], None]] = []
        try:
            for target in targets:
                _patch(target, self._wrap, undo)
            yield self
        finally:
            for restore in reversed(undo):
                restore()


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "lexleast" or name.startswith("lexleast.")]


def _patch(target: Target, wrap: Callable, undo: list[Callable[[], None]]) -> None:
    module = importlib.import_module(f"lexleast.{target.module}")
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, wrap(target, original))
        undo.append(functools.partial(setattr, cls, method, original))
        return
    original = getattr(module, target.attr)
    traced = wrap(target, original)
    for mod in _package_modules():
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = traced
                undo.append(functools.partial(namespace.__setitem__, key, original))
            elif isinstance(value, dict) and not key.startswith("__"):
                _rebind_table(value, original, traced, undo)


def _rebind_table(table: dict, original: Callable, traced: Callable, undo: list) -> None:
    for key, value in list(table.items()):
        if value is original:
            new = traced
        elif isinstance(value, tuple) and any(item is original for item in value):
            new = tuple(traced if item is original else item for item in value)
        else:
            continue
        table[key] = new
        undo.append(functools.partial(table.__setitem__, key, value))


def installed_wrappers() -> list[str]:
    """Where a tracer wrapper is still in place, as ``module.attr`` strings."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{m}" for m, f in vars(value).items() if hasattr(f, MARK)]
            elif isinstance(value, dict) and not key.startswith("__"):
                for entry_key, entry in value.items():
                    items = entry if isinstance(entry, tuple) else (entry,)
                    if any(hasattr(item, MARK) for item in items):
                        found.append(f"{mod.__name__}.{key}[{entry_key!r}]")
    return found
