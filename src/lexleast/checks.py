"""Executable verification of structural claims about the sequences.

Each check scans a finite prefix (or index range) and returns a
``CheckReport``; a failing report carries the first ``Violation`` in
position order, with enough detail to reproduce it.  Default bounds are
desk scale and every bound is overridable from the CLI.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Callable, Mapping, Sequence

from .detect import AvoidanceMode, LceIndex, contains_forbidden
from .formulas import (
    b_rec,
    c_term,
    d_term,
    ell_m,
    f_term,
    ruler_prefix,
    w32_prefix,
    w32_term,
    x32_prefix,
)
from .greedy import CHUNK, chunks, generate
from .morphic import w32_stream, w32_via_morphism, x32_stream, x32_via_morphism
from .words import Exponent, Occurrence

E32 = Exponent(3, 2)
E21 = Exponent(2, 1)

THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT


@dataclass(frozen=True)
class Violation:
    kind: str
    position: int
    detail: Mapping[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "position": self.position,
            "detail": dict(self.detail) if self.detail is not None else None,
        }


@dataclass
class CheckReport:
    name: str
    params: dict[str, object]
    violation: Violation | None
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violation is None

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": "check-report/1",
            "check": self.name,
            "params": dict(self.params),
            "status": "pass" if self.passed else "fail",
            "violation": self.violation.to_dict() if self.violation else None,
            "stats": dict(self.extras),
        }

    def summary(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name} ({params})"
        if self.violation is not None:
            v = self.violation
            line += f" -- {v.kind} at position {v.position}"
            if v.detail:
                line += " " + ", ".join(f"{k}={val}" for k, val in sorted(v.detail.items()))
        return line


@dataclass(frozen=True)
class SourceSpec:
    exponent: Exponent
    mode: AvoidanceMode
    make: Callable[[int], list[int]]


SOURCES: dict[str, SourceSpec] = {
    "w32": SourceSpec(E32, THRESHOLD, w32_prefix),
    "w32-greedy": SourceSpec(E32, THRESHOLD, lambda n: generate(E32, THRESHOLD, n)),
    "w32-morphic": SourceSpec(E32, THRESHOLD, w32_via_morphism),
    "x32": SourceSpec(E32, EXACT, x32_prefix),
    "x32-greedy": SourceSpec(E32, EXACT, lambda n: generate(E32, EXACT, n)),
    "x32-morphic": SourceSpec(E32, EXACT, x32_via_morphism),
    "ruler": SourceSpec(E21, THRESHOLD, ruler_prefix),
    "ruler-greedy": SourceSpec(E21, THRESHOLD, lambda n: generate(E21, THRESHOLD, n)),
}


def _resolve(
    source: str | Sequence[int],
    exponent: Exponent | None,
    mode: AvoidanceMode | None,
    length: int,
) -> tuple[str, list[int], Exponent, AvoidanceMode]:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if isinstance(source, str):
        if source not in SOURCES:
            raise ValueError(f"unknown generator id {source!r}; known: {sorted(SOURCES)}")
        entry = SOURCES[source]
        return (
            source,
            entry.make(length),
            exponent or entry.exponent,
            mode or entry.mode,
        )
    if exponent is None or mode is None:
        raise ValueError("explicit word input requires exponent and mode")
    letters = list(source)[:length]
    return ("<word>", letters, exponent, mode)


def _occ_detail(occ: Occurrence) -> dict[str, object]:
    return {"start": occ.start, "period": occ.period, "length": occ.length}


def check_powerfree(
    source: str | Sequence[int] = "w32",
    exponent: Exponent | None = None,
    mode: AvoidanceMode | None = None,
    length: int = 10_000,
) -> CheckReport:
    """No forbidden factor anywhere in the length-``length`` prefix."""
    name, letters, exponent, mode = _resolve(source, exponent, mode, length)
    params = {"target": name, "length": length, "exponent": str(exponent), "mode": mode.value}
    occ = contains_forbidden(letters, exponent, mode)
    violation = None if occ is None else Violation("forbidden-factor", occ.end - 1, _occ_detail(occ))
    return CheckReport(
        "powerfree", params, violation,
        extras={"scanned": len(letters)},
    )


def check_minimality(
    source: str | Sequence[int] = "w32",
    exponent: Exponent | None = None,
    mode: AvoidanceMode | None = None,
    length: int = 2_000,
) -> CheckReport:
    """Every decrement of every letter creates a forbidden suffix.

    Since the prefix before position i is clean, that holds at i exactly
    when greedy generation along the source picks the source letter: a
    smaller pick is a decrement that survives, and a larger one means the
    source letter itself is blocked, so a non-power-free input fails here
    rather than passing vacuously.  Greedy's word is built and compared a
    chunk at a time; at the first difference, the decrements counted are
    those up to and including it.
    """
    name, letters, exponent, mode = _resolve(source, exponent, mode, length)
    params = {"target": name, "length": length, "exponent": str(exponent), "mode": mode.value}
    violation = None
    decrements = 0
    for start, chunk in zip(count(0, CHUNK), chunks(exponent, mode, len(letters))):
        given = letters[start : start + len(chunk)]
        if chunk == given:
            decrements += sum(chunk)
            continue
        i = next(i for i, (free, v) in enumerate(zip(chunk, given)) if free != v)
        decrements += sum(map(min, chunk[: i + 1], given[: i + 1]))
        free, v = chunk[i], given[i]
        if free < v:
            violation = Violation(
                "decrement-survives", start + i, {"letter": v, "decremented_to": free}
            )
        else:
            violation = Violation("source-not-clean", start + i, {"letter": v})
        break
    return CheckReport(
        "minimality", params, violation,
        extras={"positions": len(letters), "decrements_verified": decrements},
    )


def check_cross(length: int = 10_000) -> CheckReport:
    """Greedy search, closed form, and morphic coding agree pointwise, for
    both the threshold and the exact discipline.  The three routes run side
    by side, so only greedy's own word is held, with one chunk of it.  The closed form is read by
    ``map(term, count())``, not ``formulas.by_blocks``, so that greedy and
    the morphism check the term function at every index."""
    params = {"length": length}
    violation = None
    routes = (
        ("threshold", THRESHOLD, w32_term, w32_stream),
        ("exact", EXACT, f_term, x32_stream),
    )
    for variant, mode, term, stream in routes:
        letters = zip(chain.from_iterable(chunks(E32, mode, length)), map(term, count()), stream())
        for i, (a, b, c) in enumerate(letters):
            if not a == b == c:
                violation = Violation(
                    "generator-mismatch", i, {"variant": variant, "greedy": a, "closed": b, "morphic": c}
                )
                break
        if violation is not None:
            break
    return CheckReport("cross", params, violation)


def _b_slot_decrements(n_max: int):
    """(n, b, m, ell) for every decrement target m >= 5 at a b-slot, b = b(n)."""
    for n in range(n_max + 1):
        b = b_rec(n)
        for m in range(5, b):
            yield n, b, m, ell_m(b, m)


def check_ell_claim(n_max: int = 2_000) -> CheckReport:
    """Decrementing a b-slot letter to m >= 5 creates an xyx repetition with
    block length ell ending at the decremented position.  With b = b(n),
    ell = ell_m(b, m) is 30 * 6^(m/2 - 3) for even m, 30 * 6^((m+1)/2 - 3)
    for odd m = b - 1, and 60 * 6^((m+1)/2 - 3) for any other odd m; the
    stats count the pairs by the parities of b and m, marking odd m = b - 1.

    For each applicable pair the mutated suffix of length 3*ell is checked
    to have period 2*ell by direct comparison.  Pairs whose window starts
    before position 0 are counted as skipped.
    """
    params = {"n_max": n_max}
    word = w32_prefix(10 * n_max + 10)
    violation = None
    skipped = 0
    by_case: Counter[str] = Counter()
    by_ell: Counter[int] = Counter()
    for n, b, m, ell in _b_slot_decrements(n_max):
        end = 10 * n + 9
        if 3 * ell > end + 1:
            skipped += 1
            continue
        start = end - 3 * ell + 1
        # the decremented letter m at ``end`` pairs with word[end - 2*ell]
        if word[start : end - 2 * ell] != word[start + 2 * ell : end] or word[end - 2 * ell] != m:
            violation = Violation(
                "decrement-witness-broken", end, {"n": n, "m": m, "ell": ell}
            )
            break
        # the length table's three branches, with b's parity split out
        key = f"b_{'odd' if b % 2 else 'even'}_m_{'odd' if m % 2 else 'even'}"
        if m == b - 1 and m % 2:
            key += "_pred"
        by_case[key] += 1
        by_ell[ell] += 1
    return CheckReport(
        "ell-claim", params, violation,
        extras={
            "verified": sum(by_case.values()),
            "skipped": skipped,
            "by_case": dict(sorted(by_case.items())),
            "by_ell": {str(k): v for k, v in sorted(by_ell.items())},
        },
    )


def check_eq6_intervals(n_max: int = 2_000) -> CheckReport:
    """The b-interval identity behind the decrement witnesses: with L =
    ell/10, the L-1 values of b starting at n+1-3L equal those starting at
    n+1-L, and b(n-2L) = m.  Windows reaching below 0 are skipped."""
    params = {"n_max": n_max}
    violation = None
    checked = 0
    skipped = 0
    for n, _, m, ell in _b_slot_decrements(n_max):
        block = ell // 10
        low = n + 1 - 3 * block
        if low < 0:
            skipped += 1
            continue
        mid = n + 1 - block
        for i in range(block - 1):
            if b_rec(low + i) != b_rec(mid + i):
                violation = Violation(
                    "interval-mismatch", low + i, {"n": n, "m": m, "offset": i}
                )
                break
        if violation is not None:
            break
        if b_rec(n - 2 * block) != m:
            violation = Violation(
                "anchor-mismatch", n - 2 * block, {"n": n, "m": m, "found": b_rec(n - 2 * block)}
            )
            break
        checked += 1
    return CheckReport(
        "eq6-intervals", params, violation,
        extras={"checked": checked, "skipped": skipped},
    )


def check_b_inequality(s_max: int = 300, j_max: int = 300) -> CheckReport:
    """b(d(s)j + c(s)) differs from b(d(s)j + c(s) + 6s) for all s, j in range."""
    params = {"s_max": s_max, "j_max": j_max}
    violation = None
    for s in range(1, s_max + 1):
        cs, ds = c_term(s), d_term(s)
        for j in range(j_max + 1):
            pos = ds * j + cs
            if b_rec(pos) == b_rec(pos + 6 * s):
                violation = Violation("b-values-collide", pos, {"s": s, "j": j})
                break
        if violation is not None:
            break
    return CheckReport("b-inequality", params, violation)


def check_b_window(n_max: int = 2_000, r_max: int = 200) -> CheckReport:
    """For every n and r in range some offset j < r has b(n+j) != b(n+2r+j).

    Equal windows make b(n..n+3r-1) an exact 3/2-power (period 2r), so the
    exact-mode detector scans the prefix of length n_max + 3*r_max: every
    window in range, and every other window that fits in it too.
    """
    params = {"n_max": n_max, "r_max": r_max}
    occ = contains_forbidden([b_rec(i) for i in range(n_max + 3 * r_max)], E32, EXACT)
    violation = None
    if occ is not None:
        violation = Violation("window-repeats", occ.start, {"n": occ.start, "r": occ.period // 2})
    return CheckReport("b-window", params, violation)


def check_x_squares(
    length: int = 10_000, source: str | Sequence[int] = "x32"
) -> CheckReport:
    """Every square factor has a one-letter root, and that letter is 0 or 1:
    one ``LceIndex.scan`` call finds the longer roots, over the letters
    before the first square vv with v > 1."""
    name, letters, _, _ = _resolve(source, E32, EXACT, length)
    params = {"target": name, "length": length}
    stop = next((i for i in range(1, len(letters)) if letters[i] == letters[i - 1] > 1), len(letters))
    idx = LceIndex(2, 1, first=2)
    root = idx.scan(islice(letters, stop))
    end, violation = len(idx), None
    if root is not None:
        violation = Violation("square-root-too-long", end, {"start": end + 1 - 2 * root, "root_length": root})
    elif end < len(letters):
        violation = Violation("square-letter", end, {"root": [letters[end]]})
    # the unit squares 00 and 11 up to the violation, a root's included
    unit: Counter[int] = Counter()
    first_unit: dict[int, int] = {}
    for i in range(1, end + (root is not None)):
        v = letters[i]
        if v == letters[i - 1]:
            unit[v] += 1
            first_unit.setdefault(v, i - 1)
    extras = {
        "count_00": unit.get(0, 0),
        "count_11": unit.get(1, 0),
        "first_00": first_unit.get(0),
        "first_11": first_unit.get(1),
    }
    return CheckReport("x-squares", params, violation, extras)


def check_x_overlapfree(
    length: int = 10_000, source: str | Sequence[int] = "x32"
) -> CheckReport:
    """No factor of shape a x a x a (single letter a, x possibly empty), i.e.
    of exponent above 2: one ``LceIndex.scan`` call stops at the first, with
    period |a x|."""
    name, letters, _, _ = _resolve(source, E32, EXACT, length)
    params = {"target": name, "length": length}
    idx = LceIndex(2, 1, strict=True)
    period = idx.scan(letters)
    i = len(idx)
    violation = None if period is None else Violation("overlap", i, {"start": i - 2 * period, "period": period})
    return CheckReport("x-overlap", params, violation)


# The verification battery run by scripts/run_checks.py: each check with its
# desk-scale bounds, then the smaller bounds of a --fast smoke run.
BATTERY: tuple[tuple[Callable[..., CheckReport], dict[str, object], dict[str, object]], ...] = (
    (check_powerfree, {"source": "w32", "length": 10_000}, {"source": "w32", "length": 1_000}),
    (check_powerfree, {"source": "x32", "length": 10_000}, {"source": "x32", "length": 1_000}),
    (check_powerfree, {"source": "ruler", "length": 10_000}, {"source": "ruler", "length": 1_000}),
    (check_cross, {"length": 10_000}, {"length": 1_000}),
    (check_minimality, {"source": "w32", "length": 2_000}, {"source": "w32", "length": 200}),
    (check_minimality, {"source": "x32", "length": 2_000}, {"source": "x32", "length": 200}),
    (check_b_window, {"n_max": 2_000, "r_max": 200}, {"n_max": 200, "r_max": 40}),
    (check_b_inequality, {"s_max": 300, "j_max": 300}, {"s_max": 40, "j_max": 40}),
    (check_ell_claim, {"n_max": 2_000}, {"n_max": 200}),
    (check_eq6_intervals, {"n_max": 2_000}, {"n_max": 200}),
    (check_x_squares, {"length": 10_000}, {"length": 1_000}),
    (check_x_overlapfree, {"length": 10_000}, {"length": 1_000}),
)
