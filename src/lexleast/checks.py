"""Executable verification of structural claims about the sequences.

Each check scans a finite prefix (or index range) and returns a
``CheckReport``; a failing report carries the first ``Violation`` in
position order, with enough detail to reproduce it.  Default bounds are
desk scale and every bound is overridable from the CLI.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .detect import AvoidanceMode, LceIndex, blocked_letters, contains_forbidden
from .formulas import (
    EllCase,
    b_rec,
    c_term,
    d_term,
    ell_m,
    ruler_prefix,
    w32_prefix,
    x32_prefix,
)
from .greedy import generate
from .morphic import w32_via_morphism, x32_via_morphism
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
    passed: bool
    violation: Violation | None
    elapsed: float
    extras: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.passed and self.violation is None:
            raise ValueError("failing report requires a violation")

    def to_dict(self) -> dict[str, object]:
        # deliberately excludes elapsed time so serialized reports are
        # byte-identical across runs
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
    source: str | Sequence[int],
    exponent: Exponent | None = None,
    mode: AvoidanceMode | None = None,
    length: int = 10_000,
) -> CheckReport:
    """No forbidden factor anywhere in the length-``length`` prefix."""
    t0 = time.perf_counter()
    name, letters, exponent, mode = _resolve(source, exponent, mode, length)
    params = {"target": name, "length": length, "exponent": str(exponent), "mode": mode.value}
    occ = contains_forbidden(letters, exponent, mode)
    violation = None if occ is None else Violation("forbidden-factor", occ.end - 1, _occ_detail(occ))
    return CheckReport(
        "powerfree", params, violation is None, violation, time.perf_counter() - t0,
        extras={"scanned": len(letters)},
    )


def check_minimality(
    source: str | Sequence[int],
    exponent: Exponent | None = None,
    mode: AvoidanceMode | None = None,
    length: int = 2_000,
) -> CheckReport:
    """Every decrement of every letter creates a forbidden suffix.

    Since the prefix before position i is clean, it is enough to test the
    mutated word for a forbidden factor ending exactly at i.  The scan also
    re-verifies that the source letters themselves stay clean, so a
    non-power-free input fails here rather than passing vacuously.
    """
    t0 = time.perf_counter()
    name, letters, exponent, mode = _resolve(source, exponent, mode, length)
    params = {"target": name, "length": length, "exponent": str(exponent), "mode": mode.value}
    idx = LceIndex()
    violation = None
    decrements = 0
    for i, v in enumerate(letters):
        blocked = blocked_letters(idx, exponent, mode)
        free = next((m for m in range(v) if m not in blocked), v)
        decrements += free
        if free < v:
            violation = Violation(
                "decrement-survives", i, {"letter": v, "decremented_to": free}
            )
            break
        if v in blocked:
            violation = Violation("source-not-clean", i, {"letter": v})
            break
        idx.append(v)
    return CheckReport(
        "minimality", params, violation is None, violation, time.perf_counter() - t0,
        extras={"positions": len(letters), "decrements_verified": decrements},
    )


def check_cross(length: int = 10_000) -> CheckReport:
    """Greedy search, closed form, and morphic coding agree pointwise, for
    both the threshold and the exact discipline."""
    t0 = time.perf_counter()
    params = {"length": length}
    violation = None
    triples = (
        ("threshold", "w32-greedy", "w32", "w32-morphic"),
        ("exact", "x32-greedy", "x32", "x32-morphic"),
    )
    for variant, greedy_id, closed_id, morphic_id in triples:
        a = SOURCES[greedy_id].make(length)
        b = SOURCES[closed_id].make(length)
        c = SOURCES[morphic_id].make(length)
        for i in range(length):
            if not (a[i] == b[i] == c[i]):
                violation = Violation(
                    "generator-mismatch",
                    i,
                    {"variant": variant, "greedy": a[i], "closed": b[i], "morphic": c[i]},
                )
                break
        if violation is not None:
            break
    return CheckReport("cross", params, violation is None, violation, time.perf_counter() - t0)


def _b_slot_decrements(n_max: int):
    """(n, m, ell) triples for every decrement target m >= 5 at a b-slot."""
    for n in range(n_max + 1):
        value = b_rec(n)
        for m in range(5, value):
            yield n, m, ell_m(EllCase.from_value(value, m))


def check_ell_claim(n_max: int = 2_000) -> CheckReport:
    """Decrementing a b-slot letter to m >= 5 creates an xyx repetition with
    block length ell ending at the decremented position.

    For each applicable pair the mutated suffix of length 3*ell is checked
    to have period 2*ell by direct comparison.  Pairs whose window starts
    before position 0 are counted as skipped.
    """
    t0 = time.perf_counter()
    params = {"n_max": n_max}
    word = w32_prefix(10 * n_max + 10)
    violation = None
    skipped = 0
    by_case: Counter[str] = Counter()
    by_ell: Counter[int] = Counter()
    for n, m, ell in _b_slot_decrements(n_max):
        end = 10 * n + 9
        if 3 * ell > end + 1:
            skipped += 1
            continue
        start = end - 3 * ell + 1
        ok = True
        for pos in range(start, start + ell):
            left = word[pos]
            right = m if pos + 2 * ell == end else word[pos + 2 * ell]
            if left != right:
                ok = False
                break
        if not ok:
            violation = Violation(
                "decrement-witness-broken", end, {"n": n, "m": m, "ell": ell}
            )
            break
        case = EllCase.from_value(b_rec(n), m)
        # the five branches of the length table
        key = f"b_{'odd' if case.b_odd else 'even'}_m_{'odd' if m % 2 else 'even'}"
        if not case.b_odd and m % 2 == 1 and case.is_pred:
            key += "_pred"
        by_case[key] += 1
        by_ell[ell] += 1
    return CheckReport(
        "ell-claim", params, violation is None, violation, time.perf_counter() - t0,
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
    t0 = time.perf_counter()
    params = {"n_max": n_max}
    violation = None
    checked = 0
    skipped = 0
    for n, m, ell in _b_slot_decrements(n_max):
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
        "eq6-intervals", params, violation is None, violation, time.perf_counter() - t0,
        extras={"checked": checked, "skipped": skipped},
    )


def check_b_inequality(s_max: int = 300, j_max: int = 300) -> CheckReport:
    """b(d(s)j + c(s)) differs from b(d(s)j + c(s) + 6s) for all s, j in range."""
    t0 = time.perf_counter()
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
    return CheckReport(
        "b-inequality", params, violation is None, violation, time.perf_counter() - t0
    )


def check_b_window(n_max: int = 2_000, r_max: int = 200) -> CheckReport:
    """For every n and r in range some offset j < r has b(n+j) != b(n+2r+j)."""
    t0 = time.perf_counter()
    params = {"n_max": n_max, "r_max": r_max}
    table = [b_rec(i) for i in range(n_max + 3 * r_max + 1)]
    violation = None
    for n in range(n_max + 1):
        for r in range(1, r_max + 1):
            shift = 2 * r
            if all(table[n + j] == table[n + shift + j] for j in range(r)):
                violation = Violation("window-repeats", n, {"n": n, "r": r})
                break
        if violation is not None:
            break
    return CheckReport(
        "b-window", params, violation is None, violation, time.perf_counter() - t0
    )


def check_x_squares(
    length: int = 10_000, source: str | Sequence[int] = "x32"
) -> CheckReport:
    """Every square factor has a one-letter root, and that letter is 0 or 1."""
    t0 = time.perf_counter()
    name, letters, _, _ = _resolve(source, E32, EXACT, length)
    params = {"target": name, "length": length}
    idx = LceIndex()
    violation = None
    unit: Counter[int] = Counter()
    first_unit: dict[int, int] = {}
    for i, v in enumerate(letters):
        if i >= 1 and letters[i] == letters[i - 1]:
            if v > 1:
                violation = Violation("square-letter", i, {"root": [v]})
                break
            unit[v] += 1
            first_unit.setdefault(v, i - 1)
        roots = np.arange(2, (i + 1) // 2 + 1)
        found = idx.blocked(roots, roots, letter=v)
        if found:
            root = found[v]
            violation = Violation(
                "square-root-too-long", i, {"start": i + 1 - 2 * root, "root_length": root}
            )
            break
        idx.append(v)
    extras = {
        "count_00": unit.get(0, 0),
        "count_11": unit.get(1, 0),
        "first_00": first_unit.get(0),
        "first_11": first_unit.get(1),
    }
    return CheckReport(
        "x-squares", params, violation is None, violation, time.perf_counter() - t0, extras
    )


def check_x_overlapfree(
    length: int = 10_000, source: str | Sequence[int] = "x32"
) -> CheckReport:
    """No factor of shape a x a x a (single letter a, x possibly empty);
    equivalently no factor of exponent above 2."""
    t0 = time.perf_counter()
    name, letters, _, _ = _resolve(source, E32, EXACT, length)
    params = {"target": name, "length": length}
    idx = LceIndex()
    violation = None
    for i, v in enumerate(letters):
        periods = np.arange(1, i // 2 + 1)
        found = idx.blocked(periods, periods + 1, letter=v)
        if found:
            period = found[v]
            violation = Violation("overlap", i, {"start": i - 2 * period, "period": period})
            break
        idx.append(v)
    return CheckReport(
        "x-overlap", params, violation is None, violation, time.perf_counter() - t0
    )
