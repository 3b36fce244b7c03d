"""Forbidden-repetition detection.

Two avoidance disciplines share one rational exponent p/q:

* ``THRESHOLD`` forbids every factor whose exponent (length over least
  period) is at least p/q.
* ``EXACT`` forbids only factors that are exact p/q-powers, i.e. of length
  p*t with period q*t.  Squares of odd period, for instance, survive
  exact-3/2 avoidance.

When the prefix before position n is clean, a new forbidden factor can only
end at n, so every question here is one query: which letters at position n
would complete a forbidden factor?  For each candidate period P, every
compared letter but the last is already committed, and the last pits the
letter at n against ``word[n - P]``.  One scan over the periods therefore
yields every blocked letter with its smallest period
(``LceIndex.blocked``).  Greedy generation takes the least letter missing
from that map, minimality needs every smaller letter in it, and a scan or a
structure check looks up the one letter actually present.

``LceIndex`` keeps, for every period P, the length run(P) of the longest
suffix of the word with period P; appends are the only way into that run
table.  Every query asks one need rule: P blocks ``word[n - P]`` when
q * run(P) >= (p - q) * P - q, i.e. when the factor of length
P + run(P) + 1 reaches exponent p/q.  Threshold mode asks it over every
period, exact mode over the multiples of q (period q*t reaches exponent
p/q exactly at length p*t), and the x32 structure checks for exponent 2.
There are no hashes: every verdict rests on letter comparisons, at a cost
of O(n) vectorized work per letter.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Iterable

import numpy as np

from .words import Exponent, Occurrence, Word


class AvoidanceMode(Enum):
    THRESHOLD = "threshold"
    EXACT = "exact"


def _checked(letter: int) -> int:
    if letter < 0:
        raise ValueError(f"letters are natural numbers, got {letter}")
    if letter >= (1 << 31):
        # letters and runs are stored as int64; the CLI promises this bound
        raise OverflowError(f"letter {letter} exceeds the supported width")
    return int(letter)


class LceIndex:
    """Word with the run table of its suffixes.

    ``run(P)`` is the length of the longest suffix of the word that has
    period P, i.e. how many letters ending at position n-1 equal the ones P
    earlier.  Letters are natural numbers below 2**31, stored as int64 and
    right-aligned in reverse order, so that the word read backwards is one
    contiguous slice.  ``append`` updates the table in place, and building
    from letters appends them one by one.
    """

    __slots__ = ("_n", "_rev", "_run")

    def __init__(self, letters: Iterable[int] = ()) -> None:
        self._n = 0
        self._rev = np.zeros(64, dtype=np.int64)
        # run[P] for P in 0..capacity; entries from P = n on stay 0
        self._run = np.zeros(65, dtype=np.int64)
        for v in letters:
            self.append(v)

    def __len__(self) -> int:
        return self._n

    def _backwards(self) -> np.ndarray:
        """The word read from its last letter to its first (a view)."""
        return self._rev[len(self._rev) - self._n :]

    def to_list(self) -> list[int]:
        return self._backwards()[::-1].tolist()

    def run(self, period: int) -> int:
        """Length of the longest suffix with the given period (0 when the
        period is the length or more)."""
        if period < 1:
            raise ValueError(f"period must be positive, got {period}")
        return int(self._run[period]) if period < self._n else 0

    def append(self, letter: int) -> None:
        letter = _checked(letter)
        n = self._n
        cap = len(self._rev)
        if n == cap:
            zeros = np.zeros(cap, dtype=np.int64)
            self._rev = np.concatenate([zeros, self._rev])
            self._run = np.concatenate([self._run, zeros])
            cap *= 2
        # the suffix with period P grows by one letter when the new letter
        # repeats word[n - P], and is empty otherwise
        runs = self._run[1 : n + 1]
        runs += 1
        runs *= self._rev[cap - n :] == letter
        self._rev[cap - 1 - n] = letter
        self._n = n + 1

    def pop(self) -> int:
        """Remove and return the last letter.  The rest is appended again
        into a fresh table, so a pop costs n appends."""
        if self._n == 0:
            raise IndexError("pop from empty index")
        *rest, letter = self.to_list()
        self.__init__(rest)
        return letter

    def blocked(self, periods: range, p: int, q: int, strict: bool = False) -> dict[int, int]:
        """Letters at the next position that would complete a factor of
        exponent at least p/q (above p/q when ``strict``), each with its
        smallest period in ``periods``.

        The need rule lives here alone: appending ``word[n - P]`` gives a
        factor of length P + run(P) + 1 with period P, whose exponent
        reaches p/q when q * run(P) >= (p - q) * P - q, and exceeds it with
        one more on the right (for q = 1, one more letter).  Exact p/q-powers
        are this rule on multiples of q: period q*t reaches p/q exactly at
        length p*t.  Periods ascend from 1 or more and stay at most n.
        """
        # bounds rise linearly with P; dividing the rule by this gcd spares
        # exact mode and every q = 1 rule a multiply per run
        first, step = (p - q) * periods.start - q + strict, (p - q) * periods.step
        g = gcd(q, first, step)
        runs = self._run[periods.start : periods.stop : periods.step]
        if q != g:
            runs = runs * (q // g)
        needs = np.arange(first // g, (first + step * len(periods)) // g, step // g)
        found: dict[int, int] = {}
        backwards = self._backwards()
        for k in np.flatnonzero(runs >= needs).tolist():
            period = periods[k]
            found.setdefault(int(backwards[period - 1]), period)
        return found

    def threshold_hit(self, p: int, q: int) -> dict[int, int]:
        """``blocked`` for factors of exponent >= p/q, over every period
        whose shortest such factor fits in n + 1 letters."""
        return self.blocked(range(1, (self._n + 1) * q // p + 1), p, q)

    def exact_hit(self, p: int, q: int) -> dict[int, int]:
        """``blocked`` for exact p/q-powers: the same rule on multiples of q."""
        return self.blocked(range(q, (self._n + 1) * q // p + 1, q), p, q)


def blocked_letters(idx: LceIndex, exponent: Exponent, mode: AvoidanceMode) -> dict[int, int]:
    """``LceIndex.blocked`` under the given discipline: each letter at the
    next position that would complete a forbidden factor, with its smallest
    period."""
    query = idx.threshold_hit if mode is AvoidanceMode.THRESHOLD else idx.exact_hit
    return query(exponent.p, exponent.q)


def _witness(idx: LceIndex, exponent: Exponent, mode: AvoidanceMode, letter: int) -> Occurrence | None:
    """The forbidden factor that appending ``letter`` would complete, if any."""
    period = blocked_letters(idx, exponent, mode).get(letter)
    if period is None:
        return None
    if mode is AvoidanceMode.THRESHOLD:
        length = period + idx.run(period) + 1
    else:
        length = period // exponent.q * exponent.p
    return Occurrence(len(idx) + 1 - length, period, length)


def forbidden_suffix(
    word: Word,
    exponent: Exponent,
    mode: AvoidanceMode = AvoidanceMode.THRESHOLD,
) -> Occurrence | None:
    """Witness of a forbidden factor ending at the last letter, or None.

    Among witnesses the one with the smallest period is returned, extended
    to the longest length for that period in threshold mode (exact powers
    have their length pinned to p*t).
    """
    if len(word) == 0:
        return None
    return _witness(LceIndex(word[:-1]), exponent, mode, _checked(word[-1]))


def contains_forbidden(
    word: Word,
    exponent: Exponent,
    mode: AvoidanceMode = AvoidanceMode.THRESHOLD,
) -> Occurrence | None:
    """First forbidden factor in end-position order over the whole word.

    Every letter is checked against the ``LceIndex`` bound first; the scan
    then stops at the first position that completes a forbidden factor.
    """
    for v in word:
        _checked(v)
    idx = LceIndex()
    for v in word:
        occ = _witness(idx, exponent, mode, v)
        if occ is not None:
            return occ
        idx.append(v)
    return None
