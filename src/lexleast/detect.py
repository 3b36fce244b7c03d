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

``LceIndex`` keeps, for every period P, the length of the longest suffix of
the word with period P.  Appends are the only way into that run table: each
one updates it from one comparison of the new letter with the word read
backwards, and each query compares every run with the number of letters its
period needs.  There are no hashes: every verdict rests on letter
comparisons, at a cost of O(n) vectorized work per letter.
"""

from __future__ import annotations

from enum import Enum
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

    def blocked(self, periods: range, min_runs: np.ndarray, scale: int = 1) -> dict[int, int]:
        """Letters at the next position that would complete a repetition there.

        Period periods[k] blocks a letter when the letters ending at the next
        position repeat the ones periods[k] earlier: the run of periods[k]
        covers all but the last, and the last is the letter
        ``word[n - periods[k]]``.  The run qualifies when ``scale`` times it
        is at least min_runs[k], so that a rule with a fractional bound stays
        in integers.  Periods ascend from 1 or more and stay at most the
        length n; ``min_runs`` is as long as ``periods``.  Returns each
        blocked letter with its smallest period.
        """
        runs = self._run[periods.start : periods.stop : periods.step]
        if scale != 1:
            runs = runs * scale
        found: dict[int, int] = {}
        backwards = self._backwards()
        for k in np.flatnonzero(runs >= min_runs).tolist():
            period = periods[k]
            found.setdefault(int(backwards[period - 1]), period)
        return found

    def threshold_hit(self, p: int, q: int) -> dict[int, int]:
        """``blocked`` for factors of exponent >= p/q: period P needs
        ceil(P(p-q)/q) letters past its period block, that is a run r with
        q(r + 1) >= P(p-q)."""
        top = ((self._n + 1) * q) // p
        bounds = np.arange(p - 2 * q, (p - q) * top - q + 1, p - q)
        return self.blocked(range(1, top + 1), bounds, scale=q)

    def exact_hit(self, p: int, q: int) -> dict[int, int]:
        """``blocked`` for exact p/q-powers: period q*t needs (p-q)*t letters
        past its period block."""
        top = (self._n + 1) // p
        min_runs = np.arange(p - q - 1, (p - q) * top, p - q)
        return self.blocked(range(q, q * top + 1, q), min_runs)


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
