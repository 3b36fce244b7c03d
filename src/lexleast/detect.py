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
structure check asks about the one letter actually present.

``LceIndex`` runs the period scan as a vectorized filter on double-modulus
rolling hashes over append-only arrays.  Hash inequality is exact, and every
hash match that is about to become a verdict is confirmed by direct letter
comparison, so a collision can never produce a wrong answer.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

import numpy as np

from .words import Exponent, Occurrence, Word

_M1 = (1 << 31) - 1
_M2 = (1 << 31) - 19
_B1 = 1_000_003
_B2 = 1_000_033


class AvoidanceMode(Enum):
    THRESHOLD = "threshold"
    EXACT = "exact"


class LceIndex:
    """Append-only word with fast backward substring-equality queries.

    Letters are stored as int64; hashes use two 31-bit moduli so that all
    intermediate products stay below 2**62.  ``pop`` retracts the last
    letter, for walks that backtrack.
    """

    __slots__ = ("_n", "_cap", "_let", "_h1", "_h2", "_p1", "_p2")

    def __init__(self, letters: Iterable[int] = ()) -> None:
        self._n = 0
        self._cap = 64
        self._let = np.zeros(self._cap, dtype=np.int64)
        self._h1 = np.zeros(self._cap + 1, dtype=np.int64)
        self._h2 = np.zeros(self._cap + 1, dtype=np.int64)
        self._p1 = np.zeros(self._cap + 1, dtype=np.int64)
        self._p2 = np.zeros(self._cap + 1, dtype=np.int64)
        self._p1[0] = 1
        self._p2[0] = 1
        for v in letters:
            self.append(v)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return int(self._let[i])

    def to_list(self) -> list[int]:
        return [int(v) for v in self._let[: self._n]]

    def _grow(self) -> None:
        new_cap = self._cap * 2
        for name in ("_let", "_h1", "_h2", "_p1", "_p2"):
            old = getattr(self, name)
            extra = new_cap - self._cap
            setattr(self, name, np.concatenate([old, np.zeros(extra, dtype=np.int64)]))
        self._cap = new_cap

    def append(self, letter: int) -> None:
        if letter < 0:
            raise ValueError(f"letters are natural numbers, got {letter}")
        if letter >= (1 << 31):
            # int64 storage plus the hash arithmetic cap letter magnitude
            raise OverflowError(f"letter {letter} exceeds the supported width")
        n = self._n
        if n + 2 > self._cap:
            self._grow()
        self._let[n] = letter
        x = letter + 1
        self._h1[n + 1] = (int(self._h1[n]) * _B1 + x) % _M1
        self._h2[n + 1] = (int(self._h2[n]) * _B2 + x) % _M2
        self._p1[n + 1] = (int(self._p1[n]) * _B1) % _M1
        self._p2[n + 1] = (int(self._p2[n]) * _B2) % _M2
        self._n = n + 1

    def pop(self) -> int:
        if self._n == 0:
            raise IndexError("pop from empty index")
        self._n -= 1
        return int(self._let[self._n])

    def extend(self, letters: Iterable[int]) -> None:
        for v in letters:
            self.append(v)

    def _equal_ranges(self, a1: int, a2: int, length: int) -> bool:
        return bool(np.array_equal(self._let[a1 : a1 + length], self._let[a2 : a2 + length]))

    def _hash_equal(self, a1: int, a2: int, length: int) -> bool:
        h1, p1 = self._h1, self._p1
        if (int(h1[a1 + length]) - int(h1[a1]) * int(p1[length])) % _M1 != (
            int(h1[a2 + length]) - int(h1[a2]) * int(p1[length])
        ) % _M1:
            return False
        h2, p2 = self._h2, self._p2
        return (int(h2[a1 + length]) - int(h2[a1]) * int(p2[length])) % _M2 == (
            int(h2[a2 + length]) - int(h2[a2]) * int(p2[length])
        ) % _M2

    def _hash_candidates(
        self, periods: np.ndarray, needs: np.ndarray, end: int, letter: int | None
    ) -> np.ndarray:
        """Indices k where the needs[k] letters ending at position ``end`` hash-match
        the ones periods[k] earlier.  Position ``end`` holds ``letter``, folded
        into the hash as a scalar; when ``letter`` is None that position is
        left out of both sides.  Unconfirmed."""
        top = end if letter is None else end + 1
        h1 = self._h1
        a1 = end + 1 - needs
        a2 = a1 - periods
        b2 = top - periods
        pw = self._p1[needs if letter is not None else needs - 1]
        head = int(h1[end]) if letter is None else (int(h1[end]) * _B1 + letter + 1) % _M1
        lhs = (head - h1[a1] * pw) % _M1
        rhs = (h1[b2] - h1[a2] * pw) % _M1
        cand = np.flatnonzero(lhs == rhs)
        if cand.size == 0:
            return cand
        h2 = self._h2
        a1 = a1[cand]
        pw2 = self._p2[top - a1]
        head = int(h2[end]) if letter is None else (int(h2[end]) * _B2 + letter + 1) % _M2
        lhs2 = (head - h2[a1] * pw2) % _M2
        rhs2 = (h2[b2[cand]] - h2[a2[cand]] * pw2) % _M2
        return cand[lhs2 == rhs2]

    def blocked(
        self,
        periods: np.ndarray,
        needs: np.ndarray,
        end: int | None = None,
        letter: int | None = None,
    ) -> dict[int, int]:
        """Letters at position ``end`` that would complete a repetition there.

        A letter is blocked through period periods[k] when the needs[k]
        letters ending at ``end`` repeat the ones periods[k] earlier; all but
        the last are committed, so that letter is ``word[end - periods[k]]``.
        ``end`` defaults to the length, and letters from ``end`` on are
        ignored.  Periods must ascend, and each needs[k] + periods[k] is at
        most end + 1.  Returns each blocked letter with its smallest period.
        Given ``letter``, only that letter is asked about: the map holds it
        or is empty.
        """
        n = self._n if end is None else end
        if not 0 <= n <= self._n:
            raise ValueError(f"end {n} out of range for length {self._n}")
        found: dict[int, int] = {}
        let = self._let
        for k in self._hash_candidates(periods, needs, n, letter):
            period = int(periods[k])
            repeat = int(let[n - period])
            if repeat in found or (letter is not None and repeat != letter):
                continue
            start = n + 1 - int(needs[k])
            if self._equal_ranges(start, start - period, n - start):
                found[repeat] = period
                if letter is not None:
                    break
        return found

    def threshold_hit(
        self, p: int, q: int, end: int | None = None, letter: int | None = None
    ) -> dict[int, int]:
        """``blocked`` for factors of exponent >= p/q: period P needs
        ceil(P(p-q)/q) letters past its period block."""
        n = self._n if end is None else end
        periods = np.arange(1, ((n + 1) * q) // p + 1)
        return self.blocked(periods, (periods * (p - q) + q - 1) // q, end, letter)

    def exact_hit(
        self, p: int, q: int, end: int | None = None, letter: int | None = None
    ) -> dict[int, int]:
        """``blocked`` for exact p/q-powers: period q*t needs (p-q)*t letters
        past its period block."""
        n = self._n if end is None else end
        periods = np.arange(q, q * ((n + 1) // p) + 1, q)
        return self.blocked(periods, periods // q * (p - q), end, letter)

    def lce_backward(self, i: int, j: int) -> int:
        """Largest L such that the L letters ending at i equal those ending at j."""
        n = self._n
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"indices ({i}, {j}) out of range for length {n}")
        if self._let[i] != self._let[j]:
            return 0
        lo, hi = 1, min(i, j) + 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._hash_equal(i - mid + 1, j - mid + 1, mid):
                lo = mid
            else:
                hi = mid - 1
        if self._equal_ranges(i - lo + 1, j - lo + 1, lo):
            return lo
        # hash collision: fall back to the direct scan
        length = 0
        bound = min(i, j) + 1
        let = self._let
        while length < bound and let[i - length] == let[j - length]:
            length += 1
        return length


def blocked_letters(
    idx: LceIndex,
    exponent: Exponent,
    mode: AvoidanceMode,
    end: int | None = None,
    letter: int | None = None,
) -> dict[int, int]:
    """``LceIndex.blocked`` under the given discipline: each letter at position
    ``end`` that would complete a forbidden factor, with its smallest period."""
    query = idx.threshold_hit if mode is AvoidanceMode.THRESHOLD else idx.exact_hit
    return query(exponent.p, exponent.q, end, letter)


def _witness(idx: LceIndex, exponent: Exponent, mode: AvoidanceMode, last: int) -> Occurrence | None:
    hit = blocked_letters(idx, exponent, mode, last, idx[last])
    if not hit:
        return None
    (period,) = hit.values()
    if mode is AvoidanceMode.THRESHOLD:
        length = period + idx.lce_backward(last, last - period)
    else:
        length = period // exponent.q * exponent.p
    return Occurrence(last + 1 - length, period, length)


def forbidden_suffix(
    word: Word | LceIndex,
    exponent: Exponent,
    mode: AvoidanceMode = AvoidanceMode.THRESHOLD,
    end: int | None = None,
) -> Occurrence | None:
    """Witness of a forbidden factor ending at position ``end - 1``, or None.

    ``end`` defaults to the full length.  Among witnesses the one with the
    smallest period is returned, extended to the longest length for that
    period in threshold mode (exact powers have their length pinned to p*t).
    """
    n = len(word) if end is None else end
    if not 0 <= n <= len(word):
        raise ValueError(f"end {n} out of range for word of length {len(word)}")
    if n == 0:
        return None
    idx = word if isinstance(word, LceIndex) else LceIndex(word[:n])
    return _witness(idx, exponent, mode, n - 1)


def contains_forbidden(
    word: Word | LceIndex,
    exponent: Exponent,
    mode: AvoidanceMode = AvoidanceMode.THRESHOLD,
) -> Occurrence | None:
    """First forbidden factor in end-position order over the whole word."""
    idx = word if isinstance(word, LceIndex) else LceIndex(word)
    for last in range(len(idx)):
        occ = _witness(idx, exponent, mode, last)
        if occ is not None:
            return occ
    return None
