"""Brute-force reference implementations.

Everything here trades speed for obviousness: periods are established by
direct letter loops, exponent comparisons by cross-multiplication, and
enumeration is exhaustive.  ``DenseRunTable`` sits between: the run of
every period, updated on each append, O(n) per letter.  The production
code must agree with these on every input they can both handle;
``scan_map`` reads an ``LceIndex`` by one-letter scans, each put back, to
compare it with the dense table's map.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np

from lexleast.checks import CheckReport, Violation
from lexleast.detect import AvoidanceMode, LceIndex
from lexleast.words import Exponent, Occurrence

Word = Sequence[int]


def least_period_scan(word: Word) -> int:
    n = len(word)
    for period in range(1, n + 1):
        if all(word[i] == word[i + period] for i in range(n - period)):
            return period
    raise AssertionError("unreachable")


def factor_is_forbidden(word: Word, exponent: Exponent, mode: AvoidanceMode) -> bool:
    """Definitional test for a whole factor."""
    n = len(word)
    if mode is AvoidanceMode.THRESHOLD:
        return n * exponent.q >= least_period_scan(word) * exponent.p
    # exact power: some t with length p*t and period q*t
    for t in range(1, n + 1):
        if n == exponent.p * t and exponent.q * t <= n:
            if all(word[i] == word[i + exponent.q * t] for i in range(n - exponent.q * t)):
                return True
    return False


def contains_forbidden_scan(word: Word, exponent: Exponent, mode: AvoidanceMode) -> bool:
    """Test every factor directly."""
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n + 1):
            if factor_is_forbidden(word[i:j], exponent, mode):
                return True
    return False


def naive_forbidden_suffix(
    word: Word, exponent: Exponent, mode: AvoidanceMode
) -> Occurrence | None:
    """Forbidden factor ending at the last position, by direct letter loops.

    Same contract as the production function: smallest period first, and in
    threshold mode the longest length for that period.
    """
    n = len(word)
    p, q = exponent.p, exponent.q
    if mode is AvoidanceMode.THRESHOLD:
        for period in range(1, n):
            run = 0
            while run < n - period and word[n - 1 - run] == word[n - 1 - period - run]:
                run += 1
            length = period + run
            if length * q >= period * p:
                return Occurrence(n - length, period, length)
        return None
    for t in range(1, n // p + 1):
        period, length = q * t, p * t
        start = n - length
        if all(word[start + i] == word[start + i + period] for i in range(length - period)):
            return Occurrence(start, period, length)
    return None


class DenseRunTable:
    """Mid-speed reference detector: the run of every period, kept in a
    numpy array and updated by vectorized passes, O(n) per letter.

    ``run[P]`` is the length of the longest suffix with period P.  Letters
    are stored right-aligned in reverse order, so that the word read
    backwards is one contiguous slice.  It answers ``blocked`` by comparing
    every run with its need at once, so it can check the production
    detector after every letter of words far too long for the direct loops
    above.  Its ``blocked(p, q, strict, first, step)`` maps each letter
    that would complete a factor of the rule to its smallest period, the
    period that a one-letter scan of ``LceIndex(p, q, strict, first, step)``
    names for it (``scan_map``), and ``least_free`` names the letter that
    greedy's step appends.
    """

    def __init__(self) -> None:
        self._n = 0
        self._rev = np.zeros(64, dtype=np.int64)
        # run[P] for P in 0..capacity; entries from P = n on stay 0
        self._run = np.zeros(65, dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    def _backwards(self) -> np.ndarray:
        return self._rev[len(self._rev) - self._n :]

    def run(self, period: int) -> int:
        return int(self._run[period]) if period < self._n else 0

    def runs(self, periods: np.ndarray) -> np.ndarray:
        """``run`` of each of the periods, all at most n."""
        return self._run[periods]

    def append(self, letter: int) -> None:
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
        """Remove and return the last letter, O(n).  run(P) of the rest is
        the longest common prefix of the rest read backwards and its shift
        by P, so one Z-function pass over it gives every run again: those
        that the letter lengthened lose it, and those it broke come back."""
        if not self._n:
            raise IndexError("pop from empty table")
        letter = int(self._backwards()[0])
        self._n = m = self._n - 1
        rest = self._backwards().tolist()
        z = [0] * m
        left = right = 0
        for i in range(1, m):
            k = min(right - i, z[i - left]) if i < right else 0
            while i + k < m and rest[k] == rest[i + k]:
                k += 1
            z[i] = k
            if i + k > right:
                left, right = i, i + k
        # run[P] = z[P] below the new length, 0 from it on
        self._run[: m + 1] = z + [0]
        return letter

    def blocked(self, p: int, q: int, strict: bool = False, first: int = 1, step: int = 1) -> dict[int, int]:
        """Each blocked letter with its smallest period: P blocks ``word[n - P]``
        when q * run(P) >= (p - q) * P - q (+1 when ``strict``), for every
        P in first, first + step, ... up to n."""
        ps = np.arange(first, self._n + 1, step, dtype=np.int64)
        hits = q * self._run[ps] >= (p - q) * ps - q + strict
        backwards = self._backwards()
        found: dict[int, int] = {}
        for period in ps[hits].tolist():
            found.setdefault(int(backwards[period - 1]), period)
        return found

    def least_free(self, p: int, q: int, strict: bool = False, first: int = 1, step: int = 1) -> int:
        """The least letter missing from ``blocked``'s map, found without
        building it: k blocked letters leave one of 0..k free."""
        ps = np.arange(first, self._n + 1, step, dtype=np.int64)
        hits = q * self._run[ps] >= (p - q) * ps - q + strict
        letters = self._backwards()[ps[hits] - 1]
        seen = np.zeros(len(letters) + 1, dtype=bool)
        seen[letters[letters <= len(letters)]] = True
        return int(np.argmin(seen))


def refresh(idx: LceIndex) -> None:
    """Refresh ``idx`` when due, as its next query would."""
    n = len(idx)
    if n >= idx._due:
        idx._refresh(n, idx._kept)


def scan_put_back(idx: LceIndex, letter: int) -> int | None:
    """``idx.scan((letter,))``, with the index then put back as it was.
    Refreshed first when due, the index's scan refreshes nothing; a clean
    letter is appended, changes its mask in place or adds it (a new letter
    at 2S masks first drops the stale ones), and sets the runs and the kept
    list.  A letter too wide for the word has the word rebuilt wider: the
    wider copy must hold the word and the letter, and the narrower array,
    which the scan left as it was, is put back."""
    refresh(idx)
    word, masks = idx._word, idx._masks
    own = masks.get(letter)
    saved, runs, kept = own[:] if own else dict(masks), idx._runs, idx._kept
    period = idx.scan((letter,))
    if idx._word is not word:
        assert period is None and idx._word.itemsize > word.itemsize
        assert idx._word.tolist() == [*word, letter]
        idx._word = word
    elif period is None:
        assert word.pop() == letter
    if period is None:
        if own:
            own[:] = saved
        else:
            masks.clear()
            masks.update(saved)
        idx._runs, idx._kept = runs, kept
    return period


def check_masks(idx: LceIndex, built: int = 0) -> None:
    """The letter masks of ``idx`` at length n: the live ones (``at > n + 1
    - S``; a stale mask reads 0) are exactly those of the letters among the
    last S - 1 positions, and at most 2S masks are held.  For an index
    built on ``built`` letters, which replayed only as many as its bits
    rest on, the letters before that need no mask."""
    n, S = len(idx), idx._size
    live = {v for v, (_, at) in idx._masks.items() if at > n + 1 - S}
    assert set(idx._word[max(built, n + 1 - S) :]) <= live <= set(idx._word[max(0, n + 1 - S) :]), n
    assert len(idx._masks) <= 2 * S, n


def scan_map(idx: LceIndex, blocked: dict[int, int]) -> dict[int, int]:
    """The letters at which a one-letter scan of ``idx`` stops, each with
    the period it names, over every letter that ``idx`` or the map
    ``blocked`` could name: the last S letters, ``word[n - P]`` for each
    kept P and the map's letters, and one letter above them all (if one is
    below 2**31), which has no mask, as an unseen letter has none.  The
    index is refreshed first when due and put back after each scan, so the
    result equals ``blocked`` exactly when every scan names the map's
    period."""
    refresh(idx)
    word = idx._word
    n = len(word)
    letters = {*word[max(0, n - idx._size) :], *(word[n - P] for P, _ in idx._kept), *blocked}
    # no letter is above 2**31 - 1, the widest
    if (above := max(letters, default=-1) + 1) < 1 << 31:
        letters.add(above)
    scans = {c: scan_put_back(idx, c) for c in sorted(letters)}
    return {c: period for c, period in scans.items() if period is not None}


def dense_greedy(exponent: Exponent, mode: AvoidanceMode, length: int) -> list[int]:
    """The greedy word by the dense run table: at each position the least
    letter that no period blocks, over every period in threshold mode and
    over the multiples of q in exact mode (period q*t reaches p/q exactly at
    length p*t).  O(n) per letter, independent of ``LceIndex``."""
    p, q = exponent.p, exponent.q
    first = 1 if mode is AvoidanceMode.THRESHOLD else q
    dense, word = DenseRunTable(), []
    for _ in range(length):
        blocked = dense.blocked(p, q, first=first, step=first)
        letter = 0
        while letter in blocked:
            letter += 1
        dense.append(letter)
        word.append(letter)
    return word


def word_sha256(word: Word) -> str:
    """sha256 of the letters written in decimal, joined by commas: the
    digests of ``golden.GREEDY_SHA256``."""
    return hashlib.sha256(",".join(map(str, word)).encode()).hexdigest()


def lce_backward_scan(word: Word, i: int, j: int) -> int:
    length = 0
    while length <= min(i, j) and word[i - length] == word[j - length]:
        length += 1
    return length


def _repeats(word: Word, start: int, period: int, length: int) -> bool:
    """Does ``word[start : start + length]`` have the given period?"""
    return all(word[start + i] == word[start + period + i] for i in range(length - period))


def x_squares_scan(word: Word) -> tuple[tuple[str, int, dict] | None, dict[str, object]]:
    """First square factor, in end-position order, that is not 00 or 11,
    by direct letter loops; with the counts and first positions of the
    unit squares 00 and 11 seen up to there.

    At each end position the unit square is looked at first, then the
    roots of two letters or more from the shortest.
    """
    count = {0: 0, 1: 0}
    first: dict[int, int | None] = {0: None, 1: None}
    found = None
    for i in range(len(word)):
        v = word[i]
        if i >= 1 and word[i - 1] == v:
            if v > 1:
                found = ("square-letter", i, {"root": [v]})
                break
            count[v] += 1
            if first[v] is None:
                first[v] = i - 1
        roots = [r for r in range(2, (i + 1) // 2 + 1) if _repeats(word, i + 1 - 2 * r, r, 2 * r)]
        if roots:
            found = ("square-root-too-long", i, {"start": i + 1 - 2 * roots[0], "root_length": roots[0]})
            break
    stats = {"count_00": count[0], "count_11": count[1], "first_00": first[0], "first_11": first[1]}
    return found, stats


def overlap_scan(word: Word) -> tuple[int, dict] | None:
    """First factor of length 2P + 1 with period P (a x a x a with
    |a x| = P), in end-position order and then by the smallest P, by direct
    letter loops."""
    for i in range(len(word)):
        for period in range(1, i // 2 + 1):
            if _repeats(word, i - 2 * period, period, 2 * period + 1):
                return i, {"start": i - 2 * period, "period": period}
    return None


def x_squares_per_letter(word: Word) -> CheckReport:
    """``check_x_squares`` on an explicit word, by its per-letter loop: at
    each position the unit square first, then the dense table's square
    rule (roots from 2), one letter at a time."""
    dense, violation = DenseRunTable(), None
    unit: dict[int, int] = {0: 0, 1: 0}
    first_unit: dict[int, int] = {}
    for i, v in enumerate(word):
        if i >= 1 and word[i] == word[i - 1]:
            if v > 1:
                violation = Violation("square-letter", i, {"root": [v]})
                break
            unit[v] += 1
            first_unit.setdefault(v, i - 1)
        root = dense.blocked(2, 1, first=2).get(v)
        if root is not None:
            violation = Violation("square-root-too-long", i, {"start": i + 1 - 2 * root, "root_length": root})
            break
        dense.append(v)
    extras = {"count_00": unit[0], "count_11": unit[1], "first_00": first_unit.get(0), "first_11": first_unit.get(1)}
    return CheckReport("x-squares", {"target": "<word>", "length": len(word)}, violation, extras)


def x_overlapfree_per_letter(word: Word) -> CheckReport:
    """``check_x_overlapfree`` on an explicit word, by its per-letter loop
    over the dense table's overlap rule (exponent above 2)."""
    dense, violation = DenseRunTable(), None
    for i, v in enumerate(word):
        period = dense.blocked(2, 1, strict=True).get(v)
        if period is not None:
            violation = Violation("overlap", i, {"start": i - 2 * period, "period": period})
            break
        dense.append(v)
    return CheckReport("x-overlap", {"target": "<word>", "length": len(word)}, violation)


def xyx_suffix(word: Word, gaps: tuple[int, ...]) -> bool:
    """Is there an x y x factor ending at the last position with
    |y| - |x| in ``gaps`` (each gap offset is |y| - |x|, so 0 or -1)?"""
    n = len(word)
    for x_len in range(1, n + 1):
        for gap in gaps:
            y_len = x_len + gap
            if y_len < 0:
                continue
            total = 2 * x_len + y_len
            if total > n:
                continue
            lo = n - total
            mid = n - x_len
            if all(word[lo + i] == word[mid + i] for i in range(x_len)):
                return True
    return False


def ternary_suffix_agreement(
    maxlen: int,
    verdicts: Sequence[Callable[[list[int]], object]],
    alphabet: tuple[int, ...] = (0, 1, 2),
    on_node: Callable[[list[int]], None] | None = None,
) -> tuple[int, int]:
    """Exhaustively compare last-position verdict functions over all words of
    length <= maxlen on the given alphabet.

    Verdicts must depend only on the word (truthy means a forbidden suffix
    ends at the last position).  Once all verdicts agree that a word fires,
    its extensions are skipped: every verdict inspected the same firing
    prefix, so any whole-word scan that stops at the first firing position
    is already determined for every extension.  Returns (visited words,
    covered words); covered counts each word of length <= maxlen exactly
    once and must come out to (k**(maxlen+1) - 1) / (k - 1).
    """
    k = len(alphabet)
    # subtree_size[d] = number of words of length <= maxlen extending a
    # length-d word (including the word itself)
    subtree_size = [sum(k**j for j in range(maxlen - d + 1)) for d in range(maxlen + 1)]
    word: list[int] = []
    visited = 0
    covered = 1  # the empty word: clean under every verdict

    def rec(depth: int) -> None:
        nonlocal visited, covered
        for letter in alphabet:
            word.append(letter)
            if on_node is not None:
                on_node(word)
            results = [v(word) for v in verdicts]
            head = results[0]
            for other in results[1:]:
                assert other == head, (list(word), results)
            visited += 1
            if head:
                covered += subtree_size[depth + 1]
            else:
                covered += 1
                if depth + 1 < maxlen:
                    rec(depth + 1)
            word.pop()

    rec(0)
    return visited, covered


def base6_string(n: int) -> str:
    if n == 0:
        return "0"
    digits = []
    while n:
        n, r = divmod(n, 6)
        digits.append(str(r))
    return "".join(reversed(digits))


_FAMILY_HEADS = {"A": ("0", "3"), "B": ("1", "4"), "C": ("02", "22", "42"), "D": ("12", "32", "52")}


def suffix_families(n: int) -> list[tuple[str, int]]:
    """All (family, t) pairs whose base-6 suffix pattern matches n, scanning
    every candidate t literally.  The representation is padded with leading
    zeros so short numbers can still match the two-digit patterns."""
    s = "00" + base6_string(n)
    matches = []
    for t in range(len(s) + 1):
        tail = "5" * t
        for family, heads in _FAMILY_HEADS.items():
            if any(s.endswith(head + tail) for head in heads):
                matches.append((family, t))
    return matches


def suffix_family_fast(n: int) -> tuple[str, int]:
    """Single matching (family, t) via the trailing-5 count; used for the
    large sweeps after ``suffix_families`` pins uniqueness on a sample."""
    s = "00" + base6_string(n)
    stripped = s.rstrip("5")
    t = len(s) - len(stripped)
    head = stripped[-1]
    if head in "03":
        return "A", t
    if head in "14":
        return "B", t
    assert head == "2"
    return ("C", t) if stripped[-2] in "024" else ("D", t)


FAMILY_VALUE = {"A": 3, "B": 4, "C": 5, "D": 6}


def family_match_counts(limit: int):
    """Vectorized literal pattern matching for every n below ``limit``.

    A base-6 representation (left-padded with zeros) ends with the digit
    string ``head + '5' * t`` exactly when n mod 6**(len(head)+t) equals the
    numeric value of that string; this scans every pattern of every family.
    Returns (counts, values): how many patterns matched each n, and the
    2t + family constant of the last match.
    """
    n = np.arange(limit, dtype=np.int64)
    counts = np.zeros(limit, dtype=np.int16)
    values = np.zeros(limit, dtype=np.int16)
    t = 0
    while 6**t - 1 < limit:
        fives = 6**t - 1
        for family, heads in _FAMILY_HEADS.items():
            for head in heads:
                modulus = 6 ** (len(head) + t)
                target = int(head, 6) * 6**t + fives
                hit = (n % modulus) == target
                counts += hit
                values[hit] = 2 * t + FAMILY_VALUE[family]
        t += 1
    return counts, values


def a_ref(n: int) -> int:
    """The period-10 template with its literal self-referential branch, kept
    recursive on purpose as an independent route to the w32 letters."""
    block, r = divmod(n, 10)
    if r in (0, 3, 6):
        return 0
    if r in (1, 5, 8):
        return 1
    if r in (2, 7):
        return 2
    if r == 4:
        return 3 if block % 2 == 0 else 4
    if block % 3 == 0:
        return 3
    if block % 3 == 1:
        return 4
    return a_ref(5 * (block - 2) // 3 + 4) + 2


def f_ref(n: int) -> int:
    """The period-12 template of x32 with its literal self-referential
    branch, residue by residue as ``formulas.f_term`` documents it, kept
    recursive on purpose as an independent route to the x32 letters."""
    block, r = divmod(n, 12)
    if r in (0, 1, 4, 7, 8):
        return 0
    if r in (2, 3, 6, 9, 10):
        return 1
    if r == 5:
        return 2 if block % 2 == 0 else 3
    if block % 3 == 0:
        return 2
    if block % 3 == 1:
        return 3
    return f_ref(2 * block + 1) + 2
