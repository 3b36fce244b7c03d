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
letter at n against ``word[n - P]``.  Greedy, and the minimality check
that runs it, needs only the least letter that no period blocks: its loop
(``LceIndex.threshold_hit(count)``, also named ``exact_hit``) appends
``count`` letters in one call, with the index's state in locals, and for
each ORs the blocked letters into one int and appends the letter of its
lowest clear bit.  Callers that know their letters (``contains_forbidden``,
``forbidden_suffix`` and the x32 structure checks) make one
``LceIndex.scan`` call, one loop that appends each letter up to the first
that a period blocks, read with its smallest period from that letter's
own mask; an unchecked scan (``check`` false) appends them all, whatever
they complete, and ``append`` is one of one letter.

Let run(P) be the length of the longest suffix of the word with period P.
Every query asks one need rule: P blocks ``word[n - P]`` when
q * run(P) >= (p - q) * P - q, i.e. when the factor of length
P + run(P) + 1 reaches exponent p/q; need(P) is the least such run.  As
run(P) <= n - P, only a period with P + need(P) <= n can block, so the rule
bounds the periods itself: an index is built for an exponent, a first
period and a step.  Threshold mode asks it over every period, exact mode
over the multiples of q (period q*t reaches exponent p/q exactly at length
p*t), and the x32 structure checks for exponent 2.  The discipline is
chosen in one place, ``AvoidanceMode.periods`` (first period and step), so
a mode that is not an ``AvoidanceMode`` fails at once.
There are no hashes: every verdict rests on letter comparisons.

``LceIndex`` keeps the letters in the narrowest of 1, 2 or 4 bytes a
letter (an ``array`` of typecode "B", "H" or "I"; only the array decides
whether a letter fits: an append it refuses with ``OverflowError`` has the
word rebuilt in the narrowest that holds that letter, at most two O(n)
copies), and, for its one need rule, the runs that can still reach their
need.

* Below S (the least power of 2 with need(S) >= 1 at which the run slots
  of twice S, 2S * need(2S) bits, no longer fit in 2048: 64 at 3/2, 1 at
  1000/1) the run of every period is kept in bits, in the Shift-And style
  of Baeza-Yates and Gonnet.  For each letter
  c, a mask holds the periods P < S with ``word[n - P] == c``.  It is
  stored as of the length at which c was last appended and shifted when next
  read, so an append touches only the new letter's mask.  Once c last
  occurred S or more positions back the shift leaves 0 (the mask is stale);
  a new letter that finds 2S masks drops the stale ones, at most once per S
  new letters, so an index holds at most 2S masks, fewer than S of them
  live, whatever the alphabet.  The S-bit run slot k, for k = 0..K (K the
  largest need kept in bits), holds the periods with run(P) >= k: slot 0
  holds every period, ONES, so one int ``runs`` keeps slots 1..K and
  ``full = runs | ONES`` is all of them.  Appending a letter with mask M
  lengthens exactly the runs of the periods in M, so
  ``runs = (full << S) & (M * REP)``, REP copying M into each slot.  One
  rule says which periods block: P sits in slot need(P) of NEEDMASK, need 0
  included, and blocks ``word[n - P]`` when it sits there in ``full``.
  need(P) grows with P, so the bits come out in ascending P.  A scanned
  letter is read from its mask M alone (which holds only periods P <= n):
  its blocking periods are the bits of ``full & NEEDMASK & M * REP``, the
  lowest giving the smallest, and the same ``M * REP`` serves the append.
  Greedy's loop reads ``runs & NEEDMASK``, slots 1..K, and the need-0
  periods from the word.  The bits at length n rest on the last
  T + need(T) letters only, T the largest period kept in bits, so an index
  built on a long word replays those, in one unchecked scan.
* Each step of greedy's loop sets a bit for each blocked letter below
  lim = S + (the number of kept periods): the periods below S block at
  most S - 1 letters and each kept period one more, so a letter below lim
  is free.  The need-0 periods 1..Z of threshold mode block the last Z
  positions' letters.  From Z = 3 on, their bits below S are read from the
  word when a call of the loop starts and kept along its appends (the mask
  dict tells when ``word[n - Z]`` leaves); the window's letters from S to
  lim are read from the word only when every letter below S is blocked.
* From S on the periods are kept sparsely, in bands, each from its
  lowest period P (the first at or above S, or the one after the band
  before) to the first S * 2**k, k >= 1, above P, so none is empty.
  A band waits at the end of their list until its first refresh, due at
  P + need(P), opens it and adds the next.  Scans, unchecked ones too, and
  greedy's loop refresh what is due before each letter they append; the
  replay holds every refresh (or an L = 1 band would refresh at each of its
  letters), so the first query opens the bands.  Let nu = need(P),
  L = max(1, 2 * nu // 3) and F = nu - L + 1.  Every L letters a refresh
  keeps the band's periods with slack need(P) - run(P) < L, i.e. whose run
  reaches the keep threshold need(P) - L + 1 (F at the lowest period, at
  least F above it), in one pass.  Every keep threshold reaches F, so a
  kept period P repeats the last F letters at n - F - P, and so every
  step-th of them from ``end``: the first of the residue mod step of their
  largest letter (the rarest on greedy words), n - F itself in threshold
  mode.  One ``bytes.find`` of those letters' bytes over the bytes of the
  strided copy ``word[end - top : n - first : step]`` (top the band's
  largest period at most n - F) finds the candidates, P = top - i * step
  for a match at the i-th letter, so in exact mode only the band's periods
  are read; the search goes on at the next letter.  Each candidate is
  checked on the whole of its keep threshold, which rejects a match that
  starts inside a letter (at an offset that is not a multiple of the item
  size, 2 or 4; with 1 byte a letter every match starts at one), and only
  those that pass have their run measured up to need(P), by one XOR of the
  stretch past the threshold and its copy P letters back as little-endian
  ints, whose highest set bit names the letter where the run breaks, in
  any byte order (``_run``).  A kept period is stored as (P, at), ``at`` =
  n + need(P) - run(P) being the length from which it blocks; the kept
  periods form one list ascending in P; a refresh replaces the band's slice.
  Between refreshes, an append grows a kept period's run when the new
  letter repeats ``word[n - P]``, which leaves ``at`` as it is, and drops
  the period otherwise, so the list is rebuilt only when a run breaks.
  ``scan`` and the loop hold the kept list in a local and write it back
  when they return: ``_refresh(n, kept)`` edits the list it is given in
  place and returns the length at which the next refresh is due.

No period is missed, on any word.  Below S, slot k holds P exactly when
run(P) >= k: slot 0 holds every period, the new slot 1 is M, the new slot
k + 1 is the old slot k within M, and M is exact, as a stale or dropped
mask is that of a letter absent from the last S - 1 positions.  Every need
there is at most K, so P blocks exactly when it sits in slot need(P),
need 0 included.  In a band (any range of periods of lowest need
nu >= 1), a query at length m comes fewer than L letters after the band's
last refresh at r, as a query at or past r + L refreshes it first, however
many letters came since the last query.  A run grows by at most one letter
per append, so a period that blocks at m had an unbroken run of more than
need(P) - L at r: the refresh kept it, no append
dropped it, and its ``at``, unchanged while the run grows, is exact while
above the length.  A period not kept had slack L or more at r and reaches
at most need(P) - L + m - r < need(P); a dropped one restarts from 0 and
reaches at most L - 2 < nu.  (Any 1 <= L <= nu would do, and a refresh
may come at any length at or past its due.)  No period of
the waiting band can block yet, as P + need(P) grows with P.  So after a
query a band period P <= n is kept exactly when need(P) - run(P) < due - n.
Along the greedy words few periods pass a refresh: the tests hold the
periods kept above S at or below log2 n up to 2 * 10**4 letters of w32, x32
and the ruler word, and about one per query on average for w32 and x32.
On a word full of long runs a band can keep most of its periods, and a
letter costs up to O(n), as a dense run table does.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from enum import Enum
from operator import index
from typing import Callable, Iterable

from .words import Exponent, Occurrence, Word


class AvoidanceMode(Enum):
    THRESHOLD = "threshold"
    EXACT = "exact"

    def periods(self, q: int) -> tuple[int, int]:
        """The first period and the step of the periods the discipline asks
        about: every period, or the multiples of q."""
        return (1, 1) if self is AvoidanceMode.THRESHOLD else (q, q)


def _narrowest(top: int) -> str:
    """The typecode of the narrowest array that holds letters up to ``top``."""
    return "B" if top < 1 << 8 else "H" if top < 1 << 16 else "I"


def _checked(letter: int) -> int:
    # an integer of any kind (numpy's too) as an int; a float raises TypeError
    letter = index(letter)
    if letter < 0:
        raise ValueError(f"letters are natural numbers, got {letter}")
    if letter >= (1 << 31):
        # the supported width; `scan` reports a wider letter as a usage error
        raise OverflowError(f"letter {letter} exceeds the supported width")
    return letter


class _Band:
    """One band of the module docstring: its ``periods``, from ``first`` (at
    or above S = ``size``) to the first S * 2**k above it, refreshed every
    ``every`` (L) letters, next at length ``due`` (it waits in the list until
    the first refresh, at first + need(first), opens it), keeping runs that
    reach need(P) - every + 1 >= ``floor`` (F)."""

    __slots__ = ("periods", "every", "floor", "due")

    def __init__(self, first: int, size: int, step: int, need: Callable[[int], int]) -> None:
        self.periods = range(first, size << (first // size).bit_length(), step)
        nu = need(first)
        self.every = max(1, 2 * nu // 3)
        self.floor = nu - self.every + 1
        self.due = first + nu


class LceIndex:
    """A word and one need rule tracked along it: exponent p/q (above p/q
    when ``strict``: for q = 1, one more letter of run) over the periods
    first, first + step, ...: the run slots below S and the bands' kept
    (P, at) pairs of the module docstring.

    Letters are natural numbers below 2**31, kept in the narrowest of 1, 2
    or 4 bytes a letter that holds the largest: ``scan`` (``append`` is an
    unchecked one of one letter) and greedy's loop append first and call
    ``_widen`` when the array raises ``OverflowError`` (``to_list`` reads
    the letters out as a list).  Given ``letters``, the index checks each
    and replays only the last ones that the bits rest on, in one unchecked
    ``scan`` that holds every refresh: the first query opens the bands, and
    every later letter is followed, refreshing what is due.
    """

    __slots__ = ("_word", "_args", "_a", "_b", "_q", "_step", "_size", "_zero", "_ones", "_rep", "_needmask",
                 "_masks", "_runs", "_bands", "_kept", "_due", "_window")

    def __init__(
        self, p: int, q: int, strict: bool = False, first: int = 1, step: int = 1, letters: Iterable[int] = ()
    ) -> None:
        if q < 1 or p <= q or first < 1 or step < 1:
            raise ValueError(f"need p > q >= 1, first >= 1 and step >= 1, got {p}/{q}, {first}, {step}")
        self._args = (p, q, strict, first, step)
        self._a, self._b, self._q, self._step = p - q, bool(strict) - q, q, step
        S = 1
        # need(S) >= 1, and a wider window leaves fewer bands to refresh, at 2S * need(2S) bits
        while self.need(S) < 1 or 2 * S * self.need(2 * S) <= 2048:
            S *= 2
        # every period below S is kept in bits: S * need(S) <= 2048 unless need(S // 2) < 1
        small = range(first, S, step)
        # the periods of need 0, which block word[n - P] as soon as P <= n
        self._zero = small[: sum(self.need(P) == 0 for P in small)]
        # from Z = 3 on (two are read faster than kept) greedy's loop keeps the
        # letters below S of threshold mode's need-0 periods 1..Z in one int
        self._window = len(self._zero) if first == step == 1 and len(self._zero) > 2 else 0
        top = small[-1] if small else 0
        self._size, self._ones = S, (1 << S) - 1
        self._rep = sum(1 << (k * S) for k in range(self.need(top) + 1))
        self._needmask = sum(1 << (self.need(P) * S + P) for P in small)
        # letter -> [periods P < S with word[at - P] == letter, at]
        self._masks: dict[int, list[int]] = {}
        self._runs = 0
        # the first band starts at the first period at or above S
        self._bands = [_Band(first + len(small) * step, S, step, self.need)]
        self._kept: list[tuple[int, int]] = []
        # the length at which the next band is refreshed
        self._due = 0
        word = array("I", map(_checked, letters))
        self._word = word = array(_narrowest(max(word, default=0)), word)
        # the bits at n rest on the last top + need(top) letters alone: replay those
        cut = max(0, len(word) - top - self.need(top))
        tail = word[cut:]
        del word[cut:]
        # hold every refresh while replaying: the first query opens the bands
        self._due = 1 << 62
        self.scan(tail, check=False)
        self._due = 0

    def __len__(self) -> int:
        return len(self._word)

    def to_list(self, start: int = 0) -> list[int]:
        """The letters from position ``start`` on, as a new list."""
        return memoryview(self._word)[start:].tolist()

    def need(self, period: int) -> int:
        """Least run with which ``period`` blocks a letter."""
        return max(0, -(-(self._a * period + self._b) // self._q))

    def append(self, letter: int) -> None:
        """Append ``letter`` and follow it, whatever it completes."""
        self.scan((letter,), check=False)

    def _widen(self, letter: int) -> array:
        """Rebuild the word in the narrowest array that holds ``letter``,
        which its array refused, append the letter and return the word."""
        self._word = word = array(_narrowest(letter), self._word)
        word.append(letter)
        return word

    def pop(self) -> int:
        """Remove and return the last letter.  The index is built again on
        the rest, which checks each letter and replays the last ones."""
        if not self._word:
            raise IndexError("pop from empty index")
        *rest, letter = self._word
        self.__init__(*self._args, rest)
        return letter

    def _add(self, n: int, letter: int) -> None:
        """Give ``letter``, which has no mask, its mask at position n, first
        dropping the stale masks (``at <= n + 1 - S``) if 2S are held."""
        masks, S = self._masks, self._size
        if len(masks) >= 2 * S:
            for v in [v for v, last in masks.items() if last[1] <= n + 1 - S]:
                del masks[v]
        masks[letter] = [2, n + 1]

    def scan(self, letters: Iterable[int], *, check: bool = True) -> int | None:
        """Append ``letters`` in turn, each followed with its own mask, up to
        the first that a period blocks: return its smallest period, read
        from its own mask (None once all are in), the state kept in locals
        meanwhile.  With ``check`` false no letter stops it."""
        S, ONES, REP, NEEDMASK = self._size, self._ones, self._rep, self._needmask
        word, masks, runs, kept, due = self._word, self._masks, self._runs, self._kept, self._due
        n, append, get = len(word), word.append, masks.get
        try:
            for v in letters:
                if not (type(v) is int and 0 <= v < 1 << 31):
                    v = _checked(v)
                if n >= due:
                    due = self._refresh(n, kept)
                last = get(v)
                if last is not None:
                    # the periods P < S with word[n - P] == v, in each run
                    # slot of ``full``; the bits come out in ascending P
                    mask = last[0] << (n - last[1]) & ONES
                    full, rep = runs | ONES, mask * REP
                    hits = full & NEEDMASK & rep
                    if hits and check:
                        return ((hits & -hits).bit_length() - 1) & (S - 1)
                # the kept periods, ascending: the first that blocks is the smallest
                broken = False
                for P, at in kept:
                    if word[n - P] != v:
                        broken = True
                    elif at <= n and check:
                        return P
                if last is None:
                    self._add(n, v)
                    runs = 0
                else:
                    last[0], last[1] = mask << 1 | 2, n + 1
                    runs = (full << S) & rep
                if broken:
                    kept = [e for e in kept if word[n - e[0]] == v]
                try:
                    append(v)
                except OverflowError:
                    # no letter of the word reaches v, so none blocked it
                    word = self._widen(v)
                    append = word.append
                n += 1
            return None
        finally:
            self._runs, self._kept = runs, kept

    def threshold_hit(self, count: int = 1) -> int | None:
        """Greedy's loop: ``count`` times, append the least letter that no
        period blocks at length n, the lowest clear bit of one int of the
        blocked letters below ``lim``; return the last (None if none).
        Each append is followed with its own mask, as ``scan`` does, and
        the state is kept in locals meanwhile."""
        S, ONES, REP, NEEDMASK, ZERO, Z = self._size, self._ones, self._rep, self._needmask, self._zero, self._window
        word, masks, runs, kept, due = self._word, self._masks, self._runs, self._kept, self._due
        start, append, get = len(word), word.append, masks.get
        letter = None
        if Z:
            win = sum(1 << v for v in set(word[max(0, start - Z) :]) if v < S)
        try:
            for n in range(start, start + count):
                if n >= due:
                    due = self._refresh(n, kept)
                # the periods below S and the kept ones block at most lim - 1 letters
                lim = S + len(kept)
                if Z:
                    free = win
                else:
                    free = 0
                    for P in ZERO:
                        if P > n:
                            break
                        v = word[n - P]
                        if v < lim:
                            free |= 1 << v
                hits = runs & NEEDMASK
                while hits:
                    low = hits & -hits
                    v = word[n - ((low.bit_length() - 1) & (S - 1))]
                    if v < lim:
                        free |= 1 << v
                    hits ^= low
                for P, at in kept:
                    if at <= n:
                        v = word[n - P]
                        if v < lim:
                            free |= 1 << v
                letter = (~free & (free + 1)).bit_length() - 1
                if letter >= S and Z:
                    # the window holds only the letters below S: add the others
                    for v in word[max(0, n - Z) :]:
                        if v < lim:
                            free |= 1 << v
                    letter = (~free & (free + 1)).bit_length() - 1
                # follow the append as ``scan`` does, without the call
                last = get(letter)
                if last is None:
                    self._add(n, letter)
                    runs = 0
                else:
                    mask = last[0] << (n - last[1]) & ONES
                    last[0], last[1] = mask << 1 | 2, n + 1
                    runs = ((runs | ONES) << S) & mask * REP
                for P, _ in kept:
                    if word[n - P] != letter:
                        kept = [e for e in kept if word[n - e[0]] == letter]
                        break
                if Z:
                    win |= 1 << letter if letter < S else 0
                    # word[n - Z] leaves the window unless it occurs again after it
                    if n >= Z:
                        old = word[n - Z]
                        if old < S and get(old, (0, 0))[1] <= n + 1 - Z:
                            win ^= 1 << old
                try:
                    append(letter)
                except OverflowError:
                    word = self._widen(letter)
                    append = word.append
            return letter
        finally:
            self._runs, self._kept = runs, kept

    # kept only because perfbench's tracer wraps this name too
    exact_hit = threshold_hit

    def _refresh(self, n: int, kept: list[tuple[int, int]]) -> int:
        """Refresh every band that is due, the waiting last one too, which
        opens so and is followed by the next band: the (P, at) of its
        periods whose run reaches the keep threshold, found by one bytes
        search and checked on their whole threshold, replace its slice of
        ``kept``, the caller's kept list, in place.  Set ``_due`` to the
        length of the next refresh and return it."""
        word, step, a, b, q, bands = self._word, self._step, self._a, self._b, self._q, self._bands
        size = word.itemsize
        # each band is one slice of the kept list, ascending in P; a band
        # appended here is visited too, and refreshed if it is due already.
        # The least due starts past any length (float("inf") cost 5-10% a refresh)
        due = 1 << 62
        for band in bands:
            if band.due <= n:
                floor, every, periods = band.floor, band.every, band.periods
                band.due = n + every
                if band is bands[-1]:
                    bands.append(_Band(periods[-1] + step, self._size, step, self.need))
                # a run of ``floor`` letters needs P <= n - floor; the lowest period
                # always meets it, as it opened with P + need(P) <= n and floor <= need(P)
                first = periods.start
                top = min(first + (n - floor - first) // step * step, periods[-1])
                # a kept period P repeats every step-th of the last ``floor`` letters
                # from ``end``, in the residue of the largest (the rarest on greedy
                # words); the i-th letter of ``near`` is word[end - P], P = top - i * step.
                # A match inside a letter, none at its start, fails P's threshold
                end = n - floor
                if step > 1:
                    last = word[end:]
                    end += last.index(max(last)) % step
                tail = word[end:n:step].tobytes()
                near = word[end - top : n - first : step].tobytes()
                found, j = [], near.find(tail)
                while j >= 0:
                    i = j // size
                    j = near.find(tail, (i + 1) * size)
                    P = top - i * step
                    need = -(-(a * P + b) // q)
                    keep = need - every + 1
                    if keep <= n - P and word[n - keep - P : n - P] == word[n - keep : n]:
                        found.append((P, n + need - _run(word, n, P, need, keep)))
                found.reverse()
                if kept or found:
                    i = bisect_left(kept, (first,))
                    kept[i : bisect_left(kept, (periods.stop,), i)] = found
            if band.due < due:
                due = band.due
        self._due = due
        return due


def _run(word: array, n: int, period: int, cap: int, known: int = 0) -> int:
    """run(period) of ``word[:n]``, capped at ``cap``, given that it is at
    least ``known``: one XOR of ``word[n - cap : n - known]`` and the
    stretch ``period`` letters before it as little-endian ints, whose
    highest set bit lies in the letter where the run breaks, in any byte
    order, as a differing byte lies within its own letter."""
    cap = min(cap, n - period)
    start, end = n - cap, n - known
    x = int.from_bytes(word[start:end].tobytes(), "little")
    x ^= int.from_bytes(word[start - period : end - period].tobytes(), "little")
    return cap - 1 - (x.bit_length() - 1) // (8 * word.itemsize) if x else cap


def _occurrence(word: array, exponent: Exponent, mode: AvoidanceMode, period: int) -> Occurrence:
    """The forbidden factor, of smallest period ``period``, that appending a letter to ``word`` would complete; a
    run is measured in windows doubling from 64 letters, each from where the last ended: O(run) memory, not O(n)."""
    n = len(word)
    if mode is AvoidanceMode.THRESHOLD:
        run, cap = 0, 64
        while (run := _run(word, n, period, cap, run)) == cap:
            cap = 2 * cap + 64
        length = period + run + 1
    else:
        length = period // exponent.q * exponent.p
    return Occurrence(n + 1 - length, period, length)


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
    first, step = mode.periods(exponent.q)  # before the empty word returns, so a bad mode always raises
    if len(word) == 0:
        return None
    idx = LceIndex(exponent.p, exponent.q, first=first, step=step, letters=word[:-1])
    period = idx.scan((word[-1],))
    return None if period is None else _occurrence(idx._word, exponent, mode, period)


def contains_forbidden(
    word: Iterable[int],
    exponent: Exponent,
    mode: AvoidanceMode = AvoidanceMode.THRESHOLD,
) -> Occurrence | None:
    """First forbidden factor in end-position order over the whole word.

    One pass over any iterable, one scan of an index of its own: the scan
    stops at the first position that completes a forbidden factor, but
    every letter, those after it too, is checked to be a natural number
    below 2**31.
    """
    first, step = mode.periods(exponent.q)
    idx, letters = LceIndex(exponent.p, exponent.q, first=first, step=step), iter(word)
    period = idx.scan(letters)
    for rest in letters:
        _checked(rest)
    return None if period is None else _occurrence(idx._word, exponent, mode, period)
