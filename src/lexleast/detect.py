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
own mask.

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

``LceIndex`` keeps the letters in a list and, for its one need rule, the
runs that can still reach their need.

* Below S (32, doubled until need(S) >= 1, then while the run slots of
  twice S, 2S * need(2S) bits, fit in 2048: 64 at 3/2) the run of every
  period with need(P) <= 4S (every period, up to exponent 5) is kept in
  bits, in the Shift-And style of Baeza-Yates and Gonnet.  For each letter
  c, a mask holds the periods P < S with ``word[n - P] == c``.  It is
  stored as of the length at which c was last appended and shifted when next
  read, so an append touches only the new letter's mask.  Once c last
  occurred S or more positions back the shift leaves 0 (the mask is stale);
  a new letter that finds 2S masks drops the stale ones, at most once per S
  new letters, so an index holds at most 2S masks, fewer than S of them
  live, whatever the alphabet.  One int ``runs`` holds in its S-bit
  slot k, for k = 1..K (K the largest need kept in bits), the periods with
  run(P) >= k.  Appending a letter with mask M lengthens exactly the runs of
  the periods in M, so ``runs = ((runs | ONES) << S) & (M * REP)``: ONES
  fills slot 0 with every period and REP copies M into each slot.  A query
  reads ``runs & NEEDMASK``, NEEDMASK holding each period P in slot need(P);
  need(P) grows with P, so the bits come out in ascending P.  A period of
  need 0 blocks ``word[n - P]`` once P <= n and is read from the word.  A
  scanned letter is read from its mask M alone: its need-0 periods are
  ``M & ZEROBITS`` and its blocking periods in the slots the bits of
  ``runs & NEEDMASK & M * REP``, the lowest bit giving the smallest; the
  same ``M * REP`` then serves the append.  The
  bits at length n rest on the last T + need(T) letters only, T the largest
  period kept in bits, so an index built on a long word replays those.
* Each step of greedy's loop sets a bit for each blocked letter below
  lim = S + (the number of kept periods): the periods below S block at
  most S - 1 letters and each kept period one more, so a letter below lim
  is free.  The need-0 periods 1..Z of threshold mode block the last Z
  positions' letters.  From Z = 3 on, their bits below S are read from the
  word when a call of the loop starts and kept along its appends (the mask
  dict tells when ``word[n - Z]`` leaves); the window's letters from S to
  lim are read from the word only when every letter below S is blocked.
* A band [S * 2**i, S * 2**(i+1)) opens with its lowest period and is kept
  sparsely; the first one also takes the periods below S left out of the
  bits.  Let nu be that period's need, L = max(1, 2 * nu // 3) and
  F = nu - L + 1.  Every L letters a refresh keeps the band's periods with
  slack need(P) - run(P) < L, i.e. whose run reaches the keep threshold
  need(P) - L + 1 (F at the lowest period, at least F above it), in one
  pass.  A kept period repeats the largest of the last F letters (the
  rarest on greedy words), at position ``end``: one strided slice
  ``word[end - top : end - first + 1 : step]`` holds ``word[end - P]`` for
  the band's periods top, top - step, ..., first (top the largest at most
  n - F), and ``index`` walks the candidates on it in one pass, up to a
  copy of the letter put after its end; in exact mode they are only the
  multiples of q.  Each is checked on its last letter, then on the last F
  letters (every keep threshold reaches F), then on the rest of its keep
  threshold, and only those that pass have their run measured up to
  need(P).  A kept period is stored as
  (P, at), ``at`` = n + need(P) - run(P) being the length from which it
  blocks; the kept periods form one list ascending in P, and a refresh
  replaces the band's slice of it.
  Between refreshes, an append grows a kept period's run when the new
  letter repeats ``word[n - P]``, which leaves ``at`` as it is, and drops
  the period otherwise, so the list is rebuilt only when a run breaks.
  ``scan`` and the loop hold the kept list in a local and write it back
  when they return: ``_refresh(n, kept)`` edits the list it is given in
  place and returns the length at which the next refresh is due.

No period is missed, on any word.  Below S, slot k holds P exactly when
run(P) >= k: the new slot 1 is M, the new slot k + 1 is the old slot k
within M, and M is exact, as a stale or dropped mask is that of a letter
absent from the last S - 1 positions.  Every need there is at most K, so P
blocks exactly when it sits in slot need(P).  In a band (any range of
periods of lowest need nu >= 1), a query at length m comes fewer than L
letters after the band's last refresh at r, as a query at or past r + L
refreshes it first, however many letters came since the last query.  A run
grows by at most one letter per append, so a period that blocks at m had an
unbroken run of more than need(P) - L at r: the refresh kept it, no append
dropped it, and its ``at``, unchanged while the run grows, is exact while
above the length.  A period not kept had slack L or more at r and reaches
at most need(P) - L + m - r < need(P); a dropped one restarts from 0 and
reaches at most L - 2 < nu.  (Any 1 <= L <= nu would do.)  So after a
query a band period P <= n is kept exactly when need(P) - run(P) < due - n.
Along the greedy words few periods pass a refresh: the tests hold the
periods kept above S at or below log2 n up to 2 * 10**4 letters of w32, x32
and the ruler word, and about one per query on average for w32 and x32.
On a word full of long runs a band can keep most of its periods, and a
letter costs up to O(n), as a dense run table does.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from operator import index
from typing import Iterable

from .words import Exponent, Occurrence, Word


class AvoidanceMode(Enum):
    THRESHOLD = "threshold"
    EXACT = "exact"

    def periods(self, q: int) -> tuple[int, int]:
        """The first period and the step of the periods the discipline asks
        about: every period, or the multiples of q."""
        return (1, 1) if self is AvoidanceMode.THRESHOLD else (q, q)


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
    """The ``periods`` of one band, whose lowest need is ``nu``: refreshed
    every ``every`` = max(1, 2 * nu // 3) letters (next at length ``due``),
    keeping the periods with slack need(P) - run(P) < ``every``, i.e. whose
    runs reach the keep threshold need(P) - every + 1: ``floor`` at the
    lowest period and at least ``floor`` at every other, so a candidate is
    compared on the last ``floor`` letters before the rest of its own."""

    __slots__ = ("periods", "every", "floor", "due")

    def __init__(self, periods: range, nu: int, due: int) -> None:
        self.periods = periods
        self.every = max(1, 2 * nu // 3)
        self.floor = nu - self.every + 1
        self.due = due


class LceIndex:
    """A word and one need rule tracked along it: exponent p/q (above p/q
    when ``strict``: for q = 1, one more letter of run) over the periods
    first, first + step, ...  Below S it keeps the letter masks and the run
    slots of the module docstring, above it the (P, at) pairs of the bands'
    kept periods, in ascending P, ``at`` being the length from which P
    blocks.  P can block only when P + need(P) <= n, so the rule names no
    upper bound.  The least free letter, which greedy's loop appends, is
    below S + len(kept), as each period blocks at most one letter.

    Letters are natural numbers below 2**31, kept in a list.  Given
    ``letters``, the index checks each and replays only the last ones that
    the bits rest on; bands open and refresh at queries, and every append
    follows the state.
    """

    __slots__ = ("_word", "_args", "_a", "_b", "_q", "_step", "_size", "_zero", "_ones", "_rep", "_needmask",
                 "_masks", "_runs", "_lo", "_first", "_open", "_bands", "_kept", "_due", "_zerobits", "_window")

    def __init__(
        self, p: int, q: int, strict: bool = False, first: int = 1, step: int = 1, letters: Iterable[int] = ()
    ) -> None:
        if q < 1 or p <= q or first < 1 or step < 1:
            raise ValueError(f"need p > q >= 1, first >= 1 and step >= 1, got {p}/{q}, {first}, {step}")
        self._args = (p, q, strict, first, step)
        self._a, self._b, self._q, self._step = p - q, bool(strict) - q, q, step
        S = 32
        while self.need(S) < 1:
            S *= 2
        # a wider window leaves fewer bands to refresh, at 2S * need(2S) bits
        while 2 * S * self.need(2 * S) <= 2048:
            S *= 2
        # the periods kept in bits: those below S with need(P) <= 4S (all of
        # them up to exponent 5), so that the run slots hold at most 4S**2
        # bits whatever the exponent; the others join the first band
        small = range(first, S, step)
        small = small[: sum(self.need(P) <= 4 * S for P in small)]
        # the periods of need 0, which block word[n - P] as soon as P <= n
        self._zero = small[: sum(self.need(P) == 0 for P in small)]
        self._zerobits = sum(1 << P for P in self._zero)
        # from Z = 3 on (two are read faster than kept) greedy's loop keeps the
        # letters below S of threshold mode's need-0 periods 1..Z in one int
        self._window = len(self._zero) if first == step == 1 and len(self._zero) > 2 else 0
        top = small[-1] if small else 0
        self._size, self._ones = S, (1 << S) - 1
        self._rep = sum(1 << (k * S) for k in range(1, self.need(top) + 1))
        self._needmask = sum(1 << (self.need(P) * S + P) for P in small[len(self._zero) :])
        # letter -> [periods P < S with word[at - P] == letter, at]
        self._masks: dict[int, list[int]] = {}
        self._runs = 0
        # the next band's first period and lower bound S * 2**i, and the
        # length at which it opens, first + need(first)
        self._first, self._lo = first + len(small) * step, S
        self._open = self._first + self.need(self._first)
        self._bands: list[_Band] = []
        self._kept: list[tuple[int, int]] = []
        # the length at which the next band opens or one is refreshed
        self._due = 0
        self._word = word = [_checked(v) for v in letters]
        # the bits at n rest on the last top + need(top) letters alone: replay those
        cut = max(0, len(word) - top - self.need(top))
        tail = word[cut:]
        del word[cut:]
        for v in tail:
            self.append(v)

    def __len__(self) -> int:
        return len(self._word)

    def to_list(self, start: int = 0) -> list[int]:
        """The letters from position ``start`` on, as a new list."""
        return self._word[start:]

    def need(self, period: int) -> int:
        """Least run with which ``period`` blocks a letter."""
        return max(0, -(-(self._a * period + self._b) // self._q))

    def append(self, letter: int) -> None:
        letter, S, masks, word = _checked(letter), self._size, self._masks, self._word
        n = len(word)
        last = masks.get(letter)
        if last is None:
            self._add(n, letter)
            self._runs = 0
        else:
            # the periods P < S with word[n - P] == letter
            mask = last[0] << (n - last[1]) & self._ones
            last[0], last[1] = mask << 1 | 2, n + 1
            self._runs = ((self._runs | self._ones) << S) & mask * self._rep
        kept = self._kept
        for P, _ in kept:
            if word[n - P] != letter:
                self._kept = [e for e in kept if word[n - e[0]] == letter]
                break
        word.append(letter)

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

    def scan(self, letters: Iterable[int]) -> int | None:
        """Append ``letters`` in turn, each followed as ``append`` does, up to
        the first that a period blocks: return its smallest period, read
        from its own mask (None once all are in), the state kept in locals
        meanwhile."""
        S, ONES, REP, ZEROBITS, NEEDMASK = self._size, self._ones, self._rep, self._zerobits, self._needmask
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
                    # the periods P < S with word[n - P] == v: those of need 0
                    # first, then the run slots, whose bits come out in ascending P
                    mask = last[0] << (n - last[1]) & ONES
                    hits = mask & ZEROBITS
                    if hits:
                        return (hits & -hits).bit_length() - 1
                    rep = mask * REP
                    hits = runs & NEEDMASK & rep
                    if hits:
                        return ((hits & -hits).bit_length() - 1) & (S - 1)
                # the kept periods, ascending: the first that blocks is the smallest
                broken = False
                for P, at in kept:
                    if word[n - P] != v:
                        broken = True
                    elif at <= n:
                        return P
                if last is None:
                    self._add(n, v)
                    runs = 0
                else:
                    last[0], last[1] = mask << 1 | 2, n + 1
                    runs = ((runs | ONES) << S) & rep
                if broken:
                    kept = [e for e in kept if word[n - e[0]] == v]
                append(v)
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
                # follow the append as ``append`` does, without the call
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
                append(letter)
            return letter
        finally:
            self._runs, self._kept = runs, kept

    # kept only because perfbench's tracer wraps this name too
    exact_hit = threshold_hit

    def _refresh(self, n: int, kept: list[tuple[int, int]]) -> int:
        """Open every band whose lowest period can block at length n
        (P + need(P) <= n), then refresh every band that is due, editing
        ``kept``, the caller's kept list, in place; set ``_due`` to the
        length of the next refresh and return it."""
        while self._open <= n:
            P = self._first
            periods = range(P, 2 * self._lo, self._step)
            if periods:
                self._bands.append(_Band(periods, self._open - P, n))
            self._lo *= 2
            self._first += len(periods) * self._step
            self._open = self._first + self.need(self._first)
        # each band is one slice of the kept list, ascending in P
        due = self._open
        for band in self._bands:
            if band.due <= n:
                band.due = n + band.every
                found = self._survivors(n, band)
                if kept or found:
                    i = bisect_left(kept, (band.periods.start,))
                    kept[i : bisect_left(kept, (band.periods.stop,), i)] = found
            if band.due < due:
                due = band.due
        self._due = due
        return due

    def _survivors(self, n: int, band: _Band) -> list[tuple[int, int]]:
        """(P, at) in ascending P for the band's periods whose run reaches
        the keep threshold need(P) - every + 1: the candidates come from
        one strided slice, each is checked on its last letter, on the last
        ``floor`` letters and on the rest of its threshold, and only those
        that pass have their run measured."""
        word, floor, every, step, a, b, q = self._word, band.floor, band.every, self._step, self._a, self._b, self._q
        # a run of ``floor`` letters needs P <= n - floor; the lowest period
        # always meets it, as it opened with P + need(P) <= n and floor <= need(P)
        first = band.periods.start
        top = min(first + (n - floor - first) // step * step, band.periods[-1])
        # a kept period repeats the largest of the last ``floor`` letters,
        # the rarest on the words greedy builds: word[end - P] == word[end]
        tail = word[n - floor :]
        letter = max(tail)
        end = n - floor + tail.index(letter)
        # one strided slice holds word[end - P] for the band's periods up to
        # top, descending in P: its i-th letter is word[end - top + i * step];
        # the letter, put in one more slot read with it, ends the walk (no ValueError)
        near = word[end - top : end - first + step + 1 : step]
        stop = (top - first) // step + 1
        near[stop:] = (letter,)
        found, i, final = [], near.index(letter), word[n - 1]
        while i < stop:
            P = top - i * step
            i = near.index(letter, i + 1)
            # most fail at the last letter (need(P) >= nu >= 1 here) or within ``floor``
            if word[n - 1 - P] != final or word[n - floor - P : n - P] != tail:
                continue
            need = -(-(a * P + b) // q)
            keep = need - every + 1
            if keep <= n - P and word[n - keep - P : n - floor - P] == word[n - keep : n - floor]:
                found.append((P, n + need - _run(word, n, P, need, keep)))
        found.reverse()
        return found


def _run(word: list[int], n: int, period: int, cap: int, known: int = 0) -> int:
    """run(period) of ``word[:n]``, capped at ``cap``, given that it is at
    least ``known``.  Compares slices, doubling their length while they
    match and halving it on a mismatch."""
    cap = min(cap, n - period)
    run, step = known, 8
    while run < cap:
        step = min(step, cap - run)
        end = n - run
        if word[end - step : end] == word[end - step - period : end - period]:
            run += step
            step *= 2
        elif step > 1:
            step //= 2
        else:
            break
    return run


def _occurrence(word: list[int], exponent: Exponent, mode: AvoidanceMode, period: int) -> Occurrence:
    """The forbidden factor, of smallest period ``period``, that appending a letter to ``word`` would complete."""
    n = len(word)
    if mode is AvoidanceMode.THRESHOLD:
        length = period + _run(word, n, period, n) + 1
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
