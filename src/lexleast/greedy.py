"""Greedy construction of lexicographically least power-avoiding words.

Extend the word one position at a time with the smallest letter that does
not complete a forbidden repetition.  The steps of one extension are one
counted call of the index's loop, ``LceIndex.threshold_hit``, in either
mode: for each letter it sets a bit for every blocked letter at the next
position and appends the lowest clear one.  No backtracking is ever needed:
a blocked letter repeats an earlier letter of the word, so some letter up
to ``max letter + 1`` is always free.
"""

from __future__ import annotations

from typing import Iterator

from .detect import AvoidanceMode, LceIndex
from .words import Exponent

# the letters of one ``chunks`` list, built in one call of the loop
CHUNK = 4_096


class GreedyState:
    """Generation state: the clean word so far plus its repetition index."""

    def __init__(self, exponent: Exponent, mode: AvoidanceMode = AvoidanceMode.THRESHOLD) -> None:
        self.exponent = exponent
        self.mode = mode
        first, step = mode.periods(exponent.q)
        self._idx = LceIndex(exponent.p, exponent.q, first=first, step=step)

    def __len__(self) -> int:
        return len(self._idx)

    @property
    def word(self) -> list[int]:
        return self._idx.to_list()

    def step(self) -> int:
        """Append the least letter that completes no forbidden suffix; return
        it.  One call of the loop per letter: ``extend`` builds many at once."""
        return self._idx.threshold_hit()

    def extend(self, count: int) -> list[int]:
        """Append ``count`` letters in one call of the loop; return them."""
        start = len(self._idx)
        self._idx.threshold_hit(count)
        return self._idx.to_list(start)

    def extend_to(self, length: int) -> None:
        self._idx.threshold_hit(length - len(self))


def chunks(exponent: Exponent, mode: AvoidanceMode, length: int) -> Iterator[list[int]]:
    """The greedy word's first ``length`` letters in lists of ``CHUNK``
    (the last one only as long as is left), each built as it is read."""
    state = GreedyState(exponent, mode)
    return (state.extend(min(CHUNK, length - k)) for k in range(0, length, CHUNK))


def generate(exponent: Exponent, mode: AvoidanceMode, length: int) -> list[int]:
    """Length-``length`` prefix of the greedy word for the given discipline."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    state = GreedyState(exponent, mode)
    state.extend_to(length)
    return state.word
