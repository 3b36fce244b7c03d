"""Greedy construction of lexicographically least power-avoiding words.

Extend the word one position at a time with the smallest letter that does
not complete a forbidden repetition.  A step is one call of the index's
step (``LceIndex.threshold_hit``, or ``exact_hit`` in exact mode): it sets
a bit for every blocked letter at the next position, appends the lowest
clear one and returns it.  No backtracking is ever needed: a blocked
letter repeats an earlier letter of the word, so some letter up to
``max letter + 1`` is always free.
"""

from __future__ import annotations

from .detect import AvoidanceMode, LceIndex
from .words import Exponent


class GreedyState:
    """Generation state: the clean word so far plus its repetition index."""

    def __init__(self, exponent: Exponent, mode: AvoidanceMode = AvoidanceMode.THRESHOLD) -> None:
        self.exponent = exponent
        self.mode = mode
        first, step = mode.periods(exponent.q)
        self._idx = LceIndex(exponent.p, exponent.q, first=first, step=step)
        self._hit = self._idx.threshold_hit if mode is AvoidanceMode.THRESHOLD else self._idx.exact_hit

    def __len__(self) -> int:
        return len(self._idx)

    @property
    def word(self) -> list[int]:
        return self._idx.to_list()

    def step(self) -> int:
        """Append the least letter that completes no forbidden suffix; return it."""
        return self._hit()

    def extend_to(self, length: int) -> None:
        step = self.step
        for _ in range(length - len(self)):
            step()


def generate(exponent: Exponent, mode: AvoidanceMode, length: int) -> list[int]:
    """Length-``length`` prefix of the greedy word for the given discipline."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    state = GreedyState(exponent, mode)
    state.extend_to(length)
    return state.word
