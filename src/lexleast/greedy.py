"""Greedy construction of lexicographically least power-avoiding words.

Extend the word one position at a time with the smallest letter that does
not complete a forbidden repetition: one detector query gives every blocked
letter at the next position, and the least letter missing from it wins.  No
backtracking is ever needed: a blocked letter repeats an earlier letter of
the word, so some letter up to ``max letter + 1`` is always free.
"""

from __future__ import annotations

from .detect import AvoidanceMode, LceIndex, blocked_letters
from .words import Exponent


class GreedyState:
    """Generation state: the clean word so far plus its repetition index."""

    def __init__(self, exponent: Exponent, mode: AvoidanceMode = AvoidanceMode.THRESHOLD) -> None:
        self.exponent = exponent
        self.mode = mode
        self._idx = LceIndex()
        self._max_letter = -1

    def __len__(self) -> int:
        return len(self._idx)

    @property
    def word(self) -> list[int]:
        return self._idx.to_list()

    @property
    def max_letter(self) -> int:
        return self._max_letter

    def next_letter(self) -> int:
        """Least letter whose appending leaves the word free of forbidden suffixes."""
        blocked = blocked_letters(self._idx, self.exponent, self.mode)
        letter = 0
        while letter in blocked:
            letter += 1
        return letter

    def step(self) -> int:
        """Append the next letter and return it."""
        letter = self.next_letter()
        self._idx.append(letter)
        if letter > self._max_letter:
            self._max_letter = letter
        return letter

    def extend_to(self, length: int) -> None:
        while len(self._idx) < length:
            self.step()


def generate(exponent: Exponent, mode: AvoidanceMode, length: int) -> list[int]:
    """Length-``length`` prefix of the greedy word for the given discipline."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    state = GreedyState(exponent, mode)
    state.extend_to(length)
    return state.word
