"""Substitution-based generation of the two avoidance sequences.

A two-track alphabet (plain and barred naturals) carries a 6-uniform
expansion map ``phi`` that is prolongable on the plain letter 3; its fixed
point interleaves the alternating track 3, 4, 3, 4, ... with barred copies
of the helper sequence b.  Two codings flatten the fixed point: ``tau``
(5 output letters per input letter) yields the threshold word w32 and
``upsilon`` (6 per letter) yields the exact-avoidance word x32.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator

from .words import Record


class BarLetter(Record):
    __slots__ = ("value", "barred")

    def __init__(self, value: int, barred: bool = False) -> None:
        if value < 0:
            raise ValueError(f"letter values are natural numbers, got {value}")
        self._set(value, barred)

    def __str__(self) -> str:
        return f"{self.value}~" if self.barred else str(self.value)


_P3 = BarLetter(3)
_P4 = BarLetter(4)
_B3 = BarLetter(3, True)
_B4 = BarLetter(4, True)


def phi_letter(letter: BarLetter) -> tuple[BarLetter, ...]:
    """Image of one letter under the expansion map.

    Plain n maps to 3 3~ 4 4~ 3 (n+2)~ and barred n to 4 3~ 3 4~ 4 (n+2)~.
    """
    bumped = BarLetter(letter.value + 2, True)
    if letter.barred:
        return (_P4, _B3, _P3, _B4, _P4, bumped)
    return (_P3, _B3, _P4, _B4, _P3, bumped)


def phi(word: Iterable[BarLetter]) -> list[BarLetter]:
    out: list[BarLetter] = []
    for letter in word:
        out.extend(phi_letter(letter))
    return out


def tau_letter(letter: BarLetter) -> tuple[int, ...]:
    """Coding onto w32 blocks: plain n -> 0 1 2 0 n, barred n -> 1 0 2 1 n."""
    if letter.barred:
        return (1, 0, 2, 1, letter.value)
    return (0, 1, 2, 0, letter.value)


def tau(word: Iterable[BarLetter]) -> list[int]:
    out: list[int] = []
    for letter in word:
        out.extend(tau_letter(letter))
    return out


def upsilon_letter(letter: BarLetter) -> tuple[int, ...]:
    """Coding onto x32 blocks: plain n -> 0 0 1 1 0 (n-1), barred n -> 1 0 0 1 1 (n-1)."""
    if letter.value < 1:
        raise ValueError("coding needs letter values >= 1")
    if letter.barred:
        return (1, 0, 0, 1, 1, letter.value - 1)
    return (0, 0, 1, 1, 0, letter.value - 1)


def upsilon(word: Iterable[BarLetter]) -> list[int]:
    out: list[int] = []
    for letter in word:
        out.extend(upsilon_letter(letter))
    return out


def bar_fixed_point() -> Iterator[BarLetter]:
    """The fixed point x of ``phi`` starting from the plain letter 3.

    Since x = phi(x), the letters after x[0] are phi(x[0]) without its first
    letter, then phi(x[1]), phi(x[2]), ...; they are read off a nested copy
    of this generator.  Letter k of the copy is needed only once 6k letters
    are out, so n letters keep about log_6 n generators alive: O(log n)
    memory and O(1) amortized work per letter.
    """
    yield _P3
    inner = bar_fixed_point()
    next(inner)
    yield from phi_letter(_P3)[1:]
    yield from chain.from_iterable(map(phi_letter, inner))


def phi_fixed_prefix(length: int) -> list[BarLetter]:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return list(islice(bar_fixed_point(), length))


def w32_stream() -> Iterator[int]:
    for letter in bar_fixed_point():
        yield from tau_letter(letter)


def x32_stream() -> Iterator[int]:
    for letter in bar_fixed_point():
        yield from upsilon_letter(letter)


def w32_via_morphism(length: int) -> list[int]:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return list(islice(w32_stream(), length))


def x32_via_morphism(length: int) -> list[int]:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return list(islice(x32_stream(), length))
