"""Substitution-based generation of the two avoidance sequences.

A letter of the two-track alphabet is a pair ``(value, barred)``: a natural
number, plain or barred.  The 6-uniform expansion map ``phi_letter`` is
prolongable on the plain letter ``(3, False)``; its fixed point interleaves
the alternating track 3, 4, 3, 4, ... with barred copies of the helper
sequence b.  Two codings flatten the fixed point: ``tau_letter`` (5 output
letters per input letter) yields the threshold word w32 and
``upsilon_letter`` (6 per letter) yields the exact-avoidance word x32.

Since x = phi(x), a coding of x is also the coding of phi(x0) phi(x1) ...:
the streams read the fixed point at a sixth of the rate and code each of
its letters by the image of phi then the coding, 30 or 36 output letters
built once per distinct letter of x and chained in C.  A prefix of n
letters meets O(log n) distinct letters.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice
from typing import Callable, Iterator

Letter = tuple[int, bool]

_START = (3, False)
_PLAIN_HEAD = ((3, False), (3, True), (4, False), (4, True), (3, False))
_BARRED_HEAD = ((4, False), (3, True), (3, False), (4, True), (4, False))


def phi_letter(letter: Letter) -> tuple[Letter, ...]:
    """Image of one letter under the expansion map.

    Plain n maps to 3 3~ 4 4~ 3 (n+2)~ and barred n to 4 3~ 3 4~ 4 (n+2)~.
    """
    value, barred = letter
    return (_BARRED_HEAD if barred else _PLAIN_HEAD) + ((value + 2, True),)


def tau_letter(letter: Letter) -> tuple[int, ...]:
    """Coding onto w32 blocks: plain n -> 0 1 2 0 n, barred n -> 1 0 2 1 n."""
    value, barred = letter
    return (1, 0, 2, 1, value) if barred else (0, 1, 2, 0, value)


def upsilon_letter(letter: Letter) -> tuple[int, ...]:
    """Coding onto x32 blocks: plain n -> 0 0 1 1 0 (n-1), barred n -> 1 0 0 1 1 (n-1)."""
    value, barred = letter
    if value < 1:
        raise ValueError("coding needs letter values >= 1")
    return (1, 0, 0, 1, 1, value - 1) if barred else (0, 0, 1, 1, 0, value - 1)


def bar_fixed_point() -> Iterator[Letter]:
    """The fixed point x of the expansion map starting from the plain letter 3.

    Since x = phi(x), the letters after x[0] are phi(x[0]) without its first
    letter, then phi(x[1]), phi(x[2]), ...; they are read off a nested copy
    of this generator.  Letter k of the copy is needed only once 6k letters
    are out, so n letters keep about log_6 n generators alive: O(log n)
    memory and O(1) amortized work per letter.
    """
    yield _START
    inner = bar_fixed_point()
    next(inner)
    yield from phi_letter(_START)[1:]
    yield from chain.from_iterable(map(phi_letter, inner))


def _coded(code: Callable[[Letter], tuple[int, ...]]) -> Iterator[int]:
    """code(x) for the fixed point x, read as code(phi(x0)) code(phi(x1)) ...,
    each image cached by its letter for this stream alone."""
    image = cache(lambda y: tuple(chain.from_iterable(map(code, phi_letter(y)))))
    return chain.from_iterable(map(image, bar_fixed_point()))


def w32_stream() -> Iterator[int]:
    return _coded(tau_letter)


def x32_stream() -> Iterator[int]:
    return _coded(upsilon_letter)


def _prefix(stream: Iterator[int], length: int) -> list[int]:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return list(islice(stream, length))


def w32_via_morphism(length: int) -> list[int]:
    return _prefix(w32_stream(), length)


def x32_via_morphism(length: int) -> list[int]:
    return _prefix(x32_stream(), length)
