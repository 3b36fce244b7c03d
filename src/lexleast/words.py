"""Words over the natural numbers: the vocabulary the detector speaks.

A word is any 0-indexed sequence of non-negative ints.  ``Exponent`` is a
rational repetition exponent p/q, compared by cross-multiplied integer
arithmetic, never floats; ``Occurrence`` is the witness of a repetition;
``check_letters`` validates a word read from outside.  Repetition itself is
decided in ``lexleast.detect``.  ``Record`` is the base of the package's
small immutable value classes.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Word = Sequence[int]


class Record:
    """An immutable value whose fields are its ``__slots__``, each set once
    by ``_set`` in ``__init__``: equality, hashing, repr and pickling follow
    the fields in order, and assigning to a field raises ``AttributeError``.
    (A frozen dataclass would do the same, at the cost of importing
    ``dataclasses`` and ``inspect`` on every start of the CLI.)"""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Exponent(Record):
    """Rational repetition exponent p/q in lowest terms, with p > q >= 1."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q < 1 or p <= q:
            raise ValueError(f"exponent needs p > q >= 1, got {p}/{q}")
        if gcd(p, q) != 1:
            raise ValueError(f"exponent {p}/{q} is not in lowest terms")
        self._set(p, q)

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse ``'P/Q'`` with positive integers P and Q in ASCII digits,
        reducing to lowest terms."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"expected 'P/Q', got {text!r}")
        for part in parts:
            # int() also reads '1_5', '+3', ' 3' and other scripts' digits
            if not (part.isascii() and part.isdigit()):
                raise ValueError(f"expected ASCII digits around '/', got {part!r} in {text!r}")
        p, q = int(parts[0]), int(parts[1])
        if p <= 0 or q <= 0:
            raise ValueError(f"expected positive integers, got {text!r}")
        g = gcd(p, q)
        return cls(p // g, q // g)

    def meets(self, length: int, period: int) -> bool:
        """True iff length/period >= p/q."""
        return length * self.q >= period * self.p

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class Occurrence(Record):
    """Witness of a repetition: ``word[start : start + length]`` has this period."""

    __slots__ = ("start", "period", "length")

    def __init__(self, start: int, period: int, length: int) -> None:
        self._set(start, period, length)
        if start < 0 or period < 1 or length <= period:
            raise ValueError(f"malformed occurrence {self!r}")

    @property
    def end(self) -> int:
        return self.start + self.length


def check_letters(values: Sequence[object]) -> list[int]:
    """Validate an externally supplied word: every letter a non-negative int."""
    out: list[int] = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"letter at position {i} is not a natural number: {v!r}")
        out.append(v)
    return out
