"""Words over the natural numbers: the vocabulary the detector speaks.

A word is any 0-indexed sequence of non-negative ints.  ``Exponent`` is a
rational repetition exponent p/q, compared by cross-multiplied integer
arithmetic, never floats; ``Occurrence`` is the witness of a repetition;
``check_letters`` validates a word read from outside.  Repetition itself is
decided in ``lexleast.detect``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

Word = Sequence[int]


@dataclass(frozen=True)
class Exponent:
    """Rational repetition exponent p/q in lowest terms, with p > q >= 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.p <= self.q:
            raise ValueError(f"exponent needs p > q >= 1, got {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"exponent {self.p}/{self.q} is not in lowest terms")

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse ``'P/Q'`` with positive integers P and Q, reducing to lowest terms."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"expected 'P/Q', got {text!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"expected integers around '/', got {text!r}") from None
        if p <= 0 or q <= 0:
            raise ValueError(f"expected positive integers, got {text!r}")
        g = gcd(p, q)
        return cls(p // g, q // g)

    def meets(self, length: int, period: int) -> bool:
        """True iff length/period >= p/q."""
        return length * self.q >= period * self.p

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class Occurrence:
    """Witness of a repetition: ``word[start : start + length]`` has this period."""

    start: int
    period: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.period < 1 or self.length <= self.period:
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
