"""The exponent sweep: every p/q with 1 < p/q <= 3 up to a largest q, in
both modes, each rule's greedy word against the dense-table oracle.

Tier-1 runs it at q <= 8 over 2,000 letters (``test_greedy``); CI runs it
outside tier-1 at q <= 12 over 10^4 letters::

    PYTHONPATH=src:tests python -c 'import sweep; sweep.run(12, 10_000)'
"""

from __future__ import annotations

from fractions import Fraction

from lexleast.detect import AvoidanceMode, contains_forbidden
from lexleast.greedy import generate
from lexleast.words import Exponent, Occurrence

import oracle


def rules(q_max: int) -> list[tuple[Exponent, Exponent | None, AvoidanceMode]]:
    """(exponent, the next smaller exponent of the sweep or None, mode) for
    every p/q in lowest terms with q <= ``q_max`` and 1 < p/q <= 3, in
    ascending order, each in both modes."""
    ascending = sorted({Fraction(p, q) for q in range(1, q_max + 1) for p in range(q + 1, 3 * q + 1)})
    exponents = [Exponent(f.numerator, f.denominator) for f in ascending]
    return [(e, below, mode) for below, e in zip([None, *exponents], exponents) for mode in AvoidanceMode]


def first_forbidden(word: list[int], exponent: Exponent, mode: AvoidanceMode) -> Occurrence | None:
    """``contains_forbidden``'s verdict by the oracles: the dense table finds
    the first letter that its rule blocks, and ``naive_forbidden_suffix``
    gives the witness of the prefix that ends there."""
    first = 1 if mode is AvoidanceMode.THRESHOLD else exponent.q
    dense = oracle.DenseRunTable()
    for i, letter in enumerate(word):
        if letter in dense.blocked(exponent.p, exponent.q, first=first, step=first):
            occ = oracle.naive_forbidden_suffix(word[: i + 1], exponent, mode)
            assert occ is not None and occ.end == i + 1, (exponent, mode, i)
            return occ
        dense.append(letter)
    return None


def check(exponent: Exponent, below: Exponent | None, mode: AvoidanceMode, length: int) -> None:
    """Greedy's word of ``length`` letters equals ``oracle.dense_greedy``'s,
    and scanned under ``below`` it gets the oracles' verdict."""
    word = generate(exponent, mode, length)
    assert word == oracle.dense_greedy(exponent, mode, length), (exponent, mode)
    if below is not None:
        assert contains_forbidden(word, below, mode) == first_forbidden(word, below, mode), (exponent, below, mode)


def run(q_max: int, length: int) -> None:
    """``check`` every rule of the sweep up to ``q_max``, naming each as it passes."""
    for exponent, below, mode in rules(q_max):
        check(exponent, below, mode, length)
        print(f"{exponent} {mode.value}: equal to the dense oracle at {length} letters", flush=True)
