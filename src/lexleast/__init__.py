"""Lexicographically least power-avoiding sequences over the natural numbers.

The library constructs the least word avoiding repetitions of rational
exponent p/q, in two disciplines (threshold: exponent >= p/q forbidden;
exact: only exact p/q-powers forbidden), by three independent routes:
greedy search, closed-form term evaluation, and morphic fixed-point coding.
A verification suite cross-checks the routes and the structural claims
about the 3/2 sequences at desk scale.
"""

from .detect import AvoidanceMode, LceIndex, contains_forbidden, forbidden_suffix
from .greedy import GreedyState, generate
from .words import Exponent, Occurrence

__all__ = [
    "AvoidanceMode",
    "Exponent",
    "GreedyState",
    "LceIndex",
    "Occurrence",
    "contains_forbidden",
    "forbidden_suffix",
    "generate",
]
