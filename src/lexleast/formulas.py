"""Closed-form term evaluators for the two canonical avoidance sequences.

``w32`` is the lexicographically least word over the naturals avoiding every
factor of exponent >= 3/2; ``x32`` is the variant avoiding exact 3/2-powers
only.  Both follow a short periodic template with two free slots per block,
and the letters in the free slots reduce to the helper sequence ``b`` whose
value is read off the base-6 digits of the index.  All evaluators run in
O(log n) per term with plain iteration, no call-stack recursion.

``b_prefix`` reads b over a whole range at once, as the checks on b do: the
slots 6m + r with r < 5 repeat with period 12, and each slot 6m + 5 takes
b(m) + 2, so the table is a 12-byte pattern repeated, with its slots
6m + 5 filled from its own earlier bytes in strided slices.

``by_blocks`` reads such a word a block of six template blocks at a time
(60 letters of w32, 72 of x32; 64 of the ruler word): the letters before a
block's last one depend only on the block index modulo a short cycle, so
they are computed once, and only the last letter of each block is
evaluated.  Whole blocks are handed to ``itertools.chain``, so the letters
between two evaluations are passed on in C.  ``generate --method closed``
and the ``*_prefix`` functions stream the words this way, with the settings
in ``BLOCKS``, in constant memory.
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import Callable, Iterator


# w32_term at residues 0-8 of a block, for even and for odd block index
_W32_HEADS = (
    (0, 1, 2, 0, 3, 1, 0, 2, 1),
    (0, 1, 2, 0, 4, 1, 0, 2, 1),
)


def w32_term(n: int) -> int:
    """Letter n of w32 via the period-10 template.

    Residues 0, 3, 6 hold 0; residues 1, 5, 8 hold 1; residues 2, 7 hold 2.
    Residue 4 alternates 3, 4 with the parity of the block index, and
    residue 9 holds the helper value b(block index).
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    block, r = divmod(n, 10)
    if r < 9:
        return _W32_HEADS[block & 1][r]
    return b_rec(block)


def b_rec(n: int) -> int:
    """Helper sequence b by its base-6 recurrence.

    b(6m) = b(6m+3) = 3, b(6m+1) = b(6m+4) = 4, b(6m+2) = 5 or 6 with the
    parity of m, and b(6m+5) = b(m) + 2.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    add = 0
    while True:
        m, r = divmod(n, 6)
        if r in (0, 3):
            return 3 + add
        if r in (1, 4):
            return 4 + add
        if r == 2:
            return (5 if m % 2 == 0 else 6) + add
        add += 2
        n = m


# b at residues 0-11 of 12, the slots 5 and 11 left for b(m) + 2
_B_HEADS = bytes((3, 4, 5, 3, 4, 0, 3, 4, 6, 3, 4, 0))


def b_prefix(n: int) -> bytearray:
    """b(0), ..., b(n - 1), one byte each, by the recurrence of ``b_rec``
    applied to whole slices.

    The slots 6m + 5 are filled upward in chunks of indices m in [lo, hi).
    The first slot a chunk fills is 6 lo + 5, so with hi <= 6 lo + 5 every
    b(m) it reads is already final; a chunk holds at most 4,096 indices, so
    that the copies it makes stay small.  b(n) is at most 2 log_6(n + 1) + 6,
    so a byte holds it in any table that fits in memory.
    """
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    b = bytearray(_B_HEADS) * -(-n // 12)
    del b[n:]
    plus_2 = bytes(range(2, 256)) + bytes(2)  # 254 and 255 never occur
    lo, top = 0, n // 6
    while lo < top:
        hi = min(top, 6 * lo + 5, lo + 4096)
        b[6 * lo + 5 : 6 * hi : 6] = b[lo:hi].translate(plus_2)
        lo = hi
    return b


def b_closed(n: int) -> int:
    """Helper sequence b read from the base-6 suffix of n.

    With t trailing 5-digits (the representation is padded with leading
    zeros), the digit before the 5-run decides: 0 or 3 give 2t+3, 1 or 4
    give 2t+4, and a 2 gives 2t+5 or 2t+6 with the parity of the digit
    before it.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    t = 0
    d, r = divmod(n, 6)
    while r == 5:
        t += 1
        d, r = divmod(d, 6)
    if r in (0, 3):
        return 2 * t + 3
    if r in (1, 4):
        return 2 * t + 4
    # r == 2: the next digit (0 when exhausted) fixes the parity family
    return 2 * t + 5 if (d % 6) % 2 == 0 else 2 * t + 6


def c_term(s: int) -> int:
    """Auxiliary offset sequence c by recurrence: c(0)=0, c(6m)=6c(m)+5,
    c at residues 1, 3, 5 is 2 and at residues 2, 4 is 5."""
    if s < 0:
        raise ValueError(f"index must be non-negative, got {s}")
    if s == 0:
        return 0
    levels = 0
    while s % 6 == 0:
        levels += 1
        s //= 6
    value = 2 if s % 2 == 1 else 5
    for _ in range(levels):
        value = 6 * value + 5
    return value


def d_term(s: int) -> int:
    """Auxiliary stride sequence d by recurrence: d(0)=0, d(6m)=6d(m),
    d at residues 1, 5 is 3 and at residues 2, 3, 4 is 6."""
    if s < 0:
        raise ValueError(f"index must be non-negative, got {s}")
    if s == 0:
        return 0
    levels = 0
    while s % 6 == 0:
        levels += 1
        s //= 6
    value = 3 if s % 6 in (1, 5) else 6
    return value * 6**levels


def _trailing_zeros_base6(s: int) -> tuple[int, int]:
    """(t, last nonzero base-6 digit) for s >= 1."""
    t = 0
    while s % 6 == 0:
        t += 1
        s //= 6
    return t, s % 6


def c_closed(s: int) -> int:
    """Closed form of c for s >= 1: 6^(t+1) - 1 when the last nonzero base-6
    digit is even, else 3 * 6^t - 1, with t the number of trailing zeros."""
    if s < 1:
        raise ValueError(f"closed form defined for s >= 1, got {s}")
    t, digit = _trailing_zeros_base6(s)
    return 6 ** (t + 1) - 1 if digit % 2 == 0 else 3 * 6**t - 1


def d_closed(s: int) -> int:
    """Closed form of d for s >= 1: 6^(t+1) when the last nonzero base-6
    digit is 2, 3, or 4, else 3 * 6^t."""
    if s < 1:
        raise ValueError(f"closed form defined for s >= 1, got {s}")
    t, digit = _trailing_zeros_base6(s)
    return 6 ** (t + 1) if digit in (2, 3, 4) else 3 * 6**t


# f_term at residues 0-10 of a block, for even and for odd block index
_F_HEADS = (
    (0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1),
    (0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1),
)


def f_term(n: int) -> int:
    """Letter n of x32 via the period-12 template.

    Residues 0, 1, 4, 7, 8 hold 0; residues 2, 3, 6, 9, 10 hold 1.
    Residue 5 alternates 2, 3 with the parity of the block index.  Residue
    11 holds 2 or 3 for block index 0 or 1 mod 3, and otherwise recurses as
    f(2 * block + 1) + 2; it always equals b(block) - 1.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    add = 0
    while True:
        block, r = divmod(n, 12)
        if r < 11:
            return _F_HEADS[block & 1][r] + add
        k = block % 3
        if k < 2:
            return 2 + k + add
        add += 2
        n = 2 * block + 1


def x32_term(n: int) -> int:
    """Alias of ``f_term``: letter n of the exact-avoidance word x32."""
    return f_term(n)


def ruler_term(n: int) -> int:
    """Letter n of the lexicographically least square-free word: the 2-adic
    valuation of n + 1."""
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    m = n + 1
    return (m & -m).bit_length() - 1


def ell_m(b: int, m: int) -> int:
    """Block length of the repetition created by decrementing a b-slot
    letter b(n) = b to m, for 5 <= m < b.

    The witness is an xyx with |x| = |y| equal to this value, a multiple of
    30 read off b and m alone: 30 * 6^(m/2 - 3) for even m,
    30 * 6^((m+1)/2 - 3) for odd m = b - 1 (so b even), and
    60 * 6^((m+1)/2 - 3) for every other odd m.
    """
    if not 5 <= m < b:
        raise ValueError(f"need 5 <= m < b value, got m={m}, b={b}")
    if m % 2 == 0:
        return 30 * 6 ** (m // 2 - 3)
    return (30 if m == b - 1 else 60) * 6 ** ((m + 1) // 2 - 3)


def by_blocks(term: Callable[[int], int], size: int, cycle: int) -> Iterator[int]:
    """``term(0), term(1), ...`` read in blocks of ``size`` letters, where
    every letter but a block's last depends only on the block index mod
    ``cycle``: those are computed once, by ``term`` itself, and each block
    is that list of heads and ``term`` of its last index, chained."""
    last = size - 1
    heads = [[term(size * k + r) for r in range(last)] for k in range(cycle)]
    return chain.from_iterable(heads[k % cycle] + [term(size * k + last)] for k in count())


# (term, size, cycle) for ``by_blocks``.  Each size is six template blocks
# (or 64 ruler letters), the largest for which the heads stay small:
# * w32, 60 = 10 * 6: letter 60m + 10i + r for r < 9 depends on r and the
#   parity of 6m + i, which is that of i; for r = 9 it is b(6m + i), and for
#   i < 5 that depends on i and m mod 2 (only b(6m + 2) reads the parity);
# * x32, 72 = 12 * 6: residues r < 11 of template block 6m + i depend on
#   the parity of i alike; residue 11 is 2 or 3 by i mod 3, except for
#   i = 2, which goes to f(12m + 5) + 2 and so reads _F_HEADS[m & 1], and
#   i = 5, the last letter;
# * ruler, 64: letter 64m + r is v2(r + 1) for r + 1 < 64.
# 10 * 6^k, 12 * 6^k and 2^k letters are valid blocks as well, with the same
# cycles, but the heads of 360 letters already take about 11 KB.  A
# module-level dict, like the CLI's dispatch tables, so that perfbench's
# tracer, which rebinds the term functions held in such tables, also sees
# the prefixes' calls.
BLOCKS = {
    "w32": (w32_term, 60, 2),
    "x32": (f_term, 72, 2),
    "ruler": (ruler_term, 64, 1),
}


def _prefix(name: str, length: int) -> list[int]:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return list(islice(by_blocks(*BLOCKS[name]), length))


def w32_prefix(length: int) -> list[int]:
    return _prefix("w32", length)


def x32_prefix(length: int) -> list[int]:
    return _prefix("x32", length)


def ruler_prefix(length: int) -> list[int]:
    return _prefix("ruler", length)
