"""Reference prefixes used across the test suite.

W32_100 and X32_144 are the canonical opening segments of the two least
3/2-power-avoiding words (threshold and exact discipline); SQUAREFREE_32 is
the opening of the least square-free word, whose n-th letter is the 2-adic
valuation of n + 1.  GREEDY_SHA256 holds digests of longer greedy words
built by ``oracle.dense_greedy``, independently of ``LceIndex``.
"""

W32_100 = [
    0, 1, 2, 0, 3, 1, 0, 2, 1, 3,
    0, 1, 2, 0, 4, 1, 0, 2, 1, 4,
    0, 1, 2, 0, 3, 1, 0, 2, 1, 5,
    0, 1, 2, 0, 4, 1, 0, 2, 1, 3,
    0, 1, 2, 0, 3, 1, 0, 2, 1, 4,
    0, 1, 2, 0, 4, 1, 0, 2, 1, 5,
    0, 1, 2, 0, 3, 1, 0, 2, 1, 3,
    0, 1, 2, 0, 4, 1, 0, 2, 1, 4,
    0, 1, 2, 0, 3, 1, 0, 2, 1, 6,
    0, 1, 2, 0, 4, 1, 0, 2, 1, 3,
]

X32_144 = [
    0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2,
    0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 3,
    0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 4,
    0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 2,
    0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 3,
    0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 4,
    0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2,
    0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 3,
    0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 5,
    0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 2,
    0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 3,
    0, 0, 1, 1, 0, 3, 1, 0, 0, 1, 1, 5,
]

SQUAREFREE_32 = [int(ch) for ch in "01020103010201040102010301020105"]


# (exponent, mode) -> oracle.word_sha256 of the greedy word's first
# GREEDY_LENGTH letters.  At q = 4 the bands from [4096, 8192) on open only
# past the dense tables of the detector tests (about 3,000 letters).
GREEDY_LENGTH = 20_000
GREEDY_SHA256 = {
    ("5/4", "threshold"): "bec8c7d4c77fb3d34a855d36f7d3fe8b20e445bb74fad2d50f16ea7d0aed9631",
    ("5/4", "exact"): "1afc98cc376f19dea9cf54457bde0ccaea5a021f78a8f6412b035fa5852a3c84",
}
