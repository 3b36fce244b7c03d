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
# past the dense tables of the detector tests (about 3,000 letters).  At
# q = 1 the two modes coincide, so 2/1 and 3/1 have equal digests in both.
GREEDY_LENGTH = 20_000
GREEDY_SHA256 = {
    ("5/4", "threshold"): "bec8c7d4c77fb3d34a855d36f7d3fe8b20e445bb74fad2d50f16ea7d0aed9631",
    ("5/4", "exact"): "1afc98cc376f19dea9cf54457bde0ccaea5a021f78a8f6412b035fa5852a3c84",
    ("4/3", "threshold"): "819adbb80f4b316f033d621692632383447bae81887d35a2b75adaf29fe80220",
    ("4/3", "exact"): "6e68cf7f52ec135db840934f3d80489de897d62814347c69ea1756d1de90efad",
    ("5/3", "threshold"): "b3518367ced9c7b8d727b54f7210216cd330fcf7094309b54b12d2d98b6dbe04",
    ("5/3", "exact"): "35e82d79b8b609eb1d1695bfb552204ef9536b6e53c62b9a18cc98f142d6e769",
    ("2/1", "threshold"): "76451955ca87c6241d07e8dbf12ef736f233a738142b521a2db79b25610ca179",
    ("2/1", "exact"): "76451955ca87c6241d07e8dbf12ef736f233a738142b521a2db79b25610ca179",
    ("5/2", "threshold"): "01f8f28d07233da4fdc205f6e4b76509394cf1b981d9639e4d1ce951ad06c3aa",
    ("5/2", "exact"): "377f519d62faa010bbb7f4e07234afa785d476fff2b263ff62c2778cd29b1763",
    ("7/4", "threshold"): "3d3daf8cace301f52acda6b2a56ad7641ff2f70702bcf4da354874f41eedd7bb",
    ("7/4", "exact"): "f5f61e5ced36a5b16ad634a2ed08cb1d7a2c0894316983420b3cc9e6def78222",
    ("3/1", "threshold"): "7949041014fe470955533160296de8de98008ebd0a03a0e7aa30ae9231ead5c6",
    ("3/1", "exact"): "7949041014fe470955533160296de8de98008ebd0a03a0e7aa30ae9231ead5c6",
    ("101/100", "threshold"): "983dc6340db461d18f7bff0e985e0998a1bc91f502b8ff46bb12ee91eea433a4",
}
