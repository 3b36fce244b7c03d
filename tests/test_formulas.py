import tracemalloc
from collections import deque
from itertools import count, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexleast.formulas import (
    BLOCKS,
    b_closed,
    b_prefix,
    b_rec,
    by_blocks,
    c_closed,
    c_term,
    d_closed,
    d_term,
    ell_m,
    f_term,
    ruler_prefix,
    ruler_term,
    w32_prefix,
    w32_term,
    x32_prefix,
    x32_term,
)

import golden
import oracle

big_indices = st.integers(0, 10**15)


def test_w32_term_examples():
    assert w32_term(0) == 0
    assert w32_term(4) == 3
    assert w32_term(9) == 3
    assert w32_term(14) == 4
    assert w32_term(29) == 5
    assert w32_term(89) == 6


def test_w32_prefix_matches_golden():
    assert w32_prefix(100) == golden.W32_100


def test_w32_matches_literal_recursion():
    terms = [w32_term(n) for n in range(10_000)]
    assert terms == [oracle.a_ref(n) for n in range(10_000)] == w32_prefix(10_000)


@given(big_indices)
def test_w32_matches_literal_recursion_large(n):
    assert w32_term(n) == oracle.a_ref(n)


@given(big_indices, st.integers(0, 9))
def test_w32_term_reads_b_at_residue_9_and_the_heads_elsewhere(block, r):
    # residues 0-8 depend on the block parity alone, residue 9 is b(block)
    expected = b_rec(block) if r == 9 else w32_term(10 * (block % 2) + r)
    assert w32_term(10 * block + r) == expected


def test_w32_pseudoperiodic_template():
    w = w32_prefix(5_000)
    for n, v in enumerate(w):
        r = n % 10
        if r in (0, 3, 6):
            assert v == 0
        elif r in (1, 5, 8):
            assert v == 1
        elif r in (2, 7):
            assert v == 2
        elif r == 4:
            assert v == 3 + (n // 10) % 2
        else:
            assert v == b_rec(n // 10)


def test_b_examples():
    assert b_rec(0) == 3
    assert b_rec(2) == 5
    assert b_rec(5) == 5  # b(5) = b(0) + 2
    assert b_rec(8) == 6
    assert b_closed(35) == 7  # base-6 "55", two trailing 5s after padding
    assert b_closed(8) == 6  # base-6 "12"
    assert b_closed(1) == 4


def test_b_prefix_reads_b_rec_over_a_range():
    for n in range(501):
        assert b_prefix(n) == bytes(map(b_rec, range(n))), n
    assert b_prefix(10**5) == bytes(map(b_rec, range(10**5)))
    with pytest.raises(ValueError, match="length must be non-negative, got -1"):
        b_prefix(-1)


def test_b_prefix_holds_its_table_and_small_chunks():
    n = 10**6
    tracemalloc.start()
    try:
        b_prefix(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n + 64 * 1024, peak


def test_b_rec_equals_b_closed_small():
    assert all(b_rec(n) == b_closed(n) for n in range(100_000))


@given(big_indices)
def test_b_rec_equals_b_closed_large(n):
    assert b_rec(n) == b_closed(n)


@given(big_indices)
def test_b_against_family_value(n):
    family, t = oracle.suffix_family_fast(n)
    assert b_closed(n) == 2 * t + oracle.FAMILY_VALUE[family]


def test_families_partition_small():
    # literal scan over all candidate suffix patterns: exactly one matches
    for n in range(50_000):
        matches = oracle.suffix_families(n)
        assert len(matches) == 1, (n, matches)
        assert matches[0] == oracle.suffix_family_fast(n)


def test_family_match_counts_agrees_with_string_scan():
    counts, values = oracle.family_match_counts(50_000)
    for n in range(50_000):
        family, t = oracle.suffix_family_fast(n)
        assert counts[n] == 1
        assert values[n] == 2 * t + oracle.FAMILY_VALUE[family]


def test_c_d_examples():
    assert (c_term(0), d_term(0)) == (0, 0)
    assert (c_term(1), d_term(1)) == (2, 3)
    assert c_term(6) == 17
    assert d_term(12) == 36
    assert (c_closed(1), d_closed(1)) == (2, 3)
    assert (c_closed(6), d_closed(6)) == (17, 18)
    assert d_closed(12) == 36


def test_c_d_closed_domain():
    with pytest.raises(ValueError):
        c_closed(0)
    with pytest.raises(ValueError):
        d_closed(0)


def test_c_d_recurrence_equals_closed_small():
    for s in range(1, 50_000):
        assert c_term(s) == c_closed(s)
        assert d_term(s) == d_closed(s)


@given(st.integers(1, 10**12))
def test_c_d_recurrence_equals_closed_large(s):
    assert c_term(s) == c_closed(s)
    assert d_term(s) == d_closed(s)


@given(st.integers(1, 10**12))
def test_c_le_d_le_3s(s):
    assert c_term(s) <= d_term(s) <= 3 * s


def test_f_examples():
    assert f_term(5) == 2
    assert f_term(11) == 2
    assert f_term(35) == 4
    assert f_term(107) == 5
    assert x32_term(143) == 5


def test_x32_prefix_matches_golden():
    assert [f_term(n) for n in range(144)] == golden.X32_144


def test_f_matches_literal_recursion():
    assert [f_term(n) for n in range(10_000)] == [oracle.f_ref(n) for n in range(10_000)]


@given(big_indices)
def test_f_matches_literal_recursion_large(n):
    assert f_term(n) == oracle.f_ref(n)


def test_f_b_identity_small():
    assert all(f_term(12 * n + 11) + 1 == b_rec(n) for n in range(100_000))


@given(big_indices)
def test_f_b_identity_large(n):
    assert f_term(12 * n + 11) + 1 == b_rec(n)


def test_ruler_examples():
    assert ruler_term(0) == 0
    assert ruler_term(7) == 3
    assert ruler_term(15) == 4
    assert ruler_prefix(32) == golden.SQUAREFREE_32


@given(st.integers(0, 10**15))
def test_ruler_is_2adic_valuation(n):
    m = n + 1
    count = 0
    while m % 2 == 0:
        m //= 2
        count += 1
    assert ruler_term(n) == count


def test_ell_m_examples():
    assert ell_m(7, 6) == 30
    assert ell_m(7, 5) == 60
    assert ell_m(6, 5) == 30
    assert ell_m(8, 5) == 60
    assert ell_m(8, 7) == 180
    assert ell_m(9, 7) == 360


def test_ell_m_divisible_by_ten():
    for b_value in range(6, 16):
        for m in range(5, b_value):
            assert ell_m(b_value, m) % 10 == 0


def test_ell_m_validation():
    for b_value, m in ((6, 6), (6, 4), (5, 5), (7, 9)):
        with pytest.raises(ValueError, match=f"need 5 <= m < b value, got m={m}, b={b_value}"):
            ell_m(b_value, m)


def test_negative_indices_rejected():
    for fn in (w32_term, b_rec, b_closed, c_term, d_term, f_term, ruler_term):
        with pytest.raises(ValueError):
            fn(-1)


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_by_blocks_reads_every_term(name):
    term, size, cycle = BLOCKS[name]
    n = 200_000
    assert list(islice(by_blocks(term, size, cycle), n)) == list(islice(map(term, count()), n))


# each word's template period (1 for the ruler word) and the factor by which
# a block of ``by_blocks`` may grow with the same cycle: b(6m + i) for i < 5
# depends on i and the parity of m, and v2(2^k m + r + 1) = v2(r + 1)
BLOCK_GROWTH = {"w32": (10, 6), "x32": (12, 6), "ruler": (1, 2)}


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_by_blocks_reads_every_term_at_every_valid_size(name, k):
    # 10 * 6^k letters of w32, 12 * 6^k of x32 and 2^k of the ruler word,
    # over at least 2 * cycle + 1 blocks, so that the cycle comes round
    term, _, cycle = BLOCKS[name]
    period, factor = BLOCK_GROWTH[name]
    size = period * factor**k
    n = max(10**4, (2 * cycle + 1) * size)
    assert list(islice(by_blocks(term, size, cycle), n)) == list(islice(map(term, count()), n))


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_by_blocks_differs_at_a_size_that_is_not_valid(name):
    # twice the template period (3 letters of the ruler word): a head then
    # varies beyond the cycle (w32 letter 20m + 9 is b(2m)), so the
    # comparison above has something to catch
    term, _, cycle = BLOCKS[name]
    period, _ = BLOCK_GROWTH[name]
    size = 2 * period if period > 1 else 3
    n = 10**4
    assert list(islice(by_blocks(term, size, cycle), n)) != list(islice(map(term, count()), n))


def test_by_blocks_runs_in_constant_memory():
    for name, entry in BLOCKS.items():
        tracemalloc.start()
        try:
            deque(islice(by_blocks(*entry), 10**5), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024, (name, peak)


def test_by_blocks_calls_term_once_per_block_after_the_heads():
    calls = []

    def term(n):
        calls.append(n)
        return w32_term(n)

    blocks = 1_000
    assert list(islice(by_blocks(term, 10, 2), 10 * blocks)) == w32_prefix(10 * blocks)
    heads = [10 * k + r for k in range(2) for r in range(9)]
    assert calls == heads + [10 * k + 9 for k in range(blocks)]


def test_prefixes_reject_negative_length():
    for prefix in (w32_prefix, x32_prefix, ruler_prefix):
        assert prefix(0) == []
        with pytest.raises(ValueError, match="length must be non-negative, got -1"):
            prefix(-1)
