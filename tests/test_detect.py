import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexleast.detect import AvoidanceMode, LceIndex, contains_forbidden, forbidden_suffix
from lexleast.formulas import w32_prefix
from lexleast.words import Exponent, Occurrence

import golden
import oracle

E32 = Exponent(3, 2)
THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT

words = st.lists(st.integers(0, 2), min_size=0, max_size=16)


def test_forbidden_suffix_examples():
    assert forbidden_suffix([0, 1, 2, 0, 3, 1, 0], E32, THRESHOLD) is None
    assert forbidden_suffix([0, 1, 2, 0, 1], E32, THRESHOLD) == Occurrence(0, 3, 5)
    assert forbidden_suffix([0, 0], E32, EXACT) is None
    assert forbidden_suffix([1, 0, 2, 1, 0], E32, THRESHOLD) == Occurrence(0, 3, 5)
    assert forbidden_suffix([], E32, THRESHOLD) is None


def test_contains_forbidden_examples():
    assert contains_forbidden(golden.W32_100, E32, THRESHOLD) is None
    occ = contains_forbidden([0, 1, 0, 1, 0], E32, THRESHOLD)
    assert occ is not None and occ.period == 2 and occ.length >= 3
    assert contains_forbidden(golden.X32_144, E32, EXACT) is None


def test_lce_backward_examples():
    idx = LceIndex([0, 1, 0, 1])
    assert idx.lce_backward(3, 1) == 2
    idx = LceIndex([0, 1, 2])
    assert idx.lce_backward(2, 1) == 0
    # first 20 letters of w32: every backward window hits one of the two
    # letters that differ between consecutive ten-blocks, so extensions are
    # short; values pinned by the direct scan
    w20 = w32_prefix(20)
    idx = LceIndex(w20)
    assert idx.lce_backward(19, 9) == oracle.lce_backward_scan(w20, 19, 9) == 0
    assert idx.lce_backward(18, 8) == oracle.lce_backward_scan(w20, 18, 8) == 4


def test_lce_backward_domain_errors():
    idx = LceIndex([0, 1, 2])
    for i, j in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            idx.lce_backward(i, j)


def test_lce_index_append_pop():
    idx = LceIndex()
    for v in [0, 1, 2, 0, 3]:
        idx.append(v)
    assert idx.to_list() == [0, 1, 2, 0, 3]
    assert idx.pop() == 3
    idx.append(1)
    assert idx.to_list() == [0, 1, 2, 0, 1]
    assert len(idx) == 5
    assert idx[4] == 1
    with pytest.raises(ValueError):
        idx.append(-1)
    with pytest.raises(OverflowError):
        idx.append(1 << 40)


def test_exact_mode_witness_pairs():
    # 001001001 is a whole-word exact 3/2-power with t=3 (no smaller t fires)
    assert forbidden_suffix([0, 0, 1, 0, 0, 1, 0, 0, 1], E32, EXACT) == Occurrence(0, 6, 9)
    # an aba suffix is the shortest exact witness
    assert forbidden_suffix([2, 0, 1, 0], E32, EXACT) == Occurrence(1, 2, 3)
    # odd-period squares survive
    assert contains_forbidden([0, 1, 1, 0], E32, EXACT) is None


def _random_word(rng):
    n = rng.randint(1, 40)
    alphabet = rng.choice(((0, 1), (0, 1, 2), (0, 1, 2, 3)))
    return [rng.choice(alphabet) for _ in range(n)]


def test_indexed_equals_direct_on_random_words():
    # 10_000 random words: the hashed detector and the oracle's direct letter
    # loops return identical witnesses in both modes
    rng = random.Random(20110118)
    for _ in range(10_000):
        word = _random_word(rng)
        idx = LceIndex(word)
        for mode in (THRESHOLD, EXACT):
            assert forbidden_suffix(idx, E32, mode) == oracle.naive_forbidden_suffix(word, E32, mode)


@given(
    st.lists(st.integers(0, 3), max_size=24),
    st.sampled_from([Exponent(4, 3), E32, Exponent(2, 1), Exponent(5, 2)]),
    st.sampled_from([THRESHOLD, EXACT]),
)
def test_blocked_letters_match_naive_oracle(word, exponent, mode):
    # the whole-set query names every letter whose appending completes a
    # forbidden suffix, with the oracle's smallest period; asking about one
    # letter returns that entry or nothing
    idx = LceIndex(word)
    query = idx.threshold_hit if mode is THRESHOLD else idx.exact_hit
    expected = {}
    for m in range(max(word, default=-1) + 2):
        occ = oracle.naive_forbidden_suffix(word + [m], exponent, mode)
        if occ is not None:
            expected[m] = occ.period
    assert query(exponent.p, exponent.q) == expected
    for m in range(max(word, default=-1) + 2):
        single = {m: expected[m]} if m in expected else {}
        assert query(exponent.p, exponent.q, letter=m) == single


def test_lce_against_scan_on_random_words():
    rng = random.Random(987)
    for _ in range(2_000):
        word = _random_word(rng)
        idx = LceIndex(word)
        i = rng.randrange(len(word))
        j = rng.randrange(len(word))
        assert idx.lce_backward(i, j) == oracle.lce_backward_scan(word, i, j)


@given(words, st.sampled_from([THRESHOLD, EXACT]))
def test_agreement_with_naive_suffix_oracle(word, mode):
    assert forbidden_suffix(word, E32, mode) == oracle.naive_forbidden_suffix(word, E32, mode)


@given(words, st.sampled_from([THRESHOLD, EXACT]))
def test_witness_is_valid(word, mode):
    occ = forbidden_suffix(word, E32, mode)
    if occ is None:
        return
    assert occ.end == len(word)
    factor = word[occ.start : occ.end]
    for i in range(occ.length - occ.period):
        assert factor[i] == factor[i + occ.period]
    assert oracle.factor_is_forbidden(factor, E32, mode)


@given(words, st.lists(st.integers(0, 2), min_size=1, max_size=6), st.sampled_from([THRESHOLD, EXACT]))
def test_forbidden_monotone_under_extension(word, suffix, mode):
    if forbidden_suffix(word, E32, mode) is None:
        return
    assert contains_forbidden(word + suffix, E32, mode) is not None


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2), min_size=0, max_size=12), st.sampled_from([THRESHOLD, EXACT]))
def test_contains_forbidden_matches_factor_scan(word, mode):
    found = contains_forbidden(word, E32, mode) is not None
    assert found == oracle.contains_forbidden_scan(word, E32, mode)


def test_threshold_32_reduces_to_xyx():
    """A factor of exponent >= 3/2 appears exactly when an x y x factor with
    |y| in {|x|, |x|-1} does; exhaustive over ternary words of length <= 12."""
    visited, covered = oracle.ternary_suffix_agreement(
        12,
        (
            lambda w: oracle.naive_forbidden_suffix(w, E32, THRESHOLD) is not None,
            lambda w: oracle.xyx_suffix(w, (0, -1)),
        ),
    )
    assert covered == (3**13 - 1) // 2


def test_exact_32_reduces_to_balanced_xyx():
    visited, covered = oracle.ternary_suffix_agreement(
        12,
        (
            lambda w: oracle.naive_forbidden_suffix(w, E32, EXACT) is not None,
            lambda w: oracle.xyx_suffix(w, (0,)),
        ),
    )
    assert covered == (3**13 - 1) // 2


def test_detectors_against_oracle_small_exhaustive():
    # quick version of the full length-12 acceptance sweep
    for mode in (THRESHOLD, EXACT):
        idx = LceIndex()

        def track(word, idx=idx):
            while len(idx) > len(word) - 1:
                idx.pop()
            idx.append(word[-1])

        visited, covered = oracle.ternary_suffix_agreement(
            7,
            (
                lambda w: oracle.naive_forbidden_suffix(w, E32, mode),
                lambda w: forbidden_suffix(w, E32, mode),
                lambda w: forbidden_suffix(idx, E32, mode),
            ),
            on_node=track,
        )
        assert covered == (3**8 - 1) // 2
