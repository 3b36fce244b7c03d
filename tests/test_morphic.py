import tracemalloc
from collections import deque
from itertools import chain, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexleast.formulas import b_rec, w32_prefix, x32_prefix
from lexleast.morphic import (
    bar_fixed_point,
    phi_letter,
    tau_letter,
    upsilon_letter,
    w32_stream,
    w32_via_morphism,
    x32_stream,
    x32_via_morphism,
)

import golden

bar_letters = st.tuples(st.integers(1, 40), st.booleans())


def fixed_prefix(k):
    return list(islice(bar_fixed_point(), k))


def expand(letter_map, word):
    return list(chain.from_iterable(map(letter_map, word)))


def test_phi_images():
    assert phi_letter((3, False)) == ((3, False), (3, True), (4, False), (4, True), (3, False), (5, True))
    assert phi_letter((3, True)) == ((4, False), (3, True), (3, False), (4, True), (4, False), (5, True))
    assert phi_letter((7, True))[-1] == (9, True)


def test_phi_fixed_prefix_examples():
    assert fixed_prefix(2) == [(3, False), (3, True)]
    assert fixed_prefix(6) == list(phi_letter((3, False)))
    assert fixed_prefix(8) == list(phi_letter((3, False))) + [(4, False), (3, True)]
    assert fixed_prefix(0) == []


def test_tau_images():
    assert tau_letter((3, False)) == (0, 1, 2, 0, 3)
    assert tau_letter((3, True)) == (1, 0, 2, 1, 3)
    assert expand(tau_letter, fixed_prefix(2)) == [0, 1, 2, 0, 3, 1, 0, 2, 1, 3]


def test_upsilon_images():
    assert upsilon_letter((3, False)) == (0, 0, 1, 1, 0, 2)
    assert upsilon_letter((3, True)) == (1, 0, 0, 1, 1, 2)
    assert expand(upsilon_letter, fixed_prefix(2)) == [0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2]


def test_upsilon_rejects_zero():
    for barred in (False, True):
        with pytest.raises(ValueError):
            upsilon_letter((0, barred))


def test_fixed_point_property():
    # phi applied letter by letter to a prefix of x starts with that prefix
    for n in (1, 5, 36, 200):
        prefix = fixed_prefix(n)
        assert expand(phi_letter, prefix)[:n] == prefix


def test_fixed_point_structure():
    # even slots alternate plain 3, 4; odd slot 2k+1 carries barred b(k)
    for pos, letter in enumerate(fixed_prefix(2_000)):
        if pos % 2 == 0:
            assert letter == (3 if (pos // 2) % 2 == 0 else 4, False)
        else:
            assert letter == (b_rec(pos // 2), True)


def test_fixed_point_letters_at_least_three():
    assert all(value >= 3 for value, _ in fixed_prefix(5_000))


def test_codings_hit_golden_tables():
    assert w32_via_morphism(100) == golden.W32_100
    assert x32_via_morphism(144) == golden.X32_144
    assert w32_via_morphism(0) == []


def test_codings_match_closed_forms():
    # the streams build 10^6 letters from images of 14 distinct letters of
    # x (11 at 10^5 letters)
    n = 10**6
    assert w32_via_morphism(n) == w32_prefix(n)
    assert x32_via_morphism(n) == x32_prefix(n)


def test_streams_run_in_logarithmic_memory():
    # 10^6 letters keep about log_6 of that many generators alive: a few
    # KiB, where a buffer of the fixed point would take megabytes
    for stream in (w32_stream, x32_stream):
        tracemalloc.start()
        try:
            deque(islice(stream(), 10**6), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (stream.__name__, peak)


def test_stream_is_incremental():
    # each stream reads the fixed point lazily, one image of phi then the
    # coding (30 or 36 letters) per letter of it: the first 50 letters of x
    # code to 250 letters of w32 and 300 of x32
    gen = bar_fixed_point()
    letters = [next(gen) for _ in range(50)]
    assert letters == fixed_prefix(50)
    assert list(islice(w32_stream(), 250)) == expand(tau_letter, letters)
    assert list(islice(x32_stream(), 300)) == expand(upsilon_letter, letters)


@given(bar_letters)
def test_length_bookkeeping(letter):
    assert len(phi_letter(letter)) == 6
    assert len(tau_letter(letter)) == 5
    assert len(upsilon_letter(letter)) == 6


@given(st.integers(0, 300))
def test_prefix_lengths(n):
    assert len(fixed_prefix(n)) == n
    assert len(w32_via_morphism(n)) == n
    assert len(x32_via_morphism(n)) == n


def test_prefix_rejects_negative_length():
    for prefix in (w32_via_morphism, x32_via_morphism):
        with pytest.raises(ValueError):
            prefix(-1)
