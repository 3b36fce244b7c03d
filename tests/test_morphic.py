import tracemalloc
from collections import deque
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexleast.formulas import b_rec, w32_prefix, x32_prefix
from lexleast.morphic import (
    BarLetter,
    bar_fixed_point,
    phi,
    phi_fixed_prefix,
    tau,
    upsilon,
    w32_stream,
    w32_via_morphism,
    x32_stream,
    x32_via_morphism,
)

import golden

bar_letters = st.builds(BarLetter, value=st.integers(1, 40), barred=st.booleans())
bar_words = st.lists(bar_letters, max_size=30)


def bl(value, barred=False):
    return BarLetter(value, barred)


def test_phi_images():
    assert phi([bl(3)]) == [bl(3), bl(3, True), bl(4), bl(4, True), bl(3), bl(5, True)]
    assert phi([bl(3, True)]) == [bl(4), bl(3, True), bl(3), bl(4, True), bl(4), bl(5, True)]
    assert phi([]) == []


def test_phi_fixed_prefix_examples():
    assert phi_fixed_prefix(2) == [bl(3), bl(3, True)]
    assert phi_fixed_prefix(6) == [bl(3), bl(3, True), bl(4), bl(4, True), bl(3), bl(5, True)]
    assert phi_fixed_prefix(8) == [
        bl(3), bl(3, True), bl(4), bl(4, True), bl(3), bl(5, True), bl(4), bl(3, True),
    ]
    assert phi_fixed_prefix(0) == []


def test_tau_images():
    assert tau([bl(3)]) == [0, 1, 2, 0, 3]
    assert tau([bl(3, True)]) == [1, 0, 2, 1, 3]
    assert tau(phi_fixed_prefix(2)) == [0, 1, 2, 0, 3, 1, 0, 2, 1, 3]


def test_upsilon_images():
    assert upsilon([bl(3)]) == [0, 0, 1, 1, 0, 2]
    assert upsilon([bl(3, True)]) == [1, 0, 0, 1, 1, 2]
    assert upsilon(phi_fixed_prefix(2)) == [0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2]


def test_upsilon_rejects_zero():
    with pytest.raises(ValueError):
        upsilon([bl(0)])


def test_bar_letter_validation():
    with pytest.raises(ValueError):
        BarLetter(-1)


def test_fixed_point_property():
    for n in (1, 5, 36, 200):
        prefix = phi_fixed_prefix(n)
        assert phi(prefix)[:n] == prefix


def test_fixed_point_structure():
    # even slots alternate plain 3, 4; odd slot 2k+1 carries barred b(k)
    prefix = phi_fixed_prefix(2_000)
    for pos, letter in enumerate(prefix):
        if pos % 2 == 0:
            assert letter == bl(3 if (pos // 2) % 2 == 0 else 4)
        else:
            assert letter == bl(b_rec(pos // 2), True)


def test_fixed_point_letters_at_least_three():
    assert all(letter.value >= 3 for letter in phi_fixed_prefix(5_000))


def test_codings_hit_golden_tables():
    assert w32_via_morphism(100) == golden.W32_100
    assert x32_via_morphism(144) == golden.X32_144
    assert w32_via_morphism(0) == []


def test_codings_match_closed_forms():
    n = 100_000
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
    gen = bar_fixed_point()
    head = [next(gen) for _ in range(10)]
    assert head == phi_fixed_prefix(10)


@given(bar_words)
def test_length_bookkeeping(word):
    assert len(phi(word)) == 6 * len(word)
    assert len(tau(word)) == 5 * len(word)
    assert len(upsilon(word)) == 6 * len(word)


@given(bar_words, bar_words)
def test_maps_respect_concatenation(u, v):
    assert phi(u + v) == phi(u) + phi(v)
    assert tau(u + v) == tau(u) + tau(v)
    assert upsilon(u + v) == upsilon(u) + upsilon(v)


@given(st.integers(0, 300))
def test_prefix_lengths(n):
    assert len(phi_fixed_prefix(n)) == n
    assert len(w32_via_morphism(n)) == n
    assert len(x32_via_morphism(n)) == n
