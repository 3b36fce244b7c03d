import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexleast.detect import AvoidanceMode, contains_forbidden, forbidden_suffix
from lexleast.formulas import w32_prefix, x32_prefix
from lexleast.greedy import GreedyState, generate
from lexleast.words import Exponent

import golden
import oracle

E32 = Exponent(3, 2)
E21 = Exponent(2, 1)
THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT


def test_step_examples():
    # each step appends the least letter that completes no forbidden
    # factor and returns it: 3 after 0120, 2 after 00110
    state = GreedyState(E32, THRESHOLD)
    for v in [0, 1, 2, 0, 3]:
        assert state.step() == v
    assert state.word == [0, 1, 2, 0, 3]
    state = GreedyState(E32, EXACT)
    for v in [0, 0, 1, 1, 0, 2]:
        assert state.step() == v
    assert len(state) == 6


def test_generate_golden_prefixes():
    assert generate(E32, THRESHOLD, 10) == [0, 1, 2, 0, 3, 1, 0, 2, 1, 3]
    assert generate(E21, THRESHOLD, 16) == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]
    assert generate(E32, EXACT, 12) == [0, 0, 1, 1, 0, 2, 1, 0, 0, 1, 1, 2]
    assert generate(E32, THRESHOLD, 90)[89] == 6


def test_generate_full_golden_tables():
    assert generate(E32, THRESHOLD, 100) == golden.W32_100
    assert generate(E32, EXACT, 144) == golden.X32_144
    assert generate(E21, THRESHOLD, 32) == golden.SQUAREFREE_32


@pytest.mark.parametrize("mode", ["threshold", None])
def test_a_mode_that_is_not_an_avoidance_mode_raises(mode):
    # each entry point once read any mode but THRESHOLD as exact, so that
    # generate(E32, "threshold", 12) returned x32's opening
    for length in (0, 12):
        with pytest.raises(AttributeError):
            generate(E32, mode, length)
    with pytest.raises(AttributeError):
        GreedyState(E32, mode)
    for word in ([], [0, 1, 0, 1, 0]):
        with pytest.raises(AttributeError):
            contains_forbidden(word, E32, mode)
        with pytest.raises(AttributeError):
            forbidden_suffix(word, E32, mode)


def test_generate_zero_and_negative():
    assert generate(E32, THRESHOLD, 0) == []
    with pytest.raises(ValueError):
        generate(E32, THRESHOLD, -1)


@pytest.mark.parametrize(
    "exponent,mode",
    [(E32, THRESHOLD), (E32, EXACT), (E21, THRESHOLD), (Exponent(5, 3), THRESHOLD), (Exponent(5, 2), EXACT)],
)
def test_generated_words_are_clean(exponent, mode):
    word = generate(exponent, mode, 400)
    assert contains_forbidden(word, exponent, mode) is None


@pytest.mark.parametrize("exponent,mode", [(E32, THRESHOLD), (E32, EXACT), (E21, THRESHOLD)])
def test_local_lexicographic_minimality(exponent, mode):
    # replacing any letter by anything smaller creates a forbidden suffix there
    word = generate(exponent, mode, 300)
    for i in range(len(word)):
        for m in range(word[i]):
            assert forbidden_suffix(word[:i] + [m], exponent, mode) is not None, (i, m)


@pytest.mark.parametrize("exponent,mode", sorted(golden.GREEDY_SHA256))
def test_greedy_words_match_the_dense_table_digests(exponent, mode):
    # beyond the dense-table differentials only 3/2 and 2/1 have another
    # route; these digests come from oracle.dense_greedy
    word = generate(Exponent.parse(exponent), AvoidanceMode(mode), golden.GREEDY_LENGTH)
    assert oracle.word_sha256(word) == golden.GREEDY_SHA256[exponent, mode]


@pytest.mark.parametrize("mode,closed", [(THRESHOLD, w32_prefix), (EXACT, x32_prefix)])
def test_greedy_equals_closed_form_at_20000(mode, closed):
    assert generate(E32, mode, 20_000) == closed(20_000)


@pytest.mark.parametrize("mode,closed", [(THRESHOLD, w32_prefix), (EXACT, x32_prefix)])
def test_greedy_equals_closed_form_at_100000(mode, closed):
    assert generate(E32, mode, 100_000) == closed(100_000)


def test_prefix_stability():
    long = generate(E32, THRESHOLD, 240)
    for n in (0, 1, 7, 59, 120, 239):
        assert generate(E32, THRESHOLD, n) == long[:n]
    long = generate(E32, EXACT, 240)
    for n in (13, 144, 239):
        assert generate(E32, EXACT, n) == long[:n]


@settings(max_examples=30)
@given(st.integers(0, 80))
def test_prefix_stability_property(n):
    assert generate(E21, THRESHOLD, n) == generate(E21, THRESHOLD, n + 1)[:n]


def test_max_letter_matches_closed_form():
    state = GreedyState(E32, THRESHOLD)
    state.extend_to(2_000)
    assert max(state.word) == max(w32_prefix(2_000))


def test_state_bookkeeping():
    state = GreedyState(E32, EXACT)
    assert len(state) == 0 and state.word == []
    state.extend_to(12)
    assert len(state) == 12
    assert state.word == golden.X32_144[:12]
    assert max(state.word) == 2
