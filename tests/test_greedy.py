import functools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexleast.detect import AvoidanceMode, LceIndex, contains_forbidden, forbidden_suffix
from lexleast.formulas import w32_prefix, x32_prefix
from lexleast.greedy import GreedyState, generate
from lexleast.words import Exponent

import golden
import oracle
import sweep

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


@pytest.mark.parametrize(
    "exponent,below,mode", sweep.rules(8), ids=[f"{e}-{m.value}" for e, _, m in sweep.rules(8)]
)
def test_exponent_sweep_greedy_equals_dense_oracle(exponent, below, mode):
    # every p/q with q <= 8 and 1 < p/q <= 3 (44 exponents), in both modes:
    # S, the need-0 window, the strides and the first band's small periods
    # all change with p/q.  The word is then scanned under the next smaller
    # exponent, whose verdict the dense table and the naive witness check
    sweep.check(exponent, below, mode, 2_000)


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


# the rules of greedy's loop: its bit paths (3/2 in both modes, 2/1), the
# narrowest need-0 window (Z = 3 at 4/3), a strided one (5/4 exact) and the
# widest (Z = 400 at 401/400), each over more than two chunks of 4,096
LOOP_RULES = {
    "w32": (E32, THRESHOLD),
    "x32": (E32, EXACT),
    "2/1": (E21, THRESHOLD),
    "4/3": (Exponent(4, 3), THRESHOLD),
    "5/4 exact": (Exponent(5, 4), EXACT),
    "401/400": (Exponent(401, 400), THRESHOLD),
}
LOOP_LENGTH = 8_300


@functools.cache
def _loop_words(kind):
    """(the word of one step() per letter, the dense oracle's word)."""
    exponent, mode = LOOP_RULES[kind]
    state = GreedyState(exponent, mode)
    for _ in range(LOOP_LENGTH):
        state.step()
    return state.word, oracle.dense_greedy(exponent, mode, LOOP_LENGTH)


def _splits(kind):
    """Chunk plans up to LOOP_LENGTH: around the 4,096-letter chunk, and
    seeded random ones with empty chunks among them."""
    plans = [[1, 2, 4095, 4096], [4097, 4096], [4096, 1, 1, 4096], [4095, 4095, 1]]
    rng = random.Random(f"loop/{kind}")
    for _ in range(2):
        plan = []
        while sum(plan) < LOOP_LENGTH:
            plan.append(rng.choice([0, 1, 2, 3, rng.randrange(700), rng.randrange(5_000)]))
        plans.append(plan)
    return plans


@pytest.mark.parametrize("kind", LOOP_RULES)
def test_loop_split_at_any_point_gives_the_stepped_word(kind):
    # extend_to and extend make one call of the loop for all their letters;
    # wherever the calls are split, the word is that of one step() per
    # letter, and the dense oracle's
    exponent, mode = LOOP_RULES[kind]
    stepped, dense = _loop_words(kind)
    assert stepped == dense
    for plan in _splits(kind):
        state, target = GreedyState(exponent, mode), 0
        for count in plan:
            target = min(target + count, LOOP_LENGTH)
            state.extend_to(target)
        state.extend_to(LOOP_LENGTH)
        assert state.word == dense, plan
        state, chunks = GreedyState(exponent, mode), []
        for count in plan:
            chunks += state.extend(min(count, LOOP_LENGTH - len(state)))
        chunks += state.extend(LOOP_LENGTH - len(state))
        assert chunks == state.word == dense, plan


@pytest.mark.parametrize("kind", LOOP_RULES)
def test_loop_between_other_appends_reads_the_state_they_left(kind):
    # the loop keeps its state in locals and writes it back once: its
    # runs and kept periods are the ones the next call reads, be it the
    # loop again, one step(), an append or a scan, each of which may run
    # a refresh of its own, and the loop reads its need-0 window again
    # from the word at each call's start
    exponent, mode = LOOP_RULES[kind]
    _, dense = _loop_words(kind)
    first, step = mode.periods(exponent.q)
    idx = LceIndex(exponent.p, exponent.q, first=first, step=step)
    hit = idx.threshold_hit if mode is THRESHOLD else idx.exact_hit
    rng = random.Random(f"mixed/{kind}")
    while len(idx) < LOOP_LENGTH:
        n = len(idx)
        count = min(rng.choice([1, 2, 5, rng.randrange(400), rng.randrange(4_200)]), LOOP_LENGTH - n)
        route = rng.randrange(4)
        if route == 0:
            assert hit(count) == dense[n + count - 1], n
        elif route == 1:
            assert hit() == dense[n], n
        elif route == 2:
            for v in dense[n : n + count]:
                idx.append(v)
        else:
            assert idx.scan(dense[n : n + count]) is None, n
        assert len(idx) == n + (1 if route == 1 else count), n
        if route != 2 and len(idx) > n:
            # the loop and the scan leave the next refresh due no earlier than now
            assert idx._due >= len(idx), n
    assert idx.to_list() == dense


def test_extending_greedy_grows_by_the_word_alone():
    # the word is kept at 1 byte a letter, as w32's letters stay below 256:
    # extending w32 to 2 * 10**4 letters peaks at about 2.2 bytes a letter
    # above the state it started from (the word's spare room and a
    # refresh's copies), where 4 bytes a letter took 8.1 and a list of the
    # word 13.6
    state = GreedyState(E32, THRESHOLD)
    state.extend(100)  # warm up: the first masks and bands
    n = 20_000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state.extend_to(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.word == w32_prefix(n)
    assert peak - start <= 4 * n, (peak - start) / n


def test_loop_of_no_letters_appends_nothing():
    for exponent, mode in LOOP_RULES.values():
        state = GreedyState(exponent, mode)
        idx = state._idx
        assert idx.threshold_hit(0) is None and idx.exact_hit(0) is None and len(state) == 0
        assert state.extend(0) == [] and state.extend(300) == generate(exponent, mode, 300)
        assert idx.threshold_hit(0) is None and idx.exact_hit(0) is None
        assert state.extend(0) == [] and len(state) == 300
        state.extend_to(200)
        assert len(state) == 300
