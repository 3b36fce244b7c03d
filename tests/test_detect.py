import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexleast import detect
from lexleast.detect import (
    AvoidanceMode,
    LceIndex,
    contains_forbidden,
    forbidden_suffix,
)
from lexleast.formulas import w32_prefix, x32_prefix
from lexleast.greedy import GreedyState, generate
from lexleast.words import Exponent, Occurrence

import golden
import index_machine
import oracle

E32 = Exponent(3, 2)
THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT

words = st.lists(st.integers(0, 2), min_size=0, max_size=16)


def _mode_options(exponent, mode):
    """The discipline's rule as the options of ``LceIndex`` and of the dense
    table's ``blocked``: (p, q, strict, first period, step)."""
    return (exponent.p, exponent.q, False, *mode.periods(exponent.q))


def _mode_index(exponent, mode, letters=()):
    """An index of the discipline's rule, built on ``letters``."""
    return LceIndex(*_mode_options(exponent, mode), letters=letters)


def _mode_blocked(dense, exponent, mode):
    """The dense table's blocked map for the discipline's rule."""
    return dense.blocked(*_mode_options(exponent, mode))


def _hit(idx, mode):
    """Greedy's step by the name that greedy calls in ``mode``."""
    return (idx.threshold_hit if mode is THRESHOLD else idx.exact_hit)()


def _dense(word):
    """The dense run table of ``word``."""
    dense = oracle.DenseRunTable()
    for v in word:
        dense.append(v)
    return dense


def _least_missing(blocked):
    letter = 0
    while letter in blocked:
        letter += 1
    return letter


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
    # a one-shot iterator is scanned in one pass, and letters after the
    # violation are still checked
    assert contains_forbidden(iter([0, 0]), Exponent(2, 1)) == Occurrence(0, 1, 2)
    with pytest.raises(OverflowError):
        contains_forbidden(iter([0, 0, 1 << 31]), Exponent(2, 1))


def test_scan_witness_on_a_period_97_word_at_exponent_101():
    # over three letters, a band refresh meets many candidates that repeat
    # its filter letter; most differ at the last letter, which is compared
    # before the slices of the keep threshold
    rng = random.Random("period-97")
    word = ([rng.randrange(3) for _ in range(97)] * 196)[:19_000]
    assert contains_forbidden(word, Exponent(101, 1)) == Occurrence(0, 97, 9797)


def _w32_with_a_band_repeat():
    # w32[:200] with position 179 set to 5 repeats position 59 at period 120
    word = generate(E32, THRESHOLD, 200)
    word[179] = 5
    return word


@pytest.mark.parametrize(
    "word,expected",
    [
        ([0, 1, 0], Occurrence(0, 2, 3)),
        ([0, 1, 2, 0, 1], Occurrence(0, 3, 5)),
        (_w32_with_a_band_repeat(), Occurrence(0, 120, 180)),
    ],
    ids=["need 0", "run slot", "band [64, 128)"],
)
def test_scan_witness_from_each_place_of_the_smallest_period(word, expected):
    # a scan reads its smallest period from the need-0 bits, the run slots
    # or a band's kept periods; each witness is the oracle's for the first
    # forbidden prefix
    prefixes = (oracle.naive_forbidden_suffix(word[:k], E32, THRESHOLD) for k in range(1, len(word) + 1))
    first = next(occ for occ in prefixes if occ is not None)
    assert contains_forbidden(word, E32, THRESHOLD) == first == expected
    assert forbidden_suffix(word[: first.end], E32, THRESHOLD) == expected


def test_lce_index_append_pop():
    idx = LceIndex(3, 2)
    for v in [0, 1, 2, 0, 3]:
        idx.append(v)
    assert idx.to_list() == [0, 1, 2, 0, 3]
    assert idx.pop() == 3
    idx.append(1)
    assert idx.to_list() == [0, 1, 2, 0, 1]
    assert len(idx) == 5
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


def test_letters_must_be_integers():
    # a float is refused, not truncated; integers of any kind are read as ints
    with pytest.raises(TypeError):
        contains_forbidden([0.5, 0], Exponent(2, 1))
    with pytest.raises(TypeError):
        LceIndex(3, 2, letters=[0.5, 1.9])
    with pytest.raises(TypeError):
        forbidden_suffix([0, 1, 0.0], E32)
    word = np.array([0, 1, 2, 0, 1], dtype=np.int64)
    assert contains_forbidden(word, E32) == contains_forbidden(word.tolist(), E32) == Occurrence(0, 3, 5)
    assert forbidden_suffix(word, E32) == Occurrence(0, 3, 5)
    letters = LceIndex(3, 2, letters=word).to_list()
    assert letters == word.tolist() and {type(v) for v in letters} == {int}
    assert LceIndex(3, 2, letters=[True, False]).to_list() == [1, 0]


@pytest.mark.parametrize(
    "bad,error", [(0.0, TypeError), (-1, ValueError), (1 << 31, OverflowError)], ids=["float", "negative", "2**31"]
)
def test_scan_checks_every_letter_before_and_after_a_violation(bad, error):
    # the scan's inline test passes only ints in range; any other letter
    # goes to the same check as before, whether the scan is still stepping
    # or already past its first violation
    for word in ([0, 1, bad, 0, 1], [0, 1, 0, 1, 0, bad]):
        with pytest.raises(error):
            contains_forbidden(word, E32)
        with pytest.raises(error):
            contains_forbidden(iter(word), E32, EXACT)
    assert contains_forbidden([True, False, True], E32) == Occurrence(0, 2, 3)
    assert contains_forbidden([np.int64(0), True, np.int64(0), 1, False], Exponent(2, 1)) == Occurrence(0, 2, 4)
    # numpy's bool is no integer to operator.index, as before
    with pytest.raises(TypeError):
        contains_forbidden([0, 1, np.bool_(False)], E32)


def _random_word(rng):
    n = rng.randint(1, 40)
    alphabet = rng.choice(((0, 1), (0, 1, 2), (0, 1, 2, 3)))
    return [rng.choice(alphabet) for _ in range(n)]


def test_indexed_equals_direct_on_random_words():
    # 10_000 random words: the run-table detector and the oracle's direct
    # letter loops return identical witnesses in both modes
    rng = random.Random(20110118)
    for _ in range(10_000):
        word = _random_word(rng)
        for mode in (THRESHOLD, EXACT):
            assert forbidden_suffix(word, E32, mode) == oracle.naive_forbidden_suffix(word, E32, mode)


@given(
    st.lists(st.integers(0, 3), max_size=24),
    st.sampled_from([Exponent(4, 3), E32, Exponent(2, 1), Exponent(5, 2), Exponent(7, 4)]),
    st.sampled_from([THRESHOLD, EXACT]),
)
def test_blocked_letters_match_naive_oracle(word, exponent, mode):
    # a one-letter scan stops at every letter whose appending completes a
    # forbidden suffix, with the oracle's smallest period, and at no other
    expected = {}
    for m in range(max(word, default=-1) + 2):
        occ = oracle.naive_forbidden_suffix(word + [m], exponent, mode)
        if occ is not None:
            expected[m] = occ.period
    assert oracle.scan_map(_mode_index(exponent, mode, word), expected) == expected


@settings(max_examples=60)
@given(st.lists(st.one_of(st.none(), st.integers(0, 2)), max_size=60), st.integers(0, 40))
def test_dense_table_pop_equals_a_table_built_on_the_shorter_word(steps, periodic):
    # a letter appends and None pops, on a word that starts with a periodic
    # stretch so that pops break long runs: after every step each run, the
    # word and a blocked map equal those of a table built on the word
    word = [i % 3 for i in range(periodic)]
    dense = _dense(word)
    for step in steps:
        if step is None:
            if word:
                assert dense.pop() == word.pop()
        else:
            dense.append(step)
            word.append(step)
        built, n = _dense(word), len(word)
        assert len(dense) == n and dense._backwards().tolist() == word[::-1]
        assert dense.runs(np.arange(n + 1)).tolist() == built.runs(np.arange(n + 1)).tolist()
        assert dense.blocked(4, 3) == built.blocked(4, 3)
    with pytest.raises(IndexError):
        oracle.DenseRunTable().pop()


@given(
    st.lists(st.one_of(st.none(), st.integers(0, 2)), max_size=30),
    st.sampled_from([Exponent(4, 3), E32, Exponent(2, 1), Exponent(5, 2), Exponent(7, 4)]),
    st.sampled_from([THRESHOLD, EXACT]),
)
def test_run_table_follows_append_pop_walks(steps, exponent, mode):
    # a letter appends and None pops, on an index of the mode's rule and on
    # one of the overlap rule: after every step each run equals the direct
    # backward scan, the mode index's one-letter scans match the oracle, and
    # so do those of a fresh index built on the word
    idx, overlaps = _mode_index(exponent, mode), LceIndex(2, 1, strict=True)
    word = []
    for step in steps:
        if step is None:
            if word:
                assert idx.pop() == overlaps.pop() == word.pop()
        else:
            # appended to the overlap index by its one-letter scan, which
            # must name the dense table's smallest period; a blocked letter
            # is then appended plainly
            overlap = _dense(word).blocked(2, 1, strict=True).get(step)
            assert overlaps.scan((step,)) == overlap
            if overlap is not None:
                overlaps.append(step)
            idx.append(step)
            word.append(step)
        n = len(word)
        assert idx.to_list() == overlaps.to_list() == word
        for period in range(1, n + 1):
            assert detect._run(word, n, period, n) == oracle.lce_backward_scan(word, n - 1, n - 1 - period)
        expected = {}
        for m in range(max(word, default=-1) + 2):
            occ = oracle.naive_forbidden_suffix(word + [m], exponent, mode)
            if occ is not None:
                expected[m] = occ.period
        fresh = _mode_index(exponent, mode, word)
        assert oracle.scan_map(idx, expected) == oracle.scan_map(fresh, expected) == expected


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


def _tracked_witness(idx, mode, letter):
    """The E32 witness that appending ``letter`` to ``idx`` would complete,
    named by a one-letter scan of ``idx``, which is then put back."""
    period = oracle.scan_put_back(idx, letter)
    return None if period is None else detect._occurrence(idx.to_list(), E32, mode, period)


def test_detectors_against_oracle_small_exhaustive():
    # quick version of the full length-12 acceptance sweep; the third
    # verdict asks the index kept by appends and pops along the search, and
    # the fourth scans the whole word, whose proper prefixes are clean here,
    # so its witness is the suffix's
    for mode in (THRESHOLD, EXACT):
        idx = _mode_index(E32, mode)

        def track(word, idx=idx):
            # keep idx one letter behind the word
            while len(idx) > len(word) - 1:
                idx.pop()
            if len(idx) < len(word) - 1:
                idx.append(word[-2])

        visited, covered = oracle.ternary_suffix_agreement(
            7,
            (
                lambda w: oracle.naive_forbidden_suffix(w, E32, mode),
                lambda w: forbidden_suffix(w, E32, mode),
                lambda w: _tracked_witness(idx, mode, w[-1]),
                lambda w: contains_forbidden(w, E32, mode),
            ),
            on_node=track,
        )
        assert covered == (3**8 - 1) // 2


EXPONENTS = [Exponent(4, 3), E32, Exponent(5, 3), Exponent(2, 1), Exponent(5, 2), Exponent(7, 4), Exponent(3, 1), Exponent(5, 4)]


def _mode_rule(exponent, mode):
    """The discipline's rule as a ``_follow_dense`` rule: (options, name)."""
    return _mode_options(exponent, mode), f"{exponent} {mode.value}"


MODE_RULES = [_mode_rule(e, m) for e in EXPONENTS for m in (THRESHOLD, EXACT)]


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
@pytest.mark.parametrize("exponent", EXPONENTS, ids=str)
def test_witnesses_equal_naive_oracle_for_every_exponent(exponent, mode):
    # start, period and length, not the period alone: in exact mode the
    # length is period // q * p, in threshold mode period + run + 1.  Each
    # prefix of a seeded word goes to forbidden_suffix, the whole word to
    # contains_forbidden, whose witness is that of the first forbidden prefix
    rng = random.Random(f"witness/{exponent}/{mode.value}")
    found = 0
    for _ in range(60):
        word = _random_word(rng)
        first = None
        for k in range(1, len(word) + 1):
            expected = oracle.naive_forbidden_suffix(word[:k], exponent, mode)
            assert forbidden_suffix(word[:k], exponent, mode) == expected, word[:k]
            first = first or expected
        assert contains_forbidden(word, exponent, mode) == first, word
        found += first is not None
    assert found >= 10


# the x32 structure checks' rules: squares on roots from 2, overlaps
X32_RULES = [((2, 1, False, 2, 1), "2/1 from 2"), ((2, 1, True, 1, 1), "2/1 strict")]


def _tracked_state(idx):
    bands = [(band.periods, band.due) for band in idx._bands]
    return idx._masks, idx._runs, idx._kept, idx._due, bands


def _follow_dense(word, rules, seed, quiet=0):
    """Append ``word`` letter by letter to one ``LceIndex`` per rule, each
    built at the ``quiet``-th letter (or the first) on the letters so far,
    and to the dense run table; after every append from then on, each
    index's one-letter scans must name the period of the dense table's
    blocked map for its rule, for every letter that either could name
    (``oracle.scan_map``), and the run of a few seeded periods must be the
    dense table's.  A twin of each index, built with it and advanced by
    one-letter scans (and by ``append`` after a hit), must hold the masks,
    runs, kept list, next refresh and every band's periods and due, the
    waiting last band's included, of the index that ``append`` advances."""
    rng = random.Random(seed)
    dense, letters = oracle.DenseRunTable(), []
    indexes, twins = [], []
    for v in word:
        for twin in twins:
            if twin.scan((v,)) is not None:
                twin.append(v)
        for idx in indexes:
            idx.append(v)
        dense.append(v)
        letters.append(v)
        n = len(letters)
        if n < quiet:
            continue
        if not indexes:
            indexes = [LceIndex(*options, letters=letters) for options, _ in rules]
            twins = [LceIndex(*options, letters=letters) for options, _ in rules]
            built = n
        for (options, name), idx, twin in zip(rules, indexes, twins):
            oracle.check_masks(idx, built)
            assert _tracked_state(twin) == _tracked_state(idx), (name, n)
            blocked = dense.blocked(*options)
            assert oracle.scan_map(idx, blocked) == blocked, (name, n)
        for period in rng.sample(range(1, n + 1), min(n, 3)):
            assert detect._run(letters, n, period, n) == dense.run(period), (period, n)


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
@pytest.mark.parametrize("exponent", EXPONENTS + [Exponent(101, 100)], ids=str)
def test_blocked_maps_equal_dense_table_along_greedy_words(exponent, mode):
    # 101/100 passes its small-window bound S = 256 and opens its first
    # band, whose need is 2, at 258 letters (threshold) or 302 (exact)
    word = generate(exponent, mode, 3_000)
    _follow_dense(word, [_mode_rule(exponent, mode)], seed=3_000)




def _near_periodic(rng, n):
    """Repetitions of random blocks of 1 to 511 letters over a few hundred
    letters each, with a few letters changed: long runs for many periods,
    the worst case for a sparse tracker."""
    word = []
    while len(word) < n:
        block = [rng.randrange(3) for _ in range(int(2 ** rng.uniform(0, 9)))]
        word += block * max(2, rng.randrange(800) // len(block))
    word = word[:n]
    for _ in range(n // 100):
        word[rng.randrange(n)] = rng.randrange(4)
    return word


# every rule a scan asks: each test exponent in both modes, as
# (name, options of LceIndex, its greedy word), and the x32 checks'
SCAN_RULES = [
    *((f"{e} {m.value}", _mode_options(e, m), lambda n, e=e, m=m: generate(e, m, n))
      for e in EXPONENTS for m in (THRESHOLD, EXACT)),
    ("2/1 from 2", (2, 1, False, 2, 1), x32_prefix),
    ("2/1 strict", (2, 1, True, 1, 1), x32_prefix),
]


def _scan_word(kind, greedy, rng):
    """A seeded word of 4,500 letters: random over 2 to 64 letters,
    near-periodic, or the rule's greedy word with one letter past 4,097
    changed, lowered where it can be (which a greedy word's rule blocks)."""
    if kind == "random":
        alphabet = rng.choice((2, 3, 8, 64))
        return [rng.randrange(alphabet) for _ in range(4_500)]
    if kind == "near-periodic":
        return _near_periodic(rng, 4_500)
    word = greedy(4_500)
    pos = rng.randrange(4_100, 4_500)
    word[pos] = rng.randrange(word[pos]) if word[pos] else word[pos] + 1
    return word


def _extend_stops(idx, word, size):
    """``idx.scan`` over the letters of ``word`` past those ``idx`` holds,
    cut in chunks of ``size`` letters, each blocked letter then appended
    plainly and the chunk's scan resumed: the position and the period of
    every stop."""
    stops = []
    for k in range(len(idx), len(word), size):
        chunk = iter(word[k : k + size])
        while (period := idx.scan(chunk)) is not None:
            stops.append((len(idx), period))
            idx.append(word[len(idx)])
    assert idx.to_list() == word
    return stops


@pytest.mark.parametrize("kind", ["random", "near-periodic", "mutated greedy"])
@pytest.mark.parametrize("options,greedy", [r[1:] for r in SCAN_RULES], ids=[r[0] for r in SCAN_RULES])
def test_extend_stops_where_the_dense_table_blocks(options, greedy, kind):
    # the dense table, walked letter by letter, blocks a letter when its map
    # names it, with the smallest period named; the scan must stop at the
    # first such letter with that period, and at every later one once the
    # blocked letter is appended, fed whole, in chunks of 1, 7 and 4,097
    # letters, or fed whole past 2,000 letters given to the index when it
    # is built, of which it replays only the last; that index's one-letter
    # scans then name the dense map's periods
    word = _scan_word(kind, greedy, random.Random(f"extend/{options}/{kind}"))
    dense, expected = oracle.DenseRunTable(), []
    for i, v in enumerate(word):
        period = dense.blocked(*options).get(v)
        if period is not None:
            expected.append((i, period))
        dense.append(v)
    # a greedy word is clean under its own rule up to the changed letter
    assert kind != "mutated greedy" or all(i >= 4_100 for i, _ in expected)
    for size in (len(word), 1, 7, 4_097):
        assert _extend_stops(LceIndex(*options), word, size) == expected, size
    idx = LceIndex(*options, letters=word[:2_000])
    assert _extend_stops(idx, word, len(word)) == [(i, P) for i, P in expected if i >= 2_000]
    blocked = dense.blocked(*options)
    assert oracle.scan_map(idx, blocked) == blocked


@pytest.mark.parametrize("kind", ["random", "near-periodic"])
def test_blocked_maps_equal_dense_table_on_words_with_repetitions(kind):
    # scan-path words, far from power-free: every mode rule of every
    # exponent and both x32 structure rules, one index each
    rng = random.Random(f"dense/{kind}")
    if kind == "random":
        word = [rng.randrange(2) for _ in range(2_500)]
    else:
        word = _near_periodic(rng, 2_500)
    _follow_dense(word, MODE_RULES + X32_RULES, seed=kind)


def _follow_dense_past_the_window(exponent, mode, kind):
    # 2,500 letters of the greedy word, on which few periods ever repeat a
    # letter, or of a near-periodic word, on which many do
    if kind == "greedy":
        word = generate(exponent, mode, 2_500)
    else:
        word = _near_periodic(random.Random(f"dense/near-periodic/{exponent}"), 2_500)
    _follow_dense(word, [_mode_rule(exponent, mode)], seed=str(exponent))


@pytest.mark.parametrize("kind", ["greedy", "near-periodic"])
def test_blocked_maps_equal_dense_table_near_exponent_one(kind):
    # at 401/400 S = 1024, the first band [1024, 2048) has need 2, so it is
    # refreshed after every letter (L = 1), and the next opens at 2,053
    _follow_dense_past_the_window(Exponent(401, 400), THRESHOLD, kind)


@pytest.mark.parametrize("exponent,mode", [(Exponent(5, 4), EXACT), (Exponent(101, 100), THRESHOLD)], ids=["5/4 exact", "101/100"])
def test_blocked_maps_equal_dense_table_past_a_wide_window(exponent, mode):
    # S = 64 at 5/4 exact: the first band (periods 4t from 64, need 15) is
    # refreshed every 10 letters, and the bands open up to the one from 1024.
    # S = 256 at 101/100: the first band has need 2 and L = 1, and the
    # bands open up to the one from 2048.  Their greedy words are followed
    # by test_blocked_maps_equal_dense_table_along_greedy_words
    _follow_dense_past_the_window(exponent, mode, "near-periodic")


@pytest.mark.parametrize("kind", ["greedy", "near-periodic"])
def test_blocked_maps_equal_dense_table_past_an_empty_band(kind):
    # 1000/101 exact: S = 8 and the periods are 101t, so none lies below S
    # and the first band, [101, 128) with period 101 alone, opens at about
    # 999 letters
    _follow_dense_past_the_window(Exponent(1000, 101), EXACT, kind)


@pytest.mark.parametrize("kind", ["near-periodic", "w32"])
def test_blocked_maps_equal_dense_table_when_first_asked_on_a_long_word(kind):
    # every index is built on 1,500 letters, so one refresh opens its
    # small periods (each with the run it already has) and its first bands
    if kind == "w32":
        word = generate(E32, THRESHOLD, 2_500)
    else:
        word = _near_periodic(random.Random("late/near-periodic"), 2_500)
    _follow_dense(word, MODE_RULES + X32_RULES, seed=kind, quiet=1_500)


@pytest.mark.parametrize("kind", ["greedy threshold", "greedy exact", "near-periodic", "period 30"])
@pytest.mark.parametrize("exponent", [Exponent(6, 1), Exponent(11, 2)], ids=str)
def test_blocked_maps_equal_dense_table_above_exponent_five(exponent, kind):
    # S = 16 at both, and the bits hold every period below it, of needs up
    # to 74 at 6/1; 30 distinct letters repeated make 30, in the first band
    # [16, 32), the smallest blocking period
    rng = random.Random(f"dense/{exponent}")
    if kind == "near-periodic":
        word = _near_periodic(rng, 2_000)
    elif kind == "period 30":
        word = rng.sample(range(100), 30) * 67
        for _ in range(5):
            word[rng.randrange(2_000)] = 100
    else:
        word = generate(exponent, THRESHOLD if kind == "greedy threshold" else EXACT, 2_000)
    _follow_dense(word, [_mode_rule(exponent, m) for m in (THRESHOLD, EXACT)], seed=kind)


def test_large_exponent_keeps_no_run_slots():
    # at 1000/1 even period 1 needs a run of 998, so S = 1: no period lies
    # below S, every period is in the bands, and the cost of an index does
    # not grow with its needs
    exponent = Exponent(1000, 1)
    assert generate(exponent, THRESHOLD, 500) == [0] * 500
    idx, blocked = _mode_index(exponent, EXACT, [0] * 500), _dense([0] * 500).blocked(*_mode_options(exponent, EXACT))
    assert oracle.scan_map(idx, blocked) == blocked == {}
    assert idx._runs == idx._needmask == 0


def test_bits_hold_every_period_below_S_and_the_bands_start_at_S():
    # one rule sets the boundary: every period below S sits in the bits, in
    # run slot need(P), the first band starts at the least period at or
    # above S, and the run slots stay within 2048 + S bits unless S was
    # doubled past need(S // 2) < 1.  Every p/q with q <= 12 and
    # 1 < p/q <= 8 in both modes, and a few rules off that grid
    grid = [(p, q, False, *mode.periods(q)) for q in range(1, 13) for p in range(q + 1, 8 * q + 1)
            if math.gcd(p, q) == 1 for mode in (THRESHOLD, EXACT)]
    others = [(2, 1, True, 1, 1), (2, 1, False, 2, 1), (101, 100, False, 1, 1), (401, 400, False, 1, 1),
              (1000, 101, False, 101, 101), (1000, 1, False, 1, 1)]
    sizes = {}
    for p, q, strict, first, step in grid + others:
        idx = LceIndex(p, q, strict, first, step)
        S, below = idx._size, range(first, idx._size, step)
        bits = [k for k in range(idx._needmask.bit_length()) if idx._needmask >> k & 1]
        assert bits == sorted(idx.need(P) * S + P for P in below), (p, q, strict, first)
        assert idx._bands[0].periods.start == (below[-1] + step if below else first), (p, q, strict, first)
        if below:
            assert S * idx.need(below[-1]) <= 2048 or idx.need(S // 2) < 1, (p, q, strict, first)
        sizes[p, q, first] = S
    assert (sizes[5, 1, 1], sizes[11, 2, 2], sizes[1000, 101, 101], sizes[1000, 1, 1]) == (16, 16, 8, 1)


def test_blocked_maps_equal_dense_table_for_x32_checks():
    _follow_dense(x32_prefix(3_000), X32_RULES, seed=32)


def test_blocked_maps_equal_dense_table_over_a_wide_alphabet():
    # letters from range(1000), with factors copied from 1 to 600 letters
    # back, two thirds of them from just below or above S = 32 (the 2/1
    # rules) or S = 64 (the 3/2 rules): many letter masks enter and leave
    # the window, while planted periods reach their needs
    rng = random.Random("dense/wide")
    word = []
    while len(word) < 2_000:
        back = rng.choice((rng.randint(28, 35), rng.randint(60, 67), rng.randint(1, 600)))
        if back <= len(word):
            word += [word[-back + i % back] for i in range(rng.randint(back // 2, 2 * back))]
        word += [rng.randrange(1000) for _ in range(rng.randint(1, 30))]
    _follow_dense(word[:2_000], MODE_RULES + X32_RULES, seed="wide")


# letters whose 4-byte encodings line up across letter boundaries: read 1
# to 3 bytes into a word of them, the bytes often spell letters of the set
# again (little-endian, those of 256, 0 hold those of 1 one byte in), so a
# band's bytes search meets matches that start inside a letter
ALIGNING = (0, 1, 255, 256, 65536, 1 << 24, 0x01010101, (1 << 31) - 1)


def _aligning_word(rng, n, S):
    """``n`` letters of ALIGNING, with copies planted from 1 to 3 letters on
    either side of S and of 2S back, each of a third to all of its period;
    half of them are read 1 to 3 bytes into the letters they copy (bit 31
    dropped), so a later search meets their bytes inside the letters of
    the copied ones."""
    word = []
    while len(word) < n:
        back = rng.choice((S, 2 * S)) + rng.choice((-3, -2, -1, 1, 2, 3))
        if back <= len(word):
            copy = [word[-back + i % back] for i in range(rng.randint(back // 3, back))]
            if rng.random() < 0.5:
                skip = rng.randint(1, 3)
                copy = [v & 0x7FFFFFFF for v in array("I", array("I", copy).tobytes()[skip:] + bytes(skip))]
            word += copy
        word += [rng.choice(ALIGNING) for _ in range(rng.randint(1, 8))]
    return word[:n]


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
@pytest.mark.parametrize("exponent,S", [(E32, 64), (Exponent(101, 100), 256)], ids=["3/2", "101/100"])
def test_blocked_maps_equal_dense_table_on_letters_that_align_across_bytes(exponent, S, mode):
    # a match of the band search one to three bytes into a letter names a
    # period whose whole keep threshold must then reject it
    assert LceIndex(*_mode_options(exponent, mode))._size == S
    word = _aligning_word(random.Random(f"aligning/{exponent}/{mode.value}"), 3 * S + 200, S)
    _follow_dense(word, [_mode_rule(exponent, mode)], seed=f"aligning/{exponent}")


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
def test_blocked_maps_equal_dense_table_on_squares_of_letters_that_align_across_bytes(mode):
    # 90 letters of the greedy 2/1 word written in ALIGNING, then a copy of
    # its last ``back`` letters, which completes a square of period back:
    # periods on either side of S = 32 and of 2S
    exponent = Exponent(2, 1)
    base = [ALIGNING[v] for v in generate(exponent, THRESHOLD, 90)]
    for back in (29, 35, 61, 67):
        _follow_dense(base + base[-back:], [_mode_rule(exponent, mode)], seed=f"aligning/squares/{back}")


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
def test_letter_masks_stay_within_the_window(mode):
    # along 10**4 distinct letters the live masks are exactly those of the
    # last S - 1 letters, and at most 2S masks are held: a mask whose letter
    # left the window reads 0 until a purge drops it; only the last two
    # letters can be blocked
    idx = _mode_index(E32, mode)
    for v in range(10_000):
        assert set(oracle.scan_map(idx, {})) <= {v - 1, v - 2}
        idx.append(v)
        oracle.check_masks(idx)
    # so does one scan loop over them, which adds and drops the masks itself
    idx = _mode_index(E32, mode)
    assert idx.scan(range(10_000)) is None
    oracle.check_masks(idx)


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
def test_letter_masks_stay_within_the_window_along_greedy_steps(mode):
    # distinct letters appended between greedy steps: half of them leave the
    # window at a step, whose new letters must purge as an append does
    idx = _mode_index(E32, mode)
    for v in range(5_000):
        idx.append(10_000 + v)
        _hit(idx, mode)
        oracle.check_masks(idx)


@pytest.mark.parametrize("mode", [THRESHOLD, EXACT], ids=["threshold", "exact"])
def test_stale_masks_are_purged_at_most_once_per_S_new_letters(mode):
    # 10**4 distinct letters, scanned, with a greedy step after every 50th:
    # a new letter that finds 2S masks drops the stale ones, leaving the
    # masks of the last S letters, its own included; so after the new
    # letter that purges, S more come before the next purge
    idx = _mode_index(E32, mode)
    S, new, purges = idx._size, 0, []
    for v in range(10_000):
        for greedy in (False, True)[: 1 + (v % 50 == 49)]:
            held = set(idx._masks)
            if greedy:
                _hit(idx, mode)
            else:
                assert idx.scan((10_000 + v,)) is None
            if held - idx._masks.keys():
                assert len(held) == 2 * S, len(idx)
                assert idx._masks.keys() == set(idx._word[-S:]), len(idx)
                purges.append(new)
            new += idx._word[-1] not in held
            oracle.check_masks(idx)
    assert all(b - a > S for a, b in zip(purges, purges[1:])), purges
    assert len(purges) >= new // (2 * S), (len(purges), new)


@pytest.mark.parametrize(
    "exponent,mode", [(E32, THRESHOLD), (E32, EXACT), (Exponent(2, 1), THRESHOLD)], ids=["w32", "x32", "ruler"]
)
def test_tracked_periods_stay_logarithmic_along_greedy(exponent, mode):
    # the periods kept above the small dense window, right after each query
    # (when a refresh may just have filled them), stay at or below log2 n
    state = GreedyState(exponent, mode)
    while len(state) < 20_000:
        oracle.refresh(state._idx)
        kept = len(state._idx._kept)
        assert kept <= math.log2(max(len(state), 1)), (len(state), kept)
        state.step()


@pytest.mark.parametrize("exponent,mode", [(E32, THRESHOLD), (E32, EXACT)], ids=["w32", "x32"])
def test_kept_periods_average_at_most_one_and_a_half_per_query_along_greedy(exponent, mode):
    # a band keeps only the periods that can block before its next refresh,
    # about one per query on these words (three before that keep rule)
    state = GreedyState(exponent, mode)
    kept = 0
    while len(state) < 20_000:
        oracle.refresh(state._idx)
        kept += len(state._idx._kept)
        state.step()
    assert kept / 20_000 <= 1.5


GREEDY_KINDS = {
    "w32": (E32, THRESHOLD),
    "x32": (E32, EXACT),
    "ruler": (Exponent(2, 1), THRESHOLD),
    "5/4 exact": (Exponent(5, 4), EXACT),
}


def _after_each_query(kind, check):
    """``check(idx, dense)`` right after each query along 3,000 letters of a
    greedy word, on an index of its own rule, or of a near-periodic word, on
    one index for each mode and x32 rule; ``dense`` is the dense run table
    of the same word."""
    dense = oracle.DenseRunTable()
    if kind == "near-periodic":
        indexes = [LceIndex(*options) for options, _ in MODE_RULES + X32_RULES]
        for v in _near_periodic(random.Random("kept/near-periodic"), 3_000):
            for idx in indexes:
                oracle.refresh(idx)
                check(idx, dense)
                idx.append(v)
            dense.append(v)
        return
    state = GreedyState(*GREEDY_KINDS[kind])
    while len(state) < 3_000:
        oracle.refresh(state._idx)
        check(state._idx, dense)
        dense.append(state.step())


@pytest.mark.parametrize(
    "exponent,mode,length",
    [(E32, THRESHOLD, 20_000), (E32, EXACT, 20_000), (Exponent(11, 2), EXACT, 20_000),
     (Exponent(1000, 101), EXACT, 20_000), (Exponent(401, 400), THRESHOLD, 10_000)],
    ids=["w32", "x32", "11/2 exact", "1000/101 exact", "401/400"],
)
def test_bands_tile_the_periods_above_the_bits_along_greedy_words(exponent, mode, length):
    # after each query the bands run from the least period at or above S
    # (16 at 11/2 exact, where S = 16) with no gap, each from one step past
    # the last period of the band before it to the first S * 2**k, k >= 1,
    # above its first period (at 1000/101 exact, whose periods are 101t,
    # [101, 128) and then [202, 256)), so none is empty.
    # Every band but the last has opened, P + need(P) <= n, and is due again
    # within L letters; the last waits until P + need(P)
    state = GreedyState(exponent, mode)
    idx = state._idx
    S, (start, step) = idx._size, mode.periods(exponent.q)
    while start < S:
        start += step
    while len(state) < length:
        oracle.refresh(idx)
        n, bands, P = len(idx), idx._bands, start
        for band in bands:
            end = 2 * S
            while end <= P:
                end *= 2
            assert band.periods and band.periods == range(P, end, step), (n, band.periods)
            P = band.periods[-1] + step
            opening = band.periods[0] + idx.need(band.periods[0])
            if band is bands[-1]:
                assert band.due == opening > n, (n, band.periods)
            else:
                assert opening <= n < band.due <= n + band.every, (n, band.periods)
        state.step()
    assert len(idx._bands) >= 4


def _assert_kept_ascending(idx, dense):
    periods = [P for P, _ in idx._kept]
    assert all(a < b for a, b in zip(periods, periods[1:])), (len(idx), periods)


@pytest.mark.parametrize("kind", ["w32", "x32", "5/4 exact", "near-periodic"])
def test_kept_periods_stay_strictly_ascending(kind):
    # a refresh finds each band's slice of the kept list by bisection and
    # replaces it, which holds only while the list is strictly ascending in P
    _after_each_query(kind, _assert_kept_ascending)


def _assert_kept_exactly_the_periods_that_can_block(idx, dense):
    # a run grows by one letter at most per append, so P can block before
    # its band's next refresh, at length due, exactly when
    # need(P) - run(P) < due - n, i.e. q * (run(P) + due - n - 1) >= X with
    # X = (p - q) * P - q (+1 when strict), as need(P) is the least r with
    # q * r >= X.  Every band period's run comes from the dense table
    # (detect._run on each would take millions of calls), the kept
    # periods' from detect._run as well
    n, (p, q, strict, _, _) = len(idx), idx._args
    kept = dict(idx._kept)
    for band in idx._bands:
        periods = np.arange(band.periods.start, min(band.periods.stop, n + 1), band.periods.step)
        reach = dense.runs(periods) + (band.due - n - 1)
        can_block = q * reach >= (p - q) * periods - q + strict
        assert set(periods[can_block].tolist()) == {P for P in kept if P in band.periods}, (n, band.periods)
    for P, at in kept.items():
        need, run = idx.need(P), detect._run(idx._word, n, P, n)
        assert run == dense.run(P), (n, P)
        # P blocks from length at on; _run stops at need(P), so at is
        # exact only while P does not block yet: n + need(P) - run(P)
        assert (at <= n) == (run >= need), (n, P, at)
        assert run >= need or at - n == need - run, (n, P, at)


@pytest.mark.parametrize("kind", [*GREEDY_KINDS, "near-periodic"])
def test_kept_periods_are_exactly_those_that_can_block_before_the_next_refresh(kind):
    _after_each_query(kind, _assert_kept_exactly_the_periods_that_can_block)


def test_small_window_opens_with_the_word_near_exponent_one():
    # at 401/400 the small window ends at S = 1024; along 300 greedy letters
    # no letter mask names a period longer than the word, and no run slot k
    # a period above n - k, as run(P) <= n - P
    state = GreedyState(Exponent(401, 400), THRESHOLD)
    while len(state) < 300:
        oracle.refresh(state._idx)
        idx = state._idx
        n, S, ones = len(state), idx._size, idx._ones
        for m, at in idx._masks.values():
            assert (m << (n - at) & ones) >> (n + 1) == 0, n
        for k in range(1, idx._runs.bit_length() // S + 1):
            assert (idx._runs >> (k * S) & ones) >> (n - k + 1) == 0, n
        state.step()


# (name, options of LceIndex, S, the largest period below S, its need K)
REPLAYED_RULES = [
    ("3/2 threshold", (3, 2), 64, 63, 31),
    ("3/2 exact", (3, 2, False, 2, 2), 64, 62, 30),
    ("5/4 exact", (5, 4, False, 4, 4), 64, 60, 14),
    ("7/4 exact", (7, 4, False, 4, 4), 32, 28, 20),
    ("2/1 from 2", (2, 1, False, 2), 32, 31, 30),
    ("2/1 strict", (2, 1, True), 32, 31, 31),
    ("101/100 threshold", (101, 100), 256, 255, 2),
    ("401/400 threshold", (401, 400), 1024, 1023, 2),
]


@pytest.mark.parametrize("kind", ["periodic", "near-periodic"])
@pytest.mark.parametrize("options,S,top,need", [r[1:] for r in REPLAYED_RULES], ids=[r[0] for r in REPLAYED_RULES])
def test_first_query_on_a_word_replays_enough_letters(options, S, top, need, kind):
    # an index built at length n rebuilds its bits from the last
    # top + need(top) letters; at every length up to S + K + 2 the
    # one-letter scans of a fresh index, the first of them its first query,
    # name the periods of the dense table's blocked map.  The periodic
    # word repeats ``top`` distinct letters, so run(top) reaches its need
    # and top is the smallest period blocking its letter.
    rng = random.Random(f"replay/{top}/{kind}")
    size = S + need + 2
    if kind == "periodic":
        word = (rng.sample(range(2048), top) * 3)[:size]
    else:
        word = _near_periodic(rng, size)
    dense = oracle.DenseRunTable()
    for n in range(size + 1):
        idx = LceIndex(*options, letters=word[:n])
        blocked = dense.blocked(*options)
        assert oracle.scan_map(idx, blocked) == blocked, n
        if n < size:
            dense.append(word[n])
    assert idx._size == S


def test_blocked_rejects_rules_it_cannot_track():
    # need(P) is 0 for every P when p <= q, so no small-window bound exists;
    # a first period or a step below 1 names no periods: the index refuses
    # such a rule when it is built, with or without letters
    for p, q, options in [(2, 2, {}), (1, 2, {}), (3, 0, {}), (3, 2, {"first": 0}), (3, 2, {"step": 0})]:
        with pytest.raises(ValueError):
            LceIndex(p, q, **options, letters=[0, 1, 0])
    with pytest.raises(ValueError):
        LceIndex(2, 2)
    blocked = _dense([0, 1, 0]).blocked(3, 2)
    assert oracle.scan_map(LceIndex(3, 2, letters=[0, 1, 0]), blocked) == blocked == {0: 1, 1: 2}


def test_blocked_strict_rule_is_keyed_and_built_alike():
    # the rule is built from bool(strict), whatever strict is given as
    blocked = _dense([0, 1, 2, 0]).blocked(3, 2, strict=True)
    assert oracle.scan_map(LceIndex(3, 2, strict=2, letters=[0, 1, 2, 0]), blocked) == blocked == {0: 1, 1: 3}


# the greedy step: threshold_hit / exact_hit append the least letter that
# no period blocks, read as the lowest clear bit of one int

def _dense_least(dense, exponent, mode):
    first, step = mode.periods(exponent.q)
    return dense.least_free(exponent.p, exponent.q, first=first, step=step)


STEP_RULES = [(e, m) for e in EXPONENTS + [Exponent(101, 100)] for m in (THRESHOLD, EXACT)]


@pytest.mark.parametrize("exponent,mode", STEP_RULES, ids=[f"{e} {m.value}" for e, m in STEP_RULES])
def test_greedy_step_appends_the_dense_tables_least_free_letter(exponent, mode):
    # along 2,000 letters of the greedy word that the step itself builds;
    # from three need-0 periods on (4/3, 5/4, 101/100 threshold) the step
    # keeps their letters in a window that each step follows
    idx, dense = _mode_index(exponent, mode), oracle.DenseRunTable()
    for n in range(2_000):
        letter = _dense_least(dense, exponent, mode)
        assert _hit(idx, mode) == letter, n
        dense.append(letter)
    assert idx.to_list() == generate(exponent, mode, 2_000)


def test_greedy_step_equals_the_dense_table_near_exponent_one():
    # 4097/4096: S = 8192, the 4,096 need-0 periods block the letters of
    # the last 4,096 positions, and from 4,098 letters on period 4,097 one
    # more, so the word takes the letters 0..4,097
    exponent, idx, dense = Exponent(4097, 4096), LceIndex(4097, 4096), oracle.DenseRunTable()
    for n in range(4_300):
        letter = dense.least_free(exponent.p, exponent.q)
        assert idx.threshold_hit() == letter, n
        dense.append(letter)
    assert max(idx.to_list()) == 4_097


@pytest.mark.parametrize("kind", ["random", "near-periodic"])
def test_greedy_step_on_a_word_first_asked_at_each_length(kind):
    # an index built on w[:k] replays only its last letters, so the need-0
    # window is read from the word, not followed
    rng = random.Random(f"step/{kind}")
    word = [rng.randrange(3) for _ in range(1_500)] if kind == "random" else _near_periodic(rng, 1_500)
    dense = oracle.DenseRunTable()
    lengths = {*range(70), *range(70, 1_501, 61), 1_500}
    for k in range(1_501):
        if k in lengths:
            for exponent, mode in STEP_RULES:
                letter = _dense_least(dense, exponent, mode)
                assert _hit(_mode_index(exponent, mode, word[:k]), mode) == letter, (k, exponent, mode)
        if k < 1_500:
            dense.append(word[k])


def test_greedy_steps_mixed_with_other_appends_on_one_index():
    # one index per greedy rule, three ways to append: plain appends and
    # scans of one to four letters leave the step's need-0 window stale, so
    # the next greedy step reads it again
    rng = random.Random("step/mixed")
    for exponent, mode in [(Exponent(101, 100), THRESHOLD), (Exponent(4, 3), THRESHOLD), (E32, THRESHOLD), (E32, EXACT)]:
        idx, dense, word = _mode_index(exponent, mode), oracle.DenseRunTable(), []
        for i in range(1_000):
            kind = rng.randrange(3)
            if kind == 0:
                letter = rng.randrange(4)
                idx.append(letter)
            elif kind == 1:
                period = None
                letters = [rng.randrange(4) for _ in range(rng.randint(1, 4))]
                for letter in letters:
                    period = _mode_blocked(dense, exponent, mode).get(letter)
                    if period is not None:
                        break
                    dense.append(letter)
                    word.append(letter)
                assert idx.scan(letters) == period, (exponent, mode, i)
                continue
            else:
                letter = _dense_least(dense, exponent, mode)
                assert letter == _least_missing(_mode_blocked(dense, exponent, mode)), (exponent, mode, i)
                assert _hit(idx, mode) == letter, (exponent, mode, i)
            dense.append(letter)
            word.append(letter)
        assert idx.to_list() == word


@pytest.mark.parametrize("prefix, mode, times, typecode", [(w32_prefix, THRESHOLD, 257, "H"), (x32_prefix, EXACT, 65537, "I")])
def test_scan_widens_partway_through_a_long_word(prefix, mode, times, typecode):
    # 5,000 letters of the word and then 5,000 more times ``times``: only 0
    # keeps its value, so equal letters stay equal and the word stays clean.
    # One scan widens at letter 5,000 while bands keep periods, and it must
    # go on reading and appending to the wide word.  With a letter set to 0
    # past the switch, the verdict rests on which letters are equal alone,
    # so it must equal that of the word renamed by rank into 1-byte letters
    word = prefix(10_000)
    word[5_000:] = [v * times for v in word[5_000:]]
    idx = _mode_index(E32, mode)
    assert idx.scan(iter(word)) is None
    assert idx._word.typecode == typecode and idx.to_list() == word
    for at in (5_001, 6_000, 7_500, 9_999):
        bad = list(word)
        bad[at] = 0
        rank = {v: i for i, v in enumerate(sorted(set(bad)))}
        renamed = [rank[v] for v in bad]
        wide, narrow = _mode_index(E32, mode), _mode_index(E32, mode)
        assert (wide.scan(iter(bad)), len(wide)) == (narrow.scan(iter(renamed)), len(narrow)), at
        assert narrow._word.typecode == "B" and wide.to_list() == bad[: len(wide)]
        assert contains_forbidden(bad, E32, mode) == contains_forbidden(renamed, E32, mode)


def test_greedy_step_after_letters_near_the_width():
    # letters up to 2**31 - 1 sit among the blocked ones, yet the step's int
    # holds only the letters below S: a wider one would take 256 MiB
    import tracemalloc

    top = (1 << 31) - 1
    word = [top, top - 1, 0, top, top - 1, 1, top, 2]
    for exponent, mode in [(E32, THRESHOLD), (E32, EXACT), (Exponent(4, 3), THRESHOLD), (Exponent(101, 100), THRESHOLD)]:
        idx, dense = _mode_index(exponent, mode, word), oracle.DenseRunTable()
        for v in word:
            dense.append(v)
        tracemalloc.start()
        for n in range(150):
            letter = _dense_least(dense, exponent, mode)
            assert _hit(idx, mode) == letter, (exponent, mode, n)
            dense.append(letter)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20, (exponent, mode, peak)


def _with_kept_periods(idx, periods):
    """``idx``, refreshed, with ``periods`` kept by hand, each blocking from
    length 0 on, and no refresh due."""
    oracle.refresh(idx)
    idx._kept, idx._due = [(P, 0) for P in periods], 10**9
    return idx


def test_greedy_step_when_every_letter_below_S_is_blocked():
    # periods below S block at most S - 1 letters, so only kept periods can
    # block every letter below S; kept by hand here, they block the letters
    # 0..136 of range(200) at 3/2, and the need-0 periods 1 and 2 the last
    # two: the step's int reaches past S = 64 to the least letter left free
    idx = _with_kept_periods(LceIndex(3, 2, letters=range(200)), range(64, 201))
    scans = oracle.scan_map(idx, {})
    assert idx._size == 64 and scans == {**{v: 200 - v for v in range(137)}, 198: 2, 199: 1}
    assert idx.threshold_hit() == _least_missing(scans) == 137
    assert idx.to_list() == [*range(200), 137]


def test_greedy_step_reads_the_window_past_S_when_every_letter_below_S_is_blocked():
    # at 4/3 the need-0 periods 1..3 block the last three letters, which the
    # step's window keeps only below S = 64; with the letters 0..136 blocked
    # by kept periods, the step must read 137..139 from the word, or it
    # would append 137
    idx = _with_kept_periods(LceIndex(4, 3, letters=[*range(197), 137, 138, 139]), range(64, 201))
    scans = oracle.scan_map(idx, {})
    assert (idx._size, idx._window) == (64, 3)
    assert scans == {**{v: 200 - v for v in range(137)}, 137: 3, 138: 2, 139: 1}
    assert idx.threshold_hit() == _least_missing(scans) == 140
    assert idx.to_list() == [*range(197), 137, 138, 139, 140]


def test_index_follows_the_dense_table_in_any_order_of_calls():
    # the stateful machine of tests/index_machine.py from a fixed seed:
    # appends, scans, greedy's loop, rebuilds and pops in the orders that
    # hypothesis draws, at rules from 3/2 to 401/400 and letters on either
    # side of each width; CI runs a larger profile
    index_machine.run(50, 20)
