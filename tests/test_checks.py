import json
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexleast import checks
from lexleast.checks import (
    SOURCES,
    CheckReport,
    Violation,
    check_b_inequality,
    check_b_window,
    check_cross,
    check_ell_claim,
    check_eq6_intervals,
    check_minimality,
    check_powerfree,
    check_x_overlapfree,
    check_x_squares,
)
from lexleast.detect import AvoidanceMode
from lexleast.formulas import b_rec, w32_prefix, x32_prefix
from lexleast.greedy import GreedyState
from lexleast.words import Exponent

import oracle

E32 = Exponent(3, 2)
THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT


def test_powerfree_passes_on_canonical_sources():
    for source in ("w32", "x32", "ruler", "w32-morphic", "x32-morphic"):
        report = check_powerfree(source, length=1_500)
        assert report.passed, report.summary()


def test_powerfree_unknown_source():
    with pytest.raises(ValueError):
        check_powerfree("nope", length=10)


def test_powerfree_fails_with_witness():
    report = check_powerfree([0, 1, 0, 1], exponent=E32, mode=THRESHOLD, length=10)
    assert not report.passed
    assert report.violation is not None
    assert report.violation.kind == "forbidden-factor"
    assert report.violation.position == 2  # 010 ends at position 2
    assert report.violation.detail == {"start": 0, "period": 2, "length": 3}


def test_minimality_passes_small():
    assert check_minimality("w32", length=400).passed
    assert check_minimality("x32", length=400).passed


def test_minimality_constant_zero_fails_at_one():
    report = check_minimality([0, 0, 0], exponent=E32, mode=THRESHOLD, length=3)
    assert not report.passed
    assert report.violation is not None
    assert report.violation.kind == "source-not-clean"
    assert report.violation.position == 1


def test_minimality_catches_inflated_letter():
    # bump one letter of the least word: the bumped position now admits a
    # smaller clean choice, namely the original letter
    word = SOURCES["w32"].make(50)
    original = word[4]
    word[4] += 1
    report = check_minimality(word, exponent=E32, mode=THRESHOLD, length=50)
    assert not report.passed
    assert report.violation is not None
    assert report.violation.kind == "decrement-survives"
    assert report.violation.position == 4
    assert report.violation.detail == {"letter": original + 1, "decremented_to": original}


def test_minimality_report_counts_decrements():
    # a passing position verifies every smaller letter
    for source, make in (("w32", w32_prefix), ("x32", x32_prefix)):
        report = check_minimality(source, length=400)
        assert report.passed
        assert report.extras["decrements_verified"] == sum(make(400))


@pytest.mark.parametrize("position", [4095, 4096, 4097, 5001])
@pytest.mark.parametrize("mode,make", [(THRESHOLD, w32_prefix), (EXACT, x32_prefix)], ids=["w32", "x32"])
def test_minimality_reports_a_change_past_the_first_chunk(mode, make, position):
    # greedy is compared with the source a chunk of 4,096 letters at a time:
    # a raised letter is a surviving decrement and a lowered one a source
    # letter that is blocked, at its position in the word, and the
    # decrements counted are min(greedy, source) up to and including it
    word = make(6_000)
    for delta, kind in ((1, "decrement-survives"), (-1, "source-not-clean")):
        if word[position] + delta < 0:
            continue
        changed = [*word[:position], word[position] + delta, *word[position + 1 :]]
        report = check_minimality(changed, exponent=E32, mode=mode, length=6_000)
        assert (report.violation.kind, report.violation.position) == (kind, position)
        assert report.extras["decrements_verified"] == sum(word[:position]) + min(word[position], changed[position])


def test_cross_small():
    assert check_cross(length=300).passed


@pytest.mark.parametrize("route", ["greedy", "closed", "morphic"])
def test_cross_reports_the_first_tampered_letter(monkeypatch, route):
    # one route of the exact discipline gains 1 at letter 777 of x32
    if route == "greedy":
        # cross reads greedy a chunk at a time, through GreedyState.extend
        extend = GreedyState.extend

        def tampered(self, count):
            start, chunk = len(self), extend(self, count)
            if self.mode is EXACT and start <= 777 < len(self):
                chunk[777 - start] += 1
            return chunk

        monkeypatch.setattr(GreedyState, "extend", tampered)
    elif route == "closed":
        monkeypatch.setattr(checks, "f_term", lambda n, f=checks.f_term: f(n) + (n == 777))
    else:
        stream = checks.x32_stream
        monkeypatch.setattr(checks, "x32_stream", lambda: (v + (i == 777) for i, v in enumerate(stream())))
    letter = x32_prefix(778)[777]
    detail = {"variant": "exact", "greedy": letter, "closed": letter, "morphic": letter, route: letter + 1}
    assert check_cross(length=1_000).violation == Violation("generator-mismatch", 777, detail)
    assert check_cross(length=777).passed


def test_cross_holds_only_greedy_word():
    # the three routes are zipped letter by letter: no prefix of any route
    # is built as a list beside greedy's own word, kept at 1 byte a letter
    # (about 9.5 bytes a letter in all at 5,000 letters; 12.1 at 4 bytes)
    check_cross(length=100)  # warm up: imports, caches
    tracemalloc.start()
    try:
        check_cross(length=5_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 5_000, peak


def test_ell_claim_small():
    report = check_ell_claim(n_max=250)
    assert report.passed
    assert report.extras["verified"] > 0
    # the three short length classes all occur this early
    assert set(report.extras["by_ell"]) >= {"30", "60", "180"}


def test_ell_witness_spot_values():
    # b(17) = 7; decrementing position 179 to 6 leaves an xyx with |x| = 30
    # ending there, and decrementing to 5 one with |x| = 60
    assert b_rec(17) == 7
    word = SOURCES["w32"].make(180)
    for m, ell in ((6, 30), (5, 60)):
        mutated = word[:179] + [m]
        window = mutated[180 - 3 * ell :]
        assert all(window[i] == window[i + 2 * ell] for i in range(ell)), (m, ell)


@pytest.mark.parametrize("pos", [0, 88], ids=["left-end", "right-end"])
def test_ell_claim_reports_a_broken_witness(monkeypatch, pos):
    # the first decrement with a whole window: b(8) = 6 decremented to 5 at
    # position 89, ell = 30, so word[0:29] is compared with word[60:89]
    real = checks.w32_prefix

    def mutated(n):
        word = real(n)
        word[pos] += 1
        return word

    monkeypatch.setattr(checks, "w32_prefix", mutated)
    report = check_ell_claim(n_max=8)
    assert report.violation == Violation("decrement-witness-broken", 89, {"n": 8, "m": 5, "ell": 30})


def _plant_b(monkeypatch, values):
    """Make ``checks`` read b from the real table with ``values`` (index ->
    value) planted wherever the table reaches."""
    real = checks.b_prefix

    def planted(n):
        bs = real(n)
        for i, v in values.items():
            if i < n:
                bs[i] = v
        return bs

    monkeypatch.setattr(checks, "b_prefix", planted)


def test_eq6_intervals_small():
    report = check_eq6_intervals(n_max=250)
    assert report.passed
    assert report.extras["checked"] > 0


@pytest.mark.parametrize(
    "planted,value,violation",
    [
        # b(7) = 5 breaks b(0..1) = b(6..7), the interval behind b(8) = 6 -> 5
        (7, 5, Violation("interval-mismatch", 1, {"n": 8, "m": 5, "offset": 1})),
        # b(2) = 4 breaks that decrement's anchor b(8 - 2 * 3) = 5
        (2, 4, Violation("anchor-mismatch", 2, {"n": 8, "m": 5, "found": 4})),
    ],
    ids=["interval", "anchor"],
)
def test_eq6_intervals_reports_a_planted_value(monkeypatch, planted, value, violation):
    # the planted value is below 6, so it adds no decrement of its own
    _plant_b(monkeypatch, {planted: value})
    assert check_eq6_intervals(n_max=8).violation == violation
    assert check_eq6_intervals(n_max=7).passed


def test_eq6_anchor_spot_value():
    # the anchor value behind the m=6 decrement at n=143: block length 3
    assert b_rec(143 - 6) == 6
    assert [b_rec(143 - 8), b_rec(143 - 7)] == [b_rec(143 - 2), b_rec(143 - 1)]


def test_b_inequalities_small():
    assert check_b_inequality(s_max=60, j_max=60).passed
    assert check_b_window(n_max=300, r_max=60).passed


def test_b_inequality_reports_a_planted_collision(monkeypatch):
    # s = 1: c = 2, d = 3; b(11) = 6 lowered to b(5) = 5 collides at j = 1
    _plant_b(monkeypatch, {11: 5})
    report = check_b_inequality(s_max=3, j_max=3)
    assert report.violation == Violation("b-values-collide", 5, {"s": 1, "j": 1})
    assert check_b_inequality(s_max=3, j_max=0).passed


@pytest.mark.parametrize(
    "planted,value,violation",
    [
        # s = 6: c = 17, d = 18; b(125) = 8 lowered to b(89) = 7 collides at
        # j = 4, the last pair of the grid, read from the table's last byte
        (125, 7, Violation("b-values-collide", 89, {"s": 6, "j": 4})),
        # b(53) = 8 lowered to b(17) = 7 collides at j = 0, the first pair of s = 6
        (53, 7, Violation("b-values-collide", 17, {"s": 6, "j": 0})),
    ],
    ids=["last-j", "first-j"],
)
def test_b_inequality_reports_a_collision_at_the_grid_edges(monkeypatch, planted, value, violation):
    # each side of a pair is a strided slice of the table: a stop one short,
    # a stride of d +- 1 or a shift of 6s +- 1 misses one of these
    _plant_b(monkeypatch, {planted: value})
    assert check_b_inequality(s_max=6, j_max=4).violation == violation
    assert check_b_inequality(s_max=5, j_max=4).passed


def test_b_inequality_memory_stays_near_its_table():
    # the table of b to index 196,343 and two slices of 301 bytes at a time
    tracemalloc.start()
    try:
        assert check_b_inequality(s_max=300, j_max=300).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_b_window_at_scale():
    assert check_b_window(n_max=20_000, r_max=2_000).passed


def test_b_window_reports_a_planted_repeat(monkeypatch):
    # distinct letters but for b(15..18) = b(7..10): one xyx with |x| = |y| = 4
    # at n = 7, the last window that n_max = 7, r_max = 4 reaches
    monkeypatch.setattr(checks, "b_prefix", lambda n: bytearray(i - 8 if 15 <= i < 19 else i for i in range(n)))
    report = check_b_window(n_max=7, r_max=4)
    assert report.violation == Violation("window-repeats", 7, {"n": 7, "r": 4})
    assert report.summary() == "FAIL b-window (n_max=7, r_max=4) -- window-repeats at position 7 n=7, r=4"
    assert check_b_window(n_max=6, r_max=4).passed


def test_x_squares_pass_and_positions():
    report = check_x_squares(length=2_000)
    assert report.passed
    assert report.extras["first_00"] == 0
    assert report.extras["first_11"] == 2
    assert report.extras["count_00"] > 0 and report.extras["count_11"] > 0


def test_x_squares_vacuous_on_w32():
    report = check_x_squares(length=2_000, source="w32")
    assert report.passed
    assert report.extras["count_00"] == 0 and report.extras["count_11"] == 0


def test_x_squares_catches_long_square():
    report = check_x_squares(length=10, source=[0, 1, 0, 1])
    assert not report.passed
    assert report.violation is not None
    assert report.violation.kind == "square-root-too-long"


def test_x_squares_catches_big_letter_square():
    report = check_x_squares(length=10, source=[0, 2, 2, 0])
    assert not report.passed
    assert report.violation is not None
    assert report.violation.kind == "square-letter"


def test_x_overlapfree_pass_and_fail():
    assert check_x_overlapfree(length=2_000).passed
    report = check_x_overlapfree(length=3, source=[0, 0, 0])
    assert not report.passed
    assert report.violation is not None
    assert report.violation.detail == {"start": 0, "period": 1}
    # a x a x a with non-empty x
    report = check_x_overlapfree(length=5, source=[0, 1, 0, 1, 0])
    assert not report.passed


@given(st.lists(st.integers(0, 2), max_size=30))
def test_x32_structure_checks_match_letter_loops(word):
    # both checks report the oracle's first violation, and the square check
    # its unit-square counts up to there
    found, stats = oracle.x_squares_scan(word)
    report = check_x_squares(length=len(word), source=word)
    assert report.passed == (found is None)
    if found is not None:
        v = report.violation
        assert (v.kind, v.position, v.detail) == found
    assert report.extras == stats
    found = oracle.overlap_scan(word)
    report = check_x_overlapfree(length=len(word), source=word)
    assert report.passed == (found is None)
    if found is not None:
        v = report.violation
        assert (v.kind, v.position, v.detail) == ("overlap", *found)


def _mutated_x32(seed):
    """3,000 letters of x32 with one to four letters set at random to 0..3."""
    rng = random.Random(f"x32/mutated/{seed}")
    word = x32_prefix(3_000)
    for _ in range(rng.randint(1, 4)):
        word[rng.randrange(3_000)] = rng.randrange(4)
    return word


@pytest.mark.parametrize(
    "word",
    [
        *(_mutated_x32(seed) for seed in range(12)),
        x32_prefix(3_000),
        # a root of three ending on the unit square 00, which is counted
        [1, 0, 0, 1, 0, 0],
        # a root of two, then 22 one letter later; 22, then a root of two
        [0, 2, 0, 2, 2],
        [1, 0, 2, 2, 0, 2, 0, 2],
    ],
    ids=[*(f"mutated-{seed}" for seed in range(12)), "clean", "root-on-00", "root-then-22", "22-then-root"],
)
def test_x32_checks_equal_their_per_letter_loops(word):
    # one batched scan per check gives the per-letter loop's report: the
    # same first violation, a square vv with v > 1 winning over any root
    # square at a later position, and the same unit-square counts
    assert check_x_squares(length=len(word), source=word).to_dict() == oracle.x_squares_per_letter(word).to_dict()
    assert check_x_overlapfree(length=len(word), source=word).to_dict() == oracle.x_overlapfree_per_letter(word).to_dict()


def test_report_serialization_shape():
    report = check_powerfree("ruler", length=64)
    data = report.to_dict()
    assert data["schema"] == "check-report/1"
    assert data["status"] == "pass"
    assert data["violation"] is None
    assert "elapsed" not in data
    json.dumps(data)  # serializable
    text = report.summary()
    assert text.startswith("PASS powerfree")


def test_failing_report_has_violation_field():
    report = CheckReport("x", {"n": 1}, Violation("kind", 3, {"a": 1}))
    assert not report.passed
    data = report.to_dict()
    assert data["status"] == "fail"
    assert data["violation"] == {"kind": "kind", "position": 3, "detail": {"a": 1}}
    assert "kind at position 3" in report.summary()


def test_explicit_word_requires_exponent_and_mode():
    with pytest.raises(ValueError):
        check_powerfree([0, 1, 2], length=3)


@pytest.mark.parametrize("check", [check_powerfree, check_minimality, check_x_squares, check_x_overlapfree])
@pytest.mark.parametrize(
    "source", ["w32", "x32", "ruler", "w32-morphic", "x32-greedy", [0, 1, 0]],
    ids=["w32", "x32", "ruler", "w32-morphic", "x32-greedy", "word"],
)
def test_negative_length_is_rejected(check, source):
    # one error for every source, raised before any word is built
    kwargs = {}
    if check in (check_powerfree, check_minimality) and not isinstance(source, str):
        kwargs = {"exponent": E32, "mode": THRESHOLD}
    with pytest.raises(ValueError, match="length must be non-negative, got -5"):
        check(source=source, length=-5, **kwargs)


@pytest.mark.parametrize(
    "check, bounds, bound",
    [
        pytest.param(check, fast, key, id="-".join(filter(None, (check.__name__, fast.get("source"), key))))
        for check, _, fast in checks.BATTERY
        for key in fast
        if key != "source"
    ],
)
def test_every_negative_battery_bound_is_rejected(check, bounds, bound):
    # a negative bound names an empty range, over which a check would pass
    # without looking at anything
    with pytest.raises(ValueError, match=f"{bound} must be non-negative, got -{bounds[bound]}"):
        check(**{**bounds, bound: -bounds[bound]})
