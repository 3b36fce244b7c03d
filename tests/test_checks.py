import json

import pytest

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
from lexleast.words import Exponent

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


def test_cross_small():
    assert check_cross(length=300).passed


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


def test_eq6_intervals_small():
    report = check_eq6_intervals(n_max=250)
    assert report.passed
    assert report.extras["checked"] > 0


def test_eq6_anchor_spot_value():
    # the anchor value behind the m=6 decrement at n=143: block length 3
    assert b_rec(143 - 6) == 6
    assert [b_rec(143 - 8), b_rec(143 - 7)] == [b_rec(143 - 2), b_rec(143 - 1)]


def test_b_inequalities_small():
    assert check_b_inequality(s_max=60, j_max=60).passed
    assert check_b_window(n_max=300, r_max=60).passed


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
    with pytest.raises(ValueError):
        CheckReport("x", {}, False, None, 0.0)
    report = CheckReport("x", {"n": 1}, False, Violation("kind", 3, {"a": 1}), 0.1)
    data = report.to_dict()
    assert data["status"] == "fail"
    assert data["violation"] == {"kind": "kind", "position": 3, "detail": {"a": 1}}
    assert "kind at position 3" in report.summary()


def test_explicit_word_requires_exponent_and_mode():
    with pytest.raises(ValueError):
        check_powerfree([0, 1, 2], length=3)
