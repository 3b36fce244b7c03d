"""Acceptance suite.

Each test runs one criterion at its stated scale (exact integer checks,
tolerance zero) and prints a single pass/fail line; stated runtime budgets
are asserted.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from contextlib import contextmanager

import numpy as np

from lexleast.checks import (
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
from lexleast import detect
from lexleast.detect import AvoidanceMode, LceIndex, forbidden_suffix
from lexleast.formulas import (
    b_closed,
    b_rec,
    c_closed,
    c_term,
    d_closed,
    d_term,
    f_term,
    ruler_prefix,
)
from lexleast.greedy import generate
from lexleast.words import Exponent

import golden
import oracle

E32 = Exponent(3, 2)
E21 = Exponent(2, 1)
THRESHOLD = AvoidanceMode.THRESHOLD
EXACT = AvoidanceMode.EXACT


@contextmanager
def criterion(label, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    over_budget = budget_seconds is not None and elapsed >= budget_seconds
    budget = f", budget {budget_seconds}s" if budget_seconds is not None else ""
    print(f"{label}: {'FAIL (over budget)' if over_budget else 'PASS'} ({elapsed:.2f}s{budget})")
    assert not over_budget, f"{label} took {elapsed:.2f}s"


def test_criterion_01_w32_golden_table():
    with criterion("criterion 1: greedy threshold word matches its 100-letter table", 1.0):
        assert generate(E32, THRESHOLD, 100) == golden.W32_100


def test_criterion_02_x32_golden_table():
    with criterion("criterion 2: greedy exact word matches its 144-letter table", 1.0):
        assert generate(E32, EXACT, 144) == golden.X32_144


def test_criterion_03_three_way_agreement():
    with criterion("criterion 3: greedy, closed form, morphic agree to 10^4 (both modes)", 60.0):
        report = check_cross(length=10_000)
        assert report.passed, report.summary()


def test_criterion_04_closed_form_consistency():
    with criterion("criterion 4: recurrences vs closed forms and suffix-family partition", 10.0):
        assert all(b_rec(n) == b_closed(n) for n in range(10**6))
        assert all(
            c_term(s) == c_closed(s) and d_term(s) == d_closed(s) for s in range(1, 10**5)
        )
        counts, values = oracle.family_match_counts(10**6)
        assert counts.min() == 1 and counts.max() == 1
        b_values = np.fromiter((b_closed(n) for n in range(10**6)), dtype=np.int16, count=10**6)
        assert np.array_equal(values, b_values)


def test_criterion_05_power_freeness():
    with criterion("criterion 5: 10^4-term prefixes are free of forbidden factors", 30.0):
        assert check_powerfree("w32", length=10_000).passed
        assert check_powerfree("x32", length=10_000).passed
        assert check_powerfree("ruler", length=10_000).passed
        assert ruler_prefix(10_000) == generate(E21, THRESHOLD, 10_000)


def test_criterion_06_minimality():
    with criterion("criterion 6: every decrement over 2000 positions creates a repetition", 60.0):
        assert check_minimality("w32", length=2_000).passed
        assert check_minimality("x32", length=2_000).passed


def test_criterion_07_b_inequalities():
    with criterion("criterion 7: the two b-sequence inequalities hold on their grids"):
        assert check_b_window(n_max=2_000, r_max=200).passed
        assert check_b_inequality(s_max=300, j_max=300).passed


def test_criterion_08_decrement_witnesses():
    with criterion("criterion 8: decrement witnesses and b-interval identity to n=2000"):
        ell_report = check_ell_claim(n_max=2_000)
        assert ell_report.passed, ell_report.summary()
        assert check_eq6_intervals(n_max=2_000).passed
        by_case = ell_report.extras["by_case"]
        assert set(by_case) == {
            "b_odd_m_even",
            "b_odd_m_odd",
            "b_even_m_even",
            "b_even_m_odd",
            "b_even_m_odd_pred",
        }
        assert all(count >= 1 for count in by_case.values())
        assert set(ell_report.extras["by_ell"]) >= {"30", "60", "180", "360"}


def test_criterion_09_x32_structure():
    with criterion("criterion 9: only unit squares 00/11, overlap-free, b-offset identity"):
        squares = check_x_squares(length=10_000)
        assert squares.passed
        assert squares.extras["count_00"] > 0 and squares.extras["count_11"] > 0
        assert check_x_overlapfree(length=10_000).passed
        assert all(f_term(12 * n + 11) + 1 == b_rec(n) for n in range(10**5))


def _tracked_witness(idx, mode, letter):
    """The E32 witness that appending ``letter`` to ``idx`` would complete,
    named by a one-letter scan of ``idx``, which is then put back."""
    period = oracle.scan_put_back(idx, letter)
    return None if period is None else detect._occurrence(idx.to_list(), E32, mode, period)


def test_criterion_10_oracle_equivalence():
    with criterion("criterion 10: detectors match the naive oracle on all ternary words to length 12", 60.0):
        total_words = (3**13 - 1) // 2
        for mode in (THRESHOLD, EXACT):
            first, step = mode.periods(E32.q)
            idx = LceIndex(E32.p, E32.q, first=first, step=step)

            def track(word, idx=idx):
                # keep idx one letter behind the word, by appends and pops
                while len(idx) > len(word) - 1:
                    idx.pop()
                if len(idx) < len(word) - 1:
                    idx.append(word[-2])

            visited, covered = oracle.ternary_suffix_agreement(
                12,
                (
                    lambda w: oracle.naive_forbidden_suffix(w, E32, mode),
                    lambda w: forbidden_suffix(w, E32, mode),
                    lambda w: _tracked_witness(idx, mode, w[-1]),
                ),
                on_node=track,
            )
            # pruning below agreed firing prefixes still pins the verdict for
            # every word of length <= 12
            assert covered == total_words
