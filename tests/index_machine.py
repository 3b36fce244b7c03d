"""A stateful differential test of ``LceIndex``: hypothesis draws a rule,
then any order of the calls that carry the index's state from one to the
next (appends, scans, greedy's loop, a rebuild on the word, pops), and
after every call the index must name the dense run table's blocked map
(``oracle.scan_map``), hold the masks of its window (``oracle.check_masks``)
and keep its word in the narrowest array that holds the largest letter.

The letters are a small alphabet, so that runs grow and periods block,
and the letters on either side of the widths of 1, 2 and 4 bytes, so that
the word is rebuilt one width up in each place that appends: ``scan``
(checked or not, and so ``append``) and greedy's loop.

Tier-1 runs a fixed-seed profile (``test_detect``); CI runs a larger one
outside tier-1::

    PYTHONPATH=src:tests python -c 'import index_machine; index_machine.run(400, 40)'
"""

from __future__ import annotations

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test

from lexleast.detect import AvoidanceMode, LceIndex

import oracle

# (p, q, strict, first, step): each exponent in both modes, and the x32
# checks' squares from period 2 and overlaps (2/1 strict)
RULES = [
    *((p, q, False, *mode.periods(q)) for p, q in ((3, 2), (5, 4), (4, 3), (7, 4), (2, 1), (6, 1), (101, 100), (401, 400))
      for mode in AvoidanceMode),
    (2, 1, False, 2, 1),
    (2, 1, True, 1, 1),
]
# the one rule whose greedy loop reaches letter 256, as it blocks every
# letter of the last 400: its greedy word begins 0, 1, ..., 400
NEAR_ONE = (401, 400, False, 1, 1)

# the last letters of 1 byte and the first of 2 and 4, and letters whose
# bytes spell other letters when read from inside them
WIDE = (255, 256, 65_535, 65_536, 1 << 24, 0x01010101, (1 << 31) - 1)
LETTERS = st.integers(0, 3) | st.sampled_from(WIDE)


def narrowest(word: list[int]) -> str:
    top = max(word, default=0)
    return "B" if top < 1 << 8 else "H" if top < 1 << 16 else "I"


def least_missing(blocked: dict[int, int]) -> int:
    letter = 0
    while letter in blocked:
        letter += 1
    return letter


class IndexMachine(RuleBasedStateMachine):
    """One ``LceIndex`` and the dense run table on the same word."""

    # half the runs are at NEAR_ONE, and half start from the rule's greedy
    # word of 700 letters: NEAR_ONE's loop rebuilds it at letter 256 and
    # goes on past Z = 400, where it reads word[n - 400], in the same call
    @initialize(options=st.just(NEAR_ONE) | st.sampled_from(RULES), greedy=st.sampled_from((0, 700)))
    def start(self, options: tuple, greedy: int) -> None:
        self.options, self.word = options, []
        self.idx, self.dense = LceIndex(*options), oracle.DenseRunTable()
        # the length at which the index was built on the word
        self.built = 0
        if greedy:
            self.threshold_hit(greedy)

    def blocked(self) -> dict[int, int]:
        return self.dense.blocked(*self.options)

    def put(self, letter: int) -> None:
        self.dense.append(letter)
        self.word.append(letter)

    # whatever they complete: one unchecked scan, or ``append`` letter by letter
    @rule(letters=st.lists(LETTERS, min_size=1, max_size=12), one_scan=st.booleans())
    def append(self, letters: list[int], one_scan: bool) -> None:
        if one_scan:
            assert self.idx.scan(iter(letters), check=False) is None
        else:
            for v in letters:
                self.idx.append(v)
        for v in letters:
            self.put(v)

    @rule(letters=st.lists(LETTERS, min_size=1, max_size=12), clean=st.booleans())
    def scan(self, letters: list[int], clean: bool) -> None:
        # a clean continuation has each blocked letter replaced by the least free
        fed, period = [], None
        for v in letters:
            blocked = self.blocked()
            if v in blocked and clean:
                v = least_missing(blocked)
            elif v in blocked:
                fed.append(v)
                period = blocked[v]
                break
            fed.append(v)
            self.put(v)
        assert self.idx.scan(iter(fed)) == period

    @precondition(lambda self: self.word)
    @rule(data=st.data())
    def scan_repeat(self, data: st.DataObject) -> None:
        # the continuation of a period that the word ends with, letter by letter
        n = len(self.word)
        back = data.draw(st.integers(1, n), label="back")
        length = data.draw(st.integers(1, 2 * back + 8), label="length")
        fed, period = [], None
        for v in (self.word[n - back + i % back] for i in range(length)):
            fed.append(v)
            if v in (blocked := self.blocked()):
                period = blocked[v]
                break
            self.put(v)
        assert self.idx.scan(fed) == period

    # counts that cross bands' refreshes, and greedy's chunk of 4,096 letters
    @rule(count=st.sampled_from((1, 2, 3, 5, 9, 17, 40, 80, 300, 4_100)))
    def threshold_hit(self, count: int) -> None:
        start = len(self.word)
        for _ in range(count):
            self.put(self.dense.least_free(*self.options))
        assert self.idx.threshold_hit(count) == self.word[-1]
        assert self.idx.to_list(start) == self.word[start:]

    @rule()
    def rebuild(self) -> None:
        self.idx, self.built = LceIndex(*self.options, letters=iter(self.word)), len(self.word)

    # at any length, after greedy's longest calls and on widened words too,
    # which the index rebuilds at the narrowest width
    @precondition(lambda self: self.word)
    @rule()
    def pop(self) -> None:
        assert self.idx.pop() == self.dense.pop() == self.word.pop()
        self.built = len(self.word)

    @rule(start=st.integers(-5, 5_000))
    def to_list(self, start: int) -> None:
        assert self.idx.to_list(start) == self.word[start:]

    @invariant()
    def follows_the_dense_table(self) -> None:
        assert len(self.idx) == len(self.word) and self.idx._word.typecode == narrowest(self.word)
        oracle.check_masks(self.idx, self.built)
        blocked = self.blocked()
        assert oracle.scan_map(self.idx, blocked) == blocked


def run(examples: int, steps: int) -> None:
    """Run ``examples`` runs of the machine of up to ``steps`` calls each,
    from a fixed seed.  There is no shrink phase: a failing run is reported
    at once with its steps as drawn (shrinking took 4-5 minutes on a run
    that passes in 2 s)."""
    run_state_machine_as_test(
        IndexMachine,
        settings=settings(
            max_examples=examples,
            phases=(Phase.explicit, Phase.generate),
            stateful_step_count=steps,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )
