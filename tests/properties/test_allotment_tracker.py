"""Property: the incremental allotments of :class:`AllotmentTracker` equal a
full :func:`minimal_allotments` recompute over the pool, round after round.

DEMT's selection loop relies on this to recompute only the rows whose
allotment can change at the new batch length.  The matrices mix +inf-padded
rigid rows, non-monotone moldable rows and rows that only become admissible
late; machines go down to ``m = 1``; the deadline sequences are
nondecreasing, with repeats (the saturated tail of the doubling rounds,
where consecutive lengths are equal); and rows leave the pool between
rounds.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.demt import batch_rounds
from repro.core.allotment import AllotmentTracker, minimal_allotments

#: Few distinct values, so deadlines often hit a row's times exactly.
TIMES = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 1e6, 1e300])


@st.composite
def rows(draw, m: int) -> list[float]:
    kind = draw(st.sampled_from(["rigid", "moldable", "sparse"]))
    if kind == "rigid":  # one finite width, +inf elsewhere
        row = [math.inf] * m
        row[draw(st.integers(0, m - 1))] = draw(TIMES)
        return row
    row = draw(st.lists(TIMES, min_size=m, max_size=m))  # need not be monotone
    if kind == "sparse":  # forbidden allotments scattered in between
        mask = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        row = [t if keep else math.inf for t, keep in zip(row, mask)]
    return row


@st.composite
def scenarios(draw):
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    n = draw(st.integers(1, 12))
    times = np.array([draw(rows(m)) for _ in range(n)], dtype=np.float64)
    deadlines = draw(st.lists(TIMES, min_size=1, max_size=10))
    if draw(st.booleans()):
        # DEMT's own rounds: the nominal grid, then doublings that saturate
        # into repeats when the grid sits near the float range's top.
        top = draw(st.sampled_from([1.0, 1e300]))
        grid = [top / 2 ** (3 - j) for j in range(5)]
        deadlines += [length for _, length in batch_rounds(grid, 40)]
    deadlines.sort()
    # Rows removed after each round (rows already gone are skipped).
    removals = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=len(deadlines),
                 max_size=len(deadlines))
    )
    return times, deadlines, removals


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_incremental_allotments_match_full_recompute(scenario):
    times, deadlines, removals = scenario
    n = times.shape[0]
    tracker = AllotmentTracker(times)
    live = np.ones(n, dtype=bool)
    for deadline, drop in zip(deadlines, removals):
        tracker.advance(deadline)
        full = minimal_allotments(times, deadline)
        np.testing.assert_array_equal(tracker.allot, np.where(live, full, 0))
        np.testing.assert_array_equal(tracker.pending(), live)
        gone = np.unique(np.array(drop, dtype=np.int64))
        gone = gone[live[gone]]
        tracker.remove(gone)
        live[gone] = False
