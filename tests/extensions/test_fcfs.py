"""Unit tests for the FCFS / EASY-backfilling baseline (§1.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allotment import minimal_area_allotment
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import validate_schedule
from repro.exceptions import SchedulingError
from repro.extensions.fcfs import FcfsBackfillScheduler, rigid_columns, rigidify
from repro.workloads.generator import generate_workload

from tests.conftest import make_instance, make_task


class TestRigidify:
    def test_allotments_feasible(self):
        inst = generate_workload("cirne", n=20, m=16, seed=71)
        allot = rigidify(inst)
        for t in inst:
            k = allot[t.task_id]
            assert 1 <= k <= 16
            # Meets the slack-deadline by construction.
            assert t.p(k) <= 2.0 * t.min_time + 1e-9

    def test_sequential_tasks_get_one_proc(self):
        inst = make_instance(n=3, m=8, seq_time=4.0, speedup="none")
        allot = rigidify(inst)
        assert all(k == 1 for k in allot.values())

    def test_invalid_slack(self):
        inst = make_instance(n=1, m=2)
        with pytest.raises(ValueError):
            rigidify(inst, slack=0.5)


def per_task_rigidify(instance: Instance, slack: float):
    """The per-task rule: minimal-area allotment under ``min_time * slack``
    (``None`` when some task cannot meet its own deadline)."""
    allot, durations = [], []
    for task in instance:
        best = minimal_area_allotment(task, task.min_time * slack, m=instance.m)
        if best is None:
            return None
        allot.append(best[0])
        durations.append(task.p(best[0]))
    return allot, durations


# Small integers make exact area ties (p = 6, 3, 2 has area 6 at k = 1..3);
# +inf entries make rigid rows with a single finite allotment.
TIME = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0, 12.0, math.inf]),
    st.floats(0.05, 50.0),
)


@st.composite
def rigidify_cases(draw):
    m = draw(st.integers(1, 8))
    tasks = []
    for i in range(draw(st.integers(1, 8))):
        size = draw(st.integers(1, m + 3))  # max_procs above and below m
        times = draw(st.lists(TIME, min_size=size, max_size=size))
        if not any(math.isfinite(t) for t in times[:m]):
            times[draw(st.integers(0, min(size, m) - 1))] = draw(st.floats(0.05, 50.0))
        tasks.append(MoldableTask(10 * i + 3, times))
    return Instance(tasks, m), draw(st.sampled_from([1.0, 1.25, 2.0, 3.5]))


class TestColumnarRigidify:
    """:func:`rigid_columns` == the per-task ``minimal_area_allotment`` rule."""

    @given(case=rigidify_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_task_rule(self, case):
        inst, slack = case
        expected = per_task_rigidify(inst, slack)
        if expected is None:
            # The full-vector min_time lies past m: the deadline is
            # unreachable on this cluster, exactly as per task.
            with pytest.raises(SchedulingError):
                rigid_columns(inst, slack=slack)
            return
        allot, durations = rigid_columns(inst, slack=slack)
        assert allot.tolist() == expected[0]
        assert durations.tolist() == expected[1]
        assert rigidify(inst, slack=slack) == dict(
            zip((t.task_id for t in inst), expected[0])
        )
        # The array-backed twin (vectors truncated to m) agrees with the
        # per-task rule over its own rows.
        twin = Instance.from_arrays(
            inst.times_matrix, inst.weights, inst.releases, inst.m,
            task_ids=inst.task_ids,
        )
        twin_expected = per_task_rigidify(twin, slack)
        twin_allot, twin_durations = rigid_columns(twin, slack=slack)
        assert twin_allot.tolist() == twin_expected[0]
        assert twin_durations.tolist() == twin_expected[1]

    def test_exact_area_tie_takes_first_index(self):
        inst = Instance([MoldableTask(0, [6.0, 3.0, 2.0])], 3)
        allot, durations = rigid_columns(inst, slack=3.0)
        assert allot.tolist() == [1] and durations.tolist() == [6.0]

    def test_single_finite_entry(self):
        inst = Instance([MoldableTask(0, [math.inf, math.inf, 5.0, math.inf])], 4)
        allot, durations = rigid_columns(inst, slack=1.0)
        assert allot.tolist() == [3] and durations.tolist() == [5.0]

    def test_deadline_uses_full_vector(self):
        # min_time is 1.0 (on 4 processors); with m = 2 the deadline 2.0
        # is out of reach, as it is for the per-task rule.
        inst = Instance([MoldableTask(0, [10.0, 5.0, 2.0, 1.0])], 2)
        assert per_task_rigidify(inst, 2.0) is None
        with pytest.raises(SchedulingError):
            rigid_columns(inst, slack=2.0)
        allot, _ = rigid_columns(inst, slack=5.0)
        assert allot.tolist() == [2]

    def test_invalid_slack(self):
        inst = make_instance(n=2, m=2)
        with pytest.raises(ValueError):
            rigid_columns(inst, slack=0.99)

    def test_empty(self):
        allot, durations = rigid_columns(Instance([], 4))
        assert allot.shape == durations.shape == (0,)
        assert allot.dtype == np.int64


class TestFcfs:
    def test_pure_fcfs_start_order_matches_submission(self):
        inst = make_instance(n=6, m=2, seq_time=3.0, speedup="none")
        s = FcfsBackfillScheduler(backfill=False).schedule(inst)
        validate_schedule(s, inst)
        starts = [s[i].start for i in range(6)]
        assert starts == sorted(starts)  # ids are submission order

    def test_feasible_on_paper_workloads(self):
        for kind in ("weakly_parallel", "cirne"):
            inst = generate_workload(kind, n=30, m=16, seed=72)
            for backfill in (False, True):
                s = FcfsBackfillScheduler(backfill=backfill).schedule(inst)
                validate_schedule(s, inst)

    def test_backfill_never_delays_head(self):
        # Head (wide) job's start with EASY equals its start without.
        wide = MoldableTask(0, [8.0] * 4)
        tail = [MoldableTask(i, [2.0] * 4) for i in range(1, 5)]
        # Make the machine busy so the wide job queues: a long narrow job first.
        first = MoldableTask(9, [10.0] * 4)
        inst = Instance([first, wide, *tail], 4)
        plain = FcfsBackfillScheduler(backfill=False).schedule(inst)
        easy = FcfsBackfillScheduler(backfill=True).schedule(inst)
        assert easy[0].start <= plain[0].start + 1e-9

    def test_backfill_improves_utilisation(self):
        # FCFS head-of-line blocking: narrow jobs behind a wide one.
        # EASY should finish no later (usually earlier).
        inst = generate_workload("mixed", n=40, m=16, seed=73)
        plain = FcfsBackfillScheduler(backfill=False).schedule(inst)
        easy = FcfsBackfillScheduler(backfill=True).schedule(inst)
        validate_schedule(easy, inst)
        assert easy.makespan() <= plain.makespan() * 1.05

    def test_names(self):
        assert FcfsBackfillScheduler(backfill=True).name == "FCFS+EASY"
        assert FcfsBackfillScheduler(backfill=False).name == "FCFS"

    def test_empty(self):
        s = FcfsBackfillScheduler().schedule(Instance([], 4))
        assert len(s) == 0

    def test_demt_beats_fcfs_on_minsum(self):
        """The paper's motivation: moldability + smart selection beats the
        production FCFS queue on the user criterion."""
        from repro.algorithms.demt import schedule_demt

        inst = generate_workload("cirne", n=60, m=32, seed=74)
        demt = schedule_demt(inst)
        fcfs = FcfsBackfillScheduler(backfill=True).schedule(inst)
        assert (
            demt.weighted_completion_sum() <= fcfs.weighted_completion_sum() * 1.05
        )
