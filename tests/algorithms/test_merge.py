"""Unit tests for repro.algorithms.merge."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.merge import MergedStack, merge_small_tasks
from repro.core.task import MoldableTask

from tests.conftest import make_task


def seq(task_id, time, weight=1.0):
    return make_task(task_id, time, m=4, speedup="none", weight=weight)


class TestMergedStack:
    def test_aggregates(self):
        s = MergedStack((seq(0, 2.0, weight=3.0), seq(1, 1.5, weight=1.0)))
        assert s.duration == pytest.approx(3.5)
        assert s.weight == pytest.approx(4.0)
        assert s.task_ids == (0, 1)
        assert len(s) == 2


class TestMergeSmallTasks:
    def test_threshold_is_half_batch(self):
        small = seq(0, 4.0)
        large = seq(1, 4.1)
        stacks, untouched = merge_small_tasks([small, large], batch_length=8.0)
        assert [s.task_ids for s in stacks] == [(0,)]
        assert [t.task_id for t in untouched] == [1]

    def test_decreasing_weight_order_within_stacks(self):
        tasks = [seq(0, 1.0, weight=1.0), seq(1, 1.0, weight=5.0), seq(2, 1.0, weight=3.0)]
        stacks, _ = merge_small_tasks(tasks, batch_length=10.0)
        assert len(stacks) == 1
        assert stacks[0].task_ids == (1, 2, 0)  # heaviest first

    def test_stack_duration_capped_by_batch_length(self):
        tasks = [seq(i, 3.0) for i in range(5)]  # each <= 4.0 = t/2
        stacks, _ = merge_small_tasks(tasks, batch_length=8.0)
        assert all(s.duration <= 8.0 + 1e-12 for s in stacks)
        # 3+3 fits in 8, a third does not -> stacks of size 2,2,1.
        assert sorted(len(s) for s in stacks) == [1, 2, 2]

    def test_all_tasks_preserved(self):
        tasks = [seq(i, 0.5 + 0.3 * i, weight=float(i + 1)) for i in range(7)]
        stacks, untouched = merge_small_tasks(tasks, batch_length=4.0)
        merged_ids = [tid for s in stacks for tid in s.task_ids]
        all_ids = sorted(merged_ids + [t.task_id for t in untouched])
        assert all_ids == list(range(7))

    def test_parallel_tasks_with_small_seq_time_are_merged(self):
        # Merging only looks at p(1); a moldable task with small p(1)
        # is a merge candidate like any sequential one.
        t = make_task(0, 2.0, m=4, speedup="linear")
        stacks, untouched = merge_small_tasks([t], batch_length=8.0)
        assert len(stacks) == 1 and not untouched

    def test_rigid_task_never_merged(self):
        from repro.core.task import rigid_task

        t = rigid_task(0, procs=2, time=1.0, m=4)  # p(1) = inf
        stacks, untouched = merge_small_tasks([t], batch_length=8.0)
        assert not stacks and untouched == [t]

    def test_empty_input(self):
        stacks, untouched = merge_small_tasks([], batch_length=4.0)
        assert stacks == [] and untouched == []

    def test_invalid_batch_length(self):
        with pytest.raises(ValueError):
            merge_small_tasks([], batch_length=0.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            merge_small_tasks([], batch_length=1.0, small_threshold_factor=0.0)
        with pytest.raises(ValueError):
            merge_small_tasks([], batch_length=1.0, small_threshold_factor=1.5)

    def test_custom_threshold(self):
        t = seq(0, 4.0)
        stacks, untouched = merge_small_tasks([t], 8.0, small_threshold_factor=0.25)
        assert untouched == [t]  # 4 > 0.25*8
        stacks, untouched = merge_small_tasks([t], 8.0, small_threshold_factor=0.5)
        assert len(stacks) == 1

    @given(
        times=st.lists(st.floats(0.1, 3.9), min_size=1, max_size=20),
        weights=st.lists(st.floats(1.0, 10.0), min_size=20, max_size=20),
    )
    @settings(max_examples=60)
    def test_property_partition_and_caps(self, times, weights):
        tasks = [seq(i, t, weight=weights[i]) for i, t in enumerate(times)]
        stacks, untouched = merge_small_tasks(tasks, batch_length=8.0)
        # Partition: every task appears exactly once.
        ids = sorted(
            [tid for s in stacks for tid in s.task_ids]
            + [t.task_id for t in untouched]
        )
        assert ids == sorted(t.task_id for t in tasks)
        # Every stack respects the batch length (all inputs are <= t/2 here,
        # so untouched must be empty).
        assert not untouched
        assert all(s.duration <= 8.0 + 1e-9 for s in stacks)
        # At most one stack holds a single task *by necessity*: greedy
        # first-fit by weight can strand singles, but total stacked time
        # above one batch forces multi-task stacks somewhere.
        if sum(times) > 8.0:
            assert len(stacks) >= 2


def _seed_merge(tasks, batch_length, factor):
    """The per-task loop that the row-level stacking replaced (reference)."""
    threshold = factor * batch_length
    is_small = [t.seq_time <= threshold and np.isfinite(t.seq_time) for t in tasks]
    small = [t for t, flag in zip(tasks, is_small) if flag]
    untouched = [t for t, flag in zip(tasks, is_small) if not flag]
    small.sort(key=lambda t: (-t.weight, t.task_id))
    stacks, current, current_time = [], [], 0.0
    for task in small:
        if current and current_time + task.seq_time > batch_length:
            stacks.append(tuple(current))
            current, current_time = [], 0.0
        current.append(task)
        current_time += task.seq_time
    if current:
        stacks.append(tuple(current))
    return stacks, untouched


@given(
    data=st.data(),
    n=st.integers(0, 300),
    factor=st.sampled_from([1e-12, 0.25, 0.5, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_matches_seed_per_task_loop(data, n, factor):
    """Row-level stacking == the seed loop, stack for stack.  Up to 300
    tasks, so stacks outgrow the scan's first window; few distinct times
    and weights, so running sums hit the batch length exactly and weights
    tie; rigid rows (p(1) = inf) mixed in."""
    times = data.draw(
        st.lists(st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5, 4.0, np.inf]),
                 min_size=n, max_size=n)
    )
    weights = data.draw(
        st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=n, max_size=n)
    )
    ids = data.draw(st.permutations(range(n)))
    tasks = [
        MoldableTask(i, [t, 1.0] if np.isfinite(t) else [np.inf, 1.0], weight=w)
        for i, t, w in zip(ids, times, weights)
    ]
    length = data.draw(st.sampled_from([1.0, 5.0, 8.0]))
    stacks, untouched = merge_small_tasks(tasks, length, small_threshold_factor=factor)
    ref_stacks, ref_untouched = _seed_merge(tasks, length, factor)
    assert [s.tasks for s in stacks] == ref_stacks
    assert untouched == ref_untouched
