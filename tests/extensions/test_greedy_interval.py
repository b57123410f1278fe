"""Tests for the GreedyInterval structural ablation."""

from __future__ import annotations

import math

import pytest

from repro.algorithms.compaction import shelf_end
from repro.algorithms.demt import DemtScheduler, schedule_demt
from repro.algorithms.registry import get_algorithm
from repro.bounds.cmax import cmax_lower_bound
from repro.core.validation import validate_schedule
from repro.experiments.replay import replay_trace
from repro.extensions.greedy_interval import GreedyIntervalScheduler
from repro.workloads.generator import generate_workload
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

#: Shelf-mode makespan allowed on the rigid narrow-machine window, in units
#: of the certified lower bound.  The nominal shelves end by
#: t_{K+2} = 4 C*max, and C*max is within 0.1% of the bound; the extension
#: shelves, back to back, must not push the makespan past that (measured:
#: 3.28 for shelf DEMT, 3.35 for GreedyInterval).  Shelves started at
#: their doubling t_j instead reached ~1e89 here.
SHELF_CMAX_FACTOR = 4.0


class TestGreedyInterval:
    def test_feasible(self):
        inst = generate_workload("cirne", n=30, m=16, seed=81)
        s = GreedyIntervalScheduler().schedule(inst)
        validate_schedule(s, inst)

    def test_registered(self):
        algo = get_algorithm("GreedyInterval")
        assert algo.name == "GreedyInterval"

    def test_demt_refinements_pay_off(self):
        """DEMT == GreedyInterval + merge + compaction + shuffle; the
        refinements must improve both criteria in aggregate."""
        demt_minsum = demt_cmax = plain_minsum = plain_cmax = 0.0
        for seed in range(4):
            inst = generate_workload("cirne", n=40, m=16, seed=seed)
            demt = schedule_demt(inst)
            plain = GreedyIntervalScheduler().schedule(inst)
            demt_minsum += demt.weighted_completion_sum()
            demt_cmax += demt.makespan()
            plain_minsum += plain.weighted_completion_sum()
            plain_cmax += plain.makespan()
        assert demt_minsum < plain_minsum
        assert demt_cmax < plain_cmax

    def test_shelf_structure(self):
        """Without compaction, every batch is one shelf: each item starts at
        its batch's start (a merged stack's tasks follow each other), and
        a batch outside the nominal grid starts where the previous shelf
        ends."""
        inst = generate_workload("weakly_parallel", n=150, m=4, seed=82)
        detailed = GreedyIntervalScheduler().schedule_detailed(inst)
        starts = detailed.batch_starts
        assert any(s not in detailed.t_grid for s in starts)  # extension rounds ran
        for b, (batch, start) in enumerate(zip(detailed.batches, starts)):
            for it in batch:
                t = start
                for task in it.stack or (it.task,):
                    assert detailed.schedule[task.task_id].start == t
                    t += task.seq_time
            if start not in detailed.t_grid:
                assert start == shelf_end(detailed.batches[b - 1], starts[b - 1])


class TestExtensionShelves:
    """Extension batches (past the nominal grid) run back to back."""

    @pytest.fixture(scope="class")
    def rigid_window(self):
        trace = load_trace(synthesize_swf(2000, 64, seed=7))
        return trace_instance(trace, 64, "rigid", online=False)

    @pytest.mark.parametrize(
        "scheduler",
        [lambda: DemtScheduler(compaction="shelf"), GreedyIntervalScheduler],
        ids=["demt-shelf", "greedy-interval"],
    )
    def test_rigid_narrow_window_makespan_near_bound(self, rigid_window, scheduler):
        sched = scheduler().schedule(rigid_window)
        validate_schedule(sched, rigid_window)
        cmax = sched.makespan()
        assert math.isfinite(cmax)
        assert cmax <= SHELF_CMAX_FACTOR * cmax_lower_bound(rigid_window)

    def test_downey_online_replay_validates(self):
        """On-line greedy-interval on the 10k-job downey window: overlapping
        shelves at t ~ 1e13 used to over-subscribe the machine."""
        trace = load_trace(synthesize_swf(10_000, 64, seed=7))
        (cell,) = replay_trace(
            trace, m=64, models="downey", modes="greedy-interval", validate=True
        )
        assert math.isfinite(cell.makespan)
