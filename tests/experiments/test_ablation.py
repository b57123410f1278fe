"""Smoke + shape tests for the ablation studies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.demt import DemtScheduler
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.experiments.ablation import (
    ABLATIONS,
    _GreedySelectionDemt,
    ablate_compaction,
    ablate_merge,
    ablate_selection,
    ablate_shuffle,
)

TINY = dict(kind="cirne", n=20, m=8, runs=2, seed=3)


class TestAblations:
    def test_registry(self):
        assert set(ABLATIONS) == {"selection", "merge", "compaction", "shuffle"}

    def test_selection_variants(self):
        res = ablate_selection(**TINY)
        assert set(res) == {"knapsack", "greedy"}
        for minsum_r, cmax_r in res.values():
            assert minsum_r >= 1.0 - 1e-9 and cmax_r >= 1.0 - 1e-9

    def test_merge_variants(self):
        res = ablate_merge(**TINY)
        assert set(res) == {"merge_on", "merge_off"}

    def test_compaction_ladder_ordering(self):
        res = ablate_compaction(**TINY)
        assert set(res) == {"shelf", "pull_forward", "list"}
        # The ladder §3.2 describes: each refinement at least as good on
        # minsum in aggregate.
        assert res["list"][0] <= res["shelf"][0] + 1e-9
        assert res["pull_forward"][0] <= res["shelf"][0] + 1e-9

    def test_shuffle_never_hurts(self):
        res = ablate_shuffle(**TINY)
        assert res["shuffle_20"][0] <= res["shuffle_0"][0] + 1e-9

    def test_all_drivers_run(self):
        for driver in ABLATIONS.values():
            out = driver(**TINY)
            assert out and all(len(v) == 2 for v in out.values())


class TestGreedySelectionHook:
    """A1 swaps only DEMT's choice step; the swap must be live."""

    # On m=4: A needs 3 processors (weight 4, density 4/3), B and C two
    # each (weight 2.5, density 1.25).  Greedy takes A first and then fits
    # nothing else (weight 4); the knapsack takes B + C (weight 5).
    ALLOT = np.array([3, 2, 2])
    WEIGHTS = np.array([4.0, 2.5, 2.5])

    def test_choice_step_differs(self):
        ids = np.arange(3)
        assert sorted(DemtScheduler()._choose(self.ALLOT, self.WEIGHTS, ids, 4)) == [1, 2]
        assert sorted(_GreedySelectionDemt()._choose(self.ALLOT, self.WEIGHTS, ids, 4)) == [0]

    def test_first_batch_differs_end_to_end(self):
        # Rigid unit-time tasks: all three are admissible in the first
        # batch, whose length is at least t_min = 1.
        tasks = [
            MoldableTask(i, [np.inf] * (a - 1) + [1.0] + [np.inf] * (4 - a), weight=w)
            for i, (a, w) in enumerate(zip(self.ALLOT.tolist(), self.WEIGHTS.tolist()))
        ]
        inst = Instance(tasks, 4)

        def first_batch(scheduler):
            batch = scheduler.schedule_detailed(inst).batches[0]
            return sorted(it.task.task_id for it in batch)

        assert first_batch(DemtScheduler()) == [1, 2]
        assert first_batch(_GreedySelectionDemt()) == [0]
