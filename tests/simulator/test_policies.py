"""The on-line policy plane: registry grid, oracle pinning, contracts.

Three layers of protection for the PR-5 refactor:

* **Golden corpus** — ``tests/data/online_goldens.json`` pins the seed
  :class:`~repro.simulator.reference.ReferenceBatchScheduler` schedules
  (DEMT engine, frozen instances with deterministic releases); the
  production :class:`~repro.simulator.online.BatchPolicy` must reproduce
  every placement bit for bit, and the oracle itself must still match its
  own recording.  The same file pins the fcfs, fcfs-backfill and
  greedy-interval policies on the same instances (``policy_cells``).
* **Differential fuzzing** — kernel vs oracle on random instances.
* **Contracts** — every registry policy emits feasible, complete,
  release-respecting schedules, and the simulator's ``busy_time`` /
  ``utilization`` agree with schedule-level accounting.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.demt import schedule_demt
from repro.core import TIME_EPS
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import validate_schedule
from repro.extensions.reservations import Reservation
from repro.simulator import ClusterSimulator
from repro.simulator.online import (
    ZERO_CONFIG_POLICIES,
    BatchPolicy,
    OnlineBatchScheduler,
    get_policy,
)
from repro.simulator.reference import ReferenceBatchScheduler
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "online_goldens.json").read_text()
)



def with_releases(instance: Instance, releases) -> Instance:
    tasks = [t.with_release(float(r)) for t, r in zip(instance.tasks, releases)]
    return Instance(tasks, instance.m)


def placements_of(schedule) -> list[list]:
    return sorted([p.task.task_id, p.start, p.allotment, p.end] for p in schedule)


def golden_instance(cell) -> Instance:
    rng = derive_rng(
        GOLDENS["_meta"]["seed"], "online", cell["kind"], cell["n"],
        int(cell["spread"] * 10),
    )
    base = generate_workload(cell["kind"], n=cell["n"], m=cell["m"], seed=rng)
    releases = rng.exponential(cell["spread"], size=cell["n"]).cumsum()
    return with_releases(base, releases)


class TestGoldenCorpus:
    """BatchPolicy == seed OnlineBatchScheduler, bit for bit."""

    @pytest.mark.parametrize(
        "cell",
        GOLDENS["cells"],
        ids=[f"{c['kind']}-n{c['n']}-s{c['spread']}" for c in GOLDENS["cells"]],
    )
    def test_batch_policy_reproduces_seed(self, cell):
        inst = golden_instance(cell)
        res = BatchPolicy(schedule_demt).run(inst)
        assert res.schedule.makespan() == cell["makespan"]
        assert list(res.batch_starts) == cell["batch_starts"]
        assert [sorted(c) for c in res.batch_contents] == cell["batch_contents"]
        assert placements_of(res.schedule) == cell["placements"]

    def test_oracle_still_matches_its_recording(self):
        # The oracle module must not drift either (its value is stability).
        cell = GOLDENS["cells"][0]
        res = ReferenceBatchScheduler(schedule_demt).run(golden_instance(cell))
        assert placements_of(res.schedule) == cell["placements"]

    def test_compat_wrapper_is_the_kernel(self):
        cell = GOLDENS["cells"][-1]
        inst = golden_instance(cell)
        assert placements_of(
            OnlineBatchScheduler(schedule_demt).run(inst).schedule
        ) == cell["placements"]


class TestPolicyGoldens:
    """The immediate policies reproduce their recorded schedules."""

    @pytest.mark.parametrize(
        "cell",
        GOLDENS["policy_cells"],
        ids=[
            f"{c['policy']}-{c['kind']}-n{c['n']}-s{c['spread']}"
            for c in GOLDENS["policy_cells"]
        ],
    )
    def test_policy_reproduces_recording(self, cell):
        res = get_policy(cell["policy"], offline=schedule_demt).run(
            golden_instance(cell)
        )
        assert res.schedule.makespan() == cell["makespan"]
        assert list(res.batch_starts) == cell["batch_starts"]
        assert [sorted(c) for c in res.batch_contents] == cell["batch_contents"]
        assert placements_of(res.schedule) == cell["placements"]


class TestDifferential:
    @given(seed=st.integers(0, 9999), n=st.integers(1, 25))
    @settings(max_examples=20, deadline=None)
    def test_kernel_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        kind = ("cirne", "mixed", "highly_parallel")[seed % 3]
        base = generate_workload(kind, n=n, m=8, seed=seed)
        inst = with_releases(base, rng.exponential(2.0, size=n))
        a = BatchPolicy(schedule_demt).run(inst)
        b = ReferenceBatchScheduler(schedule_demt).run(inst)
        assert a.batch_starts == b.batch_starts
        assert a.batch_contents == b.batch_contents
        assert placements_of(a.schedule) == placements_of(b.schedule)

    def test_columnar_instance_input(self):
        """The kernel accepts array-backed instances without materialising
        a task object per batch (the whole point of the columnar path)."""
        from repro.workloads.trace import load_trace, trace_instance

        trace = load_trace(
            Path(__file__).resolve().parents[1] / "data" / "traces" / "cirne_small.swf"
        )
        inst = trace_instance(trace, 32, "rigid", online=True)
        a = BatchPolicy(schedule_demt).run(inst)
        b = ReferenceBatchScheduler(schedule_demt).run(inst)
        assert placements_of(a.schedule) == placements_of(b.schedule)


class TestEpsilonBoundary:
    """Where the unified TIME_EPS intentionally departs from the seed.

    The seed cut batches at ``now + 1e-12`` while the simulator engine
    windows events at ``1e-9`` — a job released half a nanosecond after a
    batch boundary was "late" to the scheduler but "simultaneous" to the
    replay engine.  The kernel now uses the one shared constant.
    """

    def _instance(self, gap: float) -> Instance:
        a = MoldableTask(0, [1.0, 0.6])
        b = MoldableTask(1, [1.0, 0.6], release=gap)
        return Instance([a, b], 2)

    def test_sub_eps_arrival_joins_the_batch(self):
        inst = self._instance(gap=5e-10)  # inside TIME_EPS
        res = BatchPolicy(schedule_demt).run(inst)
        assert res.n_batches == 1
        # The seed disagreed: its private 1e-12 cut split the batch.
        ref = ReferenceBatchScheduler(schedule_demt).run(inst)
        assert ref.n_batches == 2
        # The simulator engine accepts the kernel's view of simultaneity.
        ClusterSimulator(2).execute(res.schedule, inst)

    def test_super_eps_arrival_still_splits(self):
        inst = self._instance(gap=5e-9)  # outside TIME_EPS
        assert BatchPolicy(schedule_demt).run(inst).n_batches == 2
        assert ReferenceBatchScheduler(schedule_demt).run(inst).n_batches == 2

    def test_boundary_agrees_with_event_windowing(self):
        # Exactly at the window edge: release <= now + TIME_EPS joins.
        inst = self._instance(gap=TIME_EPS)
        assert BatchPolicy(schedule_demt).run(inst).n_batches == 1


class TestPolicyRegistry:
    @pytest.mark.parametrize("name", ZERO_CONFIG_POLICIES)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_grid_feasible_and_complete(self, name, seed):
        rng = np.random.default_rng(seed)
        base = generate_workload("cirne", n=20, m=8, seed=seed)
        inst = with_releases(base, rng.exponential(1.5, size=20))
        res = get_policy(name, offline=schedule_demt).run(inst)
        validate_schedule(res.schedule, inst)  # includes release checks
        assert res.schedule.task_ids() == {t.task_id for t in inst}
        # The execution-level oracle agrees too.
        ClusterSimulator(inst.m).execute(res.schedule, inst)

    @pytest.mark.parametrize("name", ZERO_CONFIG_POLICIES)
    def test_empty_instance(self, name):
        res = get_policy(name, offline=schedule_demt).run(Instance([], 4))
        assert len(res.schedule) == 0 and res.n_batches == 0

    def test_reservation_policy_respects_capacity(self):
        from repro.extensions.reservations import CapacityProfile

        rng = np.random.default_rng(5)
        base = generate_workload("mixed", n=12, m=8, seed=5)
        inst = with_releases(base, rng.exponential(1.0, size=12))
        blocked = Reservation(0.0, 50.0, 5)  # 3 processors free until t=50
        res = get_policy(
            "reservation", offline=schedule_demt, reservations=[blocked]
        ).run(inst)
        validate_schedule(res.schedule, inst)
        profile = CapacityProfile(inst.m, [blocked])
        events = sorted(
            {p.start for p in res.schedule}
            | {p.end for p in res.schedule}
            | {blocked.start, blocked.end}
        )
        for lo, hi in zip(events, events[1:]):
            mid = (lo + hi) / 2
            usage = sum(
                p.allotment for p in res.schedule if p.start <= mid < p.end
            )
            assert usage <= profile.capacity_at(mid)
        # The reservation actually bit: something ran under reduced
        # capacity or waited for it to expire.
        assert res.schedule.makespan() > 0

    def test_fcfs_variants_differ_by_backfill(self):
        assert get_policy("fcfs").backfill is False
        assert get_policy("fcfs-backfill").backfill is True
        assert get_policy("fcfs").name == "fcfs"
        assert get_policy("fcfs-backfill").name == "fcfs-backfill"

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown on-line policy"):
            get_policy("nope")

    def test_instance_passthrough(self):
        pol = BatchPolicy(schedule_demt)
        assert get_policy(pol) is pol

    def test_fcfs_backfill_never_delays_queue_head(self):
        """EASY contract: job starts are monotone in arrival order up to
        backfilled jobs, and a backfilled job never pushes an earlier
        job's start past its reservation (start order vs arrival order
        inversions only happen for jobs that end before the inverted
        head starts)."""
        rng = np.random.default_rng(11)
        base = generate_workload("cirne", n=25, m=8, seed=11)
        inst = with_releases(base, rng.exponential(0.5, size=25))
        res = get_policy("fcfs-backfill", offline=schedule_demt).run(inst)
        order = sorted(inst.tasks, key=lambda t: (t.release, t.task_id))
        sched = res.schedule
        for i, earlier in enumerate(order):
            for later in order[i + 1:]:
                pe, pl = sched[earlier.task_id], sched[later.task_id]
                if pl.start < pe.start - TIME_EPS:
                    assert pl.end <= pe.start + TIME_EPS, (
                        f"job {later.task_id} jumped ahead of "
                        f"{earlier.task_id} and delayed it"
                    )


class TestExecutionContracts:
    """busy_time / utilization agree with schedule-level accounting."""

    @pytest.mark.parametrize("name", ZERO_CONFIG_POLICIES)
    def test_busy_time_equals_schedule_work(self, name):
        rng = np.random.default_rng(23)
        base = generate_workload("mixed", n=15, m=8, seed=23)
        inst = with_releases(base, rng.exponential(1.0, size=15))
        res = get_policy(name, offline=schedule_demt).run(inst)
        trace = ClusterSimulator(inst.m).execute(res.schedule, inst)
        expected = sum(p.work for p in res.schedule)
        assert trace.busy_time() == pytest.approx(expected, rel=1e-12)
        util = trace.utilization(inst.m)
        assert 0.0 < util <= 1.0
        assert util == pytest.approx(
            expected / (inst.m * trace.makespan), rel=1e-12
        )

    def test_utilization_empty(self):
        from repro.core.schedule import Schedule

        trace = ClusterSimulator(4).execute(Schedule(4))
        assert trace.busy_time() == 0.0
        assert trace.utilization(4) == 0.0
