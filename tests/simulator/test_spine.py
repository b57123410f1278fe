"""The event-spine differential plane: spine vs every pre-spine oracle.

The PR-8 refactor moved every on-line policy, the simulator engine and
the faulty batch loop onto the incremental
:class:`~repro.simulator.events.EventSpine`.  Three oracle layers pin it:

* **Seed oracle** — the spine :class:`~repro.simulator.online.BatchPolicy`
  still reproduces the seed
  :class:`~repro.simulator.reference.ReferenceBatchScheduler` bit for bit
  (the PR-5 golden corpus keeps covering this; here it is fuzzed).
* **Windowed oracle** — every registry policy and the faulty loop match
  their frozen pre-spine implementations in
  :mod:`repro.simulator.windowed`, on random instances (Hypothesis) and
  across the policy registry grid, including fault-injected runs.
* **Fault-plane goldens** — ``tests/data/faulty_goldens.json`` records
  complete pre-refactor :class:`~repro.faults.failures.FaultyBatchPolicy`
  outcomes (placements, batches, crash/deferral counts, full event logs);
  the spine port must reproduce every row.

Trace-scale FCFS windows pin the columnar EASY scan against the windowed
oracle on queues hundreds of jobs long (the fuzz stays below 30), and a
tier-1 guard keeps its per-job scan work from growing with the window.

Plus the archive-scale smoke: 1M-job batch and 100k-job EASY replay
windows, marked slow and gated behind ``REPRO_RUN_SLOW=1`` (CI's slow
lane).
"""

from __future__ import annotations

import functools
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.demt import schedule_demt
from repro.core.instance import Instance
from repro.core.task import MoldableTask
from repro.core.validation import TIME_EPS, validate_schedule
from repro.extensions.reservations import Reservation
from repro.faults.failures import FaultyBatchPolicy, generate_failures
from repro.simulator.online import ZERO_CONFIG_POLICIES, BatchPolicy, get_policy
from repro.simulator.reference import ReferenceBatchScheduler
from repro.simulator.windowed import (
    WINDOWED_POLICIES,
    WindowedFaultyBatchPolicy,
)
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance

DATA = Path(__file__).resolve().parents[1] / "data"
FAULTY_GOLDENS = json.loads((DATA / "faulty_goldens.json").read_text())


def with_releases(instance: Instance, releases) -> Instance:
    tasks = [t.with_release(float(r)) for t, r in zip(instance.tasks, releases)]
    return Instance(tasks, instance.m)


def placements_of(schedule) -> list[tuple]:
    return sorted((p.task.task_id, p.start, p.allotment, p.end) for p in schedule)


def fuzz_instance(seed: int, n: int, spread: float = 1.5) -> Instance:
    rng = np.random.default_rng(seed)
    kind = ("cirne", "mixed", "highly_parallel", "weakly_parallel")[seed % 4]
    base = generate_workload(kind, n=n, m=8, seed=seed)
    return with_releases(base, rng.exponential(spread, size=n).cumsum())


@functools.lru_cache(maxsize=4)  # the 3000-job windows, shared by two tests
def swf_window(n: int, m: int, seed: int, model: str) -> Instance:
    trace = load_trace(io.StringIO(synthesize_swf(n, m, seed=seed)))
    return trace_instance(trace, m, model, online=True)


def traced_run(policy, inst):
    """``policy.run(inst)`` under a fresh obs state: (result, counters)."""
    state = obs.enable(fresh=True)
    try:
        res = policy.run(inst)
    finally:
        obs.disable()
    return res, state.counters


def results_identical(a, b) -> None:
    assert a.batch_starts == b.batch_starts
    assert a.batch_contents == b.batch_contents
    assert placements_of(a.schedule) == placements_of(b.schedule)


class TestSpineVsWindowedOracles:
    """Every registry policy == its frozen pre-spine implementation."""

    @pytest.mark.parametrize("name", ZERO_CONFIG_POLICIES)
    @pytest.mark.parametrize("seed", [1, 29, 404])
    def test_registry_grid_bit_identical(self, name, seed):
        inst = fuzz_instance(seed, n=24)
        spine = get_policy(name, offline=schedule_demt).run(inst)
        oracle = WINDOWED_POLICIES[name](offline=schedule_demt).run(inst)
        results_identical(spine, oracle)
        validate_schedule(spine.schedule, inst)

    def test_reservation_policy_bit_identical(self):
        inst = fuzz_instance(7, n=16)
        blocked = [Reservation(0.0, 30.0, 3), Reservation(45.0, 60.0, 5)]
        spine = get_policy(
            "reservation", offline=schedule_demt, reservations=blocked
        ).run(inst)
        oracle = WINDOWED_POLICIES["reservation"](
            offline=schedule_demt, reservations=blocked
        ).run(inst)
        results_identical(spine, oracle)

    @given(seed=st.integers(0, 99_999), n=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_batch_fuzz(self, seed, n):
        inst = fuzz_instance(seed, n)
        results_identical(
            BatchPolicy(schedule_demt).run(inst),
            WINDOWED_POLICIES["batch"](offline=schedule_demt).run(inst),
        )

    @given(
        seed=st.integers(0, 99_999),
        n=st.integers(1, 30),
        backfill=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_fcfs_fuzz(self, seed, n, backfill):
        inst = fuzz_instance(seed, n, spread=0.5)
        name = "fcfs-backfill" if backfill else "fcfs"
        results_identical(
            get_policy(name).run(inst), WINDOWED_POLICIES[name]().run(inst)
        )

    @pytest.mark.parametrize("name", ["fcfs", "fcfs-backfill"])
    def test_tied_releases_queue_by_id_in_any_row_order(self, name):
        base = fuzz_instance(5, 40, spread=0.5)
        tasks = [t.with_release(float(np.floor(t.release))) for t in base]
        order = np.random.default_rng(5).permutation(len(tasks))
        inst = Instance([tasks[i] for i in order], base.m)
        assert len(set(inst.releases.tolist())) < inst.n  # ties exist
        results_identical(
            get_policy(name).run(inst), WINDOWED_POLICIES[name]().run(inst)
        )

    def test_reservation_bound_is_inclusive(self):
        # Job 0 holds one of two processors until 10; job 1 needs both,
        # so its reservation is 10.  Each filler needs one processor
        # for exactly t_res + TIME_EPS: the first one backfills at 0.
        inf = float("inf")
        edge = 10.0 + TIME_EPS
        tasks = [MoldableTask(0, [10.0, inf]), MoldableTask(1, [inf, 1.0])]
        tasks += [MoldableTask(2 + i, [edge, inf]) for i in range(8)]
        inst = Instance(tasks, 2)
        res = get_policy("fcfs-backfill").run(inst)
        results_identical(res, WINDOWED_POLICIES["fcfs-backfill"]().run(inst))
        assert res.schedule[2].start == 0.0
        assert res.schedule[3].start > 0.0

    @given(seed=st.integers(0, 99_999), n=st.integers(1, 25))
    @settings(max_examples=15, deadline=None)
    def test_seed_oracle_fuzz(self, seed, n):
        # The spine kernel still reproduces the *seed* scheduler too.
        inst = fuzz_instance(seed, n)
        results_identical(
            BatchPolicy(schedule_demt).run(inst),
            ReferenceBatchScheduler(schedule_demt).run(inst),
        )


class TestTraceScaleFcfs:
    """FCFS and EASY on 3000-job SWF windows == the windowed oracle.

    Rigid windows queue hundreds of jobs, downey ones a few dozen, so
    the EASY scan's candidate mask runs over long and short tails alike.
    """

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("model", ["rigid", "downey"])
    def test_fcfs_matches_oracle(self, seed, model):
        inst = swf_window(3000, 32, seed, model)
        res = get_policy("fcfs").run(inst)
        results_identical(res, WINDOWED_POLICIES["fcfs"]().run(inst))
        assert len(res.schedule) == 3000

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("model", ["rigid", "downey"])
    def test_backfill_matches_oracle(self, seed, model):
        inst = swf_window(3000, 32, seed, model)
        res, counters = traced_run(get_policy("fcfs-backfill"), inst)
        results_identical(res, WINDOWED_POLICIES["fcfs-backfill"]().run(inst))
        assert counters["online.backfill_scans"] > 0
        assert 0 < counters["online.backfilled"] <= counters[
            "online.backfill_candidates"
        ]


class TestEasyScanScaling:
    """Quadratic-regression guard: EASY examines a few jobs per scan.

    ``online.backfill_candidates`` counts the queue positions the scan
    examines in Python, ``online.backfill_scans`` the scans.  A scan
    that walks the waiting queue examines its whole tail, hundreds of
    positions on these rigid windows and more as the window grows; the
    columnar scan examines only the mask's hits, jobs that fit the hole
    when the scan starts, well under one per scan on average here.
    """

    def test_candidates_per_scan_stay_small(self):
        for n in (5000, 20000):
            inst = swf_window(n, 64, 7, "rigid")
            res, counters = traced_run(get_policy("fcfs-backfill"), inst)
            assert len(res.schedule) == n
            per_scan = (
                counters["online.backfill_candidates"]
                / counters["online.backfill_scans"]
            )
            assert per_scan <= 4.0, (n, per_scan)


class TestFaultyDifferential:
    """Spine faulty loop == frozen pre-spine faulty loop, faults and all."""

    @given(
        seed=st.integers(0, 9999),
        n=st.integers(2, 25),
        mtbf=st.sampled_from([5.0, 10.0, 25.0]),
        noisy=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_fault_injected_fuzz(self, seed, n, mtbf, noisy):
        inst = fuzz_instance(seed, n)
        trace = generate_failures(8, 400.0, f"exp:{mtbf:g}:3@{seed % 7}")
        noise = "lognormal:0.5@1" if noisy else "none"
        spine = FaultyBatchPolicy(noise=noise, failures=trace).run(inst)
        oracle = WindowedFaultyBatchPolicy(noise=noise, failures=trace).run(inst)
        results_identical(spine, oracle)
        assert spine.crashes == oracle.crashes
        assert spine.deferrals == oracle.deferrals
        assert [
            (e.time, e.kind, e.job_id, e.procs) for e in spine.log
        ] == [(e.time, e.kind, e.job_id, e.procs) for e in oracle.log]

    def test_nominal_runs_agree_too(self):
        inst = fuzz_instance(42, n=18)
        spine = FaultyBatchPolicy().run(inst)
        oracle = WindowedFaultyBatchPolicy().run(inst)
        results_identical(spine, oracle)
        assert spine.crashes == oracle.crashes == 0


class TestFaultyGoldens:
    """The spine faulty loop reproduces the pre-refactor recordings."""

    @pytest.mark.parametrize(
        "cell",
        FAULTY_GOLDENS["cells"],
        ids=[
            f"{c['kind']}-n{c['n']}-{c['failures']}"
            for c in FAULTY_GOLDENS["cells"]
        ],
    )
    def test_golden_cell(self, cell):
        rng = derive_rng(
            FAULTY_GOLDENS["_meta"]["seed"],
            "faulty",
            cell["kind"],
            cell["n"],
            int(cell["spread"] * 10),
        )
        base = generate_workload(
            cell["kind"], n=cell["n"], m=cell["m"], seed=rng
        )
        if cell["spread"] > 0:
            releases = rng.exponential(cell["spread"], size=cell["n"]).cumsum()
            inst = with_releases(base, releases)
        else:
            inst = base
        trace = generate_failures(
            cell["m"], cell["horizon"], cell["failures"]
        )
        res = FaultyBatchPolicy(noise=cell["noise"], failures=trace).run(inst)
        assert res.crashes == cell["crashes"]
        assert res.deferrals == cell["deferrals"]
        assert list(res.batch_starts) == cell["batch_starts"]
        assert [sorted(c) for c in res.batch_contents] == cell["batch_contents"]
        assert [
            list(p) for p in placements_of(res.schedule)
        ] == cell["placements"]
        assert [
            [e.time, e.kind.value, e.job_id, list(e.procs)] for e in res.log
        ] == cell["log"]

    def test_goldens_exercise_the_fault_plane(self):
        # The corpus is only worth its bytes if crashes/deferrals happen.
        assert all(c["crashes"] > 0 for c in FAULTY_GOLDENS["cells"])
        assert all(c["deferrals"] > 0 for c in FAULTY_GOLDENS["cells"])


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SLOW") != "1",
    reason="archive-scale smoke; set REPRO_RUN_SLOW=1 (CI slow lane)",
)
class TestMillionJobSmoke:
    """1M-job SWF replay window completes on the spine path."""

    def test_million_job_replay_window(self):
        import io

        from repro.algorithms.wspt import schedule_wspt
        from repro.workloads.trace import (
            load_trace,
            synthesize_swf,
            trace_instance,
        )

        n, m = 1_000_000, 32
        trace = load_trace(io.StringIO(synthesize_swf(n=n, m=m, seed=8)))
        inst = trace_instance(trace, m, "rigid", online=True)
        res = BatchPolicy(schedule_wspt).run(inst)
        assert len(res.schedule) == n
        assert res.n_batches > 1
        assert res.schedule.makespan() > 0


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SLOW") != "1",
    reason="archive-scale smoke; set REPRO_RUN_SLOW=1 (CI slow lane)",
)
class TestEasyArchiveWindow:
    """100k-job rigid SWF window through EASY backfilling, validated."""

    def test_hundred_thousand_job_easy_window(self):
        n, m = 100_000, 64
        inst = swf_window.__wrapped__(n, m, 7, "rigid")
        res = get_policy("fcfs-backfill").run(inst)
        assert len(res.schedule) == n
        validate_schedule(res.schedule, inst)
