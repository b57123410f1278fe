"""FCFS with EASY backfilling — the production-scheduler baseline (§1.2).

The paper's related work: "the basic idea in job schedulers is to queue
jobs and to schedule them one after the other using some simple rules like
FCFS with priorities.  MAUI scheduler extends the model with additional
features like fairness and backfilling."  This module provides that
reference point so DEMT can be compared against what clusters actually ran
in 2004:

* jobs are *rigidified* first (:func:`rigidify`) — FCFS queues ignore
  moldability, the user's fixed request is simulated by picking each
  task's minimal-area allotment under a deadline heuristic;
* jobs start in submission order whenever enough processors are free;
* **EASY backfilling**: when the queue head does not fit, a reservation
  is computed for it (the earliest time enough processors will be free),
  and later jobs may jump ahead *only if* they terminate before that
  reservation (they never delay the head).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import Instance
from repro.core.profile import FreeProfile
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError

__all__ = ["rigid_columns", "rigidify", "FcfsBackfillScheduler"]


def rigid_columns(
    instance: Instance, *, slack: float = 2.0
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed allotments and their durations, one per instance row.

    Users of rigid systems request "enough processors to finish in
    reasonable time".  We model this as the minimal-*area* allotment that
    meets the deadline ``slack * (fastest duration)`` — frugal in work,
    as a user paying for node-hours would be, but not pathologically
    sequential.

    Computed from the instance's columns in one masked ``argmin`` of
    ``k * p(k)``: the same rule, bits and first-index tie-break as
    :func:`~repro.core.allotment.minimal_area_allotment` applied per task
    (the deadline uses each task's full-vector ``min_time``).  Returns
    ``(allotments, durations)`` as int64 / float64 arrays in row order.
    """
    if slack < 1.0:
        raise ValueError(f"slack must be >= 1, got {slack}")
    times = instance.times_matrix
    feasible = times <= (instance.min_times * slack)[:, None]
    ok = feasible.any(axis=1)
    if not ok.all():
        # Only a task whose fastest allotment lies past m gets here.
        bad = int(instance.task_ids[np.argmin(ok)])
        raise SchedulingError(f"task {bad} cannot meet its own deadline")
    cols = np.where(feasible, instance.areas_matrix, np.inf).argmin(axis=1)
    durations = times[np.arange(times.shape[0]), cols]
    return cols + 1, durations


def rigidify(instance: Instance, *, slack: float = 2.0) -> dict[int, int]:
    """Task id -> fixed allotment (see :func:`rigid_columns`)."""
    allot, _durations = rigid_columns(instance, slack=slack)
    return dict(zip(instance.task_ids.tolist(), allot.tolist()))


@dataclass
class _Queued:
    task_id: int
    allotment: int
    duration: float


class FcfsBackfillScheduler:
    """First-come-first-served with optional EASY backfilling.

    Parameters
    ----------
    backfill:
        ``True`` enables EASY backfilling (the MAUI-style improvement);
        ``False`` is pure FCFS (a later job never starts before an earlier
        one *starts*).
    slack:
        Passed to :func:`rigidify`.

    Submission order is task-id order (the §4.1 generators assign ids in
    generation order, which stands in for arrival order in the off-line
    setting).
    """

    def __init__(self, backfill: bool = True, slack: float = 2.0) -> None:
        self.backfill = backfill
        self.slack = slack
        self.name = "FCFS+EASY" if backfill else "FCFS"

    def schedule(self, instance: Instance) -> Schedule:
        out = Schedule(instance.m)
        if instance.n == 0:
            return out
        allot = rigidify(instance, slack=self.slack)
        queue = [
            _Queued(t.task_id, allot[t.task_id], t.p(allot[t.task_id]))
            for t in sorted(instance, key=lambda t: t.task_id)
        ]
        # The incremental free-processor profile replaces the seed's full
        # rescan of all prior placements per earliest-fit query.
        profile = FreeProfile(instance.m)

        def place(job: _Queued, start: float) -> None:
            out.add(instance.task_by_id(job.task_id), start, job.allotment)
            profile.reserve(start, job.duration, job.allotment)

        while queue:
            head = queue[0]
            head_start = profile.earliest_fit(head.allotment, head.duration)
            if not self.backfill:
                place(head, head_start)
                queue.pop(0)
                continue

            # EASY: give the head its reservation, then scan the rest for
            # jobs that fit *now* without pushing the head past it.
            place(head, head_start)
            queue.pop(0)
            i = 0
            while i < len(queue):
                cand = queue[i]
                start = profile.earliest_fit(cand.allotment, cand.duration)
                # Backfill only if the candidate starts before the head's
                # reservation and ends by it (it can then never delay any
                # not-yet-reserved job either, since it uses only holes).
                if start + cand.duration <= head_start + 1e-9:
                    place(cand, start)
                    queue.pop(i)
                else:
                    i += 1
        return out
