"""On-line scheduling policies (§2.2 and the §1.2 baselines), pluggable.

Jobs arrive over time (release dates).  An :class:`OnlinePolicy` decides,
without seeing the future, when and how wide each job runs; the registry
:data:`ONLINE_POLICIES` makes the policy a first-class, sweepable campaign
axis (trace replays, arrival sweeps and Pareto fronts all take a policy
name):

``batch``
    The paper's framework (Shmoys–Wein–Williamson [21]): while batch ``k``
    executes, arriving jobs queue up; when the batch completes, all queued
    jobs are scheduled as one off-line instance by a pluggable off-line
    scheduler.  If that scheduler is a ρ-approximation for the makespan,
    the wrapper is ``2ρ``-competitive — this is how the paper derives its
    ``3 + ε`` on-line guarantee from the ``3/2 + ε`` off-line DEMT, and
    the wrapper deployed on Icluster2.  :class:`BatchPolicy` is the
    production kernel: batch sub-instances are built by **zero-copy
    columnar restriction** (:meth:`repro.core.instance.Instance.
    from_arrays` over row slices) instead of the seed's per-task object
    rebuilds, and shifted placements skip re-derivation.  The seed
    implementation survives verbatim as
    :class:`repro.simulator.reference.ReferenceBatchScheduler`, the
    differential oracle the tests pin this kernel against bit for bit.
``fcfs`` / ``fcfs-backfill``
    The §1.2 production-scheduler baselines, lifted from
    :mod:`repro.extensions.fcfs` into the on-line setting: jobs are
    rigidified on arrival and started first-come-first-served on the
    shared event core (``fcfs-backfill`` adds EASY backfilling — later
    jobs may jump ahead only if they cannot delay the queue head's
    reservation).
``greedy-interval``
    The batch wrapper around the plain Shmoys-style interval scheduler
    (:class:`repro.extensions.greedy_interval.GreedyIntervalScheduler`) —
    the structural ablation of the batch policy.
``reservation``
    The batch wrapper scheduling each batch around administrator
    reservations (:mod:`repro.extensions.reservations`), the §5
    time-varying-capacity extension.  Requires a ``reservations=``
    argument, so the trace-replay CLI exposes every policy except this
    one.

All policies run on the same primitives as
:class:`~repro.simulator.engine.ClusterSimulator` — the incremental
:class:`~repro.simulator.events.EventSpine` with its
:data:`~repro.core.validation.TIME_EPS` arrival/event windowing — so
"simultaneous" means the same thing when a schedule is produced and when
it is replayed on the simulated cluster.  The pre-spine generation of
these loops survives verbatim in :mod:`repro.simulator.windowed` as the
differential oracle layer the tests pin this module against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validation import TIME_EPS
from repro.exceptions import SchedulingError
from repro.simulator.events import EventSpine, Transition

__all__ = [
    "OnlineResult",
    "OnlinePolicy",
    "BatchPolicy",
    "FcfsOnlinePolicy",
    "GreedyIntervalPolicy",
    "ReservationPolicy",
    "OnlineBatchScheduler",
    "ONLINE_POLICIES",
    "ENGINE_DRIVEN_POLICIES",
    "ZERO_CONFIG_POLICIES",
    "get_policy",
]


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an on-line run.

    Attributes
    ----------
    schedule:
        The combined schedule (release-date feasible).
    batch_starts:
        Start time of every executed batch (empty for immediate policies,
        which make one decision per job instead of per batch).
    batch_contents:
        Task ids scheduled in each batch (parallel to ``batch_starts``).
    """

    schedule: Schedule
    batch_starts: tuple[float, ...]
    batch_contents: tuple[frozenset[int], ...]

    @property
    def n_batches(self) -> int:
        return len(self.batch_starts)


class OnlinePolicy:
    """One on-line scheduling discipline: ``run(instance) -> OnlineResult``.

    Subclasses must set :attr:`name` (the registry/cache identity) and
    implement :meth:`run`; they share the arrival ordering helper so every
    policy agrees on what order jobs "appear" in.
    """

    #: Registry name; also the policy axis of replay cell keys.
    name: str = "abstract"

    def run(self, instance: Instance) -> OnlineResult:
        raise NotImplementedError

    @staticmethod
    def _arrival_order(instance: Instance) -> np.ndarray:
        """Indices of the instance's rows sorted by ``(release, task_id)``
        — computed columnar, no task objects materialised."""
        return np.lexsort((instance.task_ids, instance.releases))


class BatchPolicy(OnlinePolicy):
    """The paper's batch-doubling wrapper, on the columnar kernel.

    Parameters
    ----------
    offline:
        A callable ``Instance -> Schedule`` (e.g.
        :func:`repro.algorithms.demt.schedule_demt`).  The sub-instances it
        receives are off-line (releases stripped); its output is shifted to
        the batch start.

    Batches follow the arrival process: the first batch starts at the
    earliest release; batch ``k+1`` starts when batch ``k`` completes (or
    at the next release if the machine went idle with an empty queue).
    Arrivals within :data:`~repro.core.validation.TIME_EPS` of the batch
    cut count as arrived — the same windowing the simulator engine applies
    when it replays the result (the seed used a private ``1e-12`` here).

    Each batch's sub-instance is a zero-copy columnar restriction: the
    arrival-sorted columns are gathered **once** (or shared outright with
    the parent instance when it already is in arrival order — the common
    case for traces), and every batch is then one contiguous row *slice*
    handed to :meth:`~repro.core.instance.Instance.from_arrays` with
    validation skipped — no per-batch gather, no
    :class:`~repro.core.task.MoldableTask` rebuilds, no parent-task index
    materialisation.  Sub-instances keep their real release columns, so
    placements carry release metadata without re-binding; the arrival
    cursor is the :class:`~repro.simulator.events.EventSpine` arrival
    tape, whose ``t + TIME_EPS`` batch-cut window is the same one the
    simulator engine applies when it replays the result.
    """

    name = "batch"

    def __init__(self, offline: Callable[[Instance], Schedule] | None = None) -> None:
        if offline is None:
            from repro.algorithms.demt import schedule_demt

            offline = schedule_demt
        self.offline = offline

    def _schedule_batch(self, sub: Instance, now: float) -> Schedule:
        """Hook: produce the off-line schedule of one batch (time origin 0
        at ``now``).  Subclasses may use ``now`` (reservations do)."""
        return self.offline(sub)

    def run(self, instance: Instance) -> OnlineResult:
        """Schedule ``instance`` respecting release dates."""
        state = obs.ACTIVE
        if state is None:
            return self._run_impl(instance)
        with state.span("policy:" + self.name, "algorithm"):
            return self._run_impl(instance)

    def _run_impl(self, instance: Instance) -> OnlineResult:
        m = instance.m
        out = Schedule(m)
        n = instance.n
        if n == 0:
            return OnlineResult(out, (), ())

        # Arrival-sorted columnar view, gathered once: each batch is a
        # contiguous row slice (adopted zero-copy by ``from_arrays``).
        # Traces and generators already emit arrival order, so the common
        # case shares the parent's read-only buffers outright.
        order = self._arrival_order(instance)
        if np.array_equal(order, np.arange(n)):
            rel = instance.releases
            times = instance.times_matrix
            weights = instance.weights
            ids = instance.task_ids
        else:
            rel = np.ascontiguousarray(instance.releases[order])
            times = np.ascontiguousarray(instance.times_matrix[order])
            weights = np.ascontiguousarray(instance.weights[order])
            ids = np.ascontiguousarray(instance.task_ids[order])

        spine = EventSpine(m)
        spine.load_arrivals(rel, ids)

        placements = out._placements
        by_id = out._by_id
        shift = object.__setattr__
        batch_starts: list[float] = []
        batch_contents: list[frozenset[int]] = []

        now = float(rel[0])
        while True:
            # Jobs that have arrived by `now` (within the shared event
            # window) form the next batch; if none, jump to the next
            # arrival (idle gap) or finish.
            lo, hi = spine.take_arrivals(now)
            if hi <= lo:
                nxt = spine.next_arrival()
                if nxt is None:
                    break
                now = nxt
                continue
            sl = slice(lo, hi)
            batch_ids = ids[sl].tolist()
            state = obs.ACTIVE
            if state is not None:
                state.count("online.batches")
                state.observe("online.batch_size", hi - lo)

            # Off-line sub-instance at time origin 0: a zero-copy row
            # slice of the arrival-sorted columns (real releases kept —
            # the engines schedule from origin 0 and never read them, and
            # placements then carry correct release metadata for free).
            sub = Instance.from_arrays(
                times[sl],
                weights[sl],
                rel[sl],
                m,
                task_ids=ids[sl],
                validate=False,
            )
            batch_schedule = self._schedule_batch(sub, now)
            if len(batch_schedule) != len(batch_ids) or (
                batch_schedule.task_ids() != set(batch_ids)
            ):
                raise SchedulingError(
                    "off-line scheduler did not place exactly the batch's tasks"
                )
            # Shift into the batch window.  The sub-schedule is freshly
            # built by the engine and referenced nowhere else, so its
            # placements are *adopted*: shifted in place (``end`` recomputed
            # as ``start + duration``, the ``_trusted`` arithmetic) and
            # bulk-appended — no per-placement reconstruction.
            batch_end = now
            batch_placements = batch_schedule._placements
            for p in batch_placements:
                # The next batch cut is anchored on the engine's ``end``
                # shifted as one sum (``now + p.end``); the placement's own
                # ``end`` is the ``_trusted`` arithmetic ``start + duration``
                # — the two differ in the last ulp, and both are pinned by
                # the differential oracles.
                end = now + p.end
                if end > batch_end:
                    batch_end = end
                start = now + p.start
                shift(p, "start", start)
                shift(p, "end", start + p.duration)
            placements.extend(batch_placements)
            by_id.update(batch_schedule._by_id)
            batch_starts.append(now)
            batch_contents.append(frozenset(batch_ids))
            now = batch_end

        out.__dict__.pop("_events", None)  # placements appended directly
        return OnlineResult(
            schedule=out,
            batch_starts=tuple(batch_starts),
            batch_contents=tuple(batch_contents),
        )


class OnlineBatchScheduler(BatchPolicy):
    """Historical name of the batch policy (kept as the public API).

    ``OnlineBatchScheduler(offline).run(instance)`` behaves exactly like
    ``BatchPolicy(offline).run(instance)``; the seed implementation it
    replaced lives on as :class:`repro.simulator.reference.
    ReferenceBatchScheduler`, the differential oracle of the test suite.
    """


class GreedyIntervalPolicy(BatchPolicy):
    """The batch wrapper around the plain interval-doubling scheduler.

    The structural ablation of :class:`BatchPolicy`: same arrival
    batching, but each batch is scheduled by
    :class:`~repro.extensions.greedy_interval.GreedyIntervalScheduler`
    (geometric batches, no merging, no compaction, no shuffling).  The
    ``offline`` argument is ignored — the engine *is* the policy here.
    """

    name = "greedy-interval"

    def __init__(self, offline: Callable | None = None) -> None:
        from repro.extensions.greedy_interval import GreedyIntervalScheduler

        super().__init__(GreedyIntervalScheduler().schedule)


class ReservationPolicy(BatchPolicy):
    """Batch policy scheduling around administrator reservations (§5).

    Each batch is placed by :class:`~repro.extensions.reservations.
    ReservationScheduler` against the capacity profile *as seen from the
    batch start*: a reservation ``[s, e)`` in absolute time becomes
    ``[max(0, s - now), e - now)`` for the batch starting at ``now``
    (expired reservations vanish).  ``offline`` configures the DEMT used
    for batch ordering when it is a :class:`~repro.algorithms.demt.
    DemtScheduler`; other callables fall back to the default DEMT.
    """

    name = "reservation"

    def __init__(
        self,
        reservations: "Sequence",
        offline: Callable[[Instance], Schedule] | None = None,
    ) -> None:
        super().__init__(offline)
        self.reservations = tuple(reservations)

    def _schedule_batch(self, sub: Instance, now: float) -> Schedule:
        from repro.algorithms.demt import DemtScheduler
        from repro.extensions.reservations import Reservation, ReservationScheduler

        shifted = [
            Reservation(max(0.0, r.start - now), r.end - now, r.procs)
            for r in self.reservations
            if r.end - now > TIME_EPS
        ]
        demt = self.offline if isinstance(self.offline, DemtScheduler) else None
        return ReservationScheduler(shifted, demt).schedule(sub)


class FcfsOnlinePolicy(OnlinePolicy):
    """Immediate FCFS (optionally EASY-backfilled) on the event core.

    The §1.2 baseline of :mod:`repro.extensions.fcfs`, run genuinely
    on-line: jobs are rigidified (fixed user-request allotments via
    :func:`~repro.extensions.fcfs.rigid_columns`) and dispatched at
    arrival and completion events — no batching, no clairvoyance.  With
    ``backfill=True`` a job that cannot start computes its reservation
    (the earliest instant enough processors will have been freed) and
    later arrivals may jump ahead only if they terminate by then, so the
    queue head is never delayed — EASY semantics.

    The event loop is the shared incremental
    :class:`~repro.simulator.events.EventSpine` (FINISH transitions free
    processors before simultaneous ARRIVALs dispatch), so its notion of
    simultaneity is identical to the simulator engine's; the running set
    and the EASY reservation bound
    (:meth:`~repro.simulator.events.EventSpine.earliest_free`) live on
    the spine.  The waiting queue is columnar: widths and durations by
    arrival position, a started job's width set to ``m + 1`` so no
    later test can pick it.  A blocked head costs one reservation query
    and one vectorised candidate mask instead of a Python walk of the
    whole queue; the mask is exact because ``free`` only falls and the
    reservation is fixed during a scan, so a job rejected once stays
    rejected.  The pre-spine loop survives in
    :class:`~repro.simulator.windowed.WindowedFcfsPolicy`, the oracle
    the tests pin this one against bit for bit.
    """

    def __init__(self, backfill: bool = True, slack: float = 2.0) -> None:
        self.backfill = bool(backfill)
        self.slack = float(slack)
        self.name = "fcfs-backfill" if backfill else "fcfs"

    def run(self, instance: Instance) -> OnlineResult:
        state = obs.ACTIVE
        if state is None:
            return self._run_impl(instance)
        with state.span("policy:" + self.name, "algorithm"):
            return self._run_impl(instance)

    def _run_impl(self, instance: Instance) -> OnlineResult:
        from repro.extensions.fcfs import rigid_columns

        m = instance.m
        out = Schedule(m)
        if instance.n == 0:
            return OnlineResult(out, (), ())

        allot, durations = rigid_columns(instance, slack=self.slack)
        ids = instance.task_ids.tolist()
        tasks = instance.tasks
        backfill = self.backfill

        # FINISH transitions free processors before simultaneous ARRIVALs
        # enqueue; each window dispatches once, and the spine hands out
        # arrivals in (release, id) order.
        finish = int(Transition.FINISH)
        arrival = int(Transition.ARRIVAL)
        spine = EventSpine(
            m,
            ((r, arrival, j) for r, j in zip(instance.releases.tolist(), ids)),
        )
        # The waiting queue by arrival position, laid out up front: the
        # instance row, width and duration of the pos-th arrival (lists
        # for scalar reads, arrays for the mask).  Positions below
        # ``tail`` have arrived; ``head`` is the first not yet started.
        order = np.lexsort((instance.task_ids, instance.releases))
        rows = order.tolist()
        W = allot[order]
        D = durations[order]
        widths = W.tolist()
        durs = D.tolist()
        started = m + 1
        head = tail = 0
        scans = backfilled = candidates = 0

        def start(pos: int, now: float) -> None:
            row = rows[pos]
            k = widths[pos]
            duration = durs[pos]
            out._place_trusted(tasks[row], now, k, duration)
            spine.start(ids[row], k, now, now + duration)

        def dispatch(now: float) -> None:
            nonlocal head, scans, backfilled, candidates
            free = spine.free
            while head < tail:
                k = widths[head]
                if k == started:  # backfilled earlier
                    head += 1
                    continue
                if k > free:
                    break
                start(head, now)
                free -= k
                head += 1
            else:
                return
            if not backfill or free == 0:
                return
            # EASY: the head holds a reservation; later jobs may fill
            # the current hole only if they finish by it.
            scans += 1
            bound = spine.earliest_free(widths[head]) + TIME_EPS
            # Every job that fits now and ends by the reservation, in
            # arrival order; only the width needs re-checking, as each
            # start lowers ``free``.
            lo = head + 1
            fits = (W[lo:tail] <= free) & (now + D[lo:tail] <= bound)
            for i in (fits.nonzero()[0] + lo).tolist():
                candidates += 1
                k = widths[i]
                if k <= free:
                    start(i, now)
                    widths[i] = W[i] = started
                    backfilled += 1
                    free -= k
                    if free == 0:
                        return

        while spine:
            window = spine.pop_window()
            now = window[0][0]
            for time, priority, job_id in window:
                if priority == finish:
                    spine.finish(job_id, time)
                else:  # arrival
                    tail += 1
            dispatch(now)

        if any(
            k != started for k in widths[head:]
        ):  # pragma: no cover - every start enqueues a completion
            raise SchedulingError("FCFS policy stalled with jobs waiting")
        state = obs.ACTIVE
        if state is not None and backfill:
            state.count("online.backfill_scans", scans)
            state.count("online.backfilled", backfilled)
            state.count("online.backfill_candidates", candidates)
        return OnlineResult(out, (), ())


#: Policy name -> factory.  Factories accept the keyword arguments their
#: class documents (``offline=`` for the batch family, ``backfill`` /
#: ``slack`` for FCFS, ``reservations=`` for the reservation policy).
ONLINE_POLICIES: dict[str, Callable[..., OnlinePolicy]] = {
    "batch": BatchPolicy,
    "fcfs": lambda offline=None, **kw: FcfsOnlinePolicy(backfill=False, **kw),
    "fcfs-backfill": lambda offline=None, **kw: FcfsOnlinePolicy(backfill=True, **kw),
    "greedy-interval": GreedyIntervalPolicy,
    "reservation": ReservationPolicy,
}

#: Policies whose behavior depends on the ``offline`` engine.  The rest
#: (the immediate FCFS variants, the fixed-engine greedy-interval) ignore
#: it — sweeping them across engines would just repeat one measurement.
ENGINE_DRIVEN_POLICIES = ("batch", "reservation")

#: Policies constructible without extra configuration — the set exposed
#: as replay modes, swept by ``--front`` and raced by the bench grid.
#: (``reservation`` needs a reservations argument and is library-only.)
ZERO_CONFIG_POLICIES = tuple(p for p in ONLINE_POLICIES if p != "reservation")


def get_policy(
    spec: "str | OnlinePolicy",
    *,
    offline: Callable[[Instance], Schedule] | None = None,
    **kwargs,
) -> OnlinePolicy:
    """Resolve a policy spec: a registry name or an instance (passthrough).

    ``offline`` configures the off-line engine of the batch-family
    policies; the immediate policies ignore it (they take no engine).

    >>> get_policy("batch").name
    'batch'
    >>> get_policy("fcfs").backfill
    False
    """
    if isinstance(spec, OnlinePolicy):
        return spec
    try:
        factory = ONLINE_POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown on-line policy {spec!r}; available: "
            f"{', '.join(ONLINE_POLICIES)}"
        ) from None
    return factory(offline=offline, **kwargs)
