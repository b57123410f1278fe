"""Seed (pre-vectorization) scheduling implementations, kept as oracles.

When the ``O(n^2)`` per-pass rescans of the seed release were replaced by
the vectorized core of :mod:`repro.core.profile`, the originals moved here
verbatim instead of being deleted.  They are *specifications*: slow,
obviously-correct Python that the fast path must match bit-for-bit.

Used by

* ``tests/properties/`` — the differential suite runs both paths on a
  randomized corpus and asserts identical placements;
* ``benchmarks/bench_fig7_timing.py`` — :class:`ReferenceDemtScheduler`
  is the baseline of the vectorized-core speedup measurement.

Nothing in the library's production paths imports this module.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.algorithms.list_scheduling import ListItem, _place
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.utils.rng import make_rng

__all__ = [
    "reference_list_schedule",
    "reference_pull_forward",
    "reference_list_compaction",
    "reference_earliest_fit",
    "ReferenceDemtScheduler",
]


def reference_list_schedule(
    items: Sequence[ListItem],
    m: int,
    *,
    schedule: Schedule | None = None,
    start_time: float = 0.0,
) -> Schedule:
    """The seed's Graham list scheduling (rescan of the pending list)."""
    for it in items:
        if it.allotment > m:
            raise SchedulingError(
                f"task {it.task.task_id}: allotment {it.allotment} exceeds m={m}"
            )
        if not np.isfinite(it.duration):
            raise SchedulingError(
                f"task {it.task.task_id}: infinite duration for allotment {it.allotment}"
            )

    out = schedule if schedule is not None else Schedule(m)
    pending: list[ListItem] = list(items)
    free = m
    now = float(start_time)
    running: list[tuple[float, int]] = []  # (end_time, allotment) min-heap

    while pending:
        started_any = True
        while started_any:
            started_any = False
            for idx, it in enumerate(pending):
                if it.allotment <= free:
                    _place(out, it, now)
                    heapq.heappush(running, (now + it.duration, it.allotment))
                    free -= it.allotment
                    del pending[idx]
                    started_any = True
                    break
        if not pending:
            break
        if not running:  # pragma: no cover - defensive
            raise SchedulingError("list scheduling deadlocked (item larger than machine?)")
        end, allot = heapq.heappop(running)
        free += allot
        now = end
        while running and running[0][0] <= now:
            _, a = heapq.heappop(running)
            free += a
    return out


def reference_earliest_fit(
    placed: list[tuple[float, float, int]],
    allotment: int,
    duration: float,
    m: int,
) -> float:
    """The seed's quadratic earliest-fit over a list of placements."""
    candidates = sorted({0.0, *(end for _, end, _ in placed)})
    for t0 in candidates:
        t1 = t0 + duration
        points = [t0, *(s for s, _, _ in placed if t0 < s < t1)]
        if all(
            sum(a for s, e, a in placed if s <= point < e) + allotment <= m
            for point in points
        ):
            return t0
    return max((end for _, end, _ in placed), default=0.0)  # pragma: no cover


def reference_pull_forward(
    batches: Sequence[Sequence[ListItem]], m: int
) -> Schedule:
    """The seed's order-preserving compaction (full profile rescans)."""
    out = Schedule(m)
    placed: list[tuple[float, float, int]] = []
    for items in batches:
        for it in items:
            start = reference_earliest_fit(placed, it.allotment, it.duration, m)
            _place(out, it, start)
            placed.append((start, start + it.duration, it.allotment))
    return out


def reference_list_compaction(
    batches: Sequence[Sequence[ListItem]], m: int
) -> Schedule:
    """The seed's full Graham list compaction with the batch ordering."""
    flat: list[ListItem] = [it for items in batches for it in items]
    return reference_list_schedule(flat, m)


def reference_minimal_area_allotments(
    times_matrix: np.ndarray, deadline: float
) -> np.ndarray:
    """The seed's per-deadline area-matrix rebuild."""
    n, m = times_matrix.shape
    ks = np.arange(1, m + 1, dtype=np.float64)
    areas = np.where(times_matrix <= deadline, times_matrix * ks, np.inf)
    return areas.min(axis=1)


def reference_knapsack_min_work(
    work_a: np.ndarray,
    cost_a: np.ndarray,
    work_b: np.ndarray,
    m: int,
) -> tuple[np.ndarray, float]:
    """The seed's min-work knapsack (fresh allocations every row)."""
    n = work_a.size
    if not (cost_a.size == n and work_b.size == n):
        raise ValueError("work_a, cost_a and work_b must have the same length")
    if m < 0:
        raise ValueError(f"capacity must be non-negative, got {m}")

    INF = np.inf
    dp = np.full(m + 1, 0.0)
    choice = np.zeros((n, m + 1), dtype=bool)  # True = option A
    for i in range(n):
        a_cost = int(cost_a[i])
        via_b = dp + work_b[i]
        if a_cost <= m and np.isfinite(work_a[i]):
            via_a = np.full(m + 1, INF)
            via_a[a_cost:] = dp[: m + 1 - a_cost] + work_a[i]
        else:
            via_a = np.full(m + 1, INF)
        take_a = via_a < via_b
        choice[i] = take_a
        dp = np.where(take_a, via_a, via_b)

    total = float(dp[m])
    if not np.isfinite(total):
        return np.zeros(n, dtype=bool), INF
    q = m
    in_a = np.zeros(n, dtype=bool)
    for i in range(n - 1, -1, -1):
        if choice[i, q]:
            in_a[i] = True
            q -= int(cost_a[i])
    return in_a, total


def reference_feasibility_check(instance, lam):
    """The seed's necessary-condition test for "makespan <= lam exists"."""
    from repro.core.allotment import minimal_allotments

    if lam <= 0:
        return False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    tm = instance.times_matrix
    m = instance.m

    g_big = minimal_allotments(tm, lam)
    if (g_big == 0).any():
        return False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    g_small = minimal_allotments(tm, lam / 2.0)
    work_big = reference_minimal_area_allotments(tm, lam)
    work_small = reference_minimal_area_allotments(tm, lam / 2.0)

    in_big, total = reference_knapsack_min_work(
        work_a=work_big,
        cost_a=g_big.astype(np.float64),
        work_b=work_small,
        m=m,
    )
    if not np.isfinite(total) or total > m * lam * (1 + 1e-12):
        return False, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    allot = np.where(in_big, g_big, g_small).astype(np.int64)
    return True, in_big, allot


def reference_dual_approximation(instance, *, rel_tol=1e-3, max_iter=80):
    """The seed's binary search + two-shelf construction, end to end."""
    from repro.algorithms.dual_approx import DualApproxResult

    if instance.n == 0:
        return DualApproxResult(0.0, 0.0, {}, frozenset(), _prebuilt=Schedule(instance.m))

    lo = max(instance.max_min_time, instance.min_total_work / instance.m)

    feasible, in_big, allot = reference_feasibility_check(instance, lo)
    if not feasible:
        hi = lo * 2.0
        for _ in range(max_iter):
            feasible, in_big, allot = reference_feasibility_check(instance, hi)
            if feasible:
                break
            lo = hi
            hi *= 2.0
        else:  # pragma: no cover - defensive
            raise SchedulingError("dual approximation did not find a feasible lambda")
        for _ in range(max_iter):
            if hi - lo <= rel_tol * lo:
                break
            mid = 0.5 * (lo + hi)
            ok, ib, al = reference_feasibility_check(instance, mid)
            if ok:
                hi, in_big, allot = mid, ib, al
            else:
                lo = mid
        lam = hi
    else:
        lam = lo

    tasks = instance.tasks
    big_items = [
        ListItem(tasks[i], int(allot[i])) for i in range(len(tasks)) if in_big[i]
    ]
    small_items = [
        ListItem(tasks[i], int(allot[i])) for i in range(len(tasks)) if not in_big[i]
    ]
    big_items.sort(key=lambda it: (-it.allotment, it.task.task_id))
    small_items.sort(key=lambda it: (-it.duration, it.task.task_id))
    schedule = reference_list_schedule(big_items + small_items, instance.m)
    allotments = {t.task_id: int(allot[i]) for i, t in enumerate(instance.tasks)}
    big_ids = frozenset(t.task_id for i, t in enumerate(instance.tasks) if in_big[i])
    return DualApproxResult(
        lower_bound=float(lo),
        lam=float(lam),
        allotments=allotments,
        big_shelf=big_ids,
        _prebuilt=schedule,
    )


# Imported late to avoid a cycle (demt imports compaction at module load).
from repro.algorithms.demt import DemtScheduler, batch_rounds  # noqa: E402


class ReferenceDemtScheduler(DemtScheduler):
    """DEMT running entirely on the seed's implementations.

    Seed dual approximation, seed selection loop (a dict of the remaining
    tasks, a per-task admissibility scan each round), seed compaction and
    seed shuffle loop — the full pre-vectorization behavior, for
    differential tests and as the baseline of the speedup benchmark in
    ``benchmarks/bench_fig7_timing.py``.  It shares only the batch
    geometry (:func:`~repro.algorithms.demt.batch_rounds`) and the shelf
    starts with the production class.
    """

    name = "DEMT(reference)"

    def _dual(self, instance):
        return reference_dual_approximation(instance)

    def _select_batches(self, instance, t_grid):
        """The seed's selection loop: a dict of the remaining tasks, and
        one per-task :meth:`_select_one_batch` call per round."""
        remaining = {t.task_id: t for t in instance.tasks}
        batches, rounds = [], []
        for j, length in batch_rounds(t_grid, instance.n):
            if not remaining:
                break
            selected = self._select_one_batch(list(remaining.values()), length, instance.m)
            if selected:
                batches.append(selected)
                rounds.append(j)
                for it in selected:
                    for task in it.stack or (it.task,):
                        del remaining[task.task_id]
        if remaining:  # pragma: no cover - defensive
            raise SchedulingError(f"batch selection left {len(remaining)} tasks unplaced")
        return batches, rounds

    def _select_one_batch(self, tasks, length, m):
        from repro.algorithms.knapsack import KnapsackItem, knapsack_select
        from repro.algorithms.merge import merge_small_tasks
        from repro.core.allotment import minimal_allotment

        admissible = [t for t in tasks if minimal_allotment(t, length, m=m) is not None]
        if not admissible:
            return []
        stacks, rest = merge_small_tasks(
            admissible, length, small_threshold_factor=self.small_threshold_factor
        )
        items = []
        payload = {}
        for s_idx, stack in enumerate(stacks):
            key = ("stack", s_idx)
            items.append(KnapsackItem(key, 1, stack.weight))
            payload[key] = ListItem(stack.tasks[0], 1, stack=stack.tasks)
        for task in rest:
            key = ("task", task.task_id)
            allot = minimal_allotment(task, length, m=m)
            assert allot is not None
            items.append(KnapsackItem(key, allot, task.weight))
            payload[key] = ListItem(task, allot)

        result = knapsack_select(items, m)
        chosen = [payload[k] for k in result.selected_keys]
        chosen.sort(
            key=lambda it: (
                -(sum(t.weight for t in it.stack) if it.stack else it.task.weight)
                / it.duration,
                it.task.task_id,
            )
        )
        return chosen

    def _compact(self, batches, starts, m):
        if self.compaction == "shelf":
            from repro.algorithms.compaction import shelf_placement

            return shelf_placement(batches, starts, m)
        if self.compaction == "pull_forward":
            return reference_pull_forward(batches, m)
        return reference_list_compaction(batches, m)

    def _shuffle_optimise(self, batches, m, baseline):
        rng = make_rng(self.seed)
        best = baseline
        best_minsum = baseline.weighted_completion_sum()
        base_cmax = baseline.makespan()
        order = np.arange(len(batches))
        for _ in range(self.shuffle_rounds):
            rng.shuffle(order)
            candidate = reference_list_compaction([batches[i] for i in order], m)
            if candidate.makespan() <= base_cmax * (1 + 1e-12):
                minsum = candidate.weighted_completion_sum()
                if minsum < best_minsum:
                    best, best_minsum = candidate, minsum
        gain = (baseline.weighted_completion_sum() - best_minsum) / max(
            baseline.weighted_completion_sum(), 1e-300
        )
        return best, gain
