"""DEMT — the paper's bi-criteria batch scheduling algorithm (§3.2).

The algorithm, following the pseudo-code of the paper:

1. Compute the approximate optimal makespan ``C*max`` with the
   dual-approximation algorithm (:mod:`repro.algorithms.dual_approx`).
2. Let ``t_min = min_{i,k} p_i(k)`` and ``K = floor(log2(C*max / t_min))``;
   define the geometric grid ``t_j = C*max / 2^(K-j)`` so that batch ``j``
   occupies the window ``[t_j, t_{j+1}]`` of length ``t_j`` (each batch
   doubles the previous one, the structure borrowed from Shmoys et al.).
3. For each batch ``j = 0..K+1`` (and, as a robustness extension,
   further *extension* rounds of doubling length until every task is
   placed — a narrow machine may need hundreds: ~0.15 n on rigid trace
   windows at m = 64):

   a. admissible tasks are those with some allotment meeting the batch
      length;
   b. small sequential tasks (``p(1) ≤ t_j / 2``) are merged by decreasing
      weight (:mod:`repro.algorithms.merge`);
   c. a weight-maximising knapsack (:mod:`repro.algorithms.knapsack`)
      selects the batch content under the ``m``-processor budget, each item
      priced at its minimal allotment for the batch length;
   d. selected tasks leave the pool.

4. The batched schedule is compacted with a Graham list algorithm in batch
   order (:mod:`repro.algorithms.compaction`), and
5. the batch order is shuffled several times, keeping the best compacted
   schedule ("this only leads to small improvements").

Within a batch, items are ordered by decreasing ``weight / duration``
(Smith ratio) — the paper only asks for "a local ordering within the
batches" without fixing one; the choice is benched in the ablations.

The batch starts (used by the ``shelf`` compaction) follow the paper's
windows for the nominal rounds; an extension batch starts where the
previous shelf ends, so the extension shelves run back to back
(:func:`shelf_starts`).

Complexity: ``O(m n)`` per round for the knapsack, so ``O(m n K)`` for the
paper's ``K + 2`` rounds, plus ``O(m n)`` per extension round, plus
``O(n^2)`` for each compaction pass.  The selection loop is columnar: the
pool is a set of rows of the instance's time matrix, an
:class:`~repro.core.allotment.AllotmentTracker` recomputes only the rows
whose minimal allotment changes at the new length, and only the selected
rows become :class:`~repro.algorithms.list_scheduling.ListItem` objects —
outside the compiled knapsack a round costs a few array passes over the
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro import obs
from repro.algorithms.compaction import (
    batch_arrays,
    list_compaction,
    order_metrics,
    pull_forward,
    shelf_end,
    shelf_placement,
)
from repro.algorithms.dual_approx import DualApproxResult, dual_approximation
from repro.algorithms.knapsack import knapsack_select_indices
from repro.algorithms.list_scheduling import ListItem
from repro.algorithms.merge import merge_small_rows, stack_rank
from repro.core.allotment import AllotmentTracker
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.utils.rng import make_rng

__all__ = [
    "DemtScheduler",
    "DemtResult",
    "schedule_demt",
    "BATCH_ORDERINGS",
    "batch_grid",
    "batch_rounds",
    "shelf_starts",
]

#: Compaction strategies, in increasing refinement order (§3.2).
COMPACTION_MODES = ("shelf", "pull_forward", "list")

#: Intra-batch orderings (§3.2 only asks for "a local ordering within the
#: batches"; ``smith`` is the library's long-standing choice and the
#: others are swept by the Pareto trade-off subsystem).
BATCH_ORDERINGS = ("smith", "weight", "duration", "id")


@dataclass
class DemtResult:
    """Full trace of a DEMT run (useful for tests, ablations and plots)."""

    schedule: Schedule
    batches: list[list[ListItem]] = field(default_factory=list)
    batch_starts: list[float] = field(default_factory=list)
    cmax_estimate: float = 0.0
    t_grid: list[float] = field(default_factory=list)
    K: int = 0
    dual: DualApproxResult | None = None
    shuffle_improvement: float = 0.0  # relative minsum gain from shuffling


class DemtScheduler:
    """The bi-criteria batch algorithm of Dutot, Eyraud, Mounié & Trystram.

    Parameters
    ----------
    shuffle_rounds:
        Number of random batch-order shuffles tried after the first
        compaction (0 disables the optimisation; the paper shuffles
        "several times").
    compaction:
        ``"list"`` (paper's final choice), ``"pull_forward"`` or ``"shelf"``
        (the two intermediate refinements, kept for the ablation bench).
    small_threshold_factor:
        Fraction of the batch length under which a sequential task counts
        as *small* for the merge step (paper: one half).  This is the
        merge threshold knob of the trade-off sweeps.
    batch_ordering:
        Local ordering inside a batch: ``"smith"`` (decreasing
        weight/duration, the default), ``"weight"`` (decreasing weight),
        ``"duration"`` (shortest first) or ``"id"`` (submission order).
    guess_relaxation:
        Multiplier ``>= 1`` applied to the dual-approximation makespan
        guess ``C*max`` before the batch geometry is built.  ``1.0`` (the
        default) is the paper's algorithm; relaxing the guess widens the
        early batches, trading makespan for weighted completion time —
        one axis of the bi-criteria sweep.
    seed:
        RNG seed for the shuffle optimisation (deterministic by default).
    """

    name = "DEMT"

    def __init__(
        self,
        shuffle_rounds: int = 10,
        compaction: str = "list",
        small_threshold_factor: float = 0.5,
        batch_ordering: str = "smith",
        guess_relaxation: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if compaction not in COMPACTION_MODES:
            raise ValueError(
                f"unknown compaction {compaction!r}; choose from {COMPACTION_MODES}"
            )
        if shuffle_rounds < 0:
            raise ValueError(f"shuffle_rounds must be >= 0, got {shuffle_rounds}")
        if batch_ordering not in BATCH_ORDERINGS:
            raise ValueError(
                f"unknown batch ordering {batch_ordering!r}; choose from {BATCH_ORDERINGS}"
            )
        if not 0 < small_threshold_factor <= 1:
            raise ValueError(
                "small_threshold_factor must lie in (0, 1], "
                f"got {small_threshold_factor}"
            )
        if not guess_relaxation >= 1.0:
            raise ValueError(
                f"guess_relaxation must be >= 1.0, got {guess_relaxation}"
            )
        self.shuffle_rounds = shuffle_rounds
        self.compaction = compaction
        self.small_threshold_factor = small_threshold_factor
        self.batch_ordering = batch_ordering
        self.guess_relaxation = guess_relaxation
        self.seed = seed

    # ------------------------------------------------------------------ #
    def schedule(self, instance: Instance) -> Schedule:
        """Return the compacted bi-criteria schedule."""
        return self.schedule_detailed(instance).schedule

    def schedule_detailed(self, instance: Instance) -> DemtResult:
        """Run the full pipeline and expose every intermediate artefact."""
        state = obs.ACTIVE
        if state is None:
            return self._schedule_detailed_impl(instance)
        with state.span("demt", "algorithm"):
            result = self._schedule_detailed_impl(instance)
        state.count("demt.batches", len(result.batches))
        return result

    def _schedule_detailed_impl(self, instance: Instance) -> DemtResult:
        if instance.n == 0:
            return DemtResult(schedule=Schedule(instance.m))

        dual = self._dual(instance)
        # Multiplying by the default 1.0 is exact in IEEE arithmetic, so
        # the un-relaxed path stays bit-identical to the paper's algorithm.
        cstar = dual.lam * self.guess_relaxation
        t_grid, K = batch_grid(cstar, instance.tmin)
        batches, rounds = self._select_batches(instance, t_grid)
        starts = shelf_starts(batches, rounds, t_grid)
        schedule = self._compact(batches, starts, instance.m)

        improvement = 0.0
        if self.shuffle_rounds > 0 and len(batches) > 1 and self.compaction == "list":
            schedule, improvement = self._shuffle_optimise(batches, instance.m, schedule)

        return DemtResult(
            schedule=schedule,
            batches=batches,
            batch_starts=starts,
            cmax_estimate=cstar,
            t_grid=t_grid,
            K=K,
            dual=dual,
            shuffle_improvement=improvement,
        )

    def _dual(self, instance: Instance) -> DualApproxResult:
        """Makespan-estimate hook (the reference scheduler swaps in the
        seed's implementation here for differential benchmarking)."""
        return dual_approximation(instance)

    # ------------------------------------------------------------------ #
    # Phase 1: batch content selection                                   #
    # ------------------------------------------------------------------ #
    def _select_batches(
        self, instance: Instance, t_grid: list[float]
    ) -> tuple[list[list[ListItem]], list[int]]:
        """Select every batch's content; return ``(batches, rounds)``.

        ``rounds[b]`` is the round ``j`` that produced batch ``b`` (rounds
        that select nothing leave no batch).  The pool is a set of rows of
        ``instance.times_matrix``; an :class:`AllotmentTracker` keeps their
        minimal allotments current as the length doubles, and objects are
        built only for the selected rows.
        """
        n = instance.n
        tasks = instance.tasks
        weights = instance.weights
        task_ids = instance.task_ids
        seq_times = instance.times_matrix[:, 0]
        rank = stack_rank(weights, task_ids)
        factor = self.small_threshold_factor
        tracker = AllotmentTracker(instance.times_matrix)
        allot = tracker.allot
        # No unplaced row has p(1) below seq_floor, so while the merge
        # threshold stays under it there is nothing to stack.
        seq_floor = float(seq_times.min())
        left = n
        batches: list[list[ListItem]] = []
        rounds: list[int] = []
        sort_key = _BATCH_SORT_KEYS[self.batch_ordering]
        for j, length in batch_rounds(t_grid, n):
            if not left:
                break
            tracker.advance(length)
            pool = (allot > 0).nonzero()[0]  # the admissible rows, ascending
            if not pool.size:
                continue
            stacks: list[np.ndarray] = []
            rest = pool
            if factor * length >= seq_floor:
                stacks, rest = merge_small_rows(
                    pool, seq_times, rank, length, small_threshold_factor=factor
                )
                if not stacks:
                    seq_floor = float(
                        np.min(seq_times, where=tracker.pending(), initial=np.inf)
                    )
            ns = len(stacks)
            # Knapsack items: the stacks first (allotment 1), then the
            # other admissible rows in instance order.
            item_allot = allot[rest]
            item_weights = weights[rest]
            leads = rest
            if ns:
                item_allot = np.concatenate((np.ones(ns, dtype=np.int64), item_allot))
                item_weights = np.concatenate(
                    ([sum(weights[s].tolist()) for s in stacks], item_weights)
                )
                leads = np.concatenate(([s[0] for s in stacks], rest))
            selected = self._choose(item_allot, item_weights, task_ids[leads], instance.m)
            if not len(selected):
                continue
            chosen: list[ListItem] = []
            placed: list[int] = []
            for i in selected:
                if i < ns:
                    rows = stacks[i].tolist()
                    stack = tuple(tasks[r] for r in rows)
                    chosen.append(ListItem(stack[0], 1, stack=stack))
                    placed += rows
                else:
                    r = int(rest[i - ns])
                    chosen.append(ListItem(tasks[r], int(allot[r])))
                    placed.append(r)
            tracker.remove(placed)
            left -= len(placed)
            # Local ordering inside the batch (default: Smith ratio).
            chosen.sort(key=sort_key)
            batches.append(chosen)
            rounds.append(j)
        if left:  # pragma: no cover - defensive
            raise SchedulingError(f"batch selection left {left} tasks unplaced")
        return batches, rounds

    def _choose(
        self,
        allotments: np.ndarray,
        weights: np.ndarray,
        task_ids: np.ndarray,
        m: int,
    ) -> list[int]:
        """Pick the batch among the candidate items; return their indices.

        Items are priced at their allotment; ``task_ids`` holds each item's
        lead task id (for tie-breaks).  The default is the paper's
        weight-maximising knapsack; ablation A1 swaps in a greedy here.
        """
        return knapsack_select_indices(allotments, weights, m)[0]

    # ------------------------------------------------------------------ #
    # Phase 2: compaction and shuffle optimisation                       #
    # ------------------------------------------------------------------ #
    def _compact(
        self,
        batches: list[list[ListItem]],
        starts: list[float],
        m: int,
    ) -> Schedule:
        state = obs.ACTIVE
        if state is not None:
            state.count("demt.compaction_passes")
        if self.compaction == "shelf":
            return shelf_placement(batches, starts, m)
        if self.compaction == "pull_forward":
            return pull_forward(batches, m)
        return list_compaction(batches, m)

    def _shuffle_optimise(
        self,
        batches: list[list[ListItem]],
        m: int,
        baseline: Schedule,
    ) -> tuple[Schedule, float]:
        """Shuffle the batch order, keep the best compacted schedule.

        "Best" is the smallest ``sum w_i C_i`` among candidates whose
        makespan does not exceed the baseline's — the bi-criteria spirit of
        the paper (the shuffle must not trade one criterion away for the
        other).

        Candidate orders are scored through the metric-only kernel path
        (:func:`~repro.algorithms.compaction.order_metrics`); only the
        winning order is materialised into a schedule.
        """
        rng = make_rng(self.seed)
        arrays = [batch_arrays(b) for b in batches]
        base_minsum = baseline.weighted_completion_sum()
        best_minsum = base_minsum
        base_cmax = baseline.makespan()
        cutoff = base_cmax * (1 + 1e-12)
        best_order: np.ndarray | None = None
        order = np.arange(len(batches))
        state = obs.ACTIVE
        if state is not None:
            state.count("demt.shuffle_candidates", self.shuffle_rounds)
        for _ in range(self.shuffle_rounds):
            rng.shuffle(order)
            metrics = order_metrics(arrays, order, m, cmax_cutoff=cutoff)
            if metrics is not None and metrics[1] < best_minsum:
                best_minsum = metrics[1]
                best_order = order.copy()
        if best_order is None:
            return baseline, 0.0
        best = list_compaction([batches[i] for i in best_order], m)
        # Recompute the winner's minsum from the materialised schedule so
        # the reported gain uses the same summation as every other metric
        # (the kernel-side dot product can differ in the last few ulps).
        exact = best.weighted_completion_sum()
        if exact >= base_minsum:  # pragma: no cover - ulp-level tie
            return baseline, 0.0
        return best, (base_minsum - exact) / max(base_minsum, 1e-300)


# ---------------------------------------------------------------------- #
# Batch geometry (shared by every DEMT variant and the reference oracle)  #
# ---------------------------------------------------------------------- #
def batch_grid(cstar: float, tmin: float) -> tuple[list[float], int]:
    """The paper's grid: ``K = floor(log2(C*max / t_min))`` and
    ``t_j = C*max / 2^(K-j)`` for ``j = 0..K+1``; batch ``j`` spans
    ``[t_j, t_{j+1}]``, of length ``t_j``."""
    if not (cstar > 0 and np.isfinite(cstar)):  # pragma: no cover - defensive
        raise SchedulingError(f"invalid C*max estimate {cstar}")
    K = max(0, int(math.floor(math.log2(cstar / tmin))))
    return [cstar / 2 ** (K - j) for j in range(K + 2)], K


def batch_rounds(t_grid: list[float], n: int) -> Iterator[tuple[int, float]]:
    """Yield ``(j, length)`` for every selection round.

    The nominal rounds walk ``t_grid``.  Beyond them (an extension of the
    paper's ``for j = 0..K``: a narrow machine may not fit every task in
    the nominal batches) the length keeps doubling, at most ``n`` more
    rounds.  The doubling saturates at the largest finite value instead
    of overflowing: by then every task is admissible anyway, and an
    infinite length would poison the merge threshold.  ``ldexp`` is exact,
    bit-identical to the multiply while that is finite.
    """
    K = len(t_grid) - 2
    yield from enumerate(t_grid)
    t_last = t_grid[-1]
    k_max = min(900, 1024 - math.frexp(t_last)[1]) if math.isfinite(t_last) else 900
    for j in range(K + 2, K + 2 + n):
        yield j, math.ldexp(t_last, min(j - K - 1, k_max))


def shelf_starts(
    batches: list[list[ListItem]], rounds: list[int], t_grid: list[float]
) -> list[float]:
    """Start time of every batch's shelf.

    A nominal batch ``j`` starts at ``t_j``, the paper's window
    ``[t_j, t_{j+1}]``.  An extension batch (``j > K + 1``) starts where
    the previous shelf ends, so the extension shelves run back to back
    instead of doubling the makespan every round.  (The first batch is
    always nominal: every task is admissible at ``t_K = C*max``.)
    """
    starts: list[float] = []
    for b, j in enumerate(rounds):
        if j < len(t_grid):
            starts.append(t_grid[j])
        else:
            starts.append(shelf_end(batches[b - 1], starts[b - 1]))
    return starts


def _item_weight(item: ListItem) -> float:
    if item.stack:
        return sum(t.weight for t in item.stack)
    return item.task.weight


#: Sort keys of the intra-batch orderings (ties broken by task id so every
#: ordering stays deterministic).
_BATCH_SORT_KEYS = {
    "smith": lambda it: (-_item_weight(it) / it.duration, it.task.task_id),
    "weight": lambda it: (-_item_weight(it), it.task.task_id),
    "duration": lambda it: (it.duration, it.task.task_id),
    "id": lambda it: (it.task.task_id,),
}


def schedule_demt(
    instance: Instance,
    *,
    shuffle_rounds: int = 10,
    compaction: str = "list",
    small_threshold_factor: float = 0.5,
    batch_ordering: str = "smith",
    guess_relaxation: float = 1.0,
    seed: int | np.random.Generator | None = 0,
) -> Schedule:
    """Functional form of :class:`DemtScheduler` (the paper's algorithm)."""
    return DemtScheduler(
        shuffle_rounds=shuffle_rounds,
        compaction=compaction,
        small_threshold_factor=small_threshold_factor,
        batch_ordering=batch_ordering,
        guess_relaxation=guess_relaxation,
        seed=seed,
    ).schedule(instance)
