"""Batch-schedule compaction (§3.2).

DEMT first conceptually places each selected batch in its time window
``[t_j, t_{j+1}]``.  The paper then describes three successive refinements:

1. :func:`shelf_placement` — "we start all the selected tasks of one batch
   at the same time" (the naive schedule; kept for the ablation bench);
2. :func:`pull_forward` — "a straightforward improvement is to start a task
   at an earlier time if all the processors it uses are idle": tasks keep
   their batch order but each starts as early as the free-processor profile
   allows, without reordering;
3. :func:`list_compaction` — "a further improvement is to use a list
   algorithm with the batch ordering and a local ordering within the
   batches": full Graham list scheduling over the concatenated batch lists
   (tasks from a later batch may overtake a stalled earlier one).

All three take the same input: the per-batch lists of
:class:`~repro.algorithms.list_scheduling.ListItem` produced by the DEMT
selection loop, already locally ordered within each batch.

Both non-trivial refinements run on the vectorized core of
:mod:`repro.core.profile`: pull-forward maintains one incremental
:class:`~repro.core.profile.FreeProfile` instead of rescanning all prior
placements per task, and list compaction feeds the flat item list to the
:func:`~repro.core.profile.graham_starts` kernel.  For DEMT's shuffle
optimisation — which compacts the *same* items ten-plus times in different
batch orders — :func:`batch_arrays` / :func:`order_metrics` evaluate a
candidate order's ``(Cmax, sum w_i C_i)`` straight from the kernel's start
times, without materialising a :class:`~repro.core.schedule.Schedule` at
all; only the winning order is materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.list_scheduling import ListItem, list_schedule
from repro.core.profile import FreeProfile, graham_starts
from repro.core.schedule import Schedule

__all__ = [
    "shelf_placement",
    "shelf_end",
    "pull_forward",
    "list_compaction",
    "BatchArrays",
    "batch_arrays",
    "order_metrics",
]


def shelf_placement(
    batches: Sequence[Sequence[ListItem]],
    batch_starts: Sequence[float],
    m: int,
) -> Schedule:
    """Naive placement: every item of batch ``j`` starts at ``batch_starts[j]``.

    Feasible by construction because the knapsack selection capped each
    batch's total allotment at ``m`` — provided no shelf runs into the
    next one.  DEMT guarantees that: a nominal batch's items fit its window
    ``[t_j, t_{j+1}]`` by admissibility, and an extension batch starts at
    the previous shelf's :func:`shelf_end`.
    """
    if len(batches) != len(batch_starts):
        raise ValueError(
            f"{len(batches)} batches but {len(batch_starts)} start times"
        )
    out = Schedule(m)
    for items, start in zip(batches, batch_starts):
        for it in items:
            _place_at(out, it, start)
    return out


def shelf_end(items: Sequence[ListItem], start: float) -> float:
    """Latest completion of ``items`` placed as one shelf at ``start``.

    Same arithmetic as the placement itself (a stack's tasks end one after
    another), so a shelf started at this time never overlaps this one.
    """
    end = start
    for it in items:
        if it.stack:
            t = start
            for task in it.stack:
                t += task.seq_time
        else:
            t = start + it.duration
        end = max(end, t)
    return end


def pull_forward(batches: Sequence[Sequence[ListItem]], m: int) -> Schedule:
    """Order-preserving compaction.

    Tasks are taken strictly in (batch, local) order; each starts at the
    earliest instant where enough processors are free *given the placements
    already made*.  No overtaking: a huge stalled task does not let smaller
    successors slip past it earlier than its own start.
    """
    out = Schedule(m)
    profile = FreeProfile(m)
    for items in batches:
        for it in items:
            duration = it.duration
            start = profile.earliest_fit(it.allotment, duration)
            _place_at(out, it, start)
            profile.reserve(start, duration, it.allotment)
    return out


def list_compaction(batches: Sequence[Sequence[ListItem]], m: int) -> Schedule:
    """Full Graham list compaction with the batch ordering (the DEMT default)."""
    flat: list[ListItem] = [it for items in batches for it in items]
    return list_schedule(flat, m)


# ---------------------------------------------------------------------- #
# Metric-only fast path (DEMT shuffle loop)                              #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BatchArrays:
    """One batch flattened to the arrays the kernel and metrics need.

    ``weighted_offsets[i]`` is the weighted completion mass of item ``i``
    *relative to its own start*: ``w * p(k)`` for a plain task, and
    ``sum_j w_j * (cumulative end of stack element j)`` for a merged stack
    — so a placement at ``t`` contributes
    ``weight_sums[i] * t + weighted_offsets[i]`` to ``sum w_i C_i``.
    """

    allotments: np.ndarray
    durations: np.ndarray
    weight_sums: np.ndarray
    weighted_offsets: np.ndarray


def batch_arrays(items: Sequence[ListItem]) -> BatchArrays:
    """Precompute one batch's kernel/metric arrays (once per DEMT run)."""
    n = len(items)
    allot = np.empty(n, dtype=np.int64)
    dur = np.empty(n, dtype=np.float64)
    wsum = np.empty(n, dtype=np.float64)
    woff = np.empty(n, dtype=np.float64)
    for i, it in enumerate(items):
        allot[i] = it.allotment
        dur[i] = it.duration
        if it.stack:
            w = 0.0
            acc = 0.0
            end = 0.0
            for task in it.stack:
                end += task.seq_time
                w += task.weight
                acc += task.weight * end
            wsum[i] = w
            woff[i] = acc
        else:
            wsum[i] = it.task.weight
            woff[i] = it.task.weight * dur[i]
    return BatchArrays(allot, dur, wsum, woff)


def order_metrics(
    arrays: Sequence[BatchArrays],
    order: Sequence[int],
    m: int,
    *,
    cmax_cutoff: float | None = None,
) -> tuple[float, float] | None:
    """``(Cmax, sum w_i C_i)`` of ``list_compaction`` in batch order ``order``.

    Runs the Graham kernel on the concatenated arrays and reads both
    criteria off the start times — no :class:`Schedule` is built.  Returns
    ``None`` when ``cmax_cutoff`` is given and the makespan provably
    exceeds it (the shuffle loop's reject-fast path).
    """
    allot = np.concatenate([arrays[i].allotments for i in order])
    dur = np.concatenate([arrays[i].durations for i in order])
    result = graham_starts(allot, dur, m, cutoff=cmax_cutoff)
    if result is None:
        return None
    starts, _ = result
    cmax = float(np.max(starts + dur)) if starts.size else 0.0
    if cmax_cutoff is not None and cmax > cmax_cutoff:
        return None
    wsum = np.concatenate([arrays[i].weight_sums for i in order])
    woff = np.concatenate([arrays[i].weighted_offsets for i in order])
    # np.sum (pairwise) rather than a BLAS dot: candidate ranking must not
    # depend on which BLAS the platform links.
    minsum = float(np.sum(starts * wsum) + np.sum(woff))
    return cmax, minsum


def _place_at(schedule: Schedule, item: ListItem, start: float) -> None:
    if item.stack:
        t = start
        for task in item.stack:
            schedule.add(task, t, 1)
            t += task.seq_time
    else:
        schedule.add(item.task, start, item.allotment)
