"""Merging of small sequential tasks (§3.2).

Before the knapsack selection of a batch of length ``t``, the paper stacks
tasks that "can be run in less than half the batch size on one processor":
several such tasks are executed back-to-back on a single processor inside
the batch, so the knapsack sees them as *one* item of allotment 1 whose
weight is the sum of the stacked weights.  To pack as much weight as
possible the stacking is done "by decreasing weight order".

The stack building is a greedy first-fit by decreasing weight: tasks are
appended to the current stack while the accumulated sequential time stays
within the batch length ``t``; a task that does not fit opens a new stack.
Because every candidate lasts at most ``t/2``, every stack except possibly
the last holds at least two tasks — that is the point of the merge: weight
density per processor goes up.

The rule has one implementation, :func:`merge_small_rows`, over row
indices of instance-wide arrays (DEMT's columnar selection loop calls it
once per batch); :func:`merge_small_tasks` is its wrapper over task
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.task import MoldableTask

__all__ = ["MergedStack", "merge_small_tasks", "merge_small_rows", "stack_rank"]

#: Tasks a stack scan sums before it widens (see :func:`_stack_bounds`).
_FIRST_WINDOW = 64


@dataclass(frozen=True)
class MergedStack:
    """A pile of sequential tasks run back-to-back on one processor.

    ``tasks`` are ordered as they will execute (decreasing weight, so the
    heaviest completes first — the right order for ``sum w_i C_i`` by the
    classical exchange argument at equal processing slots).
    """

    tasks: tuple[MoldableTask, ...]

    @property
    def duration(self) -> float:
        """Total sequential time of the stack."""
        return sum(t.seq_time for t in self.tasks)

    @property
    def weight(self) -> float:
        """Aggregated knapsack weight."""
        return sum(t.weight for t in self.tasks)

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(t.task_id for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


def stack_rank(weights: np.ndarray, task_ids: np.ndarray) -> np.ndarray:
    """Position of every row in the stacking order (decreasing weight, then id).

    Computed once per instance; :func:`merge_small_rows` sorts each batch's
    small rows by it.
    """
    order = np.lexsort((task_ids, -np.asarray(weights, dtype=np.float64)))
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank


def merge_small_rows(
    rows: np.ndarray,
    seq_times: np.ndarray,
    rank: np.ndarray,
    batch_length: float,
    *,
    small_threshold_factor: float = 0.5,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Row-level stacking: return ``(stacks, untouched)`` as row arrays.

    ``rows`` are the candidate rows of the instance-wide ``seq_times``
    (``p(1)`` per row) and ``rank`` (:func:`stack_rank`).  Each stack lists
    its rows in execution order; ``untouched`` keeps the candidates that
    are not small in their input order.
    """
    if batch_length <= 0:
        raise ValueError(f"batch length must be positive, got {batch_length}")
    if not 0 < small_threshold_factor <= 1:
        raise ValueError(
            f"small_threshold_factor must lie in (0, 1], got {small_threshold_factor}"
        )
    seq = seq_times[rows]
    # A task with no sequential mode (p(1) = +inf: rigid jobs wider than
    # one processor) can never be stacked, whatever the threshold — an
    # infinite threshold (overlong doubling rounds) must not sweep it in.
    small = (seq <= small_threshold_factor * batch_length) & np.isfinite(seq)
    if not small.any():
        return [], rows
    picked = rows[small]
    picked = picked[np.argsort(rank[picked], kind="stable")]
    bounds = _stack_bounds(seq_times[picked], batch_length)
    return np.split(picked, bounds), rows[~small]


def _stack_bounds(seq: np.ndarray, batch_length: float) -> list[int]:
    """Offsets at which a new first-fit stack opens.

    A stack's accumulated time is the running sum from its first task;
    ``np.cumsum`` adds left to right like a Python loop, so the cut points
    match a task-by-task accumulation bit for bit.  The first task of a
    stack always stays in it.  Each stack's scan starts from a short window
    that doubles while no cut shows, so a stack of ``s`` tasks costs
    ``O(s)`` and the whole pass stays linear in the number of small tasks.
    """
    bounds: list[int] = []
    start, n, window = 0, seq.size, _FIRST_WINDOW
    while start + 1 < n:
        acc = np.cumsum(seq[start : start + window])
        over = np.flatnonzero(acc[1:] > batch_length)
        if over.size:
            start += int(over[0]) + 1
            bounds.append(start)
            window = _FIRST_WINDOW
        elif start + window >= n:
            break
        else:
            window *= 2
    return bounds


def merge_small_tasks(
    tasks: Sequence[MoldableTask],
    batch_length: float,
    *,
    small_threshold_factor: float = 0.5,
) -> tuple[list[MergedStack], list[MoldableTask]]:
    """Stack small sequential tasks; return ``(stacks, untouched)``.

    Parameters
    ----------
    tasks:
        Candidate tasks for the current batch.
    batch_length:
        The batch length ``t``; a task is *small* when
        ``p(1) <= small_threshold_factor * t``.
    small_threshold_factor:
        The paper uses one half ("less than half the batch size").  Exposed
        for the ablation benchmarks.

    Returns
    -------
    stacks:
        Maximal-weight-first stacks of small tasks, each of total duration
        ``<= batch_length``.  Singleton stacks may appear (a small task that
        did not combine with others); they are still knapsack items of
        allotment 1.
    untouched:
        Tasks that are not small; the caller gives them their regular
        minimal allotment for the batch.
    """
    tasks = list(tasks)
    seq = np.array([t.seq_time for t in tasks], dtype=np.float64)
    rank = stack_rank(
        np.array([t.weight for t in tasks], dtype=np.float64),
        np.array([t.task_id for t in tasks], dtype=np.int64),
    )
    stacks, untouched = merge_small_rows(
        np.arange(len(tasks)),
        seq,
        rank,
        batch_length,
        small_threshold_factor=small_threshold_factor,
    )
    return (
        [MergedStack(tuple(tasks[i] for i in s.tolist())) for s in stacks],
        [tasks[i] for i in untouched.tolist()],
    )
