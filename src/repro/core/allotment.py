"""Canonical allotment selection.

Two selection rules recur throughout the paper:

* the **minimal allotment for a deadline** ``t`` — the smallest ``k`` with
  ``p(k) <= t`` (the paper's ``allot_i``, used by the knapsack selection and
  by the dual-approximation shelves).  For monotonic tasks the smallest
  feasible ``k`` is also the one of smallest work, i.e. the cheapest way to
  meet the deadline.
* the **minimal-area allotment under a deadline** — ``argmin_k k * p(k)``
  subject to ``p(k) <= t`` (the quantity ``S_{i,j}`` of the lower-bound LP,
  §3.3).  Identical to the former for monotonic tasks, but kept separate so
  non-monotonic inputs are still handled exactly.

Both come in scalar (one task) and vectorised (whole instance) flavours; the
vectorised forms operate on the ``(n, m)`` processing-time matrix exposed by
:class:`repro.core.instance.Instance` and are the hot path of the LP bound.
:class:`AllotmentTracker` keeps the minimal allotments of a shrinking pool
up to date under a nondecreasing deadline (DEMT's batch lengths).
"""

from __future__ import annotations

import numpy as np

from repro.core.task import MoldableTask

__all__ = [
    "AllotmentTracker",
    "minimal_allotment",
    "minimal_allotments",
    "minimal_area_allotment",
    "minimal_area_allotments",
]


def minimal_allotment(task: MoldableTask, deadline: float, m: int | None = None) -> int | None:
    """Smallest ``k <= m`` with ``p(k) <= deadline``, or ``None`` if none.

    >>> from repro.core.task import MoldableTask
    >>> t = MoldableTask(0, [10.0, 6.0, 4.5])
    >>> minimal_allotment(t, 6.0)
    2
    >>> minimal_allotment(t, 1.0) is None
    True
    """
    limit = task.max_procs if m is None else min(m, task.max_procs)
    times = task.times[:limit]
    ok = times <= deadline
    if not ok.any():
        return None
    return int(np.argmax(ok)) + 1


def minimal_allotments(
    times_matrix: np.ndarray, deadline: float | np.ndarray
) -> np.ndarray:
    """Vectorised :func:`minimal_allotment` over an ``(n, m)`` time matrix.

    ``deadline`` is a scalar or a 1-D λ-axis of length ``L``.  Returns an
    ``(n,)`` int array for a scalar — ``0`` encodes "no feasible allotment"
    (instead of ``None``) so the result stays a flat array — or an
    ``(L, n)`` λ-major array whose row ``l`` is bit-identical to the scalar
    call at ``deadline[l]`` (the dual approximation probes several λ
    guesses per sweep through this).
    """
    if np.ndim(deadline) > 0:
        lam = np.asarray(deadline, dtype=np.float64)
        ok = times_matrix[None, :, :] <= lam[:, None, None]
        any_ok = ok.any(axis=2)
        allot = ok.argmax(axis=2) + 1
        allot[~any_ok] = 0
        return allot.astype(np.int64)
    ok = times_matrix <= deadline
    any_ok = ok.any(axis=1)
    # argmax returns 0 for all-False rows; mask those to 0 afterwards.
    allot = ok.argmax(axis=1) + 1
    allot[~any_ok] = 0
    return allot.astype(np.int64)


class AllotmentTracker:
    """:func:`minimal_allotments` of a shrinking pool, kept up to date
    under a nondecreasing deadline.

    A row's minimal allotment only shrinks as the deadline grows: allotment
    ``a`` drops once the deadline reaches ``min(p(1..a-1))``, and a row with
    no feasible allotment becomes admissible once it reaches ``min p``.
    :meth:`advance` recomputes, through :func:`minimal_allotments` itself,
    only the rows whose threshold the new deadline reached, so
    :attr:`allot` stays equal to a full recompute over the pool.

    ``allot[r]`` is ``0`` for a row with no feasible allotment yet and for
    a :meth:`remove`-d row.
    """

    def __init__(self, times_matrix: np.ndarray) -> None:
        self.times = times_matrix
        n, m = times_matrix.shape
        prefix_min = np.minimum.accumulate(times_matrix, axis=1)
        # _drop[r, a]: the deadline at which row r's allotment a changes —
        # min p_r for a = 0 (admissible from there on), never for a = 1,
        # min(p_r(1..a-1)) for a >= 2.
        self._drop = np.empty((n, m + 1))
        self._drop[:, 0] = prefix_min[:, -1]
        self._drop[:, 1] = np.inf
        self._drop[:, 2:] = prefix_min[:, :-1]
        self.allot = np.zeros(n, dtype=np.int64)
        self._live = np.ones(n, dtype=bool)
        # Deadline at which each row's allotment next changes (+inf: never).
        self._next = self._drop[:, 0].copy()
        self._next_min = float(self._next.min(initial=np.inf))

    def advance(self, deadline: float) -> None:
        """Move to ``deadline`` (never below the previous one)."""
        if deadline < self._next_min:
            return
        due = (self._next <= deadline).nonzero()[0]
        a = minimal_allotments(self.times[due], deadline)
        self.allot[due] = a
        self._next[due] = self._drop[due, a]
        self._next_min = float(self._next.min(initial=np.inf))

    def remove(self, rows) -> None:
        """Drop ``rows`` (row indices) from the pool for good."""
        rows = np.asarray(rows, dtype=np.int64)
        self.allot[rows] = 0
        self._next[rows] = np.inf
        self._live[rows] = False

    def pending(self) -> np.ndarray:
        """Mask of the rows not removed yet (admissible or not)."""
        return self._live


def minimal_area_allotment(
    task: MoldableTask, deadline: float, m: int | None = None
) -> tuple[int, float] | None:
    """Allotment of minimal area meeting ``deadline``; ``None`` if impossible.

    Returns ``(k, area)`` with ``area = k * p(k)`` minimal among feasible
    ``k``.  This is the per-task quantity ``S_{i,j}`` of the paper's LP
    lower bound.
    """
    limit = task.max_procs if m is None else min(m, task.max_procs)
    times = task.times[:limit]
    ks = np.arange(1, limit + 1, dtype=np.float64)
    feasible = times <= deadline
    if not feasible.any():
        return None
    areas = np.where(feasible, ks * times, np.inf)
    k = int(np.argmin(areas)) + 1
    return k, float(areas[k - 1])


def minimal_area_allotments(
    times_matrix: np.ndarray,
    deadline: float | np.ndarray,
    *,
    areas_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised minimal feasible area per task (``+inf`` if infeasible).

    ``times_matrix`` is the ``(n, m)`` matrix of ``p_i(k)``; the result is an
    ``(n,)`` float array of ``S_{i, j}`` values for the interval whose upper
    end is ``deadline``.  ``deadline`` may also be a 1-D λ-axis of length
    ``L``, giving an ``(L, n)`` λ-major result whose rows match the scalar
    calls bit-for-bit (the per-row min reduces the same ``m``-slices in the
    same order).  Callers probing many deadlines (the dual approximation's
    binary search) pass the precomputed ``Instance.areas_matrix`` to skip
    rebuilding the ``k * p_i(k)`` product.
    """
    if areas_matrix is None:
        n, m = times_matrix.shape
        ks = np.arange(1, m + 1, dtype=np.float64)
        areas_matrix = times_matrix * ks
    if np.ndim(deadline) > 0:
        lam = np.asarray(deadline, dtype=np.float64)
        return np.min(
            np.broadcast_to(areas_matrix, (lam.size,) + areas_matrix.shape),
            axis=2,
            where=times_matrix[None, :, :] <= lam[:, None, None],
            initial=np.inf,
        )
    return np.min(
        areas_matrix, axis=1, where=times_matrix <= deadline, initial=np.inf
    )
