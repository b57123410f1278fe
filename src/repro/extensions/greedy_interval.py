"""Plain interval-doubling scheduler (Shmoys et al. / Hall et al. style).

§3.1: "Shmoys et al. used a batch scheduling with batches of increasing
sizes.  The batch length is doubled at each step, therefore only the
smaller tasks are scheduled in the first batches."  §1.3 adds that the
generic framework of Hall et al. yields a (12; 12) bi-criteria
approximation "at the cost of a big complexity".

This class is that *skeleton* without DEMT's refinements: geometric
batches and weight-maximising knapsack selection, but

* no small-task merging,
* naive shelf placement: each nominal batch starts at its own ``t_j``,
  and the extension batches that drain what the nominal grid left (a
  narrow machine runs many) follow back to back, each where the previous
  shelf ends (:func:`repro.algorithms.demt.shelf_starts`),
* no compaction, no shuffling.

It serves as a structural ablation: the gap between ``GreedyInterval`` and
``DEMT`` on the paper's workloads *is* the value of the paper's §3.2
engineering.  (The true Hall et al. algorithm solves an LP per interval;
the knapsack variant keeps the comparison apples-to-apples.)
"""

from __future__ import annotations

from repro.algorithms.demt import DemtScheduler

__all__ = ["GreedyIntervalScheduler"]


class GreedyIntervalScheduler(DemtScheduler):
    """DEMT's batch skeleton with every refinement disabled."""

    name = "GreedyInterval"

    def __init__(self) -> None:
        super().__init__(
            shuffle_rounds=0,
            compaction="shelf",
            # Threshold ~0 => no task ever counts as "small" => no merging.
            small_threshold_factor=1e-12,
        )
