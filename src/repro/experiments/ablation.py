"""Ablation studies of DEMT's design choices (A1-A4 below).

The paper motivates each ingredient qualitatively; these drivers quantify
them on the paper's workloads:

* **A1 — batch selection**: exact knapsack vs a greedy by decreasing
  weight density (what §3.2's "smart selection" buys);
* **A2 — small-task merging**: merge on vs off;
* **A3 — compaction ladder**: naive shelves vs pull-forward vs full list
  compaction (the paper's three refinement steps);
* **A4 — shuffle rounds**: 0 / few / many batch-order shuffles.

Each driver returns ``{variant_name: (mean minsum ratio, mean cmax
ratio)}`` over a handful of seeded instances, where ratios are against the
standard lower bounds — directly printable by the benchmark harness.

Variants are described as picklable scheduler *factories* (classes or
:func:`functools.partial` of classes), so the per-run evaluation can be
fanned out over the :mod:`~repro.experiments.engine` process backend:
``ablate_shuffle(backend="process")`` runs each seeded instance's variant
sweep in its own worker with identical numbers to the serial loop.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.algorithms.demt import DemtScheduler
from repro.algorithms.dual_approx import dual_approximation
from repro.bounds.minsum_lp import minsum_lower_bound
from repro.experiments.aggregate import ratio_of_sums
from repro.experiments.engine import (
    CellBounds,
    CellKey,
    CellRecord,
    resolve_backend,
    resolve_cache,
)
from repro.utils.rng import derive_rng
from repro.workloads.generator import generate_workload

__all__ = [
    "ablate_selection",
    "ablate_merge",
    "ablate_compaction",
    "ablate_shuffle",
    "ABLATIONS",
]


def _ablation_cell(args: tuple) -> tuple[float | None, float | None, dict[str, tuple[float, float]]]:
    """Worker: one seeded instance, the *missing* variants, plus bounds.

    Returns ``(cmax_lb, minsum_lb, {variant: (minsum, cmax)})``; the
    bounds are ``None`` when the caller already had them cached.
    """
    kind, n, m, seed, r, variant_items, need_bounds = args
    inst = generate_workload(kind, n=n, m=m, seed=derive_rng(seed, kind, n, r))
    cmax_lb = minsum_lb = None
    if need_bounds:
        dual = dual_approximation(inst)
        cmax_lb = dual.lower_bound
        minsum_lb = minsum_lower_bound(inst, dual.lam).value
    measured: dict[str, tuple[float, float]] = {}
    for name, factory in variant_items:
        sched = factory().schedule(inst)
        measured[name] = (sched.weighted_completion_sum(), sched.makespan())
    return cmax_lb, minsum_lb, measured


def _evaluate_variants(
    variants: dict[str, Callable[[], object]],
    *,
    kind: str = "cirne",
    n: int = 100,
    m: int = 64,
    runs: int = 5,
    seed: int = 7,
    backend: object = None,
    jobs: int | None = None,
    cache: object = None,
) -> dict[str, tuple[float, float]]:
    """Run each variant over shared instances; aggregate both ratios.

    With a ``cache`` (a :class:`~repro.experiments.engine.CellCache` or a
    directory path), measured variants are memoised under the cell key
    ``(seed, kind, n, m, r, "ablate:<variant>")`` and the per-instance
    bounds under the standard bounds key — the latter is *shared* with the
    campaign runner, since both derive the instance from
    ``derive_rng(seed, kind, n, r)`` and compute the same two bounds.
    """
    backend_obj = resolve_backend(backend, jobs)
    cache = resolve_cache(cache)
    variant_items = tuple(variants.items())

    have: dict[tuple[int, str], tuple[float, float]] = {}
    bounds_by_r: dict[int, tuple[float, float]] = {}
    work: list[tuple] = []
    work_rs: list[int] = []
    for r in range(runs):
        missing = list(variant_items)
        if cache is not None:
            missing = []
            for name, factory in variant_items:
                rec = cache.get_record(CellKey(seed, kind, n, m, r, f"ablate:{name}"))
                if rec is None:
                    missing.append((name, factory))
                else:
                    have[(r, name)] = (rec.minsum, rec.cmax)
            b = cache.get_bounds((seed, kind, n, m, r))
            if b is not None:
                bounds_by_r[r] = (b.cmax_lb, b.minsum_lb)
        if missing or r not in bounds_by_r:
            work.append((kind, n, m, seed, r, tuple(missing), r not in bounds_by_r))
            work_rs.append(r)

    outputs = backend_obj.map(_ablation_cell, work)
    for r, (cmax_lb, minsum_lb, measured) in zip(work_rs, outputs):
        if cmax_lb is not None:
            bounds_by_r[r] = (cmax_lb, minsum_lb)
            if cache is not None:
                cache.put_bounds(
                    (seed, kind, n, m, r),
                    CellBounds(cmax_lb=cmax_lb, minsum_lb=minsum_lb),
                )
        for name, (minsum, cmax) in measured.items():
            have[(r, name)] = (minsum, cmax)
            if cache is not None:
                cache.put_record(
                    CellKey(seed, kind, n, m, r, f"ablate:{name}"),
                    CellRecord(cmax=cmax, minsum=minsum, seconds=0.0),
                )

    cmax_lbs = [bounds_by_r[r][0] for r in range(runs)]
    minsum_lbs = [bounds_by_r[r][1] for r in range(runs)]
    return {
        name: (
            ratio_of_sums([have[(r, name)][0] for r in range(runs)], minsum_lbs),
            ratio_of_sums([have[(r, name)][1] for r in range(runs)], cmax_lbs),
        )
        for name in variants
    }


class _GreedySelectionDemt(DemtScheduler):
    """DEMT with the knapsack swapped for first-fit by weight density."""

    def _choose(self, allotments, weights, task_ids, m):
        # Highest weight per processor first (ties by lead task id),
        # first-fit into the m processors.
        density = weights / allotments
        chosen, used = [], 0
        for i in np.lexsort((task_ids, -density)).tolist():
            a = int(allotments[i])
            if used + a <= m:
                chosen.append(i)
                used += a
        return chosen


def ablate_selection(**kw: object) -> dict[str, tuple[float, float]]:
    """A1: exact knapsack vs greedy weight-density batch filling."""
    return _evaluate_variants(
        {"knapsack": DemtScheduler, "greedy": _GreedySelectionDemt},
        **kw,
    )


def ablate_merge(**kw: object) -> dict[str, tuple[float, float]]:
    """A2: small-sequential-task merging on vs off.

    "Off" is emulated with a tiny threshold factor: no task ever counts as
    small, so nothing merges.
    """
    return _evaluate_variants(
        {
            "merge_on": DemtScheduler,
            "merge_off": partial(DemtScheduler, small_threshold_factor=1e-12),
        },
        **kw,
    )


def ablate_compaction(**kw: object) -> dict[str, tuple[float, float]]:
    """A3: the paper's compaction ladder (shelf -> pull-forward -> list)."""
    return _evaluate_variants(
        {
            mode: partial(DemtScheduler, compaction=mode, shuffle_rounds=0)
            for mode in ("shelf", "pull_forward", "list")
        },
        **kw,
    )


def ablate_shuffle(**kw: object) -> dict[str, tuple[float, float]]:
    """A4: number of batch-order shuffle rounds."""
    return _evaluate_variants(
        {
            f"shuffle_{rounds}": partial(DemtScheduler, shuffle_rounds=rounds)
            for rounds in (0, 5, 20)
        },
        **kw,
    )


#: Name -> driver registry for the ablation bench.
ABLATIONS = {
    "selection": ablate_selection,
    "merge": ablate_merge,
    "compaction": ablate_compaction,
    "shuffle": ablate_shuffle,
}
