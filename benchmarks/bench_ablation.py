"""Ablation benches — quantify each DEMT design choice (A1-A4 of
:mod:`repro.experiments.ablation`).

Each bench prints the variant table (minsum ratio, cmax ratio) and asserts
the direction the paper motivates:

* the knapsack selection beats (or ties) greedy filling on minsum;
* list compaction beats the naive shelves;
* shuffling never hurts (it keeps the best candidate).
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import (
    ablate_compaction,
    ablate_merge,
    ablate_selection,
    ablate_shuffle,
)

#: Shared ablation workload parameters (moderate scale keeps benches fast).
PARAMS = dict(kind="cirne", n=100, m=64, runs=4, seed=17)


@pytest.fixture
def params(exec_backend, exec_jobs):
    """PARAMS plus the session's executor knobs (REPRO_BACKEND/REPRO_JOBS)."""
    return dict(PARAMS, backend=exec_backend, jobs=exec_jobs)


def _print(table: dict[str, tuple[float, float]]) -> None:
    print()
    for name, (minsum_r, cmax_r) in table.items():
        print(f"  {name:<16} minsum ratio {minsum_r:6.3f}   cmax ratio {cmax_r:6.3f}")


def test_ablation_selection(benchmark, params):
    table = benchmark.pedantic(
        lambda: ablate_selection(**params), rounds=1, iterations=1
    )
    _print(table)
    # The exact knapsack never loses weight vs greedy; the realised minsum
    # advantage can be small but must not invert grossly.
    assert table["knapsack"][0] <= table["greedy"][0] * 1.1


def test_ablation_merge(benchmark, params):
    table = benchmark.pedantic(lambda: ablate_merge(**params), rounds=1, iterations=1)
    _print(table)
    assert table["merge_on"][0] <= table["merge_off"][0] * 1.1


def test_ablation_compaction(benchmark, params):
    table = benchmark.pedantic(
        lambda: ablate_compaction(**params), rounds=1, iterations=1
    )
    _print(table)
    assert table["list"][0] <= table["shelf"][0] + 1e-9
    assert table["list"][1] <= table["shelf"][1] + 1e-9


def test_ablation_shuffle(benchmark, params):
    table = benchmark.pedantic(lambda: ablate_shuffle(**params), rounds=1, iterations=1)
    _print(table)
    assert table["shuffle_20"][0] <= table["shuffle_0"][0] + 1e-9
