#!/usr/bin/env python
"""Regenerate the golden corpora under ``tests/data/``.

The corpora maintained here are pinned at full float precision and
compared with ``==`` by the regression suites:

* ``golden_schedules.json`` — ``(cmax, minsum)`` of the headline
  algorithms on a frozen seeded synthetic corpus
  (``tests/properties/test_differential.py``);
* ``traces/*.swf`` + ``trace_replay_goldens.json`` — deterministic
  synthetic SWF fixtures and the replay aggregates (makespan, weighted
  flow, batch count) of every moldability model on them, batch and
  clairvoyant modes (``tests/integration/test_trace_replay.py``);
* ``online_goldens.json`` — on-line schedules on frozen instances with
  deterministic releases: the seed batch framework's, plus the fcfs,
  fcfs-backfill and greedy-interval policies
  (``tests/simulator/test_policies.py``);
* ``pareto_goldens.json`` — per-instance bi-criteria point clouds, front
  masks and quality indicators of a frozen trade-off sweep (DEMT knob
  deviations + registry algorithms) on synthetic cells and one trace
  window (``tests/pareto/test_golden_pareto.py``).

Regenerate ONLY when an intentional behavioral change is made (and say so
in the commit message):

    PYTHONPATH=src python tests/data/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.algorithms.registry import get_algorithm  # noqa: E402
from repro.utils.rng import derive_rng  # noqa: E402
from repro.workloads.generator import generate_workload  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden_schedules.json")

#: Frozen corpus + algorithm panel.  Changing either invalidates the file.
GOLDEN_SEED = 20040626  # SPAA'04 conference date
GOLDEN_SIZES = ((15, 13), (60, 100), (100, 13))  # (n, m)
GOLDEN_FAMILIES = ("weakly_parallel", "highly_parallel", "mixed", "cirne")
GOLDEN_ALGORITHMS = (
    "DEMT",
    "List Scheduling",
    "LPTF",
    "SAF",
    "FCFS",
    "FCFS+EASY",
)


def golden_cells() -> list[dict]:
    cells = []
    for kind in GOLDEN_FAMILIES:
        for n, m in GOLDEN_SIZES:
            inst = generate_workload(
                kind, n=n, m=m, seed=derive_rng(GOLDEN_SEED, kind, n, m)
            )
            for name in GOLDEN_ALGORITHMS:
                sched = get_algorithm(name).schedule(inst)
                cells.append(
                    {
                        "kind": kind,
                        "n": n,
                        "m": m,
                        "algorithm": name,
                        "cmax": sched.makespan(),
                        "minsum": sched.weighted_completion_sum(),
                    }
                )
    return cells


TRACES_DIR = Path(__file__).with_name("traces")
TRACE_GOLDEN_PATH = Path(__file__).with_name("trace_replay_goldens.json")

#: Frozen trace fixtures: name -> (synthesize_swf kwargs, replay m).
#: ``m`` deliberately differs from the generation width for ``wide_jobs``
#: so the goldens pin the clamping path too.
TRACE_FIXTURES: dict[str, tuple[dict, int]] = {
    "cirne_small.swf": (dict(n=60, m=32, seed=7), 32),
    "bursty_quirks.swf": (dict(n=80, m=16, seed=21, load=3.0, quirks=True), 16),
    "wide_jobs.swf": (dict(n=40, m=64, seed=13, load=0.5), 24),
}


def write_trace_fixtures() -> None:
    """(Re)write the synthetic SWF fixtures — deterministic, so idempotent."""
    from repro.workloads.trace import synthesize_swf

    TRACES_DIR.mkdir(exist_ok=True)
    for name, (kwargs, _m) in TRACE_FIXTURES.items():
        (TRACES_DIR / name).write_text(synthesize_swf(**kwargs))


def trace_golden_cells() -> list[dict]:
    from repro.experiments.replay import replay_trace
    from repro.workloads.trace import MOLDABILITY_MODELS, load_trace

    cells = []
    for name, (_kwargs, m) in TRACE_FIXTURES.items():
        trace = load_trace(TRACES_DIR / name)
        results = replay_trace(
            trace, m=m, models=list(MOLDABILITY_MODELS),
            modes=("batch", "clairvoyant"), validate=True,
        )
        for r in results:
            cells.append(
                {
                    "fixture": name,
                    "digest": trace.digest,
                    "m": m,
                    "model": r.model,
                    "mode": r.mode,
                    "n_jobs": r.n_jobs,
                    "makespan": r.makespan,
                    "weighted_flow": r.weighted_flow,
                    "batches": r.n_batches,
                }
            )
    return cells


ONLINE_GOLDEN_PATH = Path(__file__).with_name("online_goldens.json")

#: Frozen on-line corpus: seeded instances with deterministic Poisson-ish
#: releases, scheduled by the *seed* batch framework
#: (:class:`repro.simulator.reference.ReferenceBatchScheduler`).  The
#: production :class:`~repro.simulator.online.BatchPolicy` must reproduce
#: every placement bit for bit.
ONLINE_SIZES = ((15, 13), (60, 32))  # (n, m)
ONLINE_SPREADS = (0.5, 2.0)  # release horizon as a fraction of n


#: Policies recorded from their production implementations on the same
#: instances: no seed oracle exists for them, so these rows pin the
#: current schedules (EASY backfill included) against future rewrites.
ONLINE_POLICIES = ("fcfs", "fcfs-backfill", "greedy-interval")


def _online_instances():
    """``(kind, n, m, spread, instance)`` of the frozen on-line corpus."""
    from repro.core.instance import Instance

    for kind in GOLDEN_FAMILIES:
        for n, m in ONLINE_SIZES:
            for spread in ONLINE_SPREADS:
                rng = derive_rng(GOLDEN_SEED, "online", kind, n, int(spread * 10))
                base = generate_workload(kind, n=n, m=m, seed=rng)
                releases = rng.exponential(spread, size=n).cumsum()
                inst = Instance(
                    [
                        t.with_release(float(r))
                        for t, r in zip(base.tasks, releases)
                    ],
                    m,
                )
                yield kind, n, m, spread, inst


def _online_doc(kind, n, m, spread, res) -> dict:
    return {
        "kind": kind,
        "n": n,
        "m": m,
        "spread": spread,
        "makespan": res.schedule.makespan(),
        "batch_starts": list(res.batch_starts),
        "batch_contents": [sorted(c) for c in res.batch_contents],
        "placements": sorted(
            [p.task.task_id, p.start, p.allotment, p.end]
            for p in res.schedule
        ),
    }


def online_golden_cells() -> list[dict]:
    from repro.algorithms.demt import schedule_demt
    from repro.simulator.reference import ReferenceBatchScheduler

    return [
        _online_doc(kind, n, m, spread,
                    ReferenceBatchScheduler(schedule_demt).run(inst))
        for kind, n, m, spread, inst in _online_instances()
    ]


def online_policy_cells() -> list[dict]:
    from repro.algorithms.demt import schedule_demt
    from repro.simulator.online import get_policy

    return [
        {"policy": name,
         **_online_doc(kind, n, m, spread,
                       get_policy(name, offline=schedule_demt).run(inst))}
        for kind, n, m, spread, inst in _online_instances()
        for name in ONLINE_POLICIES
    ]


FAULTY_GOLDEN_PATH = Path(__file__).with_name("faulty_goldens.json")

#: Frozen fault-injected on-line corpus: seeded instances (deterministic
#: exponential release gaps) run through :class:`repro.faults.failures.
#: FaultyBatchPolicy` under (noise, failure-trace) scenarios.  The corpus
#: records the complete outcome — placements, batch starts, crash and
#: deferral counts, and the full event log — so the event-spine port of
#: the faulty replay loop can be pinned bit for bit against the
#: pre-refactor path.  ``(kind, n, m, spread, noise, failures, horizon)``.
FAULTY_SCENARIOS = (
    ("mixed", 20, 8, 0.0, "none", "exp:10:4@1", 500.0),
    ("mixed", 30, 8, 1.0, "lognormal:0.5@1", "exp:5:3@2", 500.0),
    ("cirne", 25, 13, 0.5, "overestimate:4@1", "exp:15:5@3", 500.0),
    ("highly_parallel", 16, 8, 2.0, "lognormal:0.4@2", "exp:8:2@4", 400.0),
    ("weakly_parallel", 24, 8, 0.5, "none", "exp:6:2@5", 600.0),
)


def faulty_golden_cells() -> list[dict]:
    from repro.core.instance import Instance
    from repro.faults.failures import FaultyBatchPolicy, generate_failures

    cells = []
    for kind, n, m, spread, noise, failures, horizon in FAULTY_SCENARIOS:
        rng = derive_rng(GOLDEN_SEED, "faulty", kind, n, int(spread * 10))
        base = generate_workload(kind, n=n, m=m, seed=rng)
        if spread > 0:
            releases = rng.exponential(spread, size=n).cumsum()
            inst = Instance(
                [t.with_release(float(r)) for t, r in zip(base.tasks, releases)],
                m,
            )
        else:
            inst = base
        trace = generate_failures(m, horizon, failures)
        res = FaultyBatchPolicy(noise=noise, failures=trace).run(inst)
        cells.append(
            {
                "kind": kind,
                "n": n,
                "m": m,
                "spread": spread,
                "noise": noise,
                "failures": failures,
                "horizon": horizon,
                "crashes": res.crashes,
                "deferrals": res.deferrals,
                "batch_starts": list(res.batch_starts),
                "batch_contents": [sorted(c) for c in res.batch_contents],
                "placements": sorted(
                    [p.task.task_id, p.start, p.allotment, p.end]
                    for p in res.schedule
                ),
                "log": [
                    [e.time, e.kind.value, e.job_id, list(e.procs)]
                    for e in res.log
                ],
            }
        )
    return cells


PARETO_GOLDEN_PATH = Path(__file__).with_name("pareto_goldens.json")

#: Frozen sweep: a DEMT knob slice plus registry anchors, on two synthetic
#: cells per family and one trace window.  Changing any spec invalidates
#: the file.
PARETO_SWEEP = (
    "DEMT",
    "DEMT[order=weight]",
    "DEMT[relax=1.5]",
    "DEMT[shuffle=0]",
    "DEMT[thresh=0.25]",
    "SAF",
    "LPTF",
    "Gang",
)
PARETO_FAMILIES = ("mixed", "cirne")
PARETO_N, PARETO_M, PARETO_RUNS = 24, 16, 2
PARETO_TRACE = ("cirne_small.swf", "downey", (0, 24))


def _pareto_cell_docs(result) -> list[dict]:
    docs = []
    for cell in result.cells:
        docs.append(
            {
                "source": result.source,
                "kind": cell.kind,
                "n": cell.n,
                "r": cell.r,
                "m": cell.m,
                "cmax_lb": cell.cmax_lb,
                "minsum_lb": cell.minsum_lb,
                "specs": list(cell.specs),
                "cloud": cell.cloud.tolist(),
                "front_mask": cell.front_mask.tolist(),
                "indicators": cell.indicators(),
            }
        )
    return docs


def pareto_golden_cells() -> list[dict]:
    from repro.pareto.sweep import sweep_tradeoffs
    from repro.workloads.trace import load_trace

    cells: list[dict] = []
    for kind in PARETO_FAMILIES:
        result = sweep_tradeoffs(
            kind,
            PARETO_SWEEP,
            m=PARETO_M,
            task_counts=(PARETO_N,),
            runs=PARETO_RUNS,
            seed=GOLDEN_SEED,
            validate=True,
        )
        cells.extend(_pareto_cell_docs(result))
    fixture, model, window = PARETO_TRACE
    result = sweep_tradeoffs(
        load_trace(TRACES_DIR / fixture),
        PARETO_SWEEP,
        model=model,
        window=window,
        validate=True,
    )
    cells.extend(_pareto_cell_docs(result))
    return cells


def main() -> None:
    payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact (cmax, minsum) goldens; regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": golden_cells(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['cells'])} cells to {GOLDEN_PATH}")

    write_trace_fixtures()
    print(f"wrote {len(TRACE_FIXTURES)} SWF fixtures to {TRACES_DIR}")
    trace_payload = {
        "_meta": {
            "comment": (
                "Bit-exact trace-replay aggregates (DEMT engine) on the "
                "frozen fixtures under tests/data/traces/; regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": trace_golden_cells(),
    }
    TRACE_GOLDEN_PATH.write_text(json.dumps(trace_payload, indent=1) + "\n")
    print(f"wrote {len(trace_payload['cells'])} replay cells to {TRACE_GOLDEN_PATH}")

    online_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact on-line batch schedules of the seed "
                "ReferenceBatchScheduler (DEMT engine) on frozen instances "
                "with deterministic releases; the BatchPolicy kernel must "
                "reproduce every placement.  policy_cells records the "
                "fcfs, fcfs-backfill and greedy-interval policies on the "
                "same instances.  Regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": online_golden_cells(),
        "policy_cells": online_policy_cells(),
    }
    ONLINE_GOLDEN_PATH.write_text(json.dumps(online_payload, indent=1) + "\n")
    print(
        f"wrote {len(online_payload['cells'])} online batch cells and "
        f"{len(online_payload['policy_cells'])} policy cells to {ONLINE_GOLDEN_PATH}"
    )

    pareto_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "sweep": list(PARETO_SWEEP),
            "comment": (
                "Bit-exact Pareto sweep clouds, front masks and indicators "
                "on frozen synthetic cells and one trace window; regenerate "
                "with tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": pareto_golden_cells(),
    }
    PARETO_GOLDEN_PATH.write_text(json.dumps(pareto_payload, indent=1) + "\n")
    print(f"wrote {len(pareto_payload['cells'])} pareto cells to {PARETO_GOLDEN_PATH}")

    faulty_payload = {
        "_meta": {
            "seed": GOLDEN_SEED,
            "comment": (
                "Bit-exact fault-injected replays of FaultyBatchPolicy "
                "(placements, batches, crash/deferral counts and the full "
                "event log) on frozen instances; the event-spine port must "
                "reproduce every row.  Regenerate with "
                "tests/data/make_goldens.py only for intentional changes."
            ),
        },
        "cells": faulty_golden_cells(),
    }
    FAULTY_GOLDEN_PATH.write_text(json.dumps(faulty_payload, indent=1) + "\n")
    print(f"wrote {len(faulty_payload['cells'])} faulty cells to {FAULTY_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
