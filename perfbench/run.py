"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace-replay --seed 7 --seconds 10 --trace 0

One invocation:

1. imports the program and generates the workload's inputs from ``--seed``;
2. runs one validated pass: every schedule goes through the feasibility
   validator, and its per-cell (Cmax, sum wC) become the reference;
3. runs untraced passes back to back until ``--seconds`` have elapsed, and
   checks every cell of every pass against the reference bit for bit;
4. computes the certified lower bounds, and the quality metrics of every
   schedule of the first timed pass;
5. with ``--trace 0``, starts fresh processes that only set up, for
   ``setup_s``; with ``--trace 1``, runs as many traced passes as untraced
   ones and builds the per-layer table from the trace.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics of ``BENCHMARK.json`` under
``--trace 0`` and its per-layer metrics under ``--trace 1``.  A fuller
record (samples, quartiles, failures, machine) is written to
``.bench_build/perfbench/results/<workload>/seed<seed>-trace<0|1>.json``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
#: Fresh processes timed per invocation for ``setup_s`` (median reported).
SETUP_PROBES = 5
WORKLOAD_NAMES = ("trace-replay", "paper-campaign", "robustness-faults")


def _monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _prepare_environment() -> None:
    """Point the program at its sources and keep every file it writes
    (compiled kernels, temporary files) inside the checkout."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT} "
                 "(src/repro or benchmarks/ is missing)")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))


class Tally:
    """Cells attempted and failed, and timed cells that disagreed with
    the validated pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.failures: dict[str, str] = {}

    def check(self, cells, ref) -> None:
        for cell in cells:
            self.attempted += 1
            base = ref[cell.key]
            error = cell.error or base.error
            if error is None and cell.outputs != base.outputs:
                self.mismatched += 1
                error = "differs from the validated pass"
            if error is not None:
                self.failed += 1
                self.failures.setdefault(repr(cell.key), error)


def _passes(workload, ref, tally, *, seconds=math.inf, count=math.inf) -> list:
    """Passes back to back, checked against ``ref``, until ``seconds`` have
    elapsed or ``count`` passes ran; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or (len(passes) < count and time.perf_counter() - start < seconds):
        cells, wall = workload.run(validate=False)
        tally.check(cells, ref)
        passes.append((cells, wall))
    return passes


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _wait_for_children() -> None:
    """Reap the campaign engine's pool workers, which it shuts down
    without waiting."""
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak among finished child processes
    (the pool workers, once reaped)."""
    _wait_for_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup_probes(args) -> list:
    """Seconds from spawning a fresh process to its inputs being ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = _monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["ready"] - t0)
    return samples


def _end_to_end(workload, passes, quality) -> tuple[dict, dict]:
    rates = [
        sum(c.tasks for c in cells if c.seconds is not None) / wall
        for cells, wall in passes
    ]
    seconds = [c.seconds for cells, _ in passes for c in cells if c.seconds is not None]
    if workload.cell_percentiles:
        p50 = statistics.median(seconds)
        p90 = statistics.quantiles(seconds, n=100, method="inclusive")[89]
    else:
        p50 = p90 = statistics.fmean(seconds)
    metrics = {
        "tasks_per_s": statistics.median(rates),
        "cell_p50_s": p50,
        "cell_p90_s": p90,
        "peak_rss_mb": _peak_rss_mb(),
        # log10: a broken schedule's ratio can exceed 1e270, a healthy one
        # is a small number above 1.
        "worst_cmax_ratio": math.log10(quality["worst_cmax_ratio"]),
        "demt_cmax_ratio": quality["demt_cmax_ratio"],
        "demt_minsum_ratio": quality["demt_minsum_ratio"],
        "demt_mean_flow": quality["demt_mean_flow"],
    }
    detail = {
        "passes": len(passes),
        "timed_wall_s": sum(wall for _, wall in passes),
        "tasks_per_s_per_pass": rates,
        "tasks_per_s_quartiles": _quartiles(rates),
        "cell_samples": len(seconds),
        "cell_percentiles": workload.cell_percentiles,
        "cell_s_quartiles": _quartiles(seconds),
        "worst_cmax_ratio": quality["worst_cmax_ratio"],
    }
    return metrics, detail


def _per_layer(workload, import_s, ref_state, ref_cells, untraced, traced,
               state, quality, tally) -> dict:
    from perfbench.layers import layer_table, span_times
    from perfbench.workloads import TraceReplay
    from repro.experiments.replay import REPLAY_MODES

    replay_cells = {(model, mode): 0.0 for model in TraceReplay.models for mode in REPLAY_MODES}
    cell_seconds = 0.0
    for cells, _ in traced:
        for c in cells:
            if c.seconds is not None:
                cell_seconds += c.seconds
                if c.key in replay_cells:
                    replay_cells[c.key] += c.seconds
    lanes = getattr(workload, "jobs", 1)
    table = layer_table(state, len(traced), cell_seconds, lanes, replay_cells)
    untraced_wall = sum(wall for _, wall in untraced)
    traced_wall = sum(wall for _, wall in traced)
    _calls, validation_incl, _self = span_times(ref_state)
    table.update({
        "repro.import_s": import_s,
        "workloads.trace.load_s": getattr(workload, "load_s", 0.0),
        "validation.s": validation_incl["validation"],
        "validation.failures": sum(1 for c in ref_cells if c.error),
        "obs.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "failed_frac": tally.failed / tally.attempted,
        "demt_degradation": quality["demt_degradation"],
    })
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed every input of the workload is generated from")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed wall seconds; whole passes run until they elapse")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: traced per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every input for the self-check")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _prepare_environment()
    t0 = time.perf_counter()
    import repro.experiments.replay  # noqa: F401 - the program's entry points
    import repro.experiments.runner  # noqa: F401
    import repro.faults.campaign  # noqa: F401
    import_s = time.perf_counter() - t0

    from benchmarks._harness import machine_metadata
    from perfbench.layers import LayerTimers
    from perfbench.workloads import WORKLOADS
    from repro import obs

    workload = WORKLOADS[args.workload](args.seed, smoke=args.scale == "smoke")
    workload.setup()
    if args.probe_setup:
        print(json.dumps({"ready": _monotonic()}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    ref_state = obs.enable(fresh=True) if args.trace else None
    with LayerTimers() if args.trace else contextlib.nullcontext():
        ref_cells, _ = workload.run(validate=True)
    obs.disable()
    ref = {c.key: c for c in ref_cells}
    tally.check(ref_cells, ref)

    untraced = _passes(workload, ref, tally, seconds=args.seconds)
    quality = workload.quality({c.key: c for c in untraced[0][0]})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_metadata(),
    }
    if args.trace:
        state = obs.enable(fresh=True)
        with LayerTimers():
            traced = _passes(workload, ref, tally, count=len(untraced))
        obs.disable()
        values = _per_layer(workload, import_s, ref_state, ref_cells,
                            untraced, traced, state, quality, tally)
        _wait_for_children()
        section = "per_layer"
    else:
        values, record["detail"] = _end_to_end(workload, untraced, quality)
        samples = _setup_probes(args)
        values["setup_s"] = statistics.median(samples)
        record["detail"]["setup_s_samples"] = samples
        section = "end_to_end"

    names = [m["name"] for m in spec[section]]
    if sorted(names) != sorted(values):
        raise SystemExit(f"perfbench: metric names differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(values))}")
    finite = all(math.isfinite(v) for v in values.values())
    if not finite:
        print(f"perfbench: non-finite metrics reported as 0: {values}", file=sys.stderr)
    record.update(
        correct=tally.mismatched == 0 and finite,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        metrics=values,
    )
    out = BUILD / "results" / args.workload / f"seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(json.dumps({
        "correct": record["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": v if math.isfinite(v := values[m["name"]]) else 0.0,
                        "unit": m["unit"]}
            for m in spec[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
