"""The benchmark's three workloads, each driven through a public entry point.

Every workload is a closed loop: one client runs a *pass* (one call of the
entry point, or one per figure family) and starts the next pass only when
the previous one returned.  A pass yields one :class:`Cell` per cell the
campaign engine executed, captured by :class:`CellClock`, a backend wrapper
the engine accepts like any other backend.  It times each cell where the
cell runs, in the worker process on the process backend, and keeps the
cell's output so every timed pass can be checked against the validated one.

Inputs come only from the seed: ``trace-replay`` synthesises SWF text and
hands the program nothing but that text; the campaign workloads pass the
seed to the campaign, which derives every instance from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.bounds.cmax import cmax_lower_bound
from repro.experiments.config import PAPER_WORKLOADS, ExperimentConfig
from repro.experiments.engine import (
    CellFailure,
    RetryPolicy,
    default_worker_count,
    resolve_backend,
)
from repro.experiments.replay import REPLAY_MODES, replay_trace
from repro.experiments.runner import run_campaign, run_cells
from repro.faults.campaign import (
    ROBUSTNESS_ENGINES,
    parse_scenario,
    run_robustness_campaign,
)
from repro.utils.rng import derive_rng
from repro.workloads.arrivals import apply_arrivals
from repro.workloads.generator import generate_workload
from repro.workloads.trace import load_trace, synthesize_swf, trace_instance


@dataclass
class Cell:
    """One executed cell: its wall time and per-scheduler (Cmax, sum wC).

    ``seconds`` is ``None`` for a cell that produced no result.  ``error``
    is set when the cell raised, was quarantined or failed validation.
    """

    key: tuple
    tasks: int
    seconds: float | None = None
    outputs: dict | None = None
    bounds: object = None
    error: str | None = None


class _Timed:
    """Per-cell stopwatch around a family worker.

    Module-level and picklable, so on the process backend it runs (and
    times the cell) inside the worker process.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        t0 = time.perf_counter()
        out = self.fn(item)
        return time.perf_counter() - t0, out


class CellClock:
    """A campaign backend that delegates to ``inner`` and records every
    cell as ``(item, seconds, output)``; a quarantined cell is recorded
    with its :class:`~repro.experiments.engine.CellFailure`."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.cells: list[tuple] = []

    def map(self, fn, items):
        items = list(items)
        results = []
        for item, out in zip(items, self.inner.map(_Timed(fn), items)):
            if isinstance(out, CellFailure):
                self.cells.append((item, None, out))
                results.append(out)
                continue
            seconds, result = out
            self.cells.append((item, seconds, result))
            results.append(result)
        return results


def _records(result):
    """``(bounds, {name: (cmax, minsum)})`` of one worker result.  A traced
    process-pool worker's result arrives wrapped with its obs snapshot."""
    bounds, records = getattr(result, "result", result)
    return bounds, {name: (rec.cmax, rec.minsum) for name, rec in records.items()}


def geomean(values) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Workload:
    """One benchmark workload: inputs from a seed, passes, quality metrics.

    Subclasses set :attr:`keys` (every cell a pass must produce) in
    :meth:`setup` and implement :meth:`_call`, :meth:`_key` and
    :meth:`quality`.
    """

    name = ""
    keys: list[tuple]
    #: Whether ``cell_p50_s`` and ``cell_p90_s`` are percentiles of the
    #: cell times; if not, both are their mean.
    cell_percentiles = True

    def setup(self) -> None:
        """Generate and load the inputs (counted in ``setup_s``)."""

    def run(self, validate: bool) -> tuple[list[Cell], float]:
        """One pass; returns its cells (in :attr:`keys` order) and wall time."""
        errors: dict[tuple, str] = {}
        t0 = time.perf_counter()
        clock = self._call(validate, errors)
        wall = time.perf_counter() - t0
        cells = {}
        for item, seconds, out in clock.cells:
            key, tasks = self._key(item)
            if isinstance(out, CellFailure):
                cells[key] = Cell(key, tasks, error=f"quarantined: {out}")
            else:
                bounds, outputs = _records(out)
                cells[key] = Cell(key, tasks, seconds, outputs, bounds)
        ordered = []
        for key in self.keys:
            cell = cells.get(key)
            if cell is None:
                cell = Cell(key, 0, error=errors.get(key, "no result"))
            ordered.append(cell)
        return ordered, wall

    def _call(self, validate: bool, errors: dict) -> CellClock:
        raise NotImplementedError

    def _key(self, item) -> tuple[tuple, int]:
        """``(cell key, tasks scheduled)`` of one engine work item."""
        raise NotImplementedError

    def quality(self, cells: dict) -> dict:
        """Quality metrics of one timed pass (``key -> Cell``): every
        schedule it produced, including any that fail validation."""
        raise NotImplementedError


def _fail_all(errors: dict, keys, exc: Exception) -> None:
    for key in keys:
        errors.setdefault(key, f"{type(exc).__name__}: {exc}")


class TraceReplay(Workload):
    """``replay --mode all`` of a synthetic SWF window, rigid and downey,
    DEMT engine, serial backend."""

    name = "trace-replay"
    models = ("rigid", "downey")
    # Ten cells a pass, three of them ten times longer than the rest: a
    # percentile is whichever short cell lands there, so the mean stands in.
    cell_percentiles = False

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.n_jobs = 300 if smoke else 10_000
        self.m = 64

    def setup(self) -> None:
        text = synthesize_swf(self.n_jobs, self.m, seed=self.seed)
        t0 = time.perf_counter()
        self.trace = load_trace(text)
        self.load_s = time.perf_counter() - t0
        self.keys = [(model, mode) for model in self.models for mode in REPLAY_MODES]

    def _call(self, validate, errors):
        clock = CellClock(resolve_backend("serial"))
        if not validate:
            try:
                replay_trace(self.trace, m=self.m, models=self.models,
                             modes=REPLAY_MODES, backend=clock)
            except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
                _fail_all(errors, self.keys, exc)
            return clock
        # One call per cell, so a schedule that fails validation costs
        # only its own cell.
        for model, mode in self.keys:
            try:
                replay_trace(self.trace, m=self.m, models=model, modes=mode,
                             validate=True, backend=clock)
            except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
                _fail_all(errors, [(model, mode)], exc)
        return clock

    def _key(self, item):
        _trace, _m, model, mode, _offline, _validate, names = item
        return (model, mode), self.n_jobs * len(names)

    def bounds(self) -> dict:
        """Certified Cmax bounds per model: ``(on-line, clairvoyant,
        sum_i (r_i + min_k p_i(k)))``.  The on-line bound is the larger of
        ``max_i (r_i + min_k p_i(k))`` and the release-relaxed bound
        ``min r + cmax_lower_bound``; a clairvoyant cell gets only the
        latter, since it schedules the release-relaxed instance."""
        first = float(self.trace.submits.min())
        out = {}
        for model in self.models:
            online = trace_instance(self.trace, self.m, model, online=True)
            earliest = online.releases + online.times_matrix.min(axis=1)
            relaxed = first + cmax_lower_bound(
                trace_instance(self.trace, self.m, model, online=False)
            )
            out[model] = (max(float(earliest.max()), relaxed), relaxed,
                          float(earliest.sum()))
        return out

    def quality(self, cells):
        bounds = self.bounds()
        release_sum = float(self.trace.submits.sum())
        ratios, demt_cmax, demt_minsum, flows = [], [], [], []
        for (model, mode), cell in cells.items():
            if cell.outputs is None:
                continue
            online_lb, relaxed_lb, earliest_sum = bounds[model]
            ((cmax, flow),) = cell.outputs.values()
            ratios.append(cmax / (relaxed_lb if mode == "clairvoyant" else online_lb))
            if mode == "batch":
                demt_cmax.append(ratios[-1])
                demt_minsum.append((flow + release_sum) / earliest_sum)
                flows.append(flow / self.n_jobs)
        return {
            "worst_cmax_ratio": max(ratios, default=float("nan")),
            "demt_cmax_ratio": geomean(demt_cmax),
            "demt_minsum_ratio": geomean(demt_minsum),
            "demt_mean_flow": geomean(flows),
            "demt_degradation": 0.0,
        }


class PaperCampaign(Workload):
    """The section 4.1 grid (figures 3 to 6): m=200, every family, the six
    paper algorithms and both lower bounds per cell, serial backend."""

    name = "paper-campaign"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.cfg = (
            ExperimentConfig(m=16, task_counts=(10, 25), runs=1, seed=seed)
            if smoke
            else ExperimentConfig(runs=4, seed=seed)
        )

    def setup(self) -> None:
        cfg = self.cfg
        self.keys = [
            (kind, n, r)
            for kind in PAPER_WORKLOADS
            for n in cfg.task_counts
            for r in range(cfg.runs)
        ]

    def _call(self, validate, errors):
        if validate:
            # Quarantine instead of raising, so one invalid schedule costs
            # only its own cell.
            clock = CellClock(
                resolve_backend("serial", policy=RetryPolicy(retries=0, backoff=0.0))
            )
            run_cells(self.keys, self.cfg, validate=True, backend=clock)
            return clock
        clock = CellClock(resolve_backend("serial"))
        for kind in PAPER_WORKLOADS:
            try:
                run_campaign(kind, self.cfg, backend=clock)
            except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
                _fail_all(errors, [k for k in self.keys if k[0] == kind], exc)
        return clock

    def _key(self, item):
        _seed, kind, n, _m, r, names, _validate, _need_bounds = item
        return (kind, n, r), n * len(names)

    def quality(self, cells):
        cfg = self.cfg
        ratios, demt_cmax, demt_minsum, flows = [], [], [], []
        for (kind, n, r), cell in cells.items():
            if cell.outputs is None:
                continue
            b = cell.bounds
            ratios += [cmax / b.cmax_lb for cmax, _ in cell.outputs.values()]
            cmax, minsum = cell.outputs["DEMT"]
            demt_cmax.append(cmax / b.cmax_lb)
            demt_minsum.append(minsum / b.minsum_lb)
            # Off-line instances release every task at 0: flow = completion.
            inst = generate_workload(kind, n=n, m=cfg.m, seed=derive_rng(cfg.seed, kind, n, r))
            flows.append(minsum / float(inst.weights.sum()))
        return {
            "worst_cmax_ratio": max(ratios, default=float("nan")),
            "demt_cmax_ratio": geomean(demt_cmax),
            "demt_minsum_ratio": geomean(demt_minsum),
            "demt_mean_flow": geomean(flows),
            "demt_degradation": 0.0,
        }


class RobustnessFaults(Workload):
    """A nominal and a degraded pass of every robustness engine under
    noise, machine crashes and Poisson arrivals, on the process backend
    with a retry policy."""

    name = "robustness-faults"
    kind = "mixed"
    scenario_spec = "lognormal:0.4|exp:50:5|poisson"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.task_counts = (20, 40) if smoke else (100, 200, 400)
        self.runs = 1 if smoke else 4
        self.m = 32
        self.jobs = default_worker_count()
        self.policy = RetryPolicy()

    def setup(self) -> None:
        self.scenario = parse_scenario(self.scenario_spec)
        self.nominal_spec = self.scenario.baseline().spec
        self.keys = [
            (spec, self.kind, n, r)
            for spec in (self.scenario.spec, self.nominal_spec)
            for n in self.task_counts
            for r in range(self.runs)
        ]

    def _call(self, validate, errors):
        clock = CellClock(resolve_backend("process", self.jobs, self.policy))
        try:
            run_robustness_campaign(
                self.kind, self.task_counts, self.runs, self.scenario,
                engines=ROBUSTNESS_ENGINES, seed=self.seed, m=self.m,
                validate=validate, backend=clock, policy=self.policy,
            )
        except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
            _fail_all(errors, self.keys, exc)
        return clock

    def _key(self, item):
        _seed, kind, n, _m, r, names, spec, _validate, _need_bounds = item
        return (spec, kind, n, r), n * len(names)

    def quality(self, cells):
        # Noise changes the real durations, so only nominal schedules have
        # a certified bound; degraded ones enter through demt_degradation.
        ratios, demt_cmax, demt_minsum, flows, degradation = [], [], [], [], []
        for (spec, kind, n, r), cell in cells.items():
            if spec != self.nominal_spec or cell.outputs is None:
                continue
            b = cell.bounds
            ratios += [cmax / b.cmax_lb for cmax, _ in cell.outputs.values()]
            cmax, minsum = cell.outputs["demt"]
            demt_cmax.append(cmax / b.cmax_lb)
            demt_minsum.append(minsum / b.minsum_lb)
            inst = apply_arrivals(
                generate_workload(kind, n=n, m=self.m, seed=derive_rng(self.seed, kind, n, r)),
                self.scenario.arrivals,
            )
            w = inst.weights
            flows.append((minsum - float(np.dot(w, inst.releases))) / float(w.sum()))
            degraded = cells[(self.scenario.spec, kind, n, r)]
            if degraded.outputs is not None:
                degradation.append(degraded.outputs["demt"][0] / cmax)
        return {
            "worst_cmax_ratio": max(ratios, default=float("nan")),
            "demt_cmax_ratio": geomean(demt_cmax),
            "demt_minsum_ratio": geomean(demt_minsum),
            "demt_mean_flow": geomean(flows),
            "demt_degradation": geomean(degradation),
        }


WORKLOADS = {w.name: w for w in (TraceReplay, PaperCampaign, RobustnessFaults)}
