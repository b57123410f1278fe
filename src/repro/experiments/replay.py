"""Trace-replay campaigns: archive logs through the on-line framework.

The production story of the paper — DEMT inside the Shmoys–Wein–Williamson
batch wrapper, scheduling real arrival streams on Icluster2 — replayed in
simulation from any SWF log.  One *replay cell* is the smallest
reproducible unit: one trace window, one moldability model, one replay
mode, one off-line engine.  Because trace loading is pure (columnar
parse), moldability reconstruction is RNG-free, and the engines are
deterministic, a cell's numbers are a pure function of its key — so cells
are cacheable and backend-interchangeable exactly like the synthetic
campaign cells of :mod:`repro.experiments.runner`:

* **cell key** — ``CellKey(seed=0, kind="trace:<digest16>:<model>:<mode>",
  n=<window size>, m, r=<window offset>, algorithm=<engine label>)``.  The
  digest is the trace's content digest (see
  :class:`repro.workloads.trace.Trace`), so renaming or moving a log file
  never invalidates its cells, and editing one job always does.
* **record** — makespan in ``cmax``, the total flow ``sum (C_i - r_i)``
  in ``minsum``, the batch count in ``batches``.

Replay modes (the on-line policy axis):

``batch``
    The real thing: the :class:`~repro.simulator.online.BatchPolicy`
    kernel with the trace submit times as release dates.
``clairvoyant``
    The omniscient baseline: one off-line schedule of the whole window
    (the DEMT engine on the release-relaxed instance), started at the
    first arrival.  Jobs may start before they exist, so it is a
    reference point, not a lower bound: the engine only approximates the
    relaxed optimum, and its flow terms (and even the mean flow) can be
    negative.  The on-line/clairvoyant makespan ratio is the measured
    "price of not knowing the future" (the §2.2 analysis bounds the
    on-line makespan by ``2ρ`` times the optimum).
``fcfs`` / ``fcfs-backfill`` / ``greedy-interval``
    Every other zero-configuration policy of the
    :data:`~repro.simulator.online.ONLINE_POLICIES` registry, replayed
    under identical arrivals — what production clusters actually ran,
    measured beside the paper's wrapper on the same cells.

Replay cells are one family of the :func:`~repro.experiments.engine.
execute_cells` protocol (:class:`ReplayCellFamily`), so backends, caching
and journalling behave exactly like every other campaign family.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.algorithms.demt import schedule_demt
from repro.algorithms.gang import schedule_gang
from repro.algorithms.sequential import schedule_sequential
from repro.algorithms.wspt import schedule_wspt
from repro.core.validation import validate_schedule
from repro.exceptions import ModelError
from repro.experiments.engine import (
    CellFamily,
    CellKey,
    CellRecord,
    execute_cells,
    resolve_cache,
)
from repro.io.swf import write_swf
from repro.simulator.online import ONLINE_POLICIES, ZERO_CONFIG_POLICIES, get_policy
from repro.workloads.trace import (
    MOLDABILITY_MODELS,
    SharedTraceHandle,
    Trace,
    load_trace,
    resolve_trace,
    trace_instance,
)

__all__ = [
    "ReplayResult",
    "ReplayCellFamily",
    "replay_trace",
    "replay_cell_key",
    "export_replay_swf",
    "REPLAY_MODES",
    "REPLAY_ENGINES",
]

#: Supported replay modes: ``clairvoyant`` (the omniscient off-line reference)
#: plus every zero-configuration registry policy — ``batch`` is the
#: paper's framework, the rest are the on-line baselines.
REPLAY_MODES = ("batch", "clairvoyant") + tuple(
    p for p in ZERO_CONFIG_POLICIES if p != "batch"
)

#: Named off-line engines for the CLI: module-level functions only, so
#: every one of them has a stable cache label.
REPLAY_ENGINES: dict[str, Callable] = {
    "demt": schedule_demt,
    "gang": schedule_gang,
    "sequential": schedule_sequential,
    "wspt": schedule_wspt,
}


@dataclass(frozen=True)
class ReplayResult:
    """Aggregates of one replay cell.

    ``weighted_flow`` is ``sum_i w_i (C_i - r_i)`` (SWF jobs carry unit
    weights, so this is the total flow time); ``minsum`` is the library's
    usual ``sum_i w_i C_i``, recovered as ``weighted_flow + sum_i w_i r_i``
    so cached cells reproduce it without storing a second aggregate.
    In clairvoyant mode flow terms can be negative for individual jobs
    (the relaxation may finish a job before it arrived), and so can the
    mean flow.  The mode is an approximate schedule of the relaxed
    instance, neither a feasible execution nor a lower bound.
    """

    digest: str
    offset: int
    n_jobs: int
    m: int
    model: str
    mode: str
    engine: str
    makespan: float
    weighted_flow: float
    release_sum: float
    n_batches: int
    seconds: float
    cached: bool = False

    @property
    def minsum(self) -> float:
        return self.weighted_flow + self.release_sum

    @property
    def mean_flow(self) -> float:
        return self.weighted_flow / self.n_jobs if self.n_jobs else 0.0

    @property
    def jobs_per_sec(self) -> float:
        """Replay throughput: jobs scheduled per wall-clock second.

        ``seconds`` is the pure policy/engine time measured by
        :func:`_measure` (trace loading and instance construction are
        excluded), so this is the number the event-spine benchmarks
        report.  Zero-duration cells (cached or degenerate) report 0.0
        rather than dividing by zero.
        """
        return self.n_jobs / self.seconds if self.seconds > 0 else 0.0


def _engine_label(offline: Callable) -> str | None:
    """Stable cache label for the engine, or ``None`` (not cacheable)."""
    from repro.experiments.online_eval import _offline_label

    return _offline_label(offline)


def replay_cell_key(
    trace: Trace, m: int, model: str, mode: str, engine_label: str
) -> CellKey:
    """Address of one replay cell (see the module docstring)."""
    return CellKey(
        seed=0,
        kind=f"trace:{trace.digest[:16]}:{model}:{mode}",
        n=trace.n,
        m=m,
        r=trace.offset,
        algorithm=engine_label,
    )


def _measure(
    trace: Trace, m: int, model: str, mode: str, offline: Callable, validate: bool
) -> tuple[tuple[float, float, int, float], "object"]:
    """One (trace window, model, mode) measurement.

    Returns ``((makespan, weighted_flow, n_batches, seconds), schedule)``;
    every float is a deterministic function of the inputs, so serial and
    process backends — and the SWF export path, which reuses this and the
    schedule it hands back — agree bit for bit.
    """
    if mode in ONLINE_POLICIES:
        policy = get_policy(mode, offline=offline)
        inst = trace_instance(trace, m, model, online=True)
        t0 = time.perf_counter()
        result = policy.run(inst)
        seconds = time.perf_counter() - t0
        sched = result.schedule
        if validate:
            validate_schedule(sched, inst)
        flow = float(sum(p.task.weight * (p.end - p.task.release) for p in sched))
        return (sched.makespan(), flow, result.n_batches, seconds), sched
    if mode == "clairvoyant":
        inst = trace_instance(trace, m, model, online=False)
        t0 = time.perf_counter()
        sched = offline(inst)
        seconds = time.perf_counter() - t0
        if validate:
            validate_schedule(sched, inst)
        shift = float(trace.submits.min()) if trace.n else 0.0
        makespan = (sched.makespan() + shift) if len(sched) else 0.0
        # C_i = end_i + shift against the *real* releases r_i.
        flow = float(
            sum(p.task.weight * (p.end + shift) for p in sched)
        ) - float(trace.submits.sum())
        return (makespan, flow, 1 if len(sched) else 0, seconds), sched
    raise ModelError(f"unknown replay mode {mode!r}; available: {', '.join(REPLAY_MODES)}")


def _replay_cell(args: tuple):
    """Worker: one replay cell's record (top-level and picklable, so the
    process backend can fan replay cells out across cores).  Under that
    backend the trace arrives as zero-copy views over the family's shared
    block (a :class:`~repro.workloads.trace.SharedTraceHandle` unpickles
    straight into a :class:`Trace`); in-process calls unwrap the handle."""
    trace, m, model, mode, offline, validate, names = args
    (makespan, flow, batches, seconds), _ = _measure(
        resolve_trace(trace), m, model, mode, offline, validate
    )
    record = CellRecord(
        cmax=makespan,
        minsum=flow,
        seconds=seconds,
        validated=validate,
        batches=batches,
    )
    return None, {name: record for name in names}


class ReplayCellFamily(CellFamily):
    """The trace-replay family: ``(model, mode)`` cells on one trace
    window, records addressed by :func:`replay_cell_key` (no instance
    bounds: the clairvoyant mode is the reference schedule)."""

    name = "replay"
    worker = staticmethod(_replay_cell)

    def __init__(self, trace: Trace, m: int, offline: Callable) -> None:
        self.trace = trace
        self.m = int(m)
        self.offline = offline
        self._ship: SharedTraceHandle | None = None

    def record_key(self, cell, name: str) -> CellKey:
        model, mode = cell
        return replay_cell_key(self.trace, self.m, model, mode, name)

    def dispatch(self, backend):
        """Stage the trace columns in shared memory for a process fan-out.

        Every task of this family references the same trace; without this
        the process backend re-pickles all five columns per task.  The
        serial and thread backends take the no-staging fast path: their
        workers share this process's trace object directly (the thread
        backend's zero-copy property), so staging would only add copies.
        """
        if getattr(backend, "name", "") != "process" or self.trace.n == 0:
            return nullcontext()
        return self._shared_dispatch()

    @contextmanager
    def _shared_dispatch(self):
        self._ship = SharedTraceHandle(self.trace)
        try:
            yield
        finally:
            ship, self._ship = self._ship, None
            ship.release()

    def make_task(self, cell, names, validate, need_bounds) -> tuple:
        model, mode = cell
        trace = self._ship if self._ship is not None else self.trace
        return (trace, self.m, model, mode, self.offline, validate, names)


def _as_trace(source: "Trace | str | object") -> Trace:
    return source if isinstance(source, Trace) else load_trace(source)


def _normalize(values: "str | Sequence[str]", universe: Iterable[str], what: str) -> list[str]:
    universe = list(universe)
    if isinstance(values, str):
        values = universe if values == "all" else [values]
    out = list(values)
    for v in out:
        if v not in universe:
            raise ModelError(f"unknown {what} {v!r}; available: {', '.join(universe)}")
    return out


def replay_trace(
    source: "Trace | str",
    *,
    m: int | None = None,
    models: "str | Sequence[str]" = "rigid",
    modes: "str | Sequence[str]" = "batch",
    offline: Callable = schedule_demt,
    window: tuple[int, int] | None = None,
    validate: bool = False,
    backend: object = None,
    jobs: int | None = None,
    cache: object = None,
) -> list[ReplayResult]:
    """Replay a trace under a grid of moldability models and modes.

    Parameters
    ----------
    source:
        A :class:`~repro.workloads.trace.Trace`, an SWF file path, or SWF
        text.
    m:
        Machine size; defaults to the log's ``MaxProcs`` header (falling
        back to the widest job).  Jobs wider than ``m`` are clamped.
    models / modes:
        One name, a sequence, or ``"all"`` — the cross product is the
        campaign grid, dispatched through ``backend`` in one batch.
    window:
        ``(offset, count)`` restriction of the trace (the cell key keeps
        the window coordinates, so windows cache independently).
    cache:
        A :class:`~repro.experiments.engine.CellCache` or directory path;
        replay cells persist next to the synthetic campaign cells.  Cells
        are only cacheable when ``offline`` is a module-level function
        (same rule, and same reason, as
        :func:`~repro.experiments.online_eval.evaluate_online`).

    Returns one :class:`ReplayResult` per ``(model, mode)``, in grid
    order.  Aggregates are bit-identical across backends and across
    repeat calls — the determinism the trace-level test corpus pins.
    """
    trace = _as_trace(source)
    if window is not None:
        trace = trace.window(*window)
    m = trace.resolve_m(m)
    model_list = _normalize(models, MOLDABILITY_MODELS, "moldability model")
    mode_list = _normalize(modes, REPLAY_MODES, "replay mode")

    label = _engine_label(offline)
    engine = label or getattr(offline, "__name__", repr(offline))
    release_sum = float(trace.submits.sum()) if trace.n else 0.0

    grid = [(model, mode) for model in model_list for mode in mode_list]
    outcomes = execute_cells(
        ReplayCellFamily(trace, m, offline),
        grid,
        (engine,),
        validate=validate,
        backend=backend,
        jobs=jobs,
        # An ambiguous engine label could serve one engine's numbers for
        # another, so only named module-level engines are journalled.
        cache=cache if label is not None else None,
    )
    results = []
    for model, mode in grid:
        out = outcomes[(model, mode)]
        rec = out.records[engine]
        results.append(
            ReplayResult(
                digest=trace.digest,
                offset=trace.offset,
                n_jobs=trace.n,
                m=m,
                model=model,
                mode=mode,
                engine=engine,
                makespan=rec.cmax,
                weighted_flow=rec.minsum,
                release_sum=release_sum,
                n_batches=rec.batches,
                seconds=rec.seconds,
                cached=bool(out.cached),
            )
        )
    return results


def export_replay_swf(
    source: "Trace | str",
    *,
    m: int | None = None,
    model: str = "rigid",
    offline: Callable = schedule_demt,
    window: tuple[int, int] | None = None,
    validate: bool = False,
    cache: object = None,
) -> str:
    """Replay (batch mode) and export the simulated execution as SWF text.

    The round trip — archive log in, simulated archive log out — lets
    standard archive tooling compare the real execution with the
    simulated one field by field.  The export carries the original submit
    times as release dates and parses back losslessly through
    :func:`repro.io.swf.read_swf`.

    ``cache`` (same spec as :func:`replay_trace`) is *seeded* with the
    run's aggregates: a subsequent ``replay_trace`` over the same cell
    serves them as a hit instead of re-running the scheduler — the CLI
    exports first and tabulates second for exactly this reason.
    """
    trace = _as_trace(source)
    if window is not None:
        trace = trace.window(*window)
    m = trace.resolve_m(m)
    (makespan, flow, batches, seconds), sched = _measure(
        trace, m, model, "batch", offline, validate
    )
    cache = resolve_cache(cache)
    label = _engine_label(offline)
    if cache is not None and label is not None:
        cache.put_record(
            replay_cell_key(trace, m, model, "batch", label),
            CellRecord(
                cmax=makespan,
                minsum=flow,
                seconds=seconds,
                validated=validate,
                batches=batches,
            ),
        )
    return write_swf(sched, m=m)
