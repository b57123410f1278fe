"""Campaign execution engine: cell families, backends, and the result cache.

A *cell* is the smallest independently reproducible unit of a campaign:
one measurement on one instance, addressed by
``(seed, kind, n, m, r, algorithm)``.  A :class:`CellFamily` declares what
a cell of one campaign type *is* — its key schema, its worker (measure
function) and its record assembly — and :func:`execute_cells` drives every
family through the same machinery: cache lookups, backend dispatch and
journalling.  The figure campaigns, the Pareto sweeps, the on-line
arrival sweeps and the trace replays are all families of this one
protocol.  Because a cell's result is a pure function of its key (instances
derive from stateless RNG streams or content-addressed traces), a cell's
result does not depend on which other cells ran, in which order, or in
which process — which is what makes the two execution backends
interchangeable:

* :class:`SerialBackend` — a plain in-process loop (the default; zero
  overhead, exact for tests);
* :class:`ThreadBackend` — a :class:`concurrent.futures.ThreadPoolExecutor`
  fan-out inside one process.  Zero-copy: tasks and results never pickle,
  no shared-memory staging, no per-worker kernel warmup.  Real parallelism
  comes from the compiled kernel layer releasing the GIL
  (:mod:`repro.kernels`; pinned by ``tests/kernels/test_gil_release.py``),
  so kernel-bound cells overlap while the Python glue interleaves.
* :class:`ProcessBackend` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out over CPU cores.  Workers receive plain picklable argument tuples
  and return plain records; numbers are guaranteed identical to the serial
  backend (only the wall-clock ``seconds`` measurements differ).

Every backend optionally takes a :class:`RetryPolicy`, which turns it
crash-tolerant: failed cell attempts are retried with exponential backoff
and deterministic jitter, a cell still failing after its attempt budget is
**quarantined** (recorded as a :class:`CellFailure` instead of aborting
the campaign — surfaced as :attr:`CellOutcome.error`), each attempt on a
pool is bounded by a per-cell timeout, and a process pool that keeps
dying degrades gracefully to in-process execution.  All three backends
run one loop (:func:`_map_cells`) and differ only in the executor they
declare and whether it can kill a hung attempt.  Because cell results are
pure functions of their keys, a record produced on a retry is
bit-identical to a first-try record — crash-tolerance never changes the
numbers.

The :class:`CellCache` memoises per-cell records and per-instance lower
bounds, so repeated campaigns — sweeps over algorithm subsets, ablations
re-using the same instances, figure regeneration after adding one point —
only pay for cells they have not seen.  :class:`PersistentCellCache`
extends it with an append-only on-disk journal, making those savings
durable across processes: re-running a campaign, adding one algorithm, or
extending a sweep by one ``n``-point in a *fresh* process only pays for
unseen cells.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable

from repro import obs
from repro.utils.log import get_logger
from repro.utils.shm import SharedColumnar

__all__ = [
    "SharedColumnar",
    "CellKey",
    "CellRecord",
    "CellBounds",
    "CellCache",
    "PersistentCellCache",
    "CellFamily",
    "CellOutcome",
    "CellFailure",
    "RetryPolicy",
    "execute_cells",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "default_worker_count",
    "resolve_backend",
    "resolve_cache",
    "BACKENDS",
]


def default_worker_count() -> int:
    """Number of CPUs actually usable by this process.

    ``os.cpu_count()`` reports the machine's CPUs, ignoring CPU affinity
    (taskset, cgroup cpusets, SLURM bindings) — a campaign pinned to 4 of
    64 cores would oversubscribe itself 16x.  Prefer the affinity mask
    where the platform exposes it; fall back to ``cpu_count`` elsewhere.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellKey:
    """Address of one (instance, algorithm) measurement."""

    seed: int
    kind: str
    n: int
    m: int
    r: int
    algorithm: str

    @property
    def bounds_key(self) -> tuple:
        """Key of the per-instance lower bounds (algorithm-independent)."""
        return (self.seed, self.kind, self.n, self.m, self.r)


@dataclass(frozen=True, eq=False)
class CellRecord:
    """One algorithm's measurements on one instance.

    ``validated`` records whether the schedule behind these numbers went
    through :func:`repro.core.validation.validate_schedule`; a cache
    lookup under ``validate=True`` refuses records measured without it.
    ``batches`` is only meaningful for on-line cells (trace replay, the
    batch framework): the number of batches the run executed; off-line
    cells leave it 0.  ``crashes`` counts the simulated crash-and-restart
    evictions behind the measurement (:mod:`repro.faults`); fault-free
    cells leave it 0.

    **Equality excludes** ``seconds``: a record is a pure function of its
    cell key *except* for the wall-clock measurement, which legitimately
    differs between serial and process backends, between machines, and
    between runs.  The serial-vs-process bit-identity guarantee (and the
    tests pinning it) compare records with ``==``; the journal's
    write-skip (:meth:`PersistentCellCache.put_record`) likewise treats a
    re-measurement that only moved the clock as already known.
    """

    cmax: float
    minsum: float
    seconds: float
    validated: bool = False
    batches: int = 0
    crashes: int = 0

    def _identity(self) -> tuple:
        return (self.cmax, self.minsum, self.validated, self.batches, self.crashes)

    def __eq__(self, other: object):
        if not isinstance(other, CellRecord):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())


@dataclass(frozen=True)
class CellBounds:
    """Per-instance lower bounds shared by every algorithm's ratios."""

    cmax_lb: float
    minsum_lb: float


class CellCache:
    """In-memory memo of cell records and instance bounds.

    Purely additive; campaigns can share one across calls.  ``hits`` /
    ``misses`` count record lookups (for tests and progress reporting).
    """

    def __init__(self) -> None:
        self._records: dict[CellKey, CellRecord] = {}
        self._bounds: dict[tuple, CellBounds] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._records)

    def get_record(
        self, key: CellKey, *, require_validated: bool = False
    ) -> CellRecord | None:
        """Look up a record; optionally refuse ones measured without
        schedule validation (they count as misses and get re-measured)."""
        rec = self._records.get(key)
        if rec is not None and require_validated and not rec.validated:
            rec = None
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put_record(self, key: CellKey, record: CellRecord) -> None:
        self._records[key] = record

    def get_bounds(self, bounds_key: tuple) -> CellBounds | None:
        return self._bounds.get(bounds_key)

    def put_bounds(self, bounds_key: tuple, bounds: CellBounds) -> None:
        self._bounds[bounds_key] = bounds

    def clear(self) -> None:
        self._records.clear()
        self._bounds.clear()
        self.hits = 0
        self.misses = 0


class PersistentCellCache(CellCache):
    """A :class:`CellCache` backed by an append-only JSONL journal.

    Layout: ``cache_dir`` holds one or more ``*.jsonl`` shard files, one
    JSON document per line::

        {"t": "cell", "k": [seed, kind, n, m, r, algorithm],
         "cmax": ..., "minsum": ..., "seconds": ..., "validated": ...}
        {"t": "bounds", "k": [seed, kind, n, m, r],
         "cmax_lb": ..., "minsum_lb": ...}

    Properties that make it safe in practice:

    * **Loading merges every shard** (later lines win), and unparseable or
      truncated lines — a crashed writer, a half-synced file — are skipped,
      not fatal: at worst a cell is re-measured.  ``loaded`` / ``dropped``
      count the salvaged and discarded lines of the merge, so callers can
      report exactly what a mid-write crash cost.
    * **Writes go to a per-process shard** (``cells-<pid>.jsonl``), so two
      campaigns sharing a directory never interleave within one file.  The
      process *backend* needs no extra care: workers return plain records
      and only the coordinating process touches the cache.  Within one
      process the shard is shared by every thread, so the check-then-append
      path is serialised by a lock — concurrent campaigns on the thread
      backend (or campaigns driven from multiple user threads) cannot
      interleave half-written lines or double-journal a record.
    * **Floats round-trip exactly** (``json`` uses ``repr`` precision), so
      aggregates recomputed from cache equal the original run bit for bit.
    * **Appends are flushed per line**; :meth:`compact` folds all shards
      into a single ``cells.jsonl`` to keep reload time proportional to
      the number of distinct cells.
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        super().__init__()
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._shard = self.cache_dir / f"cells-{os.getpid()}.jsonl"
        self._fh = None
        #: Serialises the check-then-append path across threads sharing
        #: this process's shard (thread backend, multi-threaded drivers).
        self._lock = threading.Lock()
        self.loaded = self._load()

    # -- journal I/O --------------------------------------------------- #
    def _shard_files(self) -> list[Path]:
        """All shards, oldest first (mtime, then name), so that replaying
        'later lines win' resolves duplicate keys toward the most recent
        measurement — e.g. a ``validated=True`` re-measurement from a new
        process must shadow an old unvalidated record, whatever the pids
        happen to sort like lexically."""
        return sorted(
            self.cache_dir.glob("*.jsonl"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )

    def _load(self) -> int:
        """Merge every shard into memory; return the number of loaded rows.

        Sets :attr:`dropped` to the number of non-empty lines that could
        not be salvaged (truncated tails, half-written documents).
        """
        rows = 0
        self.dropped = 0
        self._loaded_files = self._shard_files()
        for path in self._loaded_files:
            try:
                text = path.read_text()
            except OSError:  # pragma: no cover - unreadable shard
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    if doc["t"] == "cell":
                        seed, kind, n, m, r, algorithm = doc["k"]
                        key = CellKey(
                            int(seed), str(kind), int(n), int(m), int(r), str(algorithm)
                        )
                        self._records[key] = CellRecord(
                            cmax=float(doc["cmax"]),
                            minsum=float(doc["minsum"]),
                            seconds=float(doc["seconds"]),
                            validated=bool(doc["validated"]),
                            batches=int(doc.get("batches", 0)),
                            crashes=int(doc.get("crashes", 0)),
                        )
                    elif doc["t"] == "bounds":
                        seed, kind, n, m, r = doc["k"]
                        self._bounds[(int(seed), str(kind), int(n), int(m), int(r))] = (
                            CellBounds(
                                cmax_lb=float(doc["cmax_lb"]),
                                minsum_lb=float(doc["minsum_lb"]),
                            )
                        )
                    else:
                        continue
                    rows += 1
                except (ValueError, KeyError, TypeError):
                    self.dropped += 1
                    continue  # corrupt/foreign line: tolerate, re-measure
        return rows

    def _append(self, doc: dict) -> None:
        if self._fh is None:
            self._fh = open(self._shard, "a", encoding="utf-8")
        self._fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        self._fh.flush()

    # -- write-through puts -------------------------------------------- #
    @staticmethod
    def _cell_doc(key: CellKey, record: CellRecord) -> dict:
        doc = {
            "t": "cell",
            "k": [key.seed, key.kind, key.n, key.m, key.r, key.algorithm],
            "cmax": record.cmax,
            "minsum": record.minsum,
            "seconds": record.seconds,
            "validated": record.validated,
        }
        if record.batches:  # only on-line cells carry a batch count
            doc["batches"] = record.batches
        if record.crashes:  # only faulty cells carry a crash count
            doc["crashes"] = record.crashes
        return doc

    def put_record(self, key: CellKey, record: CellRecord) -> None:
        with self._lock:
            known = self._records.get(key)
            super().put_record(key, record)
            if known != record:
                self._append(self._cell_doc(key, record))

    def put_bounds(self, bounds_key: tuple, bounds: CellBounds) -> None:
        with self._lock:
            known = self._bounds.get(bounds_key)
            super().put_bounds(bounds_key, bounds)
            if known != bounds:
                self._append(
                    {
                        "t": "bounds",
                        "k": list(bounds_key),
                        "cmax_lb": bounds.cmax_lb,
                        "minsum_lb": bounds.minsum_lb,
                    }
                )

    # -- maintenance ---------------------------------------------------- #
    def compact(self) -> int:
        """Fold the shards into one deduplicated ``cells.jsonl``.

        Returns the number of rows written.  The shards are re-read from
        disk first (picking up rows other processes appended since this
        cache was opened), and only the files that were merged are
        removed — a shard created *after* the re-read survives untouched.
        A writer appending to a merged shard in the instant between the
        re-read and the unlink can still lose those rows, so run
        compaction when no campaign is live against the directory.
        """
        self.close()
        self._records.clear()
        self._bounds.clear()
        self._load()  # fresh disk state, including other processes' shards
        merged = list(self._loaded_files)
        target = self.cache_dir / "cells.jsonl"
        tmp = self.cache_dir / "cells.jsonl.tmp"
        rows = 0
        with open(tmp, "w", encoding="utf-8") as fh:
            for bkey, bounds in sorted(self._bounds.items(), key=lambda kv: repr(kv[0])):
                fh.write(
                    json.dumps(
                        {
                            "t": "bounds",
                            "k": list(bkey),
                            "cmax_lb": bounds.cmax_lb,
                            "minsum_lb": bounds.minsum_lb,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                rows += 1
            for key, rec in sorted(self._records.items(), key=lambda kv: repr(kv[0])):
                fh.write(
                    json.dumps(self._cell_doc(key, rec), separators=(",", ":")) + "\n"
                )
                rows += 1
        for path in merged:
            if path != target:
                path.unlink(missing_ok=True)
        tmp.replace(target)
        return rows

    def close(self) -> None:
        """Flush and close this process's shard (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


def resolve_cache(
    cache: "CellCache | str | os.PathLike | None",
) -> CellCache | None:
    """Normalise a cache spec: an instance, a directory path, or ``None``.

    A string/path builds (and loads) a :class:`PersistentCellCache` on that
    directory — the ``--cache-dir`` CLI plumbing.
    """
    if cache is None or isinstance(cache, CellCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return PersistentCellCache(cache)
    raise TypeError(f"cache must be a CellCache, a directory path, or None, got {cache!r}")


# ---------------------------------------------------------------------- #
# Cell families                                                          #
# ---------------------------------------------------------------------- #
class CellFamily:
    """Declarative description of one cell family.

    A *cell family* is a kind of independently reproducible measurement —
    the figure campaigns, the Pareto sweeps, the on-line arrival sweeps and
    the trace replays are each one family.  A family declares three things
    and inherits every piece of orchestration (cache lookups, validated-
    record policy, serial/process dispatch, journalling) from
    :func:`execute_cells`:

    ``worker``
        The measure function: a **module-level** (hence picklable)
        callable taking the argument tuple built by :meth:`make_task` and
        returning ``(bounds, {name: CellRecord})`` where ``bounds`` is a
        :class:`CellBounds` (or ``None`` for families without bounds, or
        when the bounds were already cached).
    ``record_key`` / ``bounds_key``
        The key schema: how a ``(cell, name)`` pair maps onto the global
        :class:`CellKey` namespace, and (for families whose instances
        carry certified lower bounds) which algorithm-independent key the
        bounds live under.  The base implementation of :meth:`bounds_key`
        returns ``None`` — "this family records no bounds".
    ``make_task``
        Record assembly on the dispatch side: how one cell plus the names
        still missing from the cache becomes the worker's plain picklable
        argument tuple.

    Cells themselves are any hashable coordinates the family chooses —
    ``(kind, n, r)`` for campaigns, ``(model, mode)`` for replays,
    ``(fraction, r)`` for the on-line sweep.
    """

    #: Human-readable family name (progress reporting, tests).
    name: str = "abstract"
    #: Module-level worker function; see the class docstring.
    worker: Callable[[tuple], "tuple[CellBounds | None, dict[str, CellRecord]]"]

    def record_key(self, cell: Hashable, name: str) -> CellKey:
        """The :class:`CellKey` addressing ``name``'s record on ``cell``."""
        raise NotImplementedError

    def bounds_key(self, cell: Hashable) -> tuple | None:
        """Key of the cell's shared lower bounds (``None``: no bounds)."""
        return None

    def make_task(
        self, cell: Hashable, names: tuple, validate: bool, need_bounds: bool
    ) -> tuple:
        """The worker's argument tuple for measuring ``names`` on ``cell``."""
        raise NotImplementedError

    def dispatch(self, backend) -> "object":
        """Context manager wrapped around task building and dispatch.

        :func:`execute_cells` enters it before the first :meth:`make_task`
        call and exits it after ``backend.map`` returns.  The default is a
        no-op.  Families whose tasks share a large columnar payload
        override it to stage the columns in shared memory
        (:class:`~repro.utils.shm.SharedColumnar`) while the process
        backend fans out, so the payload crosses to the workers once
        through the OS instead of once per task through pickle — see
        :class:`~repro.experiments.replay.ReplayCellFamily`.
        """
        return nullcontext()


@dataclass(frozen=True)
class CellOutcome:
    """Everything :func:`execute_cells` knows about one finished cell.

    ``error`` is ``None`` for healthy cells; a quarantined cell (every
    attempt of a :class:`RetryPolicy` failed) carries the final failure
    message here, keeps whatever records were already cached, and never
    aborts the rest of the campaign.
    """

    bounds: CellBounds | None
    records: dict[str, CellRecord]
    #: Names whose records came from the cache (the rest were measured).
    cached: frozenset[str] = field(default_factory=frozenset)
    #: Quarantine message (``None``: the cell executed normally).
    error: str | None = None

    def __iter__(self):
        """Unpack as ``(bounds, records)`` — the historical result shape."""
        return iter((self.bounds, self.records))


# ---------------------------------------------------------------------- #
# Crash tolerance                                                        #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Crash-tolerance knobs of a backend.

    A cell attempt that raises (or whose worker process dies) is retried
    up to ``retries`` more times; the delay before attempt ``a`` is
    ``backoff * 2**(a-1)``, scaled by a deterministic jitter in
    ``[1, 1.5)`` derived from the cell index — no RNG state, so two runs
    of the same campaign back off identically.  A cell that exhausts its
    ``1 + retries`` attempts is *quarantined*: its slot in the backend's
    result list becomes a :class:`CellFailure` and the campaign carries
    on.  ``timeout`` bounds one attempt's wall-clock seconds, counted
    from when the backend starts waiting on that cell; it makes the
    thread and process backends use a pool even for one worker or one
    item.  A timeout charges the hung cell and abandons its pool — the
    process backend also kills it, the thread backend leaves the hung
    thread running in the background (see :class:`ThreadBackend`) — and
    requeues the pool's other unfinished cells at their current attempt,
    so cells that never started are not charged.  The serial backend
    cannot preempt and ignores ``timeout``.
    """

    retries: int = 2
    backoff: float = 0.05
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    @property
    def attempts(self) -> int:
        return 1 + self.retries

    def delay(self, attempt: int, index: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of cell ``index``."""
        jitter = 1.0 + ((index * 2654435761 + attempt * 40503) % 1024) / 2048
        return self.backoff * (2.0 ** (attempt - 1)) * jitter


@dataclass(frozen=True)
class CellFailure:
    """Terminal failure of one cell: quarantined, not fatal.

    Takes the cell's slot in ``backend.map``'s result list;
    :func:`execute_cells` converts it into :attr:`CellOutcome.error`.
    """

    message: str
    attempts: int = 1

    def __str__(self) -> str:
        return self.message


#: Engine diagnostics logger.  Retry/quarantine messages are emitted at
#: WARNING, which the ``repro`` namespace handlers route to stderr byte
#: for byte as the old ``print(..., file=sys.stderr)`` — CI smoke steps
#: grep them there.
_logger = get_logger("repro.engine")


def _log(message: str) -> None:
    """Engine diagnostics go to stderr (CI greps for retry/quarantine)."""
    _logger.warning("[engine] %s", message)


def _maybe_inject_crash() -> None:
    """Deliberate crash hook for fault-injection tests and CI smoke.

    When ``REPRO_INJECT_CRASH`` names a directory, the first
    ``REPRO_INJECT_CRASH_COUNT`` (default 1) cell attempts —
    across every process sharing the directory — claim a marker file
    atomically and die: a worker process hard-exits (simulating a kill),
    an in-process call raises.  Subsequent calls run normally, so a
    retried attempt succeeds.
    """
    marker_dir = os.environ.get("REPRO_INJECT_CRASH")
    if not marker_dir:
        return
    count = int(os.environ.get("REPRO_INJECT_CRASH_COUNT", "1"))
    for i in range(count):
        try:
            fd = os.open(
                os.path.join(marker_dir, f"crash-{i}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        os.close(fd)
        if multiprocessing.parent_process() is not None:
            os._exit(23)  # a pool worker: die like a real crash
        raise RuntimeError("injected crash (REPRO_INJECT_CRASH)")


def _guarded_call(fn: Callable, item: object):
    """One cell attempt (module-level: picklable for pools)."""
    _maybe_inject_crash()
    return fn(item)


# ---------------------------------------------------------------------- #
# Worker-side observability transport                                    #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ObsPayload:
    """A worker's result plus its observability snapshot, riding back
    through the pool's pickle channel as one object."""

    result: object
    snapshot: dict


class _ObsTask:
    """Picklable wrapper around a family worker that captures the worker
    process's spans and counters.

    In the coordinating process (serial backend, or the degraded
    in-process tail of a broken pool) the call passes straight through —
    the parent's live :data:`repro.obs.ACTIVE` state records everything
    in-line, correctly nested under the campaign spans.

    In a pool worker the test is ``multiprocessing.parent_process()``:
    on fork-start platforms the child *inherits* a non-``None``
    ``obs.ACTIVE`` copy from the parent, so "is ACTIVE None" cannot
    distinguish the two.  The worker installs a **fresh** state, runs the
    cell, and returns an :class:`_ObsPayload` whose snapshot the parent
    merges under its dispatch span (:func:`execute_cells` unwraps it).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item):
        if multiprocessing.parent_process() is None:
            return self.fn(item)
        state = obs.enable(fresh=True)
        try:
            result = self.fn(item)
        finally:
            obs.disable()
        return _ObsPayload(result, state.snapshot())


def execute_cells(
    family: CellFamily,
    cells: "Iterable[Hashable]",
    names: "Iterable[str]",
    *,
    validate: bool = False,
    backend: object = None,
    jobs: int | None = None,
    cache: "CellCache | str | os.PathLike | None" = None,
    policy: "RetryPolicy | None" = None,
) -> "dict[Hashable, CellOutcome]":
    """Measure every ``(cell, name)`` pair of one family, uniformly.

    This is the single execution path behind every campaign driver: cache
    lookups decide the work list, the backend runs ``family.worker`` over
    it (serially or across processes), and results merge back into the
    cache.  Guarantees, identical for every family:

    * **Backend equivalence** — serial and process backends produce
      bit-identical records (workers receive plain picklable tuples and
      derive everything from them; only wall-clock fields can differ
      between *fresh* measurements).
    * **Validated-record policy** — a ``validate=True`` call only accepts
      cached records that were themselves measured under validation;
      anything else is re-measured.
    * **Zero re-execution** — with a warm cache (in-memory or a
      :class:`PersistentCellCache` directory) a repeated call measures
      nothing: every record is served as a hit.
    * **Shared bounds** — families whose cells carry instance-level lower
      bounds (``bounds_key`` not ``None``) read and journal them under
      that key, so different families over the same instances share one
      bounds computation.
    * **Quarantine, not abort** — with a :class:`RetryPolicy` (the
      ``policy`` argument, attached to the resolved backend), a cell
      whose every attempt failed yields a :class:`CellOutcome` carrying
      :attr:`~CellOutcome.error` (plus any cached records) instead of
      raising; healthy cells are unaffected.

    With observability enabled (:data:`repro.obs.ACTIVE`), the whole call
    runs under a ``cells:<family>`` span, workers' spans and counters are
    merged back under it (process backend: each worker snapshot lands on
    its own timeline lane, anchored at the dispatch span's start — see
    :class:`_ObsTask`), and cache hits/misses, measured cells and
    quarantines are counted.  None of this changes a single record bit.
    """
    state = obs.ACTIVE
    if state is None:
        return _execute_cells_impl(
            family, cells, names,
            validate=validate, backend=backend, jobs=jobs,
            cache=cache, policy=policy, obs_span=None,
        )
    with state.span("cells:" + family.name, "cell") as span:
        return _execute_cells_impl(
            family, cells, names,
            validate=validate, backend=backend, jobs=jobs,
            cache=cache, policy=policy, obs_span=span,
        )


def _execute_cells_impl(
    family: CellFamily,
    cells: "Iterable[Hashable]",
    names: "Iterable[str]",
    *,
    validate: bool,
    backend: object,
    jobs: int | None,
    cache: "CellCache | str | os.PathLike | None",
    policy: "RetryPolicy | None",
    obs_span,
) -> "dict[Hashable, CellOutcome]":
    backend = resolve_backend(backend, jobs, policy)
    cache = resolve_cache(cache)
    names = tuple(names)
    results: dict[Hashable, CellOutcome] = {}
    work: list[tuple] = []
    work_cells: list[Hashable] = []
    cached_parts: dict[Hashable, dict[str, CellRecord]] = {}
    obs_state = obs.ACTIVE
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    worker = family.worker if obs_state is None else _ObsTask(family.worker)

    with family.dispatch(backend):
        for cell in cells:
            have: dict[str, CellRecord] = {}
            missing: list[str] = []
            bkey = family.bounds_key(cell)
            bounds = None
            if cache is not None:
                for name in names:
                    rec = cache.get_record(
                        family.record_key(cell, name), require_validated=validate
                    )
                    if rec is None:
                        missing.append(name)
                    else:
                        have[name] = rec
                if bkey is not None:
                    bounds = cache.get_bounds(bkey)
            else:
                missing = list(names)
            if not missing and (bkey is None or bounds is not None):
                results[cell] = CellOutcome(bounds, have, frozenset(have))
                continue
            cached_parts[cell] = have
            work_cells.append(cell)
            work.append(
                family.make_task(
                    cell, tuple(missing), validate, bkey is not None and bounds is None
                )
            )

        if obs_state is not None and obs_span is not None:
            # Root spans opened on thread-backend worker threads graft
            # under this dispatch span (their own tid lanes), mirroring
            # where merged process-worker snapshots land.
            prev_graft = obs_state.thread_graft
            obs_state.thread_graft = obs_span.sid
            try:
                outputs = backend.map(worker, work)
            finally:
                obs_state.thread_graft = prev_graft
        else:
            outputs = backend.map(worker, work)

    if obs_state is not None and cache is not None:
        state_hits = cache.hits - hits0
        state_misses = cache.misses - misses0
        if state_hits:
            obs_state.count("cells.cache_hit", state_hits)
        if state_misses:
            obs_state.count("cells.cache_miss", state_misses)

    for cell, output in zip(work_cells, outputs):
        if isinstance(output, _ObsPayload):
            # Worker-side spans/counters ride back with the result; graft
            # them under this call's span, anchored where it started.
            if obs_state is not None:
                if obs_span is not None:
                    obs_state.merge(output.snapshot, obs_span.sid, obs_span.t0)
                else:  # pragma: no cover - obs disabled mid-call
                    obs_state.merge(output.snapshot, -1, obs_state.t0)
            output = output.result
        if isinstance(output, CellFailure):
            results[cell] = CellOutcome(
                None,
                dict(cached_parts[cell]),
                frozenset(cached_parts[cell]),
                error=str(output),
            )
            continue
        fresh_bounds, fresh_records = output
        bkey = family.bounds_key(cell)
        bounds = fresh_bounds
        if bounds is None and bkey is not None:
            # The bounds were cached while some records were not.
            assert cache is not None
            bounds = cache.get_bounds(bkey)
        records = dict(cached_parts[cell])
        records.update(fresh_records)
        if obs_state is not None and fresh_records:
            obs_state.count("cells.measured", len(fresh_records))
        if cache is not None:
            if bkey is not None:
                cache.put_bounds(bkey, bounds)
            for name, rec in fresh_records.items():
                cache.put_record(family.record_key(cell, name), rec)
        results[cell] = CellOutcome(
            bounds, records, frozenset(cached_parts[cell])
        )
    return results


class _Backend:
    """What the three backends share: :meth:`map` runs :func:`_map_cells`
    with the executor the class declares.  Result order matches item
    order; records are bit-identical on every backend because workers
    derive everything from their argument tuples."""

    #: Pool factory (``None``: cells run in-process).
    executor: "Callable[..., Executor] | None" = None
    #: Whether a hung attempt can be killed (with its pool).
    can_kill = False
    #: Deaths of a killable pool tolerated before degrading to
    #: in-process execution.
    max_pool_deaths = 2

    def __init__(
        self, jobs: int | None = None, policy: "RetryPolicy | None" = None
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else default_worker_count()
        self.policy = policy

    def map(self, fn: Callable, items: Iterable) -> list:
        return _map_cells(
            fn, items, self.policy, self.executor, self.jobs,
            self.can_kill, self.max_pool_deaths,
        )


class SerialBackend(_Backend):
    """Run cells in-process, in order (deterministic, no pickling needed).

    A :class:`RetryPolicy` retries and quarantines failing cells as on
    every backend, but its ``timeout`` cannot be enforced without
    preemption and is ignored; without a policy the first worker
    exception propagates.
    """

    name = "serial"

    def __init__(self, policy: "RetryPolicy | None" = None) -> None:
        super().__init__(1, policy)


class ThreadBackend(_Backend):
    """Fan cells out over a thread pool inside this process.

    Zero-copy by construction: ``fn`` and the items are shared objects —
    nothing pickles, nothing stages through shared memory, and there is
    no per-worker warmup (the process's imports, JIT artifacts and kernel
    backend selection are already live).  Real parallelism comes from the
    compiled kernel layer releasing the GIL (:mod:`repro.kernels` with
    the ``cffi``/``numba`` backends; NumPy ufuncs release it too), so
    kernel-bound cells overlap; pure-Python cell families still
    interleave correctly, just without speedup.

    A thread cannot be killed.  A timed-out attempt is charged to its
    cell (counted under ``cells.timeouts``) and its pool is abandoned:
    the hung thread runs to completion in the background with its result
    discarded, while every unfinished cell moves to a fresh pool at its
    current attempt.  A worker that never returns therefore leaks its
    thread until process exit — use the process backend when workers may
    hang forever.  For the same reason this backend never degrades to
    in-process execution.
    """

    name = "thread"
    executor = ThreadPoolExecutor


class ProcessBackend(_Backend):
    """Fan cells out over a process pool.

    ``fn`` and every item must be picklable (the campaign workers are
    module-level functions taking plain tuples).  Under a
    :class:`RetryPolicy` worker deaths and per-cell timeouts cost a retry
    instead of the campaign: a hung worker is killed with its pool, and
    after :attr:`max_pool_deaths` deaths the remaining cells run
    in-process.
    """

    name = "process"
    executor = ProcessPoolExecutor
    can_kill = True


def _map_cells(
    fn: Callable,
    items: Iterable,
    policy: "RetryPolicy | None",
    executor: "Callable[..., Executor] | None",
    jobs: int,
    can_kill: bool,
    max_pool_deaths: int,
) -> list:
    """The one submit/collect/retry loop behind every backend.

    Every item ends with exactly one result, in item order: the worker's
    return value or, once the cell has spent ``policy.attempts``, a
    :class:`CellFailure`.  Without a policy each cell gets one attempt
    and the first failure in item order is re-raised.

    Cells run in-process when there is no ``executor``, when one worker
    or one item makes a pool pointless and no timeout needs enforcing,
    and after ``max_pool_deaths`` deaths of a pool that ``can_kill``.
    Otherwise each round submits every pending cell to a fresh pool and
    collects in item order, waiting at most ``policy.timeout`` for each.
    A worker exception charges its cell.  A timeout or a broken pool
    charges only the cell whose future surfaced it and abandons the pool
    (a killable one is killed first): finished results are kept and
    every other unfinished cell is requeued at its current attempt, so
    cells that never started are not charged.
    """
    items = list(items)
    timeout = policy.timeout if policy is not None else None
    in_process = executor is None or (
        timeout is None and (jobs == 1 or len(items) <= 1)
    )
    results: dict[int, object] = {}
    pending: deque[tuple[int, int]] = deque((i, 0) for i in range(len(items)))
    pool_deaths = 0

    while pending:
        if in_process or (can_kill and pool_deaths >= max_pool_deaths):
            if pool_deaths:
                _log(
                    f"process pool died {pool_deaths} times; degrading to "
                    f"serial execution of {len(pending)} remaining cells"
                )
            while pending:
                i, attempt = pending.popleft()
                try:
                    results[i] = _guarded_call(fn, items[i])
                except Exception as exc:
                    if _charge(policy, results, i, attempt, exc):
                        pending.appendleft((i, attempt + 1))
            break

        batch = list(pending)
        pending.clear()
        pool = executor(max_workers=min(jobs, len(batch)))
        futures = [(i, attempt, pool.submit(_guarded_call, fn, items[i]))
                   for i, attempt in batch]
        abandoned = False
        try:
            for i, attempt, fut in futures:
                if abandoned:
                    # Salvage what finished; requeue the rest uncharged.
                    if fut.done() and fut.exception() is None:
                        results[i] = fut.result()
                    else:
                        pending.append((i, attempt))
                    continue
                try:
                    exc = fut.exception(timeout=timeout)
                    timed_out = False
                except FutureTimeout as hung:
                    exc, timed_out = hung, True
                if exc is None:
                    results[i] = fut.result()
                    continue
                if timed_out or isinstance(exc, BrokenProcessPool):
                    abandoned = True
                    pool_deaths += 1
                    if timed_out and can_kill:
                        _kill_pool(pool)
                if _charge(policy, results, i, attempt, exc, timed_out):
                    pending.append((i, attempt + 1))
        finally:
            # Never wait: an abandoned thread may still be running.
            pool.shutdown(wait=False, cancel_futures=True)

    return [results[i] for i in range(len(items))]


def _charge(
    policy: "RetryPolicy | None",
    results: dict,
    index: int,
    attempt: int,
    exc: BaseException,
    timed_out: bool = False,
) -> bool:
    """Charge one failed attempt to cell ``index``.

    Returns ``True`` (after the backoff sleep) when the cell has attempts
    left, else records its :class:`CellFailure` and returns ``False``.
    Without a policy the failure is re-raised.  Every backend goes
    through here, so the retry arithmetic, the obs counter keys and the
    stderr messages (CI greps them) are the same everywhere.
    """
    if policy is None:
        raise exc
    if timed_out:
        message = "cell attempt timed out"
    elif isinstance(exc, BrokenProcessPool):
        message = "worker process died (pool broken)"
    else:
        message = str(exc)
    attempt += 1
    state = obs.ACTIVE
    if state is not None and timed_out:
        state.count("cells.timeouts")
    if attempt >= policy.attempts:
        _log(f"cell {index} quarantined after {attempt} attempts: {message}")
        if state is not None:
            state.count("cells.quarantined")
        results[index] = CellFailure(message, attempts=attempt)
        return False
    if state is not None:
        state.count("cells.retries")
    delay = policy.delay(attempt, index)
    _log(
        f"cell {index} failed (attempt {attempt}/{policy.attempts}): "
        f"{message}; retrying in {delay:.2f}s"
    )
    time.sleep(delay)
    return True


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-kill a pool's workers (a hung cell cannot be cancelled)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already dead
            pass


#: Backend name -> factory.
BACKENDS: dict[str, Callable[..., object]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def resolve_backend(
    backend: object = None,
    jobs: int | None = None,
    policy: "RetryPolicy | None" = None,
):
    """Normalise a backend spec: name, instance, or ``None`` (serial).

    ``policy`` attaches a :class:`RetryPolicy` when the spec names a
    backend to build (an already-constructed instance is passed through
    unchanged, keeping whatever policy it was built with).

    >>> resolve_backend().name
    'serial'
    >>> resolve_backend("process", jobs=2).jobs
    2
    """
    if backend is None:
        return SerialBackend(policy)
    if isinstance(backend, str):
        try:
            factory = BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
            ) from None
        return factory(policy) if factory is SerialBackend else factory(jobs, policy)
    if hasattr(backend, "map"):
        return backend
    raise TypeError(f"backend must be a name or expose .map(), got {backend!r}")
