"""Crash tolerance of the campaign engine (Layer 2 of the fault plane).

Pinned here:

* :class:`RetryPolicy` — validation, deterministic backoff jitter;
* retry and quarantine semantics in all three backends (a failing cell
  costs retries, an always-failing cell becomes a :class:`CellFailure` /
  :attr:`CellOutcome.error`, never an abort);
* worker-death recovery: an injected hard crash (``REPRO_INJECT_CRASH``)
  breaks the pool, the cell is retried, and the final results are
  bit-identical to a serial run;
* per-cell timeouts: the hung cell is charged and its pool abandoned —
  the process backend kills it, the thread backend leaves the worker
  thread running (threads cannot be killed) — so the cell quarantines,
  nobody waits for the full hang, and cells queued behind it are not
  charged, also at ``jobs=1``;
* the failure-path obs counters (``cells.retries``, ``cells.quarantined``,
  ``cells.timeouts``) agree across backends;
* a pool that keeps dying degrades to in-process execution and still
  completes every cell;
* :func:`default_worker_count` honours the scheduler affinity mask and
  falls back to ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.experiments.engine import (
    CellFailure,
    CellKey,
    CellRecord,
    CellFamily,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    ThreadBackend,
    default_worker_count,
    execute_cells,
    resolve_backend,
)


# -- module-level workers (picklable for the process backend) ----------- #
def _double(x):
    return x * 2


def _fail_if_negative(x):
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x * 2


def _always_fail(x):
    raise RuntimeError("poison cell")


def _fail_until_marker(args):
    """Fail while the marker file does not exist, creating it on the way."""
    x, marker = args
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt fails")
    return x * 2


def _die_in_pool(x):
    """Hard-exit when running inside a pool worker; succeed in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(17)
    return x * 2


def _hang_if_zero(x):
    if x == 0:
        time.sleep(60.0)
    return x * 2


def _nap_if_zero(x):
    """Finite hang for the thread backend: the abandoned worker thread
    survives its timeout and must finish before interpreter shutdown."""
    if x == 0:
        time.sleep(3.0)
    return x * 2


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)

    def test_attempts(self):
        assert RetryPolicy(retries=0).attempts == 1
        assert RetryPolicy(retries=3).attempts == 4

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff=0.1)
        for attempt in (1, 2, 3):
            for index in range(20):
                d = policy.delay(attempt, index)
                assert d == policy.delay(attempt, index)
                base = 0.1 * 2 ** (attempt - 1)
                assert base <= d < 1.5 * base

    def test_resolve_backend_attaches_policy(self):
        policy = RetryPolicy(retries=1)
        assert resolve_backend(None, policy=policy).policy is policy
        assert resolve_backend("serial", policy=policy).policy is policy
        assert resolve_backend("process", 2, policy).policy is policy

    def test_resolve_backend_passes_instances_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend, policy=RetryPolicy()) is backend


class TestSerialResilience:
    def test_no_policy_propagates(self):
        with pytest.raises(ValueError):
            SerialBackend().map(_fail_if_negative, [1, -1])

    def test_quarantine_without_abort(self, capsys):
        backend = SerialBackend(RetryPolicy(retries=1, backoff=0.0))
        out = backend.map(_fail_if_negative, [1, -1, 3])
        assert out[0] == 2 and out[2] == 6
        assert isinstance(out[1], CellFailure)
        assert out[1].attempts == 2
        assert "quarantined after 2 attempts" in capsys.readouterr().err

    def test_retry_succeeds_after_transient_failure(self, tmp_path, capsys):
        backend = SerialBackend(RetryPolicy(retries=2, backoff=0.0))
        marker = str(tmp_path / "marker")
        out = backend.map(_fail_until_marker, [(21, marker)])
        assert out == [42]
        assert "retrying in" in capsys.readouterr().err


class TestProcessResilience:
    def test_worker_exception_is_retried_then_quarantined(self, capsys):
        backend = ProcessBackend(jobs=2, policy=RetryPolicy(retries=1, backoff=0.0))
        out = backend.map(_fail_if_negative, [1, -2, 3, 4])
        assert out[0] == 2 and out[2] == 6 and out[3] == 8
        assert isinstance(out[1], CellFailure)
        err = capsys.readouterr().err
        assert "retrying in" in err and "quarantined" in err

    def test_injected_worker_death_is_survived(self, tmp_path, monkeypatch, capsys):
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setenv("REPRO_INJECT_CRASH", str(marker))
        monkeypatch.setenv("REPRO_INJECT_CRASH_COUNT", "1")
        backend = ProcessBackend(jobs=2, policy=RetryPolicy(retries=2, backoff=0.0))
        out = backend.map(_double, list(range(6)))
        assert out == [x * 2 for x in range(6)]
        assert (marker / "crash-0").exists()
        assert "pool broken" in capsys.readouterr().err

    def test_timeout_kills_and_quarantines_the_hung_cell(self, capsys):
        backend = ProcessBackend(
            jobs=2, policy=RetryPolicy(retries=0, backoff=0.0, timeout=1.0)
        )
        start = time.monotonic()
        out = backend.map(_hang_if_zero, [0, 1, 2])
        assert time.monotonic() - start < 30.0  # nobody waited for the sleep
        assert isinstance(out[0], CellFailure)
        assert "timed out" in out[0].message
        assert out[1] == 2 and out[2] == 4
        assert "quarantined" in capsys.readouterr().err

    def test_timeout_is_enforced_with_one_worker(self, capsys):
        """One worker still runs the cell in a pool when a timeout is
        set; in-process the hung cell could not be stopped.  The budget
        leaves room for forking the replacement worker of cell 1."""
        backend = ProcessBackend(
            jobs=1, policy=RetryPolicy(retries=0, backoff=0.0, timeout=1.0)
        )
        start = time.monotonic()
        out = backend.map(_hang_if_zero, [0, 1])
        assert time.monotonic() - start < 10.0
        assert isinstance(out[0], CellFailure)
        assert out[0].message == "cell attempt timed out"
        assert out[1] == 2
        assert "cell attempt timed out" in capsys.readouterr().err

    def test_repeated_pool_death_degrades_to_serial(self, capsys):
        backend = ProcessBackend(jobs=2, policy=RetryPolicy(retries=5, backoff=0.0))
        out = backend.map(_die_in_pool, [1, 2, 3])
        assert out == [2, 4, 6]  # completed in-process after degradation
        assert "degrading to serial execution" in capsys.readouterr().err

    def test_serial_and_process_agree_under_policy(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        items = list(range(8))
        serial = SerialBackend(policy).map(_double, items)
        process = ProcessBackend(jobs=2, policy=policy).map(_double, items)
        assert serial == process


class TestThreadResilience:
    def test_no_policy_short_circuits_through_pool(self):
        assert ThreadBackend(jobs=2).map(_double, [1, 2, 3]) == [2, 4, 6]
        assert ThreadBackend(jobs=2).map(_double, []) == []

    def test_no_policy_propagates(self):
        with pytest.raises(ValueError):
            ThreadBackend(jobs=2).map(_fail_if_negative, [1, -1])

    def test_worker_exception_is_retried_then_quarantined(self, capsys):
        backend = ThreadBackend(jobs=2, policy=RetryPolicy(retries=1, backoff=0.0))
        out = backend.map(_fail_if_negative, [1, -2, 3, 4])
        assert out[0] == 2 and out[2] == 6 and out[3] == 8
        assert isinstance(out[1], CellFailure)
        assert out[1].attempts == 2
        err = capsys.readouterr().err
        assert "retrying in" in err and "quarantined" in err

    def test_retry_succeeds_after_transient_failure(self, tmp_path, capsys):
        backend = ThreadBackend(jobs=2, policy=RetryPolicy(retries=2, backoff=0.0))
        marker = str(tmp_path / "marker")
        out = backend.map(_fail_until_marker, [(21, marker)])
        assert out == [42]
        assert "retrying in" in capsys.readouterr().err

    def test_timeout_marks_and_abandons_the_hung_cell(self, capsys):
        """Threads cannot be killed: the hung cell quarantines after its
        timeout while the abandoned worker keeps sleeping in the
        background — but nobody *waits* for it."""
        backend = ThreadBackend(
            jobs=2, policy=RetryPolicy(retries=0, backoff=0.0, timeout=0.5)
        )
        start = time.monotonic()
        out = backend.map(_nap_if_zero, [0, 1, 2])
        assert time.monotonic() - start < 2.5  # nobody waited out the nap
        assert isinstance(out[0], CellFailure)
        assert "timed out" in out[0].message
        assert out[1] == 2 and out[2] == 4
        assert "quarantined" in capsys.readouterr().err

    def test_timeout_does_not_charge_cells_queued_behind(self, capsys):
        """With one worker, cell 1 waits behind the hung cell 0 and never
        starts before the timeout: it moves to a fresh pool uncharged."""
        backend = ThreadBackend(
            jobs=1, policy=RetryPolicy(retries=0, backoff=0.0, timeout=0.3)
        )
        out = backend.map(_nap_if_zero, [0, 1])
        assert isinstance(out[0], CellFailure)
        assert out[0].message == "cell attempt timed out"
        assert out[1] == 2
        assert capsys.readouterr().err.count("quarantined") == 1

    def test_serial_and_thread_agree_under_policy(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        items = list(range(8))
        serial = SerialBackend(policy).map(_double, items)
        thread = ThreadBackend(jobs=2, policy=policy).map(_double, items)
        assert serial == thread


_FAILURE_COUNTERS = ("cells.retries", "cells.quarantined", "cells.timeouts")


def _failure_counters(backend, fn, items) -> dict:
    state = obs.enable(fresh=True)
    try:
        backend.map(fn, items)
    finally:
        obs.disable()
    return {name: state.counters.get(name, 0) for name in _FAILURE_COUNTERS}


class TestFailureCountersAgree:
    """The failure-path obs counters are the same on every backend."""

    def test_retries_and_quarantines(self):
        policy = RetryPolicy(retries=1, backoff=0.0)
        items = [1, -2, 3, -4, 5]
        counts = [
            _failure_counters(backend, _fail_if_negative, items)
            for backend in (
                SerialBackend(policy),
                ThreadBackend(jobs=2, policy=policy),
                ProcessBackend(jobs=2, policy=policy),
            )
        ]
        assert counts[0] == {
            "cells.retries": 2, "cells.quarantined": 2, "cells.timeouts": 0
        }
        assert counts[1] == counts[0] and counts[2] == counts[0]

    def test_timeouts(self):
        policy = RetryPolicy(retries=0, backoff=0.0, timeout=1.0)
        thread = _failure_counters(
            ThreadBackend(jobs=2, policy=policy), _nap_if_zero, [0, 1, 2]
        )
        process = _failure_counters(
            ProcessBackend(jobs=2, policy=policy), _nap_if_zero, [0, 1, 2]
        )
        assert thread == process == {
            "cells.retries": 0, "cells.quarantined": 1, "cells.timeouts": 1
        }


class TestDefaultWorkerCount:
    def test_prefers_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert default_worker_count() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_worker_count() == 5

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1

    def test_backends_use_it_by_default(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert ThreadBackend().jobs == 2
        assert ProcessBackend().jobs == 2


# -- quarantine surfacing through execute_cells ------------------------- #
def _family_worker(args):
    cell, poison = args
    if poison:
        raise RuntimeError(f"cell {cell} is poison")
    return None, {"algo": CellRecord(cmax=float(cell), minsum=1.0, seconds=0.0)}


class _ToyFamily(CellFamily):
    name = "toy"
    worker = staticmethod(_family_worker)

    def record_key(self, cell, name):
        return CellKey(0, "toy", int(cell), 1, 0, name)

    def make_task(self, cell, names, validate, need_bounds):
        return (cell, cell == 2)


class TestExecuteCellsQuarantine:
    def test_error_surfaces_in_outcome(self, capsys):
        outcomes = execute_cells(
            _ToyFamily(), [1, 2, 3], ["algo"],
            policy=RetryPolicy(retries=1, backoff=0.0),
        )
        assert outcomes[1].error is None
        assert outcomes[1].records["algo"].cmax == 1.0
        assert outcomes[3].error is None
        assert outcomes[2].error is not None
        assert "poison" in outcomes[2].error
        assert outcomes[2].records == {}
        assert "quarantined" in capsys.readouterr().err

    def test_without_policy_the_failure_raises(self):
        with pytest.raises(RuntimeError, match="poison"):
            execute_cells(_ToyFamily(), [2], ["algo"])
