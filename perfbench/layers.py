"""The traced run: layer timers, and the per-layer table built from spans.

Tracing turns on :mod:`repro.obs`, which already records the ``demt``,
``dual_approximation``, ``policy:<name>`` and ``cells:<family>`` spans and
the algorithm counters.  :class:`LayerTimers` adds the benchmark's own
spans around the calls into the layers that have none, replacing each
function in the namespace its caller looks it up in.  The timers are
installed for the traced run only; an untraced run executes the program
untouched.  On the process backend the pool workers are forked after the
timers are installed, and the engine merges their spans and counters back
into the parent's trace.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from repro import kernels, obs
from repro.algorithms.gang import GangScheduler
from repro.algorithms.list_graham import ListGrahamScheduler
from repro.algorithms.sequential import SequentialScheduler
from repro.algorithms.wspt import WsptScheduler
from repro.experiments import replay, runner
from repro.faults import campaign

ONLINE_POLICIES = ("batch", "fcfs", "fcfs-backfill", "greedy-interval")


def _count_lp_vars(state, args, out):
    state.count("bench.minsum_lp.vars", out.x.size)


def _count_dp_cells(state, args, out):
    state.count("bench.kernels.dp_cells", len(args[0]) * (args[-1] + 1))


#: ``(owner, attribute, span name, counter hook)``: every owner is the
#: namespace the program's callers read the name from.
TARGETS = (
    (runner, "generate_workload", "workloads.generator", None),
    (campaign, "generate_workload", "workloads.generator", None),
    (campaign, "apply_arrivals", "workloads.arrivals", None),
    (campaign, "generate_failures", "faults.failure_gen", None),
    (replay, "trace_instance", "workloads.trace.instance", None),
    (runner, "minsum_lower_bound", "bounds.minsum_lp", _count_lp_vars),
    (campaign, "minsum_lower_bound", "bounds.minsum_lp", _count_lp_vars),
    (runner, "validate_schedule", "validation", None),
    (campaign, "validate_schedule", "validation", None),
    (replay, "validate_schedule", "validation", None),
    (kernels, "knapsack_select_core", "kernels.knapsack", _count_dp_cells),
    (kernels, "knapsack_min_work_value_core", "kernels.knapsack", _count_dp_cells),
    (kernels, "graham_starts_core", "kernels.graham", None),
    (GangScheduler, "schedule", "algorithms.baselines", None),
    (SequentialScheduler, "schedule", "algorithms.baselines", None),
    (ListGrahamScheduler, "schedule", "algorithms.baselines", None),
    (WsptScheduler, "schedule", "algorithms.baselines", None),
)


def _timer(fn, span_name, hook):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        state = obs.ACTIVE
        if state is None:
            return fn(*args, **kwargs)
        with state.span(span_name, "bench"):
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(state, args, out)
        return out

    return timed


class LayerTimers:
    """Context manager installing the :data:`TARGETS` timers, restoring
    the originals on exit."""

    def __enter__(self):
        self._saved = []
        for owner, attr, span_name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _timer(original, span_name, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False


def span_times(state) -> tuple[dict, dict, dict]:
    """Per span name: ``(calls, inclusive seconds, self seconds)``.

    Self time is a span's duration minus the union of its children's
    intervals on the same timeline lane.  Inclusive time skips spans
    nested inside a span of the same name, so recursion is not counted
    twice.
    """
    spans = {s.sid: s for s in state.spans}
    children = defaultdict(list)
    for s in state.spans:
        if s.parent in spans and spans[s.parent].tid == s.tid:
            children[s.parent].append(s)
    calls, inclusive, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in state.spans:
        covered, end = 0.0, s.t0
        for c in sorted(children[s.sid], key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        calls[s.name] += 1
        self_s[s.name] += (s.t1 - s.t0) - covered
        parent = spans.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = spans.get(parent.parent)
        if parent is None:
            inclusive[s.name] += s.t1 - s.t0
    return calls, inclusive, self_s


def layer_table(state, passes, cell_seconds, lanes, replay_cells) -> dict:
    """Per-layer metrics of a traced run, normalised per pass.

    ``cell_seconds`` is the summed wall time of every cell, ``lanes`` the
    number of workers running cells side by side, and ``replay_cells``
    maps ``(model, mode)`` to that replay cell's summed seconds.
    """
    calls, incl, self_s = span_times(state)
    counters = state.counters
    hists = state.hists

    def c(name):
        return counters.get(name, 0)

    cells_wall = sum(v for k, v in incl.items() if k.startswith("cells:"))
    dual_calls = calls["dual_approximation"]
    knap_s = incl["kernels.knapsack"]
    batch_size = hists.get("online.batch_size")
    depth = hists.get("spine.window_depth")
    attributed = sum(v for k, v in self_s.items() if not k.startswith("cells:"))
    table = {
        "workloads.trace.instance_s": incl["workloads.trace.instance"],
        "workloads.generator.calls": calls["workloads.generator"],
        "workloads.generator.s": incl["workloads.generator"],
        "algorithms.demt.calls": calls["demt"],
        "algorithms.demt.self_s": self_s["demt"],
        "demt.batches": c("demt.batches"),
        "demt.compaction_passes": c("demt.compaction_passes"),
        "demt.shuffle_candidates": c("demt.shuffle_candidates"),
        "algorithms.dual_approx.calls": dual_calls,
        "algorithms.dual_approx.s": incl["dual_approximation"],
        "dual.probes": c("dual.probes"),
        "algorithms.baselines.s": incl["algorithms.baselines"],
        "kernels.s": knap_s + incl["kernels.graham"],
        "kernel.knapsack_select_calls": c("kernel.knapsack_select_calls"),
        "kernel.graham_calls": c("kernel.graham_calls"),
        "kernel.dp_cells": c("kernel.dp_cells"),
        "bounds.minsum_lp.calls": calls["bounds.minsum_lp"],
        "bounds.minsum_lp.s": incl["bounds.minsum_lp"],
        "bounds.minsum_lp.vars": c("bench.minsum_lp.vars"),
        "online.batches": c("online.batches"),
        "simulator.events.transitions": sum(
            v for k, v in counters.items() if k.startswith("spine.transitions.")
        ),
        "faults.policy_s": incl["policy:faulty-batch"],
        "faults.crashes": c("faults.crashes"),
        "faults.deferrals": c("faults.deferrals"),
        "engine.cells.measured": c("cells.measured"),
        "engine.cells.retries": c("cells.retries"),
        "engine.cells.quarantined": c("cells.quarantined"),
        "engine.overhead_s": max(0.0, cells_wall - cell_seconds / lanes),
    }
    for policy in ONLINE_POLICIES:
        table[f"simulator.online.{policy}_s"] = incl[f"policy:{policy}"]
    for (model, mode), seconds in replay_cells.items():
        table[f"replay.{model}.{mode}_s"] = seconds
    table = {k: v / passes for k, v in table.items()}
    # Ratios and maxima are not divided by the number of passes.
    table.update({
        "dual.probes_per_call": c("dual.probes") / dual_calls if dual_calls else 0.0,
        "kernels.dp_cells_per_s": c("bench.kernels.dp_cells") / knap_s if knap_s else 0.0,
        "online.batch_size.mean": (
            batch_size["total"] / batch_size["count"] if batch_size else 0.0
        ),
        "spine.window_depth.max": depth["max"] if depth else 0.0,
        "engine.useful_ratio": (
            cell_seconds / (cells_wall * lanes) if cells_wall else 0.0
        ),
        "obs.coverage": attributed / cell_seconds if cell_seconds else 0.0,
    })
    return table
