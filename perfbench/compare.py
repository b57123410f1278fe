"""Compare two sets of benchmark results, metric by metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE HEAD

``BASE`` and ``HEAD`` are directories (searched recursively) or files of
the result records ``perfbench/run.py`` writes under
``.bench_build/perfbench/results/``, for example the records of ten seeds
run on the parent commit and on a change.  Both sets must hold the same
seeds of each workload, run on the same kernel backend; otherwise the
comparison is refused (exit 2), because a different backend or a different
input says nothing about the change.

For every workload and metric it prints the median and quartiles of each
side and the change of the medians as a share of the base median.  An
end-to-end metric is ``worse`` when the head median is worse than the base
median by more than the metric's bound in ``BENCHMARK.json``, and
``unresolved`` when the base's own quartile spread is wider than the bound
and the runs do not separate.  The exit code is 1 when any metric is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """``(workload, trace) -> [record, ...]`` of every record under ``path``."""
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    groups = defaultdict(list)
    for f in files:
        rec = json.loads(f.read_text())
        if "workload" in rec and "metrics" in rec:
            groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def summary(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def refusal(base: dict, head: dict) -> str | None:
    """Why the two sets cannot be compared, or ``None``."""
    backends = {
        rec["machine"]["kernel_backend"]
        for group in (*base.values(), *head.values())
        for rec in group
    }
    if len(backends) > 1:
        return f"kernel backends differ: {sorted(backends)}"
    for key in sorted(set(base) & set(head)):
        seeds_b = sorted(r["seed"] for r in base[key])
        seeds_h = sorted(r["seed"] for r in head[key])
        if seeds_b != seeds_h:
            return f"{key[0]} (trace {key[1]}): seeds differ: {seeds_b} vs {seeds_h}"
    return None


def verdict(metric: dict, base_vals: list, head_vals: list) -> str:
    if "bound" not in metric:
        return ""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    q1, med_b, q3 = summary(base_vals)
    med_h = summary(head_vals)[1]
    if sign * (med_h - med_b) > metric["bound"] * abs(med_b):
        return "worse"
    separated = all(sign * h < sign * b for h in head_vals for b in base_vals)
    if med_b and (q3 - q1) / abs(med_b) > metric["bound"] and not separated:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = load(Path(argv[0])), load(Path(argv[1]))
    reason = refusal(base, head)
    if reason is not None:
        print(f"perfbench compare: refused: {reason}", file=sys.stderr)
        return 2
    worse = False
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        print(f"{workload} (trace {trace}, {len(base[key])} runs a side)")
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name] for r in base[key]]
            h = [r["metrics"][name] for r in head[key]]
            (bq1, bm, bq3), (hq1, hm, hq3) = summary(b), summary(h)
            change = (hm - bm) / abs(bm) if bm else 0.0
            v = verdict(metrics[name], b, h)
            worse |= v == "worse"
            print(f"  {name:36s} {bm:12.6g} [{bq1:.4g}, {bq3:.4g}]  ->"
                  f" {hm:12.6g} [{hq1:.4g}, {hq3:.4g}]  {change:+8.2%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
