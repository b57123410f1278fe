"""Smoke-size self-check of the benchmark (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

It runs every workload at ``--scale smoke`` under ``--trace 0`` and
``--trace 1`` and checks the output contract: the last line is one JSON
object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics are exactly the ``BENCHMARK.json`` section with
its units; every value is finite and every end-to-end value positive.  It
checks that two runs of one seed agree on every quality metric, that
``compare.py`` accepts a set of results against itself and refuses sets
with different seeds, and that ``run.py`` fails without printing a result
in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
QUALITY = ("worst_cmax_ratio", "demt_cmax_ratio", "demt_minsum_ratio", "demt_mean_flow")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def check_result(proc, section: list, positive: bool) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], sorted(out)
    assert out["correct"] is True, out
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, out
    assert isinstance(out["failed"], int) and 0 <= out["failed"] <= out["attempted"], out
    assert [m["name"] for m in section] == list(out["metrics"]), list(out["metrics"])
    for m in section:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert math.isfinite(got["value"]), (m, got)
        assert got["value"] > 0 or not positive, (m, got)
    return out["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            metrics = check_result(run(workload, 1, trace), spec[section], trace == 0)
            print(f"ok  {workload} --trace {trace}: {len(metrics)} metrics")

    first = check_result(run(workloads[0], 2, 0), spec["end_to_end"], True)
    again = check_result(run(workloads[0], 2, 0), spec["end_to_end"], True)
    assert all(first[q]["value"] == again[q]["value"] for q in QUALITY), (first, again)
    print(f"ok  {workloads[0]}: quality metrics repeat exactly for one seed")

    same = subprocess.run([sys.executable, "perfbench/compare.py", str(RESULTS), str(RESULTS)],
                          capture_output=True, text=True, cwd=ROOT)
    assert same.returncode == 0 and " ok" in same.stdout, same.stdout + same.stderr
    seed1 = RESULTS / workloads[0] / "seed1-trace0.json"
    seed2 = RESULTS / workloads[0] / "seed2-trace0.json"
    mixed = subprocess.run([sys.executable, "perfbench/compare.py", str(seed1), str(seed2)],
                           capture_output=True, text=True, cwd=ROOT)
    assert mixed.returncode == 2 and "seeds differ" in mixed.stderr, mixed.stderr
    print("ok  compare.py: a set against itself is ok; different seeds are refused")

    bare = ROOT / ".bench_build" / "perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(workloads[0], 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  run.py fails without a result when the program is absent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
