"""Self-test of the benchmark: every workload once, untraced and traced.

Usage (from the repository root): ``python3 perfbench/selftest.py``.
Runs one pass of each workload in each mode (about three minutes on two
cores) and fails unless every job's exact check passes and the metrics
emitted are exactly those ``BENCHMARK.json`` lists, each with its unit.
Exits 0 on success, 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name, make_jobs in WORKLOADS.items():
        for job in make_jobs(1):
            # No check may accept an empty success: each one compares real output.
            if job.check(0, "", "") is None:
                problems.append(f"{name}/{job.name}: check accepts empty output")
        for trace in (0, 1):
            record = run.run_workload(name, seed=1, seconds=0.0, trace=bool(trace))
            emitted = {key: metric["unit"] for key, metric in record["metrics"].items()}
            label = f"{name} trace={trace}"
            if not record["correct"] or record["failed"]:
                problems += [f"{label}: {failure}" for failure in record["failures"]]
            if emitted != declared[trace]:
                problems.append(f"{label}: emitted {emitted}, declared {declared[trace]}")
            if any(not isinstance(m["value"], (int, float)) for m in record["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            print(f"{label}: {record['attempted']} jobs, {record['failed']} failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
