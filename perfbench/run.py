"""The ringcache benchmark: closed-loop CLI workloads with exact-output checks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lp --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                      # all workloads, one table

One client keeps one job in flight: each pass runs the workload's job list
through ``ringcache.cli.main`` in a fresh worker interpreter
(``worker.py``), and passes repeat for about ``--seconds``. Every job's
output is checked exactly (``workloads.py``) after the pass. With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` passes alternate traced and untraced and it reports the
per-layer metrics (``spans.py``). README.md explains the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER_UNITS, layer_metrics, layer_shares
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run must end within 180 s; no worker is given time beyond this.
RUN_LIMIT_S = 170.0
# Each setup spawn imports ringcache.cli afresh. One untimed spawn first
# writes the bytecode caches; then a few spawns precede every pass, so the
# samples spread over the whole run, as the machine's speed drifts.
SETUP_SPAWNS_PER_PASS = 4
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import ringcache.cli\n"
    "ringcache.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, ringcache.cli.__file__)\n"
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    """Environment of every spawned interpreter: bytecode caches on, kept in OUT.

    Whether an inherited PYTHONDONTWRITEBYTECODE is set must not decide
    whether setup_s includes compiling the package.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class BenchmarkError(Exception):
    """The benchmark cannot run here: no product source or a broken worker."""


def _quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def source_facts() -> dict:
    """What a result was measured on: machine, interpreter and source."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    commit = "unknown"  # an exported checkout has no history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_nonblank_lines": lines,
    }


def measure_setup(spawns: int, deadline: float) -> list:
    """Import-and-build-parser time of `spawns` fresh interpreters."""
    src = SRC.resolve()
    times = []
    for _ in range(spawns):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchmarkError(f"importing ringcache.cli failed:\n{proc.stderr}")
        elapsed, where = proc.stdout.split(maxsplit=1)
        if src not in Path(where.strip()).resolve().parents:
            raise BenchmarkError(f"ringcache.cli imported from {where.strip()}, not {src}")
        times.append(float(elapsed))
    return times


def run_pass(argvs: list, traced: bool, deadline: float) -> dict:
    """One fresh worker over the job list; returns the worker's report."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), "1" if traced else "0",
           json.dumps(argvs)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a pass ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["traced"] = traced
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for `seconds`, check every job; returns the full record."""
    if not (SRC / "ringcache" / "cli.py").is_file():
        raise BenchmarkError(f"no ringcache source under {SRC}")
    deadline = perf_counter() + RUN_LIMIT_S
    jobs = WORKLOADS[name](seed)
    argvs = [list(job.argv) for job in jobs]
    facts = source_facts()
    measure_setup(1, deadline)

    setup, passes = [], []
    loop_start = perf_counter()
    while True:
        setup += measure_setup(SETUP_SPAWNS_PER_PASS, deadline)
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(argvs, traced, deadline))
        kinds = {p["traced"] for p in passes}
        # Start another pass only if it is expected to end less than half a
        # pass after `seconds`, so a run lasts about `seconds` on any machine.
        typical = statistics.median(p["wall_s"] for p in passes)
        if perf_counter() - loop_start + typical / 2 >= seconds and (not trace or len(kinds) == 2):
            break

    attempted = failed = 0
    failures = []
    for index, report in enumerate(passes):
        report["failed_jobs"] = []
        for job, result in zip(jobs, report["jobs"]):
            reason = job.check(result["rc"], result["out"], result["err"])
            attempted += 1
            if reason is not None:
                failed += 1
                report["failed_jobs"].append(job.name)
                failures.append(f"pass {index} job {job.name}: {reason}")

    untraced = [p for p in passes if not p["traced"]]
    clean = [p for p in untraced if not p["failed_jobs"]] or untraced
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "facts": facts,
        "jobs": [{"name": job.name, "argv": list(job.argv)} for job in jobs],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s_samples": setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "peak_rss_mib": p["peak_rss_mib"],
                    "job_seconds": [j["seconds"] for j in p["jobs"]],
                    "failed_jobs": p["failed_jobs"]} for p in passes],
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["spans"]) for p in traced_passes]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["src.nonblank_lines"] = facts["src_nonblank_lines"]
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
        record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        record["shares"] = layer_shares(traced_passes[0]["spans"])
        record["spans"] = [p["spans"] for p in traced_passes]
        record["counter_errors"] = sorted({e for p in traced_passes for e in p["counter_errors"]})
    else:
        values = {
            "wall_s": [p["wall_s"] for p in clean],
            "setup_s": setup,
            "peak_rss_mb": [p["peak_rss_mib"] for p in clean],
        }
        record["quartiles"] = {k: _quartiles(v) for k, v in values.items()}
        record["samples"] = {k: len(v) for k, v in values.items()}
        record["metrics"] = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
    record["failed_ratio"] = failed / attempted
    return record


def describe(record: dict) -> list:
    """Human-readable lines for one workload's record."""
    lines = [f"{record['workload']}: seed {record['seed']}, {len(record['passes'])} passes, "
             f"{record['attempted']} jobs attempted, {record['failed']} failed"]
    lines += [f"  FAILED {failure}" for failure in record["failures"]]
    for key, metric in record["metrics"].items():
        text = f"  {key:34} {metric['value']:>14.6g} {metric['unit']}"
        if "quartiles" in record:
            q1, _, q3 = record["quartiles"][key]
            text += f"  (median of {record['samples'][key]}; q1 {q1:.6g}, q3 {q3:.6g})"
        lines.append(text)
    lines.append(f"  {'failed_ratio':34} {record['failed_ratio']:>14.6g} ratio")
    for module, share in sorted(record.get("shares", {}).items()):
        lines.append(f"  share of handler time: {module:20} {share:7.1%}")
    for error in record.get("counter_errors", []):
        lines.append(f"  counter unavailable: {error}")
    lines.append("  facts " + json.dumps(record["facts"], sort_keys=True))
    return lines


def _save(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def _result_line(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            records.append(record)
            print("\n".join(describe(record)), flush=True)
            print(f"  record written to {_save(record).relative_to(ROOT)}", flush=True)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({r["workload"]: _result_line(r) for r in records}))
    else:
        print(json.dumps(_result_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
