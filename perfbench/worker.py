"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py <root> <trace 0|1> <jobs as JSON>``.
Imports ``ringcache.cli`` from ``<root>/src`` (untimed: that is ``setup_s``),
then calls ``ringcache.cli.main(argv)`` once per job, one job at a time, with
stdout and stderr captured. Prints one JSON object: every job's exit code,
output and time, the pass's wall time, the process's peak RSS, and, when
traced, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _run_job(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, reported with its traceback
            rc = -1
            err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "seconds": seconds}


def main() -> int:
    root, trace, jobs = Path(sys.argv[1]), sys.argv[2] == "1", json.loads(sys.argv[3])
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ringcache
    import ringcache.cli

    if src not in Path(ringcache.__file__).resolve().parents:
        print(f"ringcache imported from {ringcache.__file__}, not {src}", file=sys.stderr)
        return 2
    main_fn = ringcache.cli.main
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(ringcache)
        main_fn = tracer.wrap("cli.main", main_fn)

    results = []
    start = perf_counter()
    for index, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        results.append(_run_job(main_fn, argv))
    wall = perf_counter() - start
    report = {
        "jobs": results,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counter_errors"] = tracer.counter_errors
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
