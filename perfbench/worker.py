"""Run one iteration of a workload's CLI stages in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job lists the stages as argument vectors for evpirank.cli.main. The
worker runs them in order in this process and prints one JSON line: the
moment evpirank.cli was imported and ready (perf_counter reads the
system-wide monotonic clock, so the parent can subtract its spawn time),
each stage's exit code, wall and CPU time and captured output, the process's peak
resident memory, and whether each listed checkpoint loads again. With
"spans" set in the job it traces the stages and writes the spans there.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from evpirank import cli
    from evpirank.neural import load_checkpoint

    ready_at = perf_counter()
    protocol = sys.stdout

    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stages = []
    for stage, argv in job["stages"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu_start = perf_counter(), process_time()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_stage(stage, cli.main, argv)
            wall, cpu = perf_counter() - start, process_time() - cpu_start
        stages.append({"stage": stage, "code": code, "wall_s": wall, "cpu_s": cpu,
                       "stdout": out.getvalue(), "stderr": err.getvalue()})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reloads = {}
    for path in job.get("reload", []):
        try:
            tensors = load_checkpoint(path)
            reloads[path] = bool(tensors) and all(
                bool(np.isfinite(t).all()) for t in tensors.values())
        except (OSError, ValueError):
            reloads[path] = False
    if tracer is not None:
        tracer.write(job["spans"])
    protocol.write(json.dumps({"ready_at": ready_at, "stages": stages,
                               "peak_rss_mb": peak_kib / 1024.0, "reloads": reloads}) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
