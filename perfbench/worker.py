"""One benchmark worker process: set up a workload, time its operations.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'`` in a
fresh interpreter with ``PYTHONPATH`` pointing at the library's ``src``.
The spec names the workload, the library seed, how many operations to run
(``ops``) and for how long at least (``seconds``), whether to trace, and a
scratch directory.  The worker prints one JSON object as its last line:
the monotonic-clock instant set-up finished (``ready``), one record per
operation (wall seconds, payload digest, error), its peak RSS and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


#: An operation starts once the reference loop runs within this factor of
#: the fastest time seen in the run, or after ``QUIET_WAIT_S`` regardless.
QUIET_FACTOR = 1.10
QUIET_WAIT_S = 2.0


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now (about 10 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - started


def wait_until_quiet(best: float) -> float:
    """Hold the next operation while the host runs slow; returns the new best.

    On a shared host, neighbours slow this one down by 20-60% for seconds
    at a time.  Starting each operation in a quiet spell measures the
    program rather than its neighbours; the wait is outside every timed
    region and bounded by ``QUIET_WAIT_S``.
    """
    deadline = time.perf_counter() + QUIET_WAIT_S
    while True:
        now = reference_loop()
        best = min(best, now)
        if now <= best * QUIET_FACTOR or time.perf_counter() >= deadline:
            return best
        time.sleep(0.05)


def main(argv) -> int:
    spec = json.loads(argv[1])
    workload = spec["workload"]
    rec = None
    if spec["trace"]:
        from layers import instrument
        from spans import SpanRecorder

        rec = SpanRecorder()
        instrument(rec)

    from workloads import FIG10_NUM_MIXES, SETUPS

    with rec.span("bench.setup") if rec else nullcontext():
        state = SETUPS[workload](spec["program_seed"], Path(spec["tmp"]))
    ready = time.monotonic()

    best = spec.get("reference_best")
    if best is None:
        best = min(reference_loop() for _ in range(10))
    ops = []
    with rec.span("bench.timed") if rec else nullcontext() as timed_root:
        began = time.perf_counter()
        while len(ops) < spec["ops"] or time.perf_counter() - began < spec["seconds"]:
            with rec.span("bench.quiet_wait") if rec else nullcontext():
                best = wait_until_quiet(best)
            builds = rec.counters["sim.trace_builds"] if rec else 0
            started = time.perf_counter()
            digest, error = None, None
            try:
                with rec.span("bench.op") if rec else nullcontext():
                    digest = state.op()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            if rec and workload == "fig10-grid" and error is None:
                built = rec.counters["sim.trace_builds"] - builds
                if built != FIG10_NUM_MIXES:
                    error = f"{built} trace builds in one fresh sweep, expected {FIG10_NUM_MIXES}"
            ops.append({"wall_s": wall, "digest": digest, "error": error})

    out = {
        "ready": ready,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_best": best,
    }
    if rec:
        from layers import add_chip_stats, layer_metrics

        rec.restore()
        add_chip_stats(rec, state.chips)
        out["layers"] = layer_metrics(rec)
        out["timed_self_s"] = {
            name: row["self_s"] for name, row in rec.summary(window=timed_root).items()
        }
        rec.write_jsonl(spec["trace_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
