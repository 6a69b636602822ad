"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload fig10-grid --seed 1 --seconds 20 --trace 0

Run from the repository root (any checkout holding ``src/repro``).  Every
operation runs in a fresh worker interpreter (``worker.py``) through the
public ``ExperimentSession`` API with ``SerialExecutor``; workers run one
at a time.

Untraced (``--trace 0``) the run repeats the workload's operation for
``--seconds`` of wall-clock time (and at least the workload's minimum
number of times), then reports the end-to-end metrics:

* ``wall_s`` -- the fastest wall-clock of one operation (a fresh study
  run, or one store-replay pass) in the run.  As with ``timeit``, slower
  repetitions are taken to be the host's neighbours, not the program: on a
  shared host the run median spread twice as far between runs as the
  minimum did;
* ``setup_s`` -- median time from starting a worker to it being ready to
  run operations: interpreter start, imports, population build and, for
  store-replay, the store fill;
* ``peak_rss_mb`` -- median over workers of the worker's maximum RSS.

Workers hold each operation until the host is quiet (see
``worker.wait_until_quiet``); the wait is not part of any metric.

Traced (``--trace 1``) the run starts one untraced and one traced worker
on the same inputs and reports the per-layer metrics of the traced one,
plus ``tracing_overhead_s`` (traced minus untraced median operation time).
The traced worker's spans are written to ``.perfbench/traces/``.

An operation fails when it raises, when its payload digest differs from
the reference in ``references.json`` for the workload's input variant, or
(replay) when a pass is not all hits.  The last line of output is
``{"correct", "attempted", "failed", "metrics"}``; a copy with the raw
per-operation records goes to ``.perfbench/results/`` for ``report.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

from stats import median
from workloads import WORKLOADS, load_references, program_seed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
#: Replay passes each worker of a traced run makes (fixed, so span counts
#: repeat exactly).
TRACED_PASSES = 10
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def spawn(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one worker to completion; returns its result plus ``setup_s``.

    The worker gets a fresh scratch directory under ``spec["tmp"]`` (so a
    fresh disk store), removed when it exits.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scratch = tempfile.mkdtemp(prefix="worker-", dir=spec["tmp"])
    worker = str(ROOT / "perfbench" / "worker.py")
    try:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, worker, json.dumps(dict(spec, tmp=scratch))],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker for {spec['workload']} exited with {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def check_ops(ops: List[Dict[str, Any]], expected: str) -> int:
    """Mark digest mismatches as errors; returns the number of failed ops."""
    failed = 0
    for op in ops:
        if op["error"] is None and op["digest"] != expected:
            op["error"] = f"payload digest {op['digest']} != reference {expected}"
        failed += op["error"] is not None
    return failed


def run_untraced(name: str, spec: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    ops: List[Dict[str, Any]] = []
    setups: List[float] = []
    rss: List[float] = []
    if workload.kind == "replay":
        # Each worker fills its own store (set-up) and replays it for its
        # share of the time budget.
        for _ in range(workload.min_workers):
            result = spawn(dict(spec, ops=1, seconds=seconds / workload.min_workers))
            spec["reference_best"] = result["reference_best"]
            setups.append(result["setup_s"])
            rss.append(result["rss_mb"])
            ops += result["ops"]
    else:
        began = time.monotonic()
        while len(ops) < workload.min_workers or time.monotonic() - began < seconds:
            result = spawn(dict(spec, ops=1, seconds=0))
            spec["reference_best"] = result["reference_best"]
            setups.append(result["setup_s"])
            rss.append(result["rss_mb"])
            ops += result["ops"]
    # A failed operation may have stopped early, so it cannot be the fastest.
    walls = [op["wall_s"] for op in ops if op["error"] is None] or [op["wall_s"] for op in ops]
    metrics = {
        "wall_s": min(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
    }
    return {"ops": ops, "metrics": metrics, "setups": setups}


def run_traced(name: str, spec: Dict[str, Any], trace_out: Path) -> Dict[str, Any]:
    count = TRACED_PASSES if WORKLOADS[name].kind == "replay" else 1
    plain = spawn(dict(spec, ops=count, seconds=0))
    traced = spawn(
        dict(
            spec,
            ops=count,
            seconds=0,
            trace=True,
            trace_out=str(trace_out),
            reference_best=plain["reference_best"],
        )
    )
    plain_digests = [op["digest"] for op in plain["ops"]]
    for op in traced["ops"]:
        if op["error"] is None and op["digest"] not in plain_digests:
            op["error"] = "traced payload digest differs from the untraced run's"
    metrics = dict(traced["layers"])
    metrics["tracing_overhead_s"] = median([op["wall_s"] for op in traced["ops"]]) - median(
        [op["wall_s"] for op in plain["ops"]]
    )
    return {
        "ops": plain["ops"] + traced["ops"],
        "metrics": metrics,
        "timed_self_s": traced["timed_self_s"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the printed result plus the raw records.

    Raises :class:`WorkerError` (or ``subprocess.TimeoutExpired``) when a
    worker cannot run at all.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if trace else "end_to_end"]
    references = load_references()
    library_seed = program_seed(name, seed, references)
    expected = references[name]["digests"][str(library_seed)]

    # Compile the library's bytecode once, outside every timed region: it
    # is a one-off cost of a fresh checkout, not of a run.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(ROOT / "perfbench")],
        check=True,
        capture_output=True,
    )
    for sub in ("tmp", "results", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK / "tmp"))
    spec = {
        "workload": name,
        "program_seed": library_seed,
        "tmp": str(tmp),
        "trace": False,
        "trace_out": None,
        # Fastest reference-loop time seen so far in this run; each worker
        # holds its operations to it (see worker.wait_until_quiet).
        "reference_best": None,
    }
    try:
        if trace:
            outcome = run_traced(name, spec, WORK / "traces" / f"{name}-seed{seed}.jsonl")
        else:
            outcome = run_untraced(name, spec, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = check_ops(outcome["ops"], expected)
    result = {
        "correct": failed == 0,
        "attempted": len(outcome["ops"]),
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": outcome["metrics"][metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    record = dict(
        result,
        workload=name,
        seed=seed,
        program_seed=library_seed,
        trace=int(trace),
        seconds=seconds,
        ops=outcome["ops"],
        setups=outcome.get("setups"),
        timed_self_s=outcome.get("timed_self_s"),
    )
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
