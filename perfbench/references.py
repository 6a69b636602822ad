"""Record the reference payload digests of each workload's input variants.

    python3 perfbench/references.py [--workload NAME ...] [--candidates 16] [--pool 8]

For every workload, runs each candidate library seed ``0 .. candidates-1``
once in a traced worker and records its payload digest and its size count
(the deterministic count that tracks the workload's cost).  The pool that
``--seed`` indexes is the ``--pool`` candidates whose size count lies
closest to the candidates' median, so that the seed varies the inputs but
not the amount of work.  Workloads without a size count use the first
candidates.

Rewrites ``references.json`` in place, keeping workloads not re-recorded.
The committed file was recorded with ``--candidates 40`` for charz-mix, 8
for fig10-grid and 16 for store-replay.  Re-record only when a change is
meant to alter payloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import tempfile
from pathlib import Path

from run import WORK, spawn
from workloads import REFERENCES_PATH, WORKLOADS

#: Per workload, the per-layer count that tracks its cost.  Charz-mix cost
#: grows with the flips the chips show (1.5M flips take ~1.6x the time of
#: 0.5M); a Figure 10 sweep's cost varies little with its seed (sims are a
#: fixed number of cycles), and a replay pass's not at all.
SIZE_COUNTS = {
    "fig10-grid": None,
    "charz-mix": "hammer.flips",
    "store-replay": None,
}


def record(workload: str, candidates: int, pool: int) -> dict:
    """Measure every candidate seed and pick the pool."""
    WORK.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    size_count = SIZE_COUNTS[workload]
    rows = {}
    for seed in range(candidates):
        tmp = tempfile.mkdtemp(prefix="references-", dir=WORK / "tmp")
        try:
            result = spawn(
                {
                    "workload": workload,
                    "program_seed": seed,
                    "tmp": tmp,
                    "ops": 1,
                    "seconds": 0,
                    "trace": True,
                    "trace_out": str(Path(tmp) / "spans.jsonl"),
                }
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        (op,) = result["ops"]
        if op["error"] is not None:
            raise SystemExit(f"{workload} seed {seed}: {op['error']}")
        size = result["layers"][size_count] if size_count else 0
        rows[seed] = {"digest": op["digest"], "size": size, "wall_s": round(op["wall_s"], 2)}
        print(workload, seed, rows[seed], flush=True)
    if size_count is None:
        chosen = sorted(rows)[:pool]
    else:
        middle = statistics.median(row["size"] for row in rows.values())
        chosen = sorted(rows, key=lambda seed: (abs(rows[seed]["size"] - middle), seed))[:pool]
    return {
        "pool": chosen,
        "digests": {str(seed): rows[seed]["digest"] for seed in chosen},
        "size_count": size_count,
        "candidates": {str(seed): row for seed, row in rows.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--candidates", type=int, default=16)
    parser.add_argument("--pool", type=int, default=8)
    args = parser.parse_args()
    references = json.loads(REFERENCES_PATH.read_text()) if REFERENCES_PATH.exists() else {}
    for workload in args.workload:
        references[workload] = record(workload, args.candidates, args.pool)
        REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
