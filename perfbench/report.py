"""Print every metric of one or more benchmark runs by name and unit.

    python3 perfbench/report.py                      # every saved run
    python3 perfbench/report.py .perfbench/results/fig10-grid-*.json
    python3 perfbench/report.py --run --seeds 1 2 3  # run all workloads first
    python3 perfbench/report.py --run --trace --seeds 1

Runs are grouped by workload and by traced/untraced.  For each metric the
report gives the median, the quartile spread (as a share of the median)
and the range over the group's runs, plus ``failed_frac`` (failed over
attempted operations).  Deterministic counts must repeat exactly for runs
on the same input variant; any that do not are flagged ``MISMATCH`` and
make the command exit with status 1.  For traced runs the report also
lists where the timed phase spent its time, as self seconds per span name.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from metrics import BY_NAME
from run import WORK, WorkerError, run_workload
from stats import median, quartile_spread
from workloads import WORKLOADS


def load(paths: List[str]) -> List[dict]:
    files = [Path(p) for p in paths] or sorted((WORK / "results").glob("*.json"))
    return [json.loads(path.read_text(encoding="utf-8")) for path in files]


def mismatched_counts(records: List[dict]) -> List[str]:
    """Deterministic counts that differ between runs of one input variant."""
    problems = []
    by_variant: Dict[int, List[dict]] = defaultdict(list)
    for record in records:
        by_variant[record["program_seed"]].append(record)
    for variant, group in sorted(by_variant.items()):
        for name in group[0]["metrics"]:
            metric = BY_NAME.get(name)
            if metric is None or not metric.deterministic:
                continue
            values = {record["metrics"][name]["value"] for record in group}
            if len(values) > 1:
                problems.append(f"{name} (input variant {variant}): {sorted(values)}")
    return problems


def report(records: List[dict], out=sys.stdout) -> bool:
    """Print the report; returns False if any deterministic count mismatched."""
    consistent = True
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    for (workload, trace), group in sorted(groups.items()):
        attempted = sum(record["attempted"] for record in group)
        failed = sum(record["failed"] for record in group)
        kind = "traced" if trace else "untraced"
        print(f"\n== {workload} ({kind}, {len(group)} runs, seeds "
              f"{sorted(record['seed'] for record in group)})", file=out)
        print(f"{'metric':32} {'unit':6} {'median':>14} {'spread':>8} {'min':>14} {'max':>14}"
              "  layer -> predicted to move", file=out)
        print(f"{'failed_frac':32} {'ratio':6} {failed / attempted:14.6g} "
              f"{'':>8} {'':>14} {'':>14}  {failed} of {attempted} operations", file=out)
        for name, entry in group[0]["metrics"].items():
            values = [record["metrics"][name]["value"] for record in group]
            metric = BY_NAME.get(name)
            note = f"  {metric.layer} -> {metric.moves}" if metric else ""
            print(f"{name:32} {entry['unit']:6} {median(values):14.6g} "
                  f"{quartile_spread(values):8.3f} {min(values):14.6g} {max(values):14.6g}{note}",
                  file=out)
        problems = mismatched_counts(group)
        for problem in problems:
            print(f"MISMATCH {problem}", file=out)
        consistent = consistent and not problems
        if trace:
            selfs: Dict[str, List[float]] = defaultdict(list)
            for record in group:
                for name, seconds in record["timed_self_s"].items():
                    selfs[name].append(seconds)
            print("timed phase, self seconds per span (median over runs):", file=out)
            for name, values in sorted(selfs.items(), key=lambda kv: -median(kv[1])):
                print(f"  {name:30} {median(values):10.4f}", file=out)
    return consistent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", help="result files (default: all saved runs)")
    parser.add_argument("--run", action="store_true", help="run the workloads first")
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="*", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.run:
        declared = json.loads((WORK.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
        records = []
        for workload in args.workload:
            for seed in args.seeds:
                try:
                    records.append(run_workload(workload, seed, seconds, args.trace))
                except WorkerError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
    else:
        records = load(args.results)
    return 0 if report(records) else 1


if __name__ == "__main__":
    sys.exit(main())
