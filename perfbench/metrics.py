"""Every metric the benchmark reports: unit, direction, layer, prediction.

``BENCHMARK.json`` at the repository root carries each metric's name, unit,
direction and (end-to-end only) regression bound; this table adds what that
file has no field for -- the layer a metric belongs to, the end-to-end
metric and workload it is predicted to move, and whether it is a
deterministic count that must repeat exactly for the same inputs.
``tests/test_helpers.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    deterministic: bool = False
    bound: Optional[float] = None


END_TO_END = (
    Metric("wall_s", "s", "lower", "end-to-end", "-", bound=0.25),
    Metric("setup_s", "s", "lower", "end-to-end", "-", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", "-", bound=0.1),
)

_REPLAY_WALL = "wall_s on store-replay"
_GRID_WALL = "wall_s on fig10-grid"
_CHARZ_WALL = "wall_s on charz-mix"
_SIM = "wall_s on fig10-grid, setup_s on store-replay"

PER_LAYER = (
    Metric("session.self_s", "s", "lower", "experiments.session", _REPLAY_WALL),
    Metric("study.units_for_s", "s", "lower", "experiments.study", _REPLAY_WALL),
    Metric("study.merge_s", "s", "lower", "experiments.study", _REPLAY_WALL),
    Metric("study.units", "count", "lower", "experiments.study", _REPLAY_WALL, True),
    Metric("executors.unit_s_p50", "s", "lower", "experiments.executors", _GRID_WALL),
    Metric("executors.unit_s_tail", "s", "lower", "experiments.executors", _GRID_WALL),
    Metric("executors.unit_tail_pct", "%", "higher", "experiments.executors", _GRID_WALL, True),
    Metric("executors.units_executed", "count", "lower", "experiments.executors", _GRID_WALL, True),
    Metric("store.key_for_s", "s", "lower", "experiments.store", _REPLAY_WALL),
    Metric("store.get_s", "s", "lower", "experiments.store", _REPLAY_WALL),
    Metric(
        "store.put_s", "s", "lower", "experiments.store",
        "setup_s on store-replay, wall_s on fig10-grid and charz-mix",
    ),
    Metric("store.hits", "count", "higher", "experiments.store", _REPLAY_WALL, True),
    Metric("store.misses", "count", "lower", "experiments.store", _REPLAY_WALL, True),
    Metric("store.hit_ratio", "ratio", "higher", "experiments.store", _REPLAY_WALL, True),
    Metric("store.bytes_written", "bytes", "lower", "experiments.store", "setup_s on store-replay", True),
    Metric("sim.run_s", "s", "lower", "sim.system", _SIM),
    Metric("sim.batch_run_s", "s", "lower", "sim.batch", _SIM),
    Metric("sim.kernel_sims", "count", "lower", "sim.batch", _SIM, True),
    Metric("sim.event_sims", "count", "lower", "sim.system", _SIM, True),
    Metric("sim.cycles", "count", "lower", "sim.system", _SIM, True),
    Metric("sim.host_ns_per_cycle", "ns", "lower", "sim.system", _SIM),
    Metric("sim.events_popped", "count", "lower", "sim.events", _SIM, True),
    Metric("sim.reads_serviced", "count", "higher", "sim.controller", "none (simulated)", True),
    Metric("sim.writes_serviced", "count", "higher", "sim.controller", "none (simulated)", True),
    Metric("sim.demand_activates", "count", "lower", "sim.controller", "none (simulated)", True),
    Metric("sim.row_hits", "count", "higher", "sim.controller", "none (simulated)", True),
    Metric("sim.refresh_commands", "count", "lower", "sim.controller", "none (simulated)", True),
    Metric("sim.mitigation_refreshes", "count", "lower", "sim.controller", "none (simulated)", True),
    Metric("sim.traces_s", "s", "lower", "sim.workloads", _GRID_WALL),
    Metric("sim.trace_builds", "count", "lower", "sim.workloads", _GRID_WALL, True),
    Metric("mitigations.build_s", "s", "lower", "mitigations", _GRID_WALL),
    Metric("mitigations.built", "count", "lower", "mitigations", _GRID_WALL, True),
    Metric("study.table5_s", "s", "lower", "core.probability", _CHARZ_WALL),
    Metric("study.fig9_s", "s", "lower", "core.ecc_analysis", _CHARZ_WALL),
    Metric("study.fig8_s", "s", "lower", "core.first_flip", _CHARZ_WALL),
    Metric("hammer.victims", "count", "lower", "core.hammer", _CHARZ_WALL, True),
    Metric("hammer.flips", "count", "lower", "core.hammer", _CHARZ_WALL, True),
    Metric("hammer.victim_s", "s", "lower", "core.hammer", _CHARZ_WALL),
    Metric("hammer.observe_s", "s", "lower", "core.hammer", _CHARZ_WALL),
    Metric("chip.hammer_pair_s", "s", "lower", "dram.chip", _CHARZ_WALL),
    Metric("chip.write_rows_s", "s", "lower", "dram.chip", _CHARZ_WALL),
    Metric("chip.read_rows_s", "s", "lower", "dram.chip", _CHARZ_WALL),
    Metric("chip.activations", "count", "lower", "dram.chip", _CHARZ_WALL, True),
    Metric("chip.row_writes", "count", "lower", "dram.chip", _CHARZ_WALL, True),
    Metric("chip.bit_flips", "count", "lower", "dram.chip", _CHARZ_WALL, True),
    Metric("columnar.threshold_rows", "count", "lower", "dram.columnar", _CHARZ_WALL, True),
    Metric("columnar.class_rows", "count", "lower", "dram.columnar", _CHARZ_WALL, True),
    Metric("columnar.noise_rows", "count", "lower", "dram.columnar", _CHARZ_WALL, True),
    Metric("columnar.noise_s", "s", "lower", "dram.columnar", _CHARZ_WALL),
    Metric("ecc.encode_s", "s", "lower", "ecc.ondie", _CHARZ_WALL),
    Metric("ecc.decode_s", "s", "lower", "ecc.ondie", _CHARZ_WALL),
    Metric("tracing_overhead_s", "s", "lower", "benchmark", "none (traced minus untraced wall_s)"),
    Metric("trace.unattributed_s", "s", "lower", "benchmark", "none (timed phase outside every span)"),
    Metric("trace.spans", "count", "lower", "benchmark", "none (spans recorded)", True),
)

BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The content of ``BENCHMARK.json`` this table and the workloads imply."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json
    import sys

    # Regenerate with: python3 perfbench/metrics.py 20 > BENCHMARK.json
    print(json.dumps(benchmark_json(int(sys.argv[1])), indent=2))
