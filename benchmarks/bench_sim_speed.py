"""Wall-clock speedup of the event-driven simulator on the Figure 10 mixes.

Runs the Figure 10 workload mixes (the multi-programmed 8-core mixes the
mitigation evaluation simulates) through the cycle-level simulator twice per
scenario -- once with the cycle-by-cycle reference (``step_mode="cycle"``)
and once with the event-driven fast path (``step_mode="event"``) -- asserts
the results are bit-identical, and records the measured speedups into
``BENCH_sim.json`` at the repository root.

Scenarios cover the whole Figure 10 mechanism set, each at an ``HC_first``
where the paper evaluates it, plus the no-mitigation baseline and a
single-core *alone-IPC* scenario (the denominator runs of the
weighted-speedup metric, which take the event loop's lone-core path).  For
every scenario the event-mode run also records its
:class:`repro.sim.events.EventQueue` traffic (wake entries scheduled,
rescheduled, cancelled, popped, and the maximum queue depth), so the cost
of the event core itself stays visible alongside the speedup it buys.
"""

import dataclasses
import json
import platform
import time
from pathlib import Path

from conftest import print_banner

from repro.analysis.mitigation_study import DEFAULT_MECHANISMS
from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import build_mechanism
from repro.sim.config import SystemConfig
from repro.sim.system import Simulation
from repro.sim.workloads import make_workload_mixes

#: Where the measured speedups are recorded.
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: Figure 10 evaluation scenarios: (mechanism, HC_first); None = baseline.
SCENARIOS = (
    (None, None),
    ("IncreasedRefresh", 50_000),
    ("PARA", 1_024),
    ("ProHIT", 2_000),
    ("MRLoc", 2_000),
    ("TWiCe", 50_000),
    ("TWiCe-ideal", 1_024),
    ("Ideal", 1_024),
)

#: Label of the single-core scenario (not part of the mechanism set).
ALONE_LABEL = "alone-ipc"

NUM_MIXES = 8
DRAM_CYCLES = 20_000
REQUESTS_PER_CORE = 4_000
SEED = 0

#: Acceptance target: the event-driven fast path must be at least this much
#: faster than the cycle reference across the Figure 10 workload mixes.
#: (The indexed-scheduler rework also sped the *reference* up -- shared
#: tick-path optimizations -- which compressed this ratio from the 5.6x the
#: seed measured even though event-mode wall-clock improved.  Widening the
#: grid from 4 to 8 mixes compressed it again -- the added mixes drew
#: denser memory behavior, which leaves the event loop fewer quiet spans
#: to jump -- so the floor tracks the 8-mix measurement (~4.4x on a quiet
#: box) with CI-noise headroom.)
TARGET_SPEEDUP = 4.2
#: Acceptance floor for the single-core alone-IPC scenario, where the cycle
#: reference only ticks one core per DRAM cycle and the controller cost is
#: common to both modes (typical quiet-box measurement: ~2x).
ALONE_TARGET_SPEEDUP = 1.3


def result_fingerprint(result):
    return (
        result.dram_cycles,
        tuple(result.core_ipcs),
        dataclasses.astuple(result.controller_stats),
        tuple(dataclasses.astuple(stats) for stats in result.core_stats),
        result.mitigation_busy_cycles,
        result.demand_busy_cycles,
    )


def build_mitigation(config, mechanism, hcfirst, mix_index):
    if mechanism is None:
        return None
    return build_mechanism(
        mechanism,
        MitigationConfig(
            hcfirst=hcfirst,
            banks=config.banks,
            rows_per_bank=config.rows_per_bank,
            timings=config.timings,
            seed=SEED + mix_index,
        ),
    )


def merge_queue_stats(total, stats):
    for key, value in stats.to_dict().items():
        if key == "max_depth":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def test_event_mode_speedup(benchmark):
    config = SystemConfig(rows_per_bank=4096)
    mixes = make_workload_mixes(num_mixes=NUM_MIXES, cores=config.cores, seed=SEED)
    traces_per_mix = [
        mix.build_traces(
            banks=config.banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            requests_per_core=REQUESTS_PER_CORE,
            seed=SEED,
        )
        for mix in mixes
    ]
    #: Single-core alone-IPC runs: every trace of the first mix, run alone.
    alone_traces = [[trace] for trace in traces_per_mix[0]]

    def run_all(step_mode):
        elapsed = {}
        fingerprints = {}
        queue_stats = {}
        for mechanism, hcfirst in SCENARIOS:
            label = mechanism or "baseline"
            total = 0.0
            events = {}
            for mix_index, traces in enumerate(traces_per_mix):
                mitigation = build_mitigation(config, mechanism, hcfirst, mix_index)
                simulation = Simulation(
                    config, traces, mitigation=mitigation, step_mode=step_mode
                )
                started = time.perf_counter()
                result = simulation.run(DRAM_CYCLES)
                total += time.perf_counter() - started
                fingerprints[(label, mix_index)] = result_fingerprint(result)
                merge_queue_stats(events, simulation.event_queue.stats)
            elapsed[label] = total
            queue_stats[label] = events
        # Alone-IPC scenario: the lone-core fast path of the event loop.
        total = 0.0
        events = {}
        for trace_index, traces in enumerate(alone_traces):
            simulation = Simulation(config, traces, mitigation=None, step_mode=step_mode)
            started = time.perf_counter()
            result = simulation.run(DRAM_CYCLES)
            total += time.perf_counter() - started
            fingerprints[(ALONE_LABEL, trace_index)] = result_fingerprint(result)
            merge_queue_stats(events, simulation.event_queue.stats)
        elapsed[ALONE_LABEL] = total
        queue_stats[ALONE_LABEL] = events
        return elapsed, fingerprints, queue_stats

    cycle_times, cycle_results, _ = run_all("cycle")
    (event_times, event_results, event_queue_stats) = benchmark.pedantic(
        lambda: run_all("event"), rounds=1, iterations=1
    )

    # Bit-identical results across all scenarios and mixes is the contract
    # the speedup rides on.
    assert event_results == cycle_results
    labels = [mechanism or "baseline" for mechanism, _ in SCENARIOS]

    scenarios = {}
    for label in labels + [ALONE_LABEL]:
        scenarios[label] = {
            "cycle_s": round(cycle_times[label], 4),
            "event_s": round(event_times[label], 4),
            "speedup": round(cycle_times[label] / event_times[label], 2),
            "event_queue": event_queue_stats[label],
        }
    total_cycle = sum(cycle_times[label] for label in labels)
    total_event = sum(event_times[label] for label in labels)
    speedup = total_cycle / total_event
    alone_speedup = cycle_times[ALONE_LABEL] / event_times[ALONE_LABEL]

    # Every non-baseline scenario must be part of the Figure 10 mechanism
    # set, or the recorded file would misrepresent the study.
    assert all(m in DEFAULT_MECHANISMS for m, _ in SCENARIOS if m is not None)

    payload = {
        "benchmark": "bench_sim_speed",
        "description": (
            "Wall-clock of the cycle-level simulator on the Figure 10 workload "
            "mixes: step_mode='cycle' reference vs the event-driven fast path "
            "(bit-identical results asserted), plus single-core alone-IPC runs "
            "and the event queue's own traffic per scenario"
        ),
        "config": {
            "num_mixes": NUM_MIXES,
            "cores": config.cores,
            "rows_per_bank": config.rows_per_bank,
            "dram_cycles": DRAM_CYCLES,
            "requests_per_core": REQUESTS_PER_CORE,
            "seed": SEED,
            "mechanisms": labels,
            "alone_ipc_cores": len(alone_traces),
        },
        "python": platform.python_version(),
        "scenarios": scenarios,
        "total_cycle_s": round(total_cycle, 3),
        "total_event_s": round(total_event, 3),
        "speedup": round(speedup, 2),
        "alone_ipc_speedup": round(alone_speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "alone_target_speedup": ALONE_TARGET_SPEEDUP,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_banner("Simulator fast-path speedups on the Figure 10 workload mixes")
    for label, entry in scenarios.items():
        queue = entry["event_queue"]
        print(
            f"{label:18s} cycle {entry['cycle_s']:7.3f}s  "
            f"event {entry['event_s']:7.3f}s  {entry['speedup']:5.2f}x  "
            f"(events: {queue.get('scheduled', 0)} scheduled, "
            f"{queue.get('rescheduled', 0)} rescheduled, "
            f"{queue.get('cancelled', 0)} cancelled, depth<={queue.get('max_depth', 0)})"
        )
    print(
        f"{'TOTAL (mixes)':18s} cycle {total_cycle:7.3f}s  event {total_event:7.3f}s  "
        f"{speedup:5.2f}x  (recorded in {RESULT_PATH.name})"
    )

    assert speedup >= TARGET_SPEEDUP, (
        f"event-driven mode must be >= {TARGET_SPEEDUP}x faster on the Figure 10 "
        f"mixes, measured {speedup:.2f}x"
    )
    assert alone_speedup >= ALONE_TARGET_SPEEDUP, (
        f"event-driven mode must be >= {ALONE_TARGET_SPEEDUP}x faster on "
        f"single-core alone-IPC runs, measured {alone_speedup:.2f}x"
    )
