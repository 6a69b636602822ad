"""Span and counter instrumentation of the library's layers, and the
per-layer metrics derived from it.

:func:`instrument` wraps one public entry point per layer boundary with a
:class:`~spans.SpanRecorder` span; the ``after`` hooks add the work counts
each layer reports through its return values or public state.  Layers are
named after their modules (``session`` = ``repro.experiments.session``,
``sim`` = ``repro.sim.system``/``repro.sim.batch``, ``chip`` =
``repro.dram.chip`` and so on), matching the metric names.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from spans import SpanRecorder
from stats import median, tail_percentile

#: Study name -> per-layer metric holding that study's session.run seconds.
STUDY_METRICS = {
    "table5-flip-probability": "study.table5_s",
    "fig9-ecc-words": "study.fig9_s",
    "fig8-hcfirst": "study.fig8_s",
}

#: ControllerStats field -> per-layer metric (simulated statistics).
CONTROLLER_METRICS = {
    "reads_serviced": "sim.reads_serviced",
    "writes_serviced": "sim.writes_serviced",
    "demand_activates": "sim.demand_activates",
    "row_hits": "sim.row_hits",
    "refresh_commands": "sim.refresh_commands",
    "mitigation_refreshes": "sim.mitigation_refreshes",
}


def instrument(rec: SpanRecorder) -> None:
    """Install the layer spans and counters on the imported library."""
    from repro.analysis import mitigation_study
    from repro.core.hammer import DoubleSidedHammer
    from repro.dram import columnar
    from repro.dram.chip import DramChip
    from repro.ecc.ondie import OnDieEcc
    from repro.experiments import executors
    from repro.experiments.session import ExperimentSession
    from repro.experiments.store import ResultStore
    from repro.experiments.study import RegisteredStudy
    from repro.sim.batch import SimulationBatch
    from repro.sim.system import Simulation
    from repro.sim.workloads import WorkloadMix

    counters = rec.counters

    def count(name: str):
        def after(_index, _result, *_args, **_kwargs) -> None:
            counters[name] += 1

        return after

    def session_run(index, _result, _session, study, *_args, **_kwargs) -> None:
        metric = STUDY_METRICS.get(study if isinstance(study, str) else study.name)
        if metric is not None:
            counters[metric] += rec.ends[index] - rec.starts[index]

    def units_for(_index, result, *_args, **_kwargs) -> None:
        counters["study.units"] += len(result)

    def store_get(_index, result, *_args, **_kwargs) -> None:
        counters["store.hits" if result is not None else "store.misses"] += 1

    def store_put(_index, _result, store, key, *_args, **_kwargs) -> None:
        if store.root is not None:
            counters["store.bytes_written"] += os.path.getsize(
                store.root / key.study / key.filename
            )

    def add_controller_stats(stats) -> None:
        for field, metric in CONTROLLER_METRICS.items():
            counters[metric] += getattr(stats, field)

    def simulation_run(_index, result, simulation, dram_cycles, *_args, **_kwargs) -> None:
        counters["sim.event_sims"] += 1
        counters["sim.cycles"] += dram_cycles
        counters["sim.events_popped"] += simulation.event_queue.stats.popped
        add_controller_stats(result.controller_stats)

    def batch_run(_index, results, batch, dram_cycles, *_args, **_kwargs) -> None:
        # The event backend runs Simulation.run per simulation, which counts
        # those itself; only kernel-stepped simulations are counted here.
        if batch.backend == "kernel":
            counters["sim.kernel_sims"] += len(results)
            counters["sim.cycles"] += dram_cycles * len(results)
            for result in results:
                add_controller_stats(result.controller_stats)

    def hammer_victim(_index, result, *_args, **_kwargs) -> None:
        counters["hammer.victims"] += 1
        counters["hammer.flips"] += len(result.flips)

    rec.wrap(ExperimentSession, "run", "session.run", after=session_run)
    rec.wrap(RegisteredStudy, "units_for", "study.units_for", after=units_for)
    rec.wrap(RegisteredStudy, "merge_units", "study.merge")
    # SerialExecutor.iter_outcomes calls the module-level execute_task.
    rec.wrap(executors, "execute_task", "executors.execute_task")
    # key_for digests the chip and the work unit: the per-unit hashing cost.
    rec.wrap(ResultStore, "key_for", "store.key_for")
    rec.wrap(ResultStore, "get", "store.get", after=store_get)
    rec.wrap(ResultStore, "put", "store.put", after=store_put)
    rec.wrap(Simulation, "run", "sim.run", after=simulation_run)
    rec.wrap(SimulationBatch, "run", "sim.batch_run", after=batch_run)
    rec.wrap(WorkloadMix, "build_traces", "sim.traces", after=count("sim.trace_builds"))
    # The Figure 10 study imports build_mechanism by name.
    rec.wrap(
        mitigation_study, "build_mechanism", "mitigations.build", after=count("mitigations.built")
    )
    rec.wrap(DoubleSidedHammer, "hammer_victim", "hammer.victim", after=hammer_victim)
    rec.wrap(DoubleSidedHammer, "observe_flips", "hammer.observe")
    rec.wrap(DramChip, "hammer_pair", "chip.hammer_pair")
    rec.wrap(DramChip, "write_rows", "chip.write_rows")
    rec.wrap(DramChip, "read_rows", "chip.read_rows")
    # BankColumns reads the row samplers from the columnar module's globals.
    rec.wrap(
        columnar, "sample_threshold_row", "columnar.threshold_row",
        after=count("columnar.threshold_rows"),
    )
    rec.wrap(
        columnar, "sample_class_row", "columnar.class_row", after=count("columnar.class_rows")
    )
    rec.wrap(
        columnar, "sample_noise_row", "columnar.noise_row", after=count("columnar.noise_rows")
    )
    rec.wrap(OnDieEcc, "encode_row", "ecc.encode")
    rec.wrap(OnDieEcc, "decode_row", "ecc.decode")


def add_chip_stats(rec: SpanRecorder, chips) -> None:
    """Fold the sessions' merged ChipStats into the chip counters."""
    for chip in chips:
        rec.counters["chip.activations"] += chip.stats.activations
        rec.counters["chip.row_writes"] += chip.stats.row_writes
        rec.counters["chip.bit_flips"] += chip.stats.bit_flips_induced


def layer_metrics(rec: SpanRecorder) -> Dict[str, Any]:
    """Per-layer metrics of one traced process.

    Times and counts cover the whole process (set-up included, which is
    where store-replay fills its store); ``trace.unattributed_s`` is the
    part of the timed operations (``bench.op`` spans) that no layer span
    covers.
    """
    summary = rec.summary()

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    counters = rec.counters
    unit_times = rec.durations("executors.execute_task")
    tail = tail_percentile(unit_times)
    # Host time in the simulator: batches plus the Simulation.run calls that
    # are not already inside a batch's event backend.
    sim_host_s = total("sim.batch_run") + sum(
        rec.ends[i] - rec.starts[i]
        for i, name in enumerate(rec.names)
        if name == "sim.run"
        and (rec.parents[i] < 0 or rec.names[rec.parents[i]] != "sim.batch_run")
    )
    cycles = counters["sim.cycles"]
    hits, misses = counters["store.hits"], counters["store.misses"]
    metrics: Dict[str, Any] = {
        "session.self_s": summary.get("session.run", {}).get("self_s", 0.0),
        "study.units_for_s": total("study.units_for"),
        "study.merge_s": total("study.merge"),
        "study.units": counters["study.units"],
        "executors.unit_s_p50": median(unit_times) if unit_times else 0.0,
        "executors.unit_s_tail": tail[1] if tail else 0.0,
        "executors.unit_tail_pct": tail[0] if tail else 0.0,
        "executors.units_executed": len(unit_times),
        "store.key_for_s": total("store.key_for"),
        "store.get_s": total("store.get"),
        "store.put_s": total("store.put"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes_written": counters["store.bytes_written"],
        "sim.run_s": total("sim.run"),
        "sim.batch_run_s": total("sim.batch_run"),
        "sim.kernel_sims": counters["sim.kernel_sims"],
        "sim.event_sims": counters["sim.event_sims"],
        "sim.cycles": cycles,
        "sim.host_ns_per_cycle": sim_host_s * 1e9 / cycles if cycles else 0.0,
        "sim.events_popped": counters["sim.events_popped"],
        **{metric: counters[metric] for metric in CONTROLLER_METRICS.values()},
        "sim.traces_s": total("sim.traces"),
        "sim.trace_builds": counters["sim.trace_builds"],
        "mitigations.build_s": total("mitigations.build"),
        "mitigations.built": counters["mitigations.built"],
        **{metric: float(counters[metric]) for metric in STUDY_METRICS.values()},
        "hammer.victims": counters["hammer.victims"],
        "hammer.flips": counters["hammer.flips"],
        "hammer.victim_s": total("hammer.victim"),
        "hammer.observe_s": total("hammer.observe"),
        "chip.hammer_pair_s": total("chip.hammer_pair"),
        "chip.write_rows_s": total("chip.write_rows"),
        "chip.read_rows_s": total("chip.read_rows"),
        "chip.activations": counters["chip.activations"],
        "chip.row_writes": counters["chip.row_writes"],
        "chip.bit_flips": counters["chip.bit_flips"],
        "columnar.threshold_rows": counters["columnar.threshold_rows"],
        "columnar.class_rows": counters["columnar.class_rows"],
        "columnar.noise_rows": counters["columnar.noise_rows"],
        "columnar.noise_s": total("columnar.noise_row"),
        "ecc.encode_s": total("ecc.encode"),
        "ecc.decode_s": total("ecc.decode"),
        "trace.spans": len(rec.names),
    }
    metrics["trace.unattributed_s"] = summary.get("bench.op", {}).get("self_s", 0.0)
    return metrics
