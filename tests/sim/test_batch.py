"""SimulationBatch: a plain loop of independent simulations.

Figure 10's baseline units run every core's alone-IPC simulation through a
batch, so a batch must give exactly what the same simulations give one at a
time: in either step mode, whatever else shares the batch, and however
often its (shared, immutable) traces are reused.
"""

import dataclasses

import pytest

from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import build_mechanism
from repro.sim.batch import SimulationBatch
from repro.sim.config import SystemConfig
from repro.sim.system import STEP_MODES, Simulation
from repro.sim.workloads import make_workload_mixes

CONFIG = SystemConfig(
    cores=2, banks=4, rows_per_bank=256, read_queue_depth=12, write_queue_depth=12
)
CYCLES = 3_000


def make_traces(seed=5):
    mix = make_workload_mixes(num_mixes=1, cores=CONFIG.cores, seed=seed)[0]
    return mix.build_traces(
        banks=CONFIG.banks,
        rows_per_bank=CONFIG.rows_per_bank,
        columns_per_row=CONFIG.columns_per_row,
        requests_per_core=300,
        seed=seed,
    )


def para(seed=0):
    return build_mechanism(
        "PARA",
        MitigationConfig(
            hcfirst=64,
            banks=CONFIG.banks,
            rows_per_bank=CONFIG.rows_per_bank,
            timings=CONFIG.timings,
            seed=seed,
        ),
    )


def fingerprint(result):
    return (
        result.mitigation_name,
        tuple(result.core_ipcs),
        result.mitigation_busy_cycles,
        result.demand_busy_cycles,
        dataclasses.asdict(result.controller_stats),
        [dataclasses.asdict(stats) for stats in result.core_stats],
    )


def rotated_trace_sets(traces, copies=3):
    """Trace sets that diverge from each other: each trace rotated by a shift."""
    return [[trace[shift:] + trace[:shift] for trace in traces] for shift in range(copies)]


class TestSimulationBatch:
    def test_default_backend_is_event(self):
        assert SimulationBatch(CONFIG, [make_traces()]).backend == "event"

    @pytest.mark.parametrize("backend", STEP_MODES)
    def test_matches_one_simulation_at_a_time(self, backend):
        """Rotated soups, one unmitigated and two with their own PARA."""
        trace_sets = rotated_trace_sets(make_traces())
        batch = SimulationBatch(
            CONFIG, trace_sets, mitigations=[None, para(1), para(2)], backend=backend
        )
        batched = [fingerprint(result) for result in batch.run(CYCLES)]
        alone = [
            fingerprint(
                Simulation(CONFIG, traces, mitigation=mitigation, step_mode=backend).run(
                    CYCLES
                )
            )
            for traces, mitigation in zip(trace_sets, [None, para(1), para(2)])
        ]
        assert batched == alone
        assert [entry[0] for entry in batched] == ["none", "PARA", "PARA"]

    def test_backends_bit_identical_on_alone_runs(self):
        """The baseline unit's use: one single-core simulation per core."""
        trace_sets = [[trace] for trace in make_traces()]
        event, cycle = (
            [fingerprint(r) for r in SimulationBatch(CONFIG, trace_sets, backend=b).run(CYCLES)]
            for b in ("event", "cycle")
        )
        assert event == cycle
        assert all(entry[1][0] > 0 for entry in event)

    def test_rerun_gives_the_same_results(self):
        """Simulations copy the record lists they consume, so shared traces
        can feed another batch (or the same one) unchanged."""
        traces = make_traces()
        snapshot = [list(trace) for trace in traces]
        batch = SimulationBatch(CONFIG, [traces, traces])
        first = [fingerprint(result) for result in batch.run(CYCLES)]
        second = [fingerprint(result) for result in batch.run(CYCLES)]
        assert first == second
        assert first[0] == first[1]
        assert [list(trace) for trace in traces] == snapshot

    def test_empty_batch_runs_nothing(self):
        assert SimulationBatch(CONFIG, []).run(CYCLES) == []

    @pytest.mark.parametrize("backend", ["auto", "kernel", "EVENT"])
    def test_rejects_other_backends(self, backend):
        with pytest.raises(ValueError, match="backend"):
            SimulationBatch(CONFIG, [make_traces()], backend=backend)

    def test_needs_one_mitigation_entry_per_simulation(self):
        with pytest.raises(ValueError, match="one mitigation entry"):
            SimulationBatch(CONFIG, [make_traces(), make_traces()], mitigations=[None])
