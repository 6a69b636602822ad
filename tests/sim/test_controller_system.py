"""Tests for the memory controller, cores, traces, workloads and system harness."""

import pytest

from repro.mitigations.base import MitigationConfig
from repro.mitigations.para import PARA
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.core import SimpleCore
from repro.sim.metrics import (
    bandwidth_overhead_percent,
    normalized_performance,
    weighted_speedup,
)
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.system import Simulation
from repro.sim.trace import AggressorTraceGenerator, SyntheticTraceGenerator, TraceRecord
from repro.sim.workloads import SPEC_LIKE_BENCHMARKS, make_workload_mixes, mix_mpki_range


class TestTraceGeneration:
    def test_trace_length_and_ranges(self):
        generator = SyntheticTraceGenerator(mpki=20, banks=4, rows_per_bank=128, seed=1)
        trace = generator.generate(500)
        assert len(trace) == 500
        assert all(0 <= r.bank < 4 and 0 <= r.row < 128 for r in trace)

    def test_mean_bubbles_tracks_mpki(self):
        sparse = SyntheticTraceGenerator(mpki=5, seed=1).generate(2000)
        dense = SyntheticTraceGenerator(mpki=100, seed=1).generate(2000)
        mean_sparse = sum(r.bubble_instructions for r in sparse) / len(sparse)
        mean_dense = sum(r.bubble_instructions for r in dense) / len(dense)
        assert mean_sparse > mean_dense
        assert mean_sparse == pytest.approx(200, rel=0.3)

    def test_row_locality_effect(self):
        local = SyntheticTraceGenerator(mpki=50, row_locality=0.95, banks=2, seed=2).generate(1000)
        random = SyntheticTraceGenerator(mpki=50, row_locality=0.0, banks=2, seed=2).generate(1000)

        def repeats(trace):
            last = {}
            count = 0
            for record in trace:
                if last.get(record.bank) == record.row:
                    count += 1
                last[record.bank] = record.row
            return count

        assert repeats(local) > repeats(random)

    def test_deterministic_for_seed(self):
        a = SyntheticTraceGenerator(mpki=30, seed=9).generate(100)
        b = SyntheticTraceGenerator(mpki=30, seed=9).generate(100)
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(mpki=0)
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(mpki=1, row_locality=2.0)

    def test_attacker_trace_alternates_aggressors(self):
        generator = AggressorTraceGenerator(target_bank=1, victim_row=100, seed=3)
        trace = generator.generate(10)
        rows = {record.row for record in trace}
        assert rows == {99, 101}
        assert all(record.bank == 1 for record in trace)


class TestWorkloads:
    def test_mix_generation(self):
        mixes = make_workload_mixes(num_mixes=6, cores=8, seed=1)
        assert len(mixes) == 6
        assert all(len(mix.benchmarks) == 8 for mix in mixes)

    def test_aggregate_mpki_within_paper_range(self):
        mixes = make_workload_mixes(num_mixes=48, cores=8, seed=0)
        low, high = mix_mpki_range(mixes)
        assert low >= 10
        assert high <= 740

    def test_benchmark_profiles_cover_wide_intensity_range(self):
        mpkis = [benchmark.mpki for benchmark in SPEC_LIKE_BENCHMARKS]
        assert min(mpkis) < 5
        assert max(mpkis) >= 80


class TestMetrics:
    def test_weighted_speedup(self):
        assert weighted_speedup([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])

    def test_normalized_performance(self):
        assert normalized_performance(0.5, 1.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            normalized_performance(1.0, 0.0)

    def test_bandwidth_overhead(self):
        assert bandwidth_overhead_percent(50, 100) == pytest.approx(50.0)
        assert bandwidth_overhead_percent(50, 0) == 0.0


def completion_cycles(controller, requests, cycles):
    """Tick ``controller`` through ``cycles``; per request, the first cycle
    after whose tick its ``completed`` flag is set (``None`` if never)."""
    done = [None] * len(requests)
    for cycle in cycles:
        controller.tick(cycle)
        for index, request in enumerate(requests):
            if done[index] is None and request.completed:
                done[index] = cycle
    return done


class TestControllerBasics:
    def _read(self, bank, row):
        return MemoryRequest(request_type=RequestType.READ, bank=bank, row=row)

    def test_read_completes_with_act_rcd_cl_latency(self, small_system):
        controller = MemoryController(small_system)
        request = self._read(0, 5)
        controller.enqueue(request, cycle=0)
        [done] = completion_cycles(controller, [request], range(200))
        assert done is not None
        timings = small_system.timings
        expected = timings.trcd + timings.tcl + timings.burst_cycles
        assert done >= expected
        assert controller.stats.demand_activates == 1
        assert controller.stats.reads_serviced == 1

    def test_row_hit_scheduled_before_older_conflict(self, small_system):
        controller = MemoryController(small_system)
        controller.enqueue(self._read(0, 5), cycle=0)
        for cycle in range(60):
            controller.tick(cycle)
        # Row 5 is now open; enqueue an older conflicting request and a newer hit.
        conflict, hit = self._read(0, 9), self._read(0, 5)
        controller.enqueue(conflict, cycle=60)
        controller.enqueue(hit, cycle=61)
        conflict_done, hit_done = completion_cycles(controller, [conflict, hit], range(60, 400))
        assert hit_done is not None and conflict_done is not None
        assert hit_done < conflict_done
        assert controller.stats.row_hits >= 2

    def test_write_completes_immediately_on_enqueue(self, small_system):
        controller = MemoryController(small_system)
        request = MemoryRequest(request_type=RequestType.WRITE, bank=0, row=1)
        assert controller.enqueue(request, cycle=0)
        assert request.completed  # set at cycle 0, before any tick

    def test_queue_capacity_enforced(self, small_system):
        controller = MemoryController(small_system)
        accepted = 0
        for index in range(small_system.read_queue_depth + 5):
            request = MemoryRequest(request_type=RequestType.READ, bank=0, row=index)
            if controller.enqueue(request, cycle=0):
                accepted += 1
        assert accepted == small_system.read_queue_depth

    def test_periodic_refresh_issued(self, small_system):
        controller = MemoryController(small_system)
        cycles = small_system.timings.trefi * 3 + 100
        for cycle in range(cycles):
            controller.tick(cycle)
        assert controller.stats.refresh_commands == 3

    def test_mitigation_victim_refresh_counted(self, small_system):
        mitigation = PARA(
            MitigationConfig(
                hcfirst=64,
                banks=small_system.banks,
                rows_per_bank=small_system.rows_per_bank,
                timings=small_system.timings,
            )
        )
        mitigation.probability = 1.0  # force a victim refresh on every activation
        controller = MemoryController(small_system, mitigation=mitigation)
        controller.enqueue(self._read(0, 5), cycle=0)
        for cycle in range(300):
            controller.tick(cycle)
        assert controller.stats.mitigation_refreshes >= 1
        assert controller.mitigation_busy_cycles() > 0


class TestSystem:
    def test_simulation_produces_positive_ipc(self, small_system):
        trace = SyntheticTraceGenerator(
            mpki=20, banks=small_system.banks, rows_per_bank=small_system.rows_per_bank, seed=1
        ).generate(500)
        simulation = Simulation(small_system, [trace, trace])
        result = simulation.run(3_000)
        assert len(result.core_ipcs) == 2
        assert all(ipc > 0 for ipc in result.core_ipcs)
        assert result.controller_stats.reads_serviced > 0

    def test_memory_intensive_core_has_lower_ipc(self, small_system):
        light = SyntheticTraceGenerator(
            mpki=2, banks=small_system.banks, rows_per_bank=small_system.rows_per_bank, seed=2
        ).generate(500)
        heavy = SyntheticTraceGenerator(
            mpki=100, banks=small_system.banks, rows_per_bank=small_system.rows_per_bank,
            row_locality=0.1, seed=3,
        ).generate(500)
        result = Simulation(small_system, [light, heavy]).run(4_000)
        assert result.core_ipcs[0] > result.core_ipcs[1]

    def test_alone_runs_are_not_slower_than_the_shared_run(self, small_system):
        mix = make_workload_mixes(num_mixes=1, cores=2, seed=4)[0]
        traces = mix.build_traces(
            banks=small_system.banks,
            rows_per_bank=small_system.rows_per_bank,
            columns_per_row=small_system.columns_per_row,
            requests_per_core=500,
            seed=0,
        )
        shared = Simulation(small_system, traces).run(2_000)
        alone = [Simulation(small_system, [trace]).run(2_000).core_ipcs[0] for trace in traces]
        assert len(alone) == 2
        # Running alone can never be slower than sharing the memory system.
        for shared_ipc, alone_ipc in zip(shared.core_ipcs, alone):
            assert alone_ipc >= shared_ipc * 0.95

    def test_invalid_runs_rejected(self, small_system):
        with pytest.raises(ValueError):
            Simulation(small_system, [])
        trace = [TraceRecord(1, 0, 0, 0, False)]
        with pytest.raises(ValueError):
            Simulation(small_system, [trace]).run(0)
        with pytest.raises(ValueError):
            SimpleCore(0, [], small_system, MemoryController(small_system))


class TestSystemConfigValidation:
    @pytest.mark.parametrize(
        "settings, error",
        [
            # A zero-depth queue would never accept a request, and a stopped
            # CPU never issues one: runs would report zero work, not fail.
            ({"read_queue_depth": 0}, ValueError),
            ({"write_queue_depth": -4}, ValueError),
            ({"cpu_freq_ghz": 0.0}, ValueError),
            ({"cpu_freq_ghz": -1.0}, ValueError),
            # The simulator models one channel, one rank and no cache, so
            # these Table 6 parameters are not settings it could ignore.
            ({"channels": 4}, TypeError),
            ({"ranks": 2}, TypeError),
            ({"cache_line_bytes": 128}, TypeError),
        ],
    )
    def test_rejects_settings_the_simulator_cannot_run(self, settings, error):
        with pytest.raises(error):
            SystemConfig(**settings)
