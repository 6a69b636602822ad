"""Tests for the Figure 10 mitigation study harness."""

import pytest

from repro.analysis.mitigation_study import (
    DEFAULT_HCFIRST_SWEEP,
    MitigationBaselineUnit,
    MitigationCellUnit,
    _aggregate,
    _simulate_baseline,
    _simulate_cell,
    run_mitigation_study,
)
from repro.sim.config import SystemConfig
from repro.sim.system import Simulation
from repro.sim.workloads import make_workload_mixes

UNIT_SYSTEM = SystemConfig(cores=2, banks=4, rows_per_bank=256)
UNIT_CYCLES = 2_000


@pytest.fixture(scope="module")
def small_study():
    """A reduced Figure 10 run shared across tests (seconds, not minutes)."""
    config = SystemConfig(cores=4, banks=8, rows_per_bank=1024)
    mixes = make_workload_mixes(num_mixes=2, cores=4, seed=3)
    return run_mitigation_study(
        system_config=config,
        workload_mixes=mixes,
        hcfirst_values=(50_000, 2_000, 128),
        mechanisms=("PARA", "Ideal", "TWiCe-ideal", "ProHIT"),
        dram_cycles=4_000,
        requests_per_core=1_000,
        seed=1,
    )


class TestMitigationStudy:
    def test_default_sweep_matches_paper_range(self):
        assert max(DEFAULT_HCFIRST_SWEEP) == 200_000
        assert min(DEFAULT_HCFIRST_SWEEP) == 64

    def test_no_mixes_give_an_empty_result(self):
        assert run_mitigation_study(workload_mixes=[]).points == []

    def test_points_respect_design_constraints(self, small_study):
        prohit_points = small_study.series_for("ProHIT")
        assert set(prohit_points) == {2_000}
        para_points = small_study.series_for("PARA")
        assert set(para_points) == {50_000, 2_000, 128}

    def test_performance_bounded_and_normalized(self, small_study):
        for point in small_study.points:
            assert 0.0 < point.normalized_performance_avg <= 110.0
            assert point.normalized_performance_min <= point.normalized_performance_avg
            assert point.normalized_performance_avg <= point.normalized_performance_max
            assert point.bandwidth_overhead_avg >= 0.0
            assert point.workloads_evaluated == 2

    def test_para_overhead_grows_as_hcfirst_drops(self, small_study):
        para = small_study.series_for("PARA")
        assert para[128].bandwidth_overhead_avg > para[50_000].bandwidth_overhead_avg
        assert (
            para[128].normalized_performance_avg
            <= para[50_000].normalized_performance_avg + 1e-6
        )

    def test_ideal_outperforms_para_at_low_hcfirst(self, small_study):
        para = small_study.performance_at("PARA", 128)
        ideal = small_study.performance_at("Ideal", 128)
        assert ideal >= para

    def test_serialization_and_lookup(self, small_study):
        point = small_study.points[0]
        payload = point.to_dict()
        assert payload["mechanism"] == point.mechanism
        assert small_study.performance_at("DoesNotExist", 1) is None
        assert set(small_study.mechanisms()) <= {"PARA", "Ideal", "TWiCe-ideal", "ProHIT"}


def unit_traces(seed=2):
    mix = make_workload_mixes(num_mixes=1, cores=UNIT_SYSTEM.cores, seed=seed)[0]
    return mix.build_traces(
        banks=UNIT_SYSTEM.banks,
        rows_per_bank=UNIT_SYSTEM.rows_per_bank,
        columns_per_row=UNIT_SYSTEM.columns_per_row,
        requests_per_core=300,
        seed=seed,
    )


def simulate_cell(mix, seed, step_mode="event"):
    """A PARA cell at an HC_first where PARA's draws, not certainty, decide."""
    return _simulate_cell(
        UNIT_SYSTEM, unit_traces(), "PARA", 256, mix, UNIT_CYCLES, seed, 1.0, step_mode
    )


class TestSimulatedUnits:
    """The baseline and cell functions every Figure 10 entry point uses."""

    def test_baseline_unit_is_shared_run_plus_alone_runs(self):
        traces = unit_traces()
        unit = _simulate_baseline(UNIT_SYSTEM, traces, 1, UNIT_CYCLES, "event")
        shared = Simulation(UNIT_SYSTEM, traces).run(UNIT_CYCLES)
        alone = [Simulation(UNIT_SYSTEM, [trace]).run(UNIT_CYCLES) for trace in traces]
        assert unit == MitigationBaselineUnit(
            mix=1,
            core_ipcs=tuple(shared.core_ipcs),
            alone_ipcs=tuple(result.core_ipcs[0] for result in alone),
        )
        # Alone, a core has the memory system to itself.
        assert all(a >= s for a, s in zip(unit.alone_ipcs, unit.core_ipcs))

    def test_baseline_unit_identical_across_step_modes(self):
        traces = unit_traces()
        event = _simulate_baseline(UNIT_SYSTEM, traces, 0, UNIT_CYCLES, "event")
        cycle = _simulate_baseline(UNIT_SYSTEM, traces, 0, UNIT_CYCLES, "cycle")
        assert event == cycle

    def test_cell_unit_identical_across_step_modes(self):
        event = simulate_cell(mix=0, seed=4, step_mode="event")
        assert event == simulate_cell(mix=0, seed=4, step_mode="cycle")
        assert (event.mechanism, event.hcfirst, event.mix) == ("PARA", 256, 0)
        assert event.bandwidth_overhead_percent > 0.0

    def test_cell_unit_seeds_its_mechanism_with_seed_plus_mix(self):
        """Cached cell payloads depend on this derivation: mix 1 of seed 0
        draws the same PARA stream as mix 0 of seed 1, not that of seed 0."""
        shifted = simulate_cell(mix=1, seed=0)
        same_stream = simulate_cell(mix=0, seed=1)
        assert shifted.core_ipcs == same_stream.core_ipcs
        assert shifted.bandwidth_overhead_percent == same_stream.bandwidth_overhead_percent
        assert shifted.mix == 1
        other_stream = simulate_cell(mix=0, seed=0)
        assert shifted.bandwidth_overhead_percent != other_stream.bandwidth_overhead_percent


def baseline(mix, core_ipcs, alone_ipcs):
    return MitigationBaselineUnit(mix=mix, core_ipcs=core_ipcs, alone_ipcs=alone_ipcs)


def cell(mechanism, mix, core_ipcs, overhead):
    return MitigationCellUnit(
        mechanism=mechanism,
        hcfirst=64,
        mix=mix,
        core_ipcs=core_ipcs,
        bandwidth_overhead_percent=overhead,
    )


#: Two mixes with hand-computable weighted speedups (all values exact in
#: binary floating point): mix 0 has baseline speedup 1.0, mix 1 has 1.5.
SYNTHETIC_PAYLOADS = [
    baseline(0, (1.0, 1.0), (2.0, 2.0)),
    cell("PARA", 0, (0.5, 1.0), 10.0),
    cell("Ideal", 0, (1.0, 1.0), 0.0),
    baseline(1, (1.0, 0.5), (1.0, 1.0)),
    cell("PARA", 1, (1.0, 0.5), 2.0),
    cell("Ideal", 1, (1.0, 0.5), 0.0),
]
SYNTHETIC_POINTS = [("PARA", 64), ("Ideal", 64)]


class TestAggregate:
    def test_per_point_statistics(self):
        para, ideal = _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS).points
        assert para.to_dict() == {
            "mechanism": "PARA",
            "hcfirst": 64,
            "normalized_performance_avg": 87.5,
            "normalized_performance_min": 75.0,
            "normalized_performance_max": 100.0,
            "bandwidth_overhead_avg": 6.0,
            "bandwidth_overhead_min": 2.0,
            "bandwidth_overhead_max": 10.0,
            "workloads_evaluated": 2,
        }
        assert ideal.normalized_performance_min == ideal.normalized_performance_max == 100.0
        assert ideal.bandwidth_overhead_max == 0.0

    def test_payload_order_does_not_matter(self):
        forward = _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS)
        backward = _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS[::-1])
        assert [p.to_dict() for p in forward.points] == [p.to_dict() for p in backward.points]

    def test_points_keep_the_requested_order(self):
        result = _aggregate(SYNTHETIC_POINTS[::-1], 2, SYNTHETIC_PAYLOADS)
        assert result.mechanisms() == ["Ideal", "PARA"]

    def test_rejects_foreign_payloads(self):
        with pytest.raises(TypeError, match="unexpected Figure 10 unit payload"):
            _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS + [object()])

    def test_missing_cell_is_an_error(self):
        incomplete = [p for p in SYNTHETIC_PAYLOADS if p != cell("PARA", 1, (1.0, 0.5), 2.0)]
        with pytest.raises(KeyError):
            _aggregate(SYNTHETIC_POINTS, 2, incomplete)
