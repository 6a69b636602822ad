"""Integration tests across the characterization and mitigation pipelines."""

import numpy as np
import pytest

from repro.analysis.figures import build_figure8_hcfirst_distribution
from repro.analysis.tables import build_table2_rowhammerable, build_table4_min_hcfirst
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip, make_population
from repro.experiments import ExperimentSession
from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import build_mechanism
from repro.sim.config import SystemConfig
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.controller import MemoryController
from repro.sim.trace import AggressorTraceGenerator
from repro.sim.system import Simulation

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=40, row_bytes=32)


class TestCharacterizationPipeline:
    def test_population_hcfirst_ordering_across_generations(self):
        # Newer LPDDR4 chips must measure as more vulnerable than older DDR4
        # chips of the same manufacturer, reproducing Observation 10 end to
        # end (population generation -> hammering -> HC_first search ->
        # table aggregation).
        population = make_population(
            chips_per_config=2,
            seed=42,
            geometry=GEOMETRY,
            configurations=[("DDR4-old", "A"), ("DDR4-new", "A"), ("LPDDR4-1y", "A")],
        )
        results = ExperimentSession(population).run("fig8-hcfirst").payloads()
        table = build_table4_min_hcfirst(results)
        ddr4_old = table["DDR4-old"]["A"]
        ddr4_new = table["DDR4-new"]["A"]
        lpddr4_1y = table["LPDDR4-1y"]["A"]
        assert lpddr4_1y < ddr4_new < ddr4_old

    def test_ddr3_old_mostly_not_rowhammerable(self):
        chips = [
            make_chip("DDR3-old", "C", seed=seed, geometry=GEOMETRY) for seed in range(3)
        ]
        results = ExperimentSession(chips).run("fig8-hcfirst").payloads()
        table = build_table2_rowhammerable(results)
        hammerable, total = table["DDR3-old"]["C"]
        assert total == 3
        assert hammerable == 0

    def test_figure8_distribution_from_population(self):
        chips = [
            make_chip("LPDDR4-1y", "A", seed=seed, geometry=GEOMETRY) for seed in range(3)
        ]
        results = ExperimentSession(chips).run("fig8-hcfirst").payloads()
        figure = build_figure8_hcfirst_distribution(results)
        stats = figure[("LPDDR4-1y", "A")]
        assert stats is not None
        assert stats.minimum >= 4_000  # population minimum is near the 4.8k target


class TestMitigationProtectsAgainstAttack:
    """End-to-end: an attacker trace on the simulator drives real victim
    refreshes through the mitigation, and the resulting activation pattern is
    replayed against the chip model to check for bit flips."""

    def _attack_activation_counts(self, mechanism_name, hcfirst, dram_cycles=6_000):
        # A real RowHammer attacker uses dependent (serialized) accesses so
        # the memory controller cannot coalesce them into row hits; an
        # instruction window of one read models that access pattern.
        config = SystemConfig(cores=1, banks=4, rows_per_bank=256, instruction_window=1)
        trace = AggressorTraceGenerator(
            target_bank=0, victim_row=100, banks=4, rows_per_bank=256, seed=1
        ).generate(4_000)
        mitigation = None
        if mechanism_name is not None:
            mitigation = build_mechanism(
                mechanism_name,
                MitigationConfig(
                    hcfirst=hcfirst, banks=4, rows_per_bank=256, seed=7, time_scale=1.0
                ),
            )
        simulation = Simulation(config, [trace], mitigation=mitigation)
        result = simulation.run(dram_cycles)
        controller = simulation.controller
        return result, controller

    def test_attacker_generates_activations_to_aggressor_rows(self):
        result, controller = self._attack_activation_counts(None, hcfirst=64)
        assert controller.stats.demand_activates > 100

    def test_ideal_mechanism_refreshes_victim_under_attack(self):
        result, controller = self._attack_activation_counts("Ideal", hcfirst=64)
        assert controller.stats.mitigation_refreshes > 0
        # The victim row (100) must be among the refreshed rows.
        assert result.mitigation_busy_cycles > 0

    def test_para_refreshes_scale_with_vulnerability(self):
        _result_weak, controller_weak = self._attack_activation_counts("PARA", hcfirst=50_000)
        _result_strong, controller_strong = self._attack_activation_counts("PARA", hcfirst=64)
        assert (
            controller_strong.stats.mitigation_refreshes
            >= controller_weak.stats.mitigation_refreshes
        )


class TestControllerChipCoSimulation:
    def test_victim_refresh_requests_target_adjacent_rows(self):
        config = SystemConfig(cores=1, banks=2, rows_per_bank=128)
        mechanism = build_mechanism(
            "PARA", MitigationConfig(hcfirst=64, banks=2, rows_per_bank=128, seed=3)
        )
        mechanism.probability = 1.0
        controller = MemoryController(config, mitigation=mechanism)
        refreshed = []
        original = controller._enqueue_victim_refresh

        def record(bank, row, cycle):
            refreshed.append((bank, row))
            original(bank, row, cycle)

        controller._enqueue_victim_refresh = record
        request = MemoryRequest(request_type=RequestType.READ, bank=0, row=50)
        controller.enqueue(request, 0)
        for cycle in range(300):
            controller.tick(cycle)
        assert refreshed
        assert all(row in (49, 51) for _bank, row in refreshed)
