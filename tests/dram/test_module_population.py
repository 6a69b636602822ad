"""Tests for the paper's population inventory and chip population generation."""

import pytest

from repro.dram.geometry import ChipGeometry
from repro.dram.population import (
    TABLE1_POPULATION,
    TABLE7_DDR4_MODULES,
    TABLE8_DDR3_MODULES,
    make_chip,
    make_population,
)
from repro.dram.vulnerability import TypeNode

SMALL = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=32)


class TestTableData:
    def test_table1_totals_match_paper(self):
        # 1580 chips from 300 modules.
        assert sum(e.chips for e in TABLE1_POPULATION) == 1580
        assert sum(e.modules for e in TABLE1_POPULATION) == 300

    def test_table1_per_type_chip_counts(self):
        by_type = {}
        for entry in TABLE1_POPULATION:
            key = entry.type_node.dram_type.value
            by_type[key] = by_type.get(key, 0) + entry.chips
        assert by_type == {"DDR3": 408, "DDR4": 652, "LPDDR4": 520}

    def test_table7_table8_minima_include_table4_values(self):
        ddr4_minima = [r.min_hcfirst_k for r in TABLE7_DDR4_MODULES if r.min_hcfirst_k]
        assert min(ddr4_minima) == pytest.approx(10.0)
        ddr3_minima = [r.min_hcfirst_k for r in TABLE8_DDR3_MODULES if r.min_hcfirst_k]
        assert min(ddr3_minima) == pytest.approx(22.4)


class TestFactories:
    def test_make_chip_configuration(self):
        chip = make_chip("DDR4-old", "B", seed=4, geometry=SMALL)
        assert chip.profile.type_node is TypeNode.DDR4_OLD
        assert chip.profile.manufacturer == "B"

    def test_make_population_scaled(self):
        population = make_population(chips_per_config=2, seed=0, geometry=SMALL)
        assert len(population) == 16
        assert all(len(chips) == 2 for chips in population.values())

    def test_make_population_restricted_configurations(self):
        population = make_population(
            chips_per_config=1,
            geometry=SMALL,
            configurations=[("DDR4-new", "A"), ("LPDDR4-1y", "C")],
        )
        assert set(population) == {
            (TypeNode.DDR4_NEW, "A"),
            (TypeNode.LPDDR4_1Y, "C"),
        }

    def test_make_population_rejects_pairs_not_in_table1(self):
        # LPDDR4-1y has no manufacturer B in Table 1; letters are case-sensitive.
        with pytest.raises(ValueError) as excinfo:
            make_population(
                chips_per_config=1,
                geometry=SMALL,
                configurations=[("DDR4-new", "A"), ("LPDDR4-1y", "B"), ("DDR3-old", "a")],
            )
        message = str(excinfo.value)
        assert "LPDDR4-1y/B" in message
        assert "DDR3-old/a" in message
        assert "DDR4-new/A" not in message

    def test_chips_of_one_configuration_differ(self):
        population = make_population(
            chips_per_config=4, seed=1, geometry=SMALL, configurations=[("DDR4-new", "A")]
        )
        chips = population[(TypeNode.DDR4_NEW, "A")]
        assert [chip.chip_id for chip in chips] == [f"DDR4-new-A-{i}" for i in range(4)]
        assert len({chip.hcfirst_target for chip in chips}) > 1

    def test_population_chips_are_deterministic(self):
        one = make_population(chips_per_config=1, seed=5, geometry=SMALL)
        two = make_population(chips_per_config=1, seed=5, geometry=SMALL)
        for key in one:
            assert one[key][0].hcfirst_target == two[key][0].hcfirst_target
