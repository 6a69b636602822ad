"""Tests for the Algorithm 1 characterization runner."""

import pytest

from repro.core.characterization import (
    CharacterizationConfig,
    RowHammerCharacterizer,
)
from repro.core.data_patterns import ROWSTRIPE0, ROWSTRIPE1


class TestConfig:
    def test_rejects_empty_or_invalid_hammer_counts(self):
        with pytest.raises(ValueError):
            CharacterizationConfig(hammer_counts=())
        with pytest.raises(ValueError):
            CharacterizationConfig(hammer_counts=(0,))
        with pytest.raises(ValueError):
            CharacterizationConfig(hammer_counts=(200_000,))

    def test_defaults_within_test_limit(self):
        config = CharacterizationConfig()
        assert max(config.hammer_counts) <= config.max_test_hammers


class TestCharacterizer:
    def test_run_produces_record_per_combination(self, ddr4_chip):
        characterizer = RowHammerCharacterizer(ddr4_chip)
        victims = tuple(characterizer.default_victims()[:3])
        config = CharacterizationConfig(
            hammer_counts=(10_000, 50_000),
            data_patterns=(ROWSTRIPE0, ROWSTRIPE1),
            victim_rows=victims,
        )
        result = characterizer.run(config)
        assert len(result.records) == 2 * 2 * len(victims)
        assert result.chip_id == ddr4_chip.chip_id
        assert result.cells_tested_per_victim == ddr4_chip.geometry.row_bits

    def test_records_filterable(self, ddr4_chip):
        characterizer = RowHammerCharacterizer(ddr4_chip)
        victims = tuple(characterizer.default_victims()[:2])
        config = CharacterizationConfig(
            hammer_counts=(10_000, 150_000),
            data_patterns=(ROWSTRIPE0,),
            victim_rows=victims,
        )
        result = characterizer.run(config)
        subset = [
            r
            for r in result.records
            if r.data_pattern == "RowStripe0" and r.hammer_count == 150_000
        ]
        assert len(subset) == len(victims)
        assert all(r.hammer_count == 150_000 for r in subset)

    def test_more_hammers_more_unique_flips(self, ddr4_chip):
        characterizer = RowHammerCharacterizer(ddr4_chip)
        config = CharacterizationConfig(hammer_counts=(10_000, 150_000))
        result = characterizer.run(config)
        def cells(hammer_count):
            return {
                (f.bank, f.row, f.bit_index)
                for r in result.records
                if r.hammer_count == hammer_count
                for f in r.flips
            }

        low, high = cells(10_000), cells(150_000)
        assert len(high) >= len(low)
        assert sum(len(r.flips) for r in result.records) >= len(high)

    def test_hammer_all_victims_uses_worst_case_pattern(self, ddr4_chip):
        characterizer = RowHammerCharacterizer(ddr4_chip)
        outcomes = characterizer.hammer_all_victims(5_000, victims=[10, 11])
        assert len(outcomes) == 2
        assert outcomes[0].data_pattern.name in {
            "RowStripe0",
            "RowStripe1",
            "Checkered0",
            "Checkered1",
        }

    def test_cells_tested(self, ddr4_chip):
        characterizer = RowHammerCharacterizer(ddr4_chip)
        assert characterizer.cells_tested([1, 2, 3]) == 3 * ddr4_chip.geometry.row_bits
