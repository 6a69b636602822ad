"""Tests for the double-sided hammer driver."""

import numpy as np
import pytest

from repro.core.data_patterns import ROWSTRIPE0, worst_case_pattern
from repro.core.hammer import BitFlip, DoubleSidedHammer, HammerResult


class TestNeighbourhood:
    def test_aggressors_are_adjacent(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        assert sorted(hammer.aggressor_rows(10)) == [9, 11]

    def test_neighbourhood_contains_victim_and_radius(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        neighbourhood = hammer.neighbourhood(10)
        assert 10 in neighbourhood
        radius = ddr4_chip.profile.blast_radius + 1
        assert min(neighbourhood) == 10 - radius
        assert max(neighbourhood) == 10 + radius

    def test_testable_victims_exclude_edges(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        victims = hammer.testable_victims()
        assert 0 not in victims
        assert ddr4_chip.geometry.rows_per_bank - 1 not in victims
        assert len(victims) > 0


class TestWritePattern:
    def test_alternating_bytes_by_parity(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        written = hammer.write_pattern(0, 10, ROWSTRIPE0)
        assert written[10] == 0x00
        assert written[9] == 0xFF
        assert written[11] == 0xFF
        assert written[12] == 0x00
        for row, byte in written.items():
            assert np.all(ddr4_chip.read_row(0, row) == byte)


class TestHammerVictim:
    def test_no_flips_for_robust_chip(self, robust_chip):
        hammer = DoubleSidedHammer(robust_chip)
        result = hammer.hammer_victim(0, 20, 150_000)
        assert result.num_bit_flips == 0
        assert result.aggressor_rows == (19, 21)

    def test_flips_for_vulnerable_chip_at_weakest_row(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, int(ddr4_chip.hcfirst_target * 1.2))
        assert result.num_bit_flips > 0
        assert any(flip.offset_from_victim == 0 for flip in result.flips)

    def test_no_flips_in_aggressor_rows(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        for victim in hammer.testable_victims()[::5]:
            result = hammer.hammer_victim(0, victim, 150_000)
            assert not result.flips_at_offset(-1)
            assert not result.flips_at_offset(1)

    def test_restore_clears_flips_for_next_run(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        first = hammer.hammer_victim(0, victim, hc, restore=True)
        second = hammer.hammer_victim(0, victim, hc, restore=True)
        # With restoration the two runs observe the same flips rather than
        # accumulating stale corrupted data.
        assert {f.cell for f in first.flips} == {f.cell for f in second.flips}

    def test_flip_metadata_consistent(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, int(ddr4_chip.hcfirst_target * 1.5))
        for flip in result.flips:
            assert flip.row == victim + flip.offset_from_victim
            assert flip.observed_bit != flip.expected_bit
            assert 0 <= flip.bit_index < ddr4_chip.geometry.row_bits
            assert flip.word64_index == flip.bit_index // 64

    def test_single_sided_weaker_than_double_sided(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        double = hammer.hammer_victim(0, victim, hc)
        single = hammer.hammer_single_sided(0, victim, hc)
        assert len(single.victim_flips) <= len(double.victim_flips)

    def test_default_pattern_is_worst_case(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        result = hammer.hammer_victim(0, 20, 1_000)
        assert result.data_pattern.name == worst_case_pattern(ddr4_chip.profile).name


class TestHammerResult:
    def test_flips_per_word64(self):
        # Row 5 was written 0x00 and reads back bits 3, 60 and 70 set.
        diff = np.zeros((1, 128), dtype=bool)
        diff[0, [3, 60, 70]] = True
        result = HammerResult(
            0, 5, (4, 6), 1000, ROWSTRIPE0,
            rows=np.array([5]), diff=diff, written=np.array([0x00], dtype=np.uint8),
        )
        counts = result.flips_per_word64()
        assert counts[(0, 5, 0)] == 2
        assert counts[(0, 5, 1)] == 1
        assert result.num_bit_flips == 3
        assert result.flips == [
            BitFlip(0, 5, 3, 0, 0, 1),
            BitFlip(0, 5, 60, 0, 0, 1),
            BitFlip(0, 5, 70, 0, 0, 1),
        ]
