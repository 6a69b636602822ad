"""Tests for the double-sided hammer driver."""

import copy
from collections import Counter

import numpy as np
import pytest

from repro.core.data_patterns import ROWSTRIPE0, worst_case_pattern
from repro.core.hammer import BitFlip, DoubleSidedHammer, HammerResult


def flips_at(result, offset):
    """Flips the result observed in the row ``offset`` rows from its victim."""
    return int(result.diff[result.rows == result.victim_row + offset].sum())


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

    def test_neighbourhood_clipped_at_bank_edges(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        last = ddr4_chip.geometry.rows_per_bank - 1
        assert hammer.neighbourhood(0) == list(range(0, hammer.radius + 1))
        assert hammer.neighbourhood(last) == list(range(last - hammer.radius, last + 1))

    def test_paired_remapping_doubles_radius(self, paired_chip):
        # Under the paired-wordline remapping two logical rows share each
        # wordline, so the observed logical radius doubles.
        hammer = DoubleSidedHammer(paired_chip)
        assert hammer.radius == 2 * (paired_chip.profile.blast_radius + 1)

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
        rows = list(written)
        expected = np.array([written[row] for row in rows], dtype=np.uint8)
        assert np.all(ddr4_chip.read_rows(0, rows) == expected[:, None])


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
            assert not flips_at(result, -1)
            assert not flips_at(result, 1)

    @pytest.mark.parametrize("chip_fixture", ["ddr4_chip", "lpddr4_chip"])
    def test_margin_rows_never_flip(self, request, chip_fixture):
        # The neighbourhood reaches one row beyond the blast radius on each
        # side so that a test can see that no flip lands there.
        chip = request.getfixturevalue(chip_fixture)
        hammer = DoubleSidedHammer(chip)
        blast_radius = chip.profile.blast_radius
        flips = 0
        for victim in hammer.testable_victims()[::2]:
            result = hammer.hammer_victim(0, victim, 150_000)
            flips += result.num_bit_flips
            assert {victim - blast_radius - 1, victim + blast_radius + 1} <= set(result.rows)
            assert not flips_at(result, -blast_radius - 1)
            assert not flips_at(result, blast_radius + 1)
        assert flips > 0

    def test_restore_clears_flips_for_next_run(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        first = hammer.hammer_victim(0, victim, hc)
        second = hammer.hammer_victim(0, victim, hc)
        # With restoration the two runs observe the same flips rather than
        # accumulating stale corrupted data.
        assert np.array_equal(first.rows, second.rows)
        assert np.array_equal(first.diff, second.diff)

    def test_pattern_written_over_stale_data(self, ddr4_chip):
        # Every test writes its pattern first, so what the neighbourhood held
        # before does not change what the test observes.  The twin chip gets
        # the same number of writes, so both chips' rows have the same
        # write epochs.
        twin = copy.deepcopy(ddr4_chip)
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        rows = hammer.neighbourhood(victim)
        ddr4_chip.write_rows(0, rows, 0x3C)
        twin.write_rows(0, rows, 0x00)
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        stale = hammer.hammer_victim(0, victim, hc)
        clean = DoubleSidedHammer(twin).hammer_victim(0, victim, hc)
        assert stale.num_bit_flips > 0
        assert np.array_equal(stale.rows, clean.rows)
        assert np.array_equal(stale.written, clean.written)
        assert np.array_equal(stale.diff, clean.diff)

    def test_flipped_rows_rewritten_after_test(self, ddr4_chip):
        # Algorithm 1 line 16: rows that flipped are rewritten, so the whole
        # neighbourhood reads back its pattern once the test returns.
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, 150_000)
        assert result.num_bit_flips > 0
        observed = ddr4_chip.read_rows(0, result.rows.tolist())
        assert np.array_equal(observed, np.broadcast_to(result.written[:, None], observed.shape))

    def test_flip_metadata_consistent(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, int(ddr4_chip.hcfirst_target * 1.5))
        for flip in result.flips:
            assert flip.row == victim + flip.offset_from_victim
            assert flip.observed_bit != flip.expected_bit
            assert 0 <= flip.bit_index < ddr4_chip.geometry.row_bits

    def test_single_sided_weaker_than_double_sided(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        double = hammer.hammer_victim(0, victim, hc)
        single = hammer.hammer_single_sided(0, victim, hc)
        assert flips_at(single, 0) <= flips_at(double, 0)

    def test_default_pattern_is_worst_case(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        result = hammer.hammer_victim(0, 20, 1_000)
        assert result.data_pattern.name == worst_case_pattern(ddr4_chip.profile).name


class TestHammerResult:
    def test_counts_and_lazy_flips(self):
        # Row 5 was written 0x00 and reads back bits 3, 60 and 70 set.
        diff = np.zeros((1, 128), dtype=bool)
        diff[0, [3, 60, 70]] = True
        result = HammerResult(
            0, 5, (4, 6), 1000, ROWSTRIPE0,
            rows=np.array([5]), diff=diff, written=np.array([0x00], dtype=np.uint8),
        )
        assert result.word_flip_counts(64).tolist() == [[2, 1]]
        assert result.num_bit_flips == 3
        assert result.flips == [
            BitFlip(0, 5, 3, 0, 0, 1),
            BitFlip(0, 5, 60, 0, 0, 1),
            BitFlip(0, 5, 70, 0, 0, 1),
        ]

    def test_flips_per_word64(self, ddr4_chip):
        # The array count agrees with grouping the BitFlip records by
        # (row, 64-bit word) on a real hammer test.
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, 150_000)
        assert result.num_bit_flips > 1
        counts = result.word_flip_counts(64)
        from_arrays = {
            (int(result.rows[row]), int(word)): int(counts[row, word])
            for row, word in zip(*np.nonzero(counts))
        }
        from_records = Counter((flip.row, flip.bit_index // 64) for flip in result.flips)
        assert from_arrays == dict(from_records)
        assert counts.sum() == result.num_bit_flips

    def test_short_last_word(self):
        # 48-bit words over a 128-bit row: the last word is the 32-bit rest.
        diff = np.zeros((2, 128), dtype=bool)
        diff[0, [3, 47, 48, 100]] = True
        diff[1, [127]] = True
        result = HammerResult(
            0, 5, (4, 6), 1000, ROWSTRIPE0,
            rows=np.array([5, 6]), diff=diff, written=np.array([0x00, 0xFF], dtype=np.uint8),
        )
        assert result.word_flip_counts(48).tolist() == [[2, 1, 1], [0, 0, 1]]

    def test_flips_carry_their_row_offset(self):
        # Row 6 was written 0xFF, so its flip reads back a 0.
        diff = np.zeros((2, 128), dtype=bool)
        diff[0, [3, 47]] = True
        diff[1, [127]] = True
        result = HammerResult(
            0, 5, (4, 6), 1000, ROWSTRIPE0,
            rows=np.array([5, 6]), diff=diff, written=np.array([0x00, 0xFF], dtype=np.uint8),
        )
        assert result.flips == [
            BitFlip(0, 5, 3, 0, 0, 1),
            BitFlip(0, 5, 47, 0, 0, 1),
            BitFlip(0, 6, 127, 1, 1, 0),
        ]
        assert [flips_at(result, offset) for offset in (-1, 0, 1)] == [0, 2, 1]
