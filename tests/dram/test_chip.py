"""Tests for the behavioural DRAM chip model."""

import gc
import weakref

import numpy as np
import pytest

from repro.dram.chip import DramChip
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.dram.vulnerability import profile_for


class TestDataPath:
    def test_read_back_written_fill_byte(self, ddr4_chip):
        ddr4_chip.write_row(0, 5, 0xA5)
        assert np.all(ddr4_chip.read_row(0, 5) == 0xA5)

    def test_read_back_written_buffer(self, ddr4_chip):
        data = np.arange(ddr4_chip.geometry.row_bytes, dtype=np.uint8)
        ddr4_chip.write_row(0, 6, data)
        assert np.array_equal(ddr4_chip.read_row(0, 6), data)

    def test_unwritten_row_reads_zero(self, ddr4_chip):
        assert np.all(ddr4_chip.read_row(0, 40) == 0)

    def test_write_accepts_bit_array(self, ddr4_chip):
        bits = np.ones(ddr4_chip.geometry.row_bits, dtype=np.uint8)
        ddr4_chip.write_row(0, 7, bits)
        assert np.all(ddr4_chip.read_row(0, 7) == 0xFF)

    def test_write_rejects_bad_sizes_and_values(self, ddr4_chip):
        with pytest.raises(ValueError):
            ddr4_chip.write_row(0, 0, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            ddr4_chip.write_row(0, 0, 300)

    def test_out_of_range_addresses_rejected(self, ddr4_chip):
        with pytest.raises(IndexError):
            ddr4_chip.write_row(5, 0, 0)
        with pytest.raises(IndexError):
            ddr4_chip.read_row(0, 10_000)

    def test_stats_count_operations(self, ddr4_chip):
        ddr4_chip.write_row(0, 1, 0)
        ddr4_chip.read_row(0, 1)
        ddr4_chip.refresh_row(0, 1)
        assert ddr4_chip.stats.row_writes == 1
        assert ddr4_chip.stats.row_reads == 1
        assert ddr4_chip.stats.refreshes == 1


class TestHammering:
    def _prepare_neighbourhood(self, chip, victim, victim_byte, aggressor_byte):
        for row in range(victim - 3, victim + 4):
            byte = victim_byte if (row - victim) % 2 == 0 else aggressor_byte
            chip.write_row(0, row, byte)

    def test_robust_chip_never_flips_within_limit(self, robust_chip):
        victim = 20
        self._prepare_neighbourhood(robust_chip, victim, 0x00, 0xFF)
        flips = robust_chip.hammer_pair(0, victim - 1, victim + 1, 150_000)
        assert flips == 0
        assert np.all(robust_chip.read_row(0, victim) == 0x00)

    def test_vulnerable_chip_flips_above_target(self, ddr4_chip):
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hammer_count = int(ddr4_chip.hcfirst_target * 1.2)
        self._prepare_neighbourhood(ddr4_chip, victim, 0x00, 0xFF)
        flips = ddr4_chip.hammer_pair(0, victim - 1, victim + 1, hammer_count)
        assert flips > 0

    def test_no_flips_well_below_target(self, ddr4_chip):
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hammer_count = max(1, int(ddr4_chip.hcfirst_target * 0.5))
        self._prepare_neighbourhood(ddr4_chip, victim, 0x00, 0xFF)
        flips = ddr4_chip.hammer_pair(0, victim - 1, victim + 1, hammer_count)
        assert flips == 0

    @pytest.mark.parametrize(
        "refresh",
        [
            lambda chip, victim: chip.refresh_row(0, victim),
            lambda chip, victim: chip.refresh_all(),
        ],
        ids=["refresh_row", "refresh_all"],
    )
    def test_refresh_resets_accumulated_disturbance(self, ddr4_chip, refresh):
        _bank, victim, _bit = ddr4_chip.weakest_cell
        half = int(ddr4_chip.hcfirst_target * 0.7)
        self._prepare_neighbourhood(ddr4_chip, victim, 0x00, 0xFF)
        assert ddr4_chip.hammer_pair(0, victim - 1, victim + 1, half) == 0
        refresh(ddr4_chip, victim)
        # After the refresh the exposure restarts from zero, so another
        # partial hammer still cannot flip the victim (without it, the
        # second dose does: see test_exposure_accumulates_without_refresh).
        assert ddr4_chip.hammer_pair(0, victim - 1, victim + 1, half) == 0

    def test_exposure_accumulates_without_refresh(self, ddr4_chip):
        _bank, victim, _bit = ddr4_chip.weakest_cell
        part = int(ddr4_chip.hcfirst_target * 0.7)
        self._prepare_neighbourhood(ddr4_chip, victim, 0x00, 0xFF)
        total = 0
        total += ddr4_chip.hammer_pair(0, victim - 1, victim + 1, part)
        total += ddr4_chip.hammer_pair(0, victim - 1, victim + 1, part)
        assert total > 0

    def test_single_sided_needs_roughly_twice_the_hammers(self, ddr4_chip):
        _bank, victim, _bit = ddr4_chip.weakest_cell
        target = int(ddr4_chip.hcfirst_target)
        self._prepare_neighbourhood(ddr4_chip, victim, 0x00, 0xFF)
        # Slightly above the double-sided threshold: single-sided should not flip.
        assert ddr4_chip.activate(0, victim - 1, int(target * 1.2)) == 0
        ddr4_chip.write_row(0, victim, 0x00)
        # At more than twice the threshold the single-sided hammer flips.
        assert ddr4_chip.activate(0, victim - 1, int(target * 2.6)) > 0

    def test_rewriting_row_clears_flips(self, ddr4_chip):
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hammer_count = int(ddr4_chip.hcfirst_target * 1.5)
        self._prepare_neighbourhood(ddr4_chip, victim, 0x00, 0xFF)
        ddr4_chip.hammer_pair(0, victim - 1, victim + 1, hammer_count)
        ddr4_chip.write_row(0, victim, 0x00)
        assert np.all(ddr4_chip.read_row(0, victim) == 0x00)

    def test_zero_or_negative_count_is_noop(self, ddr4_chip):
        assert ddr4_chip.hammer_pair(0, 10, 12, 0) == 0
        assert ddr4_chip.activate(0, 10, 0) == 0

    def test_activation_counts_tracked(self, ddr4_chip):
        ddr4_chip.hammer_pair(0, 10, 12, 100)
        ddr4_chip.activate(0, 10, 5)
        assert ddr4_chip.stats.activations == 205


def test_deleted_chip_is_freed_without_the_cycle_collector(small_geometry):
    """A chip holds no reference cycle, so refcounting frees it on ``del``.

    Sessions run every unit on a hermetic chip copy; those copies must not
    wait for the cyclic garbage collector to give their bank arrays back.
    """
    chip = make_chip("LPDDR4-1y", "A", seed=1, geometry=small_geometry)
    chip.fill_bank(0, 0x00, 0xFF)
    chip.hammer_pair(0, 10, 12, 1_000)
    ref = weakref.ref(chip)
    gc.disable()
    try:
        del chip
        assert ref() is None
    finally:
        gc.enable()


class TestCalibration:
    def test_hcfirst_target_override(self, small_geometry):
        chip = make_chip("DDR4-new", "A", seed=1, geometry=small_geometry, hcfirst_target=33_000)
        assert chip.hcfirst_target == pytest.approx(33_000)

    def test_sampled_target_at_least_profile_minimum(self, small_geometry):
        profile = profile_for("DDR4-new", "A")
        for seed in range(5):
            chip = make_chip("DDR4-new", "A", seed=seed, geometry=small_geometry)
            assert chip.hcfirst_target >= profile.hcfirst_min

    def test_non_rowhammerable_config_exceeds_test_limit(self, small_geometry):
        chip = make_chip("DDR3-old", "C", seed=2, geometry=small_geometry)
        assert not chip.is_rowhammerable()
        assert chip.hcfirst_target > DramChip.TEST_LIMIT_HC

    def test_deterministic_for_same_seed(self, small_geometry):
        first = make_chip("DDR4-new", "A", seed=9, geometry=small_geometry)
        second = make_chip("DDR4-new", "A", seed=9, geometry=small_geometry)
        assert first.hcfirst_target == second.hcfirst_target

    def test_different_seeds_differ(self, small_geometry):
        targets = {
            make_chip("DDR4-new", "A", seed=seed, geometry=small_geometry).hcfirst_target
            for seed in range(6)
        }
        assert len(targets) > 1


class TestOnDieEcc:
    def test_lpddr4_chip_reports_on_die_ecc(self, lpddr4_chip, ddr4_chip):
        assert lpddr4_chip.has_on_die_ecc
        assert not ddr4_chip.has_on_die_ecc

    def test_single_injected_error_hidden_by_ecc(self, lpddr4_chip):
        lpddr4_chip.write_row(0, 3, 0x00)
        # Corrupt one stored bit directly (bypassing the hammer model).
        lpddr4_chip._banks[0].bits[3, 17] ^= 1
        visible = lpddr4_chip.read_row(0, 3)
        assert np.all(visible == 0x00)
        raw = lpddr4_chip.read_row_raw(0, 3)
        assert raw[17] == 1

    def test_geometry_must_fit_ecc_words(self):
        profile = profile_for("LPDDR4-1y", "A")
        with pytest.raises(ValueError):
            DramChip(profile, geometry=ChipGeometry(banks=1, rows_per_bank=8, row_bytes=8))


class TestPairedRemapping(object):
    def test_hammering_row_sharing_victim_wordline_does_not_disturb_it(self, paired_chip):
        # Section 4.3: in manufacturer B's LPDDR4-1x chips, consecutive rows
        # 2k and 2k+1 share a wordline, so hammering row 2k+1 never flips
        # rows 2k or 2k+1 (activating the shared wordline refreshes them).
        victim = 20  # shares its wordline with row 21
        hammered = 21
        for row in range(victim - 6, victim + 7):
            paired_chip.write_row(0, row, 0xAA if row == hammered else 0x55)
        paired_chip.activate(0, hammered, 150_000)
        for row in (victim,):
            observed = int(
                np.unpackbits(paired_chip.read_row(0, row) ^ np.uint8(0x55)).sum()
            )
            assert observed == 0

    def test_aggressors_for_victim_are_two_rows_away(self, paired_chip):
        aggressors = paired_chip.remapper.aggressors_for(20)
        assert 19 not in aggressors or 21 not in aggressors
        assert any(abs(row - 20) >= 2 for row in aggressors)
