"""Randomized invariant tests for the behavioural DRAM chip model.

Three physical invariants must hold for every vulnerability profile and any
seed (the paper's disturbance semantics, Section 3):

* refreshing a row resets its accumulated disturbance exposure but can never
  restore a bit that has already flipped;
* flipped bits persist until the row is rewritten; and
* the on-die ECC read path round-trips stored data exactly (for the LPDDR4
  profiles whose ECC cannot be disabled).

The suite sweeps every (type-node, manufacturer) configuration of Table 1
with several seeds -- well over 20 randomized chip profiles -- and runs
every invariant against both chip backends: the columnar
:class:`~repro.dram.chip.DramChip` and the retained object-at-a-time
:class:`~repro.dram.reference.ReferenceDramChip` oracle.
"""

import numpy as np
import pytest

from repro.dram.chip import DramChip
from repro.dram.geometry import ChipGeometry
from repro.dram.reference import ReferenceDramChip
from repro.dram.vulnerability import available_configurations, profile_for

#: Small geometry keeps each chip cheap while leaving room for double-sided
#: hammering around the planted weakest cell.
GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)

#: Every Table 1 configuration, twice with different seeds: >= 20 profiles.
PROFILE_CASES = [
    pytest.param(type_node, manufacturer, seed, id=f"{type_node.value}-{manufacturer}-s{seed}")
    for type_node, manufacturer in available_configurations()
    for seed in (11, 29)
]

#: Both chip backends must satisfy every physical invariant identically.
BACKENDS = [
    pytest.param(DramChip, id="columnar"),
    pytest.param(ReferenceDramChip, id="reference"),
]

#: Target HC_first for the planted weakest cell: small enough that hammer
#: counts stay tiny, large enough to leave margin below the threshold.
HCFIRST_TARGET = 1_500


def build_chip(type_node, manufacturer, seed, chip_class=DramChip):
    return chip_class(
        profile_for(type_node, manufacturer),
        geometry=GEOMETRY,
        seed=seed,
        hcfirst_target=HCFIRST_TARGET,
    )


def prepare_worst_case(chip):
    """Lay out the dominant coupling class's worst-case stripe pattern.

    Rows sharing the victim's physical-wordline parity store the class's
    required victim bit; the other rows store the required aggressor bit.
    Returns ``(bank, victim_row, aggressor_rows, victim_fill)``.
    """
    bank, victim, _column = chip.weakest_cell
    dominant = chip.profile.coupling_classes[0]
    victim_fill = 0x00 if dominant.victim_bit == 0 else 0xFF
    aggressor_fill = 0x00 if dominant.aggressor_bit == 0 else 0xFF
    victim_wordline = chip.remapper.logical_to_physical(victim)
    fills = []
    for row in range(chip.geometry.rows_per_bank):
        wordline = chip.remapper.logical_to_physical(row)
        fills.append(victim_fill if (wordline - victim_wordline) % 2 == 0 else aggressor_fill)
    chip.write_rows(bank, range(chip.geometry.rows_per_bank), fills)
    aggressors = []
    for neighbour in (victim_wordline - 1, victim_wordline + 1):
        for logical in chip.remapper.physical_to_logical(neighbour):
            if 0 <= logical < chip.geometry.rows_per_bank:
                aggressors.append(logical)
                break
    assert len(aggressors) == 2, "victim must sit away from the bank edges"
    return bank, victim, aggressors, victim_fill


@pytest.mark.parametrize("chip_class", BACKENDS)
@pytest.mark.parametrize("type_node,manufacturer,seed", PROFILE_CASES)
class TestDisturbanceInvariants:
    def test_refresh_resets_exposure_but_never_unflips(
        self, type_node, manufacturer, seed, chip_class
    ):
        chip = build_chip(type_node, manufacturer, seed, chip_class)
        bank, victim, (left, right), victim_fill = prepare_worst_case(chip)
        partial = int(HCFIRST_TARGET * 0.55)

        # Below-threshold hammering does not flip the planted weakest cell.
        assert chip.hammer_pair(bank, left, right, partial) == 0

        # Refresh resets the victim's exposure: the same partial dose again
        # (cumulative 1.1x the threshold without the refresh) leaves the
        # refreshed victim row untouched.
        chip.refresh_row(bank, victim)
        clean_raw = chip.read_rows_raw(bank, [victim])[0]
        chip.hammer_pair(bank, left, right, partial)
        assert np.array_equal(chip.read_rows_raw(bank, [victim])[0], clean_raw)

        # Without an intervening refresh the exposure accumulates past the
        # threshold and the weakest cell flips.
        flips = chip.hammer_pair(bank, left, right, int(HCFIRST_TARGET * 1.2))
        assert flips > 0
        flipped_raw = chip.read_rows_raw(bank, [victim])[0]
        expected_bit = 1 if victim_fill == 0x00 else 0
        assert (flipped_raw == expected_bit).any() or not np.all(
            np.packbits(flipped_raw) == victim_fill
        )

        # Refresh resets exposure again -- but the flipped data stays flipped,
        # and another below-threshold dose cannot disturb the victim further
        # (other, unrefreshed rows may legitimately keep accumulating flips).
        chip.refresh_row(bank, victim)
        assert np.array_equal(chip.read_rows_raw(bank, [victim])[0], flipped_raw)
        chip.hammer_pair(bank, left, right, partial)
        assert np.array_equal(chip.read_rows_raw(bank, [victim])[0], flipped_raw)

    def test_flips_persist_until_rewrite(self, type_node, manufacturer, seed, chip_class):
        chip = build_chip(type_node, manufacturer, seed, chip_class)
        bank, victim, (left, right), victim_fill = prepare_worst_case(chip)
        assert chip.hammer_pair(bank, left, right, int(HCFIRST_TARGET * 1.2)) > 0
        flipped_raw = chip.read_rows_raw(bank, [victim])[0]
        assert not np.all(np.packbits(flipped_raw) == victim_fill)

        # Repeated reads and refreshes observe the same corrupted raw data.
        for _ in range(3):
            assert np.array_equal(chip.read_rows_raw(bank, [victim])[0], flipped_raw)
            chip.refresh_row(bank, victim)
        chip.refresh_all()
        assert np.array_equal(chip.read_rows_raw(bank, [victim])[0], flipped_raw)

        # Rewriting the row restores it completely.
        chip.write_rows(bank, [victim], victim_fill)
        assert np.all(np.packbits(chip.read_rows_raw(bank, [victim])[0]) == victim_fill)
        assert np.all(chip.read_rows(bank, [victim])[0] == victim_fill)


@pytest.mark.parametrize("chip_class", BACKENDS)
@pytest.mark.parametrize("type_node,manufacturer,seed", PROFILE_CASES)
def test_ondie_ecc_read_path_round_trips(type_node, manufacturer, seed, chip_class):
    """Reads return exactly what was written, through on-die ECC when present."""
    chip = build_chip(type_node, manufacturer, seed, chip_class)
    rng = np.random.default_rng(seed)
    for row in (1, 9, 20):
        data = rng.integers(0, 256, size=chip.geometry.row_bytes, dtype=np.uint8)
        chip.write_rows(0, [row], [data])
        assert np.array_equal(chip.read_rows(0, [row])[0], data)
        # The raw array matches too (no disturbance has occurred yet).
        assert np.array_equal(np.packbits(chip.read_rows_raw(0, [row])[0]), data)
    if chip.has_on_die_ecc:
        # A single raw bit error in a word is corrected by the SEC code.
        data = rng.integers(0, 256, size=chip.geometry.row_bytes, dtype=np.uint8)
        chip.write_rows(0, [30], [data])
        # Inject one raw error into the stored bits of each backend.
        if isinstance(chip, DramChip):
            chip._banks[0].bits[30, 5] ^= 1
            chip._banks[0].flipped[30] = True
        else:
            chip._rows[(0, 30)].bits[5] ^= 1
        corrected = chip.read_rows(0, [30])[0]
        assert np.array_equal(corrected, data)
