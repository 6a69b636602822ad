"""Tests for row-remapping inference (paper Section 4.3).

Every characterization study reads ``chip.remapper`` to pick a victim's
aggressors.  The paper has no such oracle: it learns each chip's mapping by
hammering single rows and seeing which logical rows flip.  These tests make
that inference load-bearing: it must recover the remapper of every Table 1
configuration, and it must never report the wrong one.

:data:`ROW_MAPPING_DIGEST` pins the inference's full observable outcome over
every configuration, three seeds and two ``HC_first`` targets (the
profile's own and 15,000): the inferred mapping, the flips at each offset,
the chip's counters and its raw state.  Never re-record it to make a change
pass.
"""

import dataclasses
import hashlib

import pytest

from repro.core.row_mapping import MappingInference, infer_row_mapping
from repro.dram.chip import state_digest
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.dram.vulnerability import available_configurations

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)
SEEDS = (0, 1, 2)

#: First 16 hex digits of a sha256 over ``repr`` of each case's record, in
#: configuration, seed, target order (see :func:`test_row_mapping_digest`).
ROW_MAPPING_DIGEST = "727e9c7e1bd114df"


def _chips(hcfirst_target):
    for type_node, manufacturer in available_configurations():
        for seed in SEEDS:
            yield make_chip(type_node, manufacturer, seed=seed, hcfirst_target=hcfirst_target)


def test_row_mapping_digest():
    digest = hashlib.sha256()
    for type_node, manufacturer in available_configurations():
        for seed in SEEDS:
            for target in (None, 15_000):
                chip = make_chip(type_node, manufacturer, seed=seed, hcfirst_target=target)
                inference = infer_row_mapping(chip)
                record = (
                    type_node.value,
                    manufacturer,
                    seed,
                    target,
                    inference.inferred_mapping,
                    sorted(inference.flips_by_offset.items()),
                    dataclasses.astuple(chip.stats),
                    state_digest(chip),
                )
                digest.update(repr(record).encode())
    assert digest.hexdigest()[:16] == ROW_MAPPING_DIGEST


def test_recovers_every_table1_remapper():
    # This is what lets every study read chip.remapper: the paper's own
    # method finds the same mapping on every configuration.
    remappers = set()
    for chip in _chips(15_000):
        assert infer_row_mapping(chip).inferred_mapping == chip.remapper.name, chip
        remappers.add(chip.remapper.name)
    assert remappers == {"identity", "paired"}


def test_never_misreads_a_remapper():
    # At a profile's own HC_first a robust chip may show no flips at all,
    # which must read as "unknown", never as the other mapping.
    for chip in _chips(None):
        assert infer_row_mapping(chip).inferred_mapping in (chip.remapper.name, "unknown"), chip


def test_flips_follow_the_remapper_wordlines():
    # The flip signature the classification rests on: hammering an even row
    # of a paired chip never disturbs +1, which shares its wordline, while
    # an identity-like chip flips both physical neighbours.
    for chip in _chips(15_000):
        offsets = set(infer_row_mapping(chip).adjacent_offsets)
        if chip.remapper.name == "paired":
            assert 1 not in offsets and {-2, -1, 2, 3} <= offsets, chip
        else:
            assert {-1, 1} <= offsets, chip


def test_adjacent_offsets_are_sorted_and_skip_zero_counts():
    inference = MappingInference("unknown", {3: 2, -1: 0, -2: 5, 1: 0})
    assert inference.adjacent_offsets == [-2, 3]


def test_default_probes_are_even_rows_from_the_middle():
    for rows_per_bank, probes in ((48, (24, 26, 28)), (54, (26, 28, 30))):
        geometry = ChipGeometry(banks=1, rows_per_bank=rows_per_bank, row_bytes=32)
        chip = make_chip("DDR4-new", "A", seed=0, geometry=geometry, hcfirst_target=15_000)
        assert infer_row_mapping(chip).probe_rows == probes


@pytest.mark.parametrize(
    "type_node, manufacturer, mapping",
    [("DDR4-new", "A", "identity"), ("LPDDR4-1x", "B", "paired")],
)
def test_probes_only_the_given_bank(type_node, manufacturer, mapping):
    geometry = ChipGeometry(banks=2, rows_per_bank=48, row_bytes=32)
    chip = make_chip(type_node, manufacturer, seed=0, geometry=geometry, hcfirst_target=15_000)
    assert infer_row_mapping(chip, bank=1).inferred_mapping == mapping
    assert not chip.read_rows(0, range(geometry.rows_per_bank)).any()


class TestReverseEngineering:
    def test_identity_mapping_inferred(self):
        chip = make_chip("DDR4-new", "A", seed=6, geometry=GEOMETRY, hcfirst_target=15_000)
        inference = infer_row_mapping(chip, hammer_count=140_000)
        assert inference.inferred_mapping == "identity"

    def test_paired_mapping_inferred(self):
        chip = make_chip("LPDDR4-1x", "B", seed=7, geometry=GEOMETRY, hcfirst_target=15_000)
        inference = infer_row_mapping(chip, hammer_count=140_000)
        assert inference.inferred_mapping == "paired"

    def test_robust_chip_yields_unknown(self):
        chip = make_chip("DDR4-new", "A", seed=8, geometry=GEOMETRY, hcfirst_target=800_000)
        inference = infer_row_mapping(chip, hammer_count=50_000)
        assert inference.inferred_mapping == "unknown"
        assert inference.adjacent_offsets == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"probe_rows": (63, 65, 67)},  # odd rows flip +1 on a paired chip
        {"probe_rows": (64, 65)},  # mixed parity
        {"probe_rows": (126,)},  # offset +3 is outside the 128-row bank
        {"window": 2},  # offset +3 is never read
        {"probe_rows": ()},  # nothing would be hammered
        {"hammer_count": 0},  # nothing would flip
    ],
    ids=["odd-rows", "mixed-parity", "plus-three-outside-bank", "window-2", "no-probes", "zero-hammers"],
)
def test_rejects_inputs_that_cannot_tell_the_mappings_apart(kwargs):
    chip = make_chip("LPDDR4-1x", "B", seed=0, hcfirst_target=15_000)
    with pytest.raises(ValueError):
        infer_row_mapping(chip, **kwargs)
    assert chip.is_pristine


def test_probe_row_below_the_bank_is_rejected_by_the_chip():
    chip = make_chip("LPDDR4-1x", "B", seed=0, hcfirst_target=15_000)
    with pytest.raises(IndexError):
        infer_row_mapping(chip, probe_rows=(-2,))
