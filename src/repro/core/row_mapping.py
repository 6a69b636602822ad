"""Reverse engineering of the DRAM-internal row address remapping.

The paper needs to know, for any victim row, which logical row addresses
activate the physically adjacent wordlines.  It discovers this by hammering
individual rows and observing which logical rows collect bit flips
(Section 4.3).  Two behaviours are distinguished:

* the common case, where hammering logical row N produces flips in logical
  rows N-1 and N+1 (identity-like mapping), and
* manufacturer B's LPDDR4-1x behaviour, where hammering row N (with N even)
  produces no flips in N+1 but flips in the two preceding and two following
  rows, indicating that consecutive row pairs share a wordline ("paired"
  mapping).

The characterization studies read ``chip.remapper`` directly; tier-1 checks
that this inference recovers it for every Table 1 configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.data_patterns import DataPattern, worst_case_pattern
from repro.dram.chip import DramChip


@dataclass
class MappingInference:
    """Outcome of a row-mapping inference run."""

    inferred_mapping: str
    flips_by_offset: Dict[int, int] = field(default_factory=dict)
    probe_rows: Tuple[int, ...] = ()

    @property
    def adjacent_offsets(self) -> List[int]:
        """Row offsets (from the hammered row) that collected bit flips."""
        return sorted(offset for offset, count in self.flips_by_offset.items() if count > 0)


def _observe_single_row_hammer(
    chip: DramChip,
    bank: int,
    hammered_row: int,
    hammer_count: int,
    pattern: DataPattern,
    window: int,
) -> Dict[int, int]:
    """Hammer one row and count flips per logical-row offset around it.

    Bytes are chosen by logical row: the hammered row holds the aggressor
    byte and every other row the victim byte.  Choosing them by physical
    wordline would presuppose the mapping being inferred.
    """
    low = max(0, hammered_row - window)
    high = min(chip.geometry.rows_per_bank - 1, hammered_row + window)
    rows = list(range(low, high + 1))
    data = [
        pattern.aggressor_byte if row == hammered_row else pattern.victim_byte
        for row in rows
    ]
    chip.write_rows(bank, rows, data)
    chip.activate(bank, hammered_row, hammer_count)
    # Restore every row's charge before reading back, as the tester does when
    # it re-enables refresh.  This also advances each written row's refresh
    # epoch, which keys the threshold noise the next probe sees.
    chip.refresh_all()
    written = np.asarray(data, dtype=np.uint8)
    flips = np.unpackbits(chip.read_rows(bank, rows) ^ written[:, None], axis=1).sum(axis=1)
    return {row - hammered_row: int(count) for row, count in zip(rows, flips) if count}


def infer_row_mapping(
    chip: DramChip,
    probe_rows: Optional[Sequence[int]] = None,
    hammer_count: int = 300_000,
    bank: int = 0,
    window: int = 4,
) -> MappingInference:
    """Infer whether the chip uses an identity-like or paired row mapping.

    Parameters
    ----------
    chip:
        Chip to probe.
    probe_rows:
        Even rows to hammer individually, each with ``row + 3`` inside the
        bank; defaults to a few even rows near the middle of the bank (the
        paired mapping is recognizable only from an even logical row).
    hammer_count:
        Single-sided activation count per probe; the default is high so that
        even moderately vulnerable chips show flips.
    window:
        Number of rows on each side of the probe to observe, at least three
        (offset +3 tells the two mappings apart).

    The mapping is ``"unknown"`` when the flips fit neither pattern, for
    example on a chip too robust to flip at ``hammer_count``.  Raises
    :class:`ValueError` for probes that cannot tell the mappings apart.

    >>> from repro.dram.population import make_chip
    >>> chip = make_chip("LPDDR4-1x", "B", seed=0, hcfirst_target=15_000)
    >>> infer_row_mapping(chip).inferred_mapping
    'paired'
    """
    rows_per_bank = chip.geometry.rows_per_bank
    if probe_rows is None:
        middle = rows_per_bank // 2
        middle -= middle % 2  # start from an even logical row
        probe_rows = tuple(middle + 2 * index for index in range(3))
    probe_rows = tuple(probe_rows)
    if hammer_count < 1:
        raise ValueError(f"hammer_count must be >= 1, got {hammer_count}")
    if window < 3:
        raise ValueError(f"window must be >= 3 to observe offset +3, got {window}")
    if not probe_rows:
        raise ValueError("probe_rows must name at least one row")
    for row in probe_rows:
        if row % 2:
            raise ValueError(f"probe row {row} is odd; probe rows must be even")
        if row + 3 >= rows_per_bank:
            raise ValueError(
                f"probe row {row} leaves offset +3 outside the bank's {rows_per_bank} rows"
            )

    pattern = worst_case_pattern(chip.profile)
    total_by_offset: Dict[int, int] = {}
    for row in probe_rows:
        observed = _observe_single_row_hammer(chip, bank, row, hammer_count, pattern, window)
        for offset, count in observed.items():
            total_by_offset[offset] = total_by_offset.get(offset, 0) + count

    inference = MappingInference("unknown", total_by_offset, probe_rows)
    adjacent = inference.adjacent_offsets
    # With an even hammered row, a paired mapping (consecutive logical rows
    # sharing a wordline) produces flips at offsets {-2, -1, +2, +3} but not
    # at +1 (the row sharing the hammered wordline); an identity-like mapping
    # produces flips at both -1 and +1 (and at +-3 too when the profile's
    # coupling reaches three wordlines, as on LPDDR4).
    if 3 in adjacent and 1 not in adjacent:
        inference.inferred_mapping = "paired"
    elif 1 in adjacent or -1 in adjacent:
        inference.inferred_mapping = "identity"
    return inference
