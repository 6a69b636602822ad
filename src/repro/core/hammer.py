"""Worst-case double-sided hammering of a single victim row.

This module implements the core loop of Algorithm 1 (lines 9-16) for one
victim row: prepare the data pattern in the victim's neighbourhood, disable
refresh, refresh the victim so that observed flips cannot be retention
failures, hammer the two physically adjacent aggressor rows, read the
neighbourhood back to record bit flips, and rewrite the rows that flipped.

The read-back is recorded column-wise.  A :class:`HammerResult` keeps the
observed rows, a boolean rows x row-bits ``diff`` matrix and the byte
written to each row, and every counting helper -- and every
characterization study except Algorithm 1 -- counts on those arrays.  One
:class:`BitFlip` object per flip is built only when a caller reads
:attr:`HammerResult.flips`: Algorithm 1's records, the examples and the
tests.  The flip-heaviest chips observe hundreds of thousands of flips per
study, so an object per flip would dominate their run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.data_patterns import DataPattern, worst_case_pattern
from repro.dram.chip import DramChip


@dataclass(frozen=True)
class BitFlip:
    """One observed RowHammer bit flip.

    Attributes
    ----------
    bank, row:
        Logical location of the flipped cell.
    bit_index:
        Bit position within the row (MSB-first within each byte).
    offset_from_victim:
        Signed logical-row distance from the victim row.
    expected_bit / observed_bit:
        The value written before hammering and the value read back.
    """

    bank: int
    row: int
    bit_index: int
    offset_from_victim: int
    expected_bit: int
    observed_bit: int


@dataclass(eq=False)
class HammerResult:
    """Outcome of hammering one victim row at one hammer count.

    The neighbourhood read-back is kept as three arrays, one entry per
    observed row:

    ``rows``
        Logical row numbers, ascending.
    ``diff``
        Boolean ``(len(rows), row_bits)`` matrix, True where the bit read
        back differs from the bit written: one entry per bit flip.
    ``written``
        The byte (``uint8``) written to every byte of each row.

    :attr:`num_bit_flips` and :meth:`word_flip_counts` count on the
    arrays.  :attr:`flips` builds the equivalent :class:`BitFlip` list on
    first access and caches it.  Equality is identity (``eq=False``): a
    field-wise ``__eq__`` cannot compare arrays.
    """

    bank: int
    victim_row: int
    aggressor_rows: Tuple[int, ...]
    hammer_count: int
    data_pattern: DataPattern
    rows: np.ndarray
    diff: np.ndarray
    written: np.ndarray

    @property
    def num_bit_flips(self) -> int:
        """Total number of observed bit flips in the victim's neighbourhood."""
        return int(np.count_nonzero(self.diff))

    @cached_property
    def flips(self) -> List[BitFlip]:
        """Every flip as a :class:`BitFlip`, in (row, ascending bit) order."""
        row_index, bit_index = np.nonzero(self.diff)
        # Bits are MSB-first within each byte, as np.unpackbits lays them out.
        expected = (self.written[row_index] >> (7 - bit_index % 8)) & 1
        return [
            BitFlip(
                bank=self.bank,
                row=row,
                bit_index=bit,
                offset_from_victim=row - self.victim_row,
                expected_bit=expected_bit,
                observed_bit=1 - expected_bit,
            )
            for row, bit, expected_bit in zip(
                self.rows[row_index].tolist(), bit_index.tolist(), expected.tolist()
            )
        ]

    def word_flip_counts(self, word_bits: int) -> np.ndarray:
        """Flips per ``word_bits``-bit word as a ``(len(rows), words)`` matrix.

        When ``word_bits`` does not divide the row, the last word is the
        shorter remainder of the row.
        """
        starts = np.arange(0, self.diff.shape[1], word_bits)
        return np.add.reduceat(self.diff, starts, axis=1, dtype=np.int64)


#: Rows observed beyond the profile's blast radius on each side of the
#: victim, so the analysis can verify no flips occur outside that radius.
NEIGHBOURHOOD_MARGIN = 1


class DoubleSidedHammer:
    """Executes worst-case double-sided RowHammer tests against one chip.

    Each test observes the victim's neighbourhood: the profile's blast
    radius plus :data:`NEIGHBOURHOOD_MARGIN` rows on each side.
    """

    def __init__(self, chip: DramChip) -> None:
        self.chip = chip

    # ------------------------------------------------------------------
    # Neighbourhood helpers
    # ------------------------------------------------------------------
    def aggressor_rows(self, victim_row: int) -> List[int]:
        """Logical aggressor rows for a worst-case double-sided hammer."""
        rows = [
            row
            for row in self.chip.remapper.aggressors_for(victim_row)
            if 0 <= row < self.chip.geometry.rows_per_bank
        ]
        return rows

    @property
    def radius(self) -> int:
        """Logical rows observed on each side of the victim.

        The blast radius plus the margin, times the remapper's rows per
        wordline: doubled under the paired-wordline remapping, where logical
        neighbours share a wordline.
        """
        return (
            self.chip.profile.blast_radius + NEIGHBOURHOOD_MARGIN
        ) * self.chip.remapper.rows_per_wordline

    def neighbourhood(self, victim_row: int) -> List[int]:
        """Logical rows observed around the victim (victim included)."""
        radius = self.radius
        low = max(0, victim_row - radius)
        high = min(self.chip.geometry.rows_per_bank - 1, victim_row + radius)
        return list(range(low, high + 1))

    def testable_victims(self) -> List[int]:
        """Victim rows whose full double-sided neighbourhood is in range."""
        return list(range(self.radius, self.chip.geometry.rows_per_bank - self.radius))

    # ------------------------------------------------------------------
    # Pattern preparation and observation
    # ------------------------------------------------------------------
    def write_pattern(self, bank: int, victim_row: int, pattern: DataPattern) -> Dict[int, int]:
        """Write the data pattern into the victim's neighbourhood.

        Rows whose physical wordline shares the victim wordline's parity are
        written with the victim byte, others with the aggressor byte
        (Section 4.3, footnote 3).  Returns the byte written to each row so
        the read-back can compute expected data.
        """
        remapper = self.chip.remapper
        victim_wordline = remapper.logical_to_physical(victim_row)
        written = {
            row: (
                pattern.victim_byte
                if (remapper.logical_to_physical(row) - victim_wordline) % 2 == 0
                else pattern.aggressor_byte
            )
            for row in self.neighbourhood(victim_row)
        }
        self.chip.write_rows(bank, list(written), list(written.values()))
        return written

    def observe_flips(self, bank: int, rows: List[int], written: np.ndarray) -> np.ndarray:
        """Read ``rows`` back and diff them against the bytes written to them.

        The rows are read in one batched (ECC-decoded) call.  Returns the
        boolean ``(len(rows), row_bits)`` flip matrix that becomes
        :attr:`HammerResult.diff`; no per-flip object is built.
        """
        observed = self.chip.read_rows(bank, rows)
        return np.unpackbits(observed ^ written[:, None], axis=1).view(bool)

    # ------------------------------------------------------------------
    # Hammer execution
    # ------------------------------------------------------------------
    def hammer_victim(
        self,
        bank: int,
        victim_row: int,
        hammer_count: int,
        data_pattern: Optional[DataPattern] = None,
    ) -> HammerResult:
        """Run one double-sided hammer test against a victim row.

        Writes the data pattern into the neighbourhood, refreshes the
        victim, hammers its aggressors, reads the neighbourhood back and
        rewrites every row that flipped (Algorithm 1, line 16), so the
        next test on the chip starts from clean data.

        Parameters
        ----------
        bank, victim_row:
            Victim location.
        hammer_count:
            Number of hammers (activations of *each* aggressor row).
        data_pattern:
            Pattern to write before hammering; defaults to the profile's
            worst-case pattern, as the paper does for all studies after
            Section 5.2.
        """
        if data_pattern is None:
            data_pattern = worst_case_pattern(self.chip.profile)
        self.chip.geometry.validate_address(bank, victim_row)

        written = self.write_pattern(bank, victim_row, data_pattern)
        aggressors = self.aggressor_rows(victim_row)
        # Algorithm 1 line 10: refresh the victim so flips are not retention
        # failures.  (Refresh is assumed disabled around the core loop; the
        # chip model has no background refresh, matching that setting.)
        self.chip.refresh_row(bank, victim_row)

        if len(aggressors) >= 2:
            self.chip.hammer_pair(bank, aggressors[0], aggressors[-1], hammer_count)
        elif len(aggressors) == 1:
            self.chip.activate(bank, aggressors[0], hammer_count)

        result = self._observe(bank, victim_row, aggressors, hammer_count, data_pattern, written)
        flipped = result.diff.any(axis=1)
        if flipped.any():
            self.chip.write_rows(
                bank, result.rows[flipped].tolist(), result.written[flipped].tolist()
            )
        return result

    def hammer_single_sided(self, bank: int, victim_row: int, hammer_count: int) -> HammerResult:
        """Run a single-sided hammer (only one aggressor row is activated).

        Writes the chip's worst-case pattern.  Used to demonstrate that
        double-sided hammering is the worst case (Section 4.3).
        """
        data_pattern = worst_case_pattern(self.chip.profile)
        written = self.write_pattern(bank, victim_row, data_pattern)
        aggressors = self.aggressor_rows(victim_row)
        self.chip.refresh_row(bank, victim_row)
        if aggressors:
            self.chip.activate(bank, aggressors[0], hammer_count)
        return self._observe(bank, victim_row, aggressors[:1], hammer_count, data_pattern, written)

    def _observe(
        self,
        bank: int,
        victim_row: int,
        aggressors: List[int],
        hammer_count: int,
        data_pattern: DataPattern,
        written: Dict[int, int],
    ) -> HammerResult:
        """Read the neighbourhood back into a :class:`HammerResult`."""
        rows = list(written)
        written_bytes = np.fromiter(written.values(), dtype=np.uint8, count=len(rows))
        return HammerResult(
            bank=bank,
            victim_row=victim_row,
            aggressor_rows=tuple(aggressors),
            hammer_count=hammer_count,
            data_pattern=data_pattern,
            rows=np.asarray(rows, dtype=np.int64),
            diff=self.observe_flips(bank, rows, written_bytes),
            written=written_bytes,
        )
