"""Chip geometry and row addressing.

A simulated chip is deliberately much smaller than a real device (a real
LPDDR4 die has billions of cells); the vulnerability model calibrates the
per-cell threshold distribution to the simulated cell count so the chip-level
observables (``HC_first`` and friends) remain meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChipGeometry:
    """Dimensions of a simulated DRAM chip.

    Attributes
    ----------
    banks:
        Number of independent banks.
    rows_per_bank:
        Number of DRAM rows (wordlines) per bank.
    row_bytes:
        Row size in bytes.
    """

    banks: int
    rows_per_bank: int
    row_bytes: int

    def __post_init__(self) -> None:
        if self.banks <= 0:
            raise ValueError("banks must be positive")
        if self.rows_per_bank <= 0:
            raise ValueError("rows_per_bank must be positive")
        if self.row_bytes <= 0 or self.row_bytes % 8 != 0:
            raise ValueError("row_bytes must be a positive multiple of 8")

    @property
    def row_bits(self) -> int:
        """Number of cells (bits) per row."""
        return self.row_bytes * 8

    @property
    def total_rows(self) -> int:
        """Total rows in the chip."""
        return self.banks * self.rows_per_bank

    @property
    def total_cells(self) -> int:
        """Total cells (bits) in the chip."""
        return self.total_rows * self.row_bits

    def validate_address(self, bank: int, row: int) -> None:
        """Raise :class:`IndexError` if (bank, row) is out of range."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range [0, {self.banks})")
        if not 0 <= row < self.rows_per_bank:
            raise IndexError(f"row {row} out of range [0, {self.rows_per_bank})")

    def validate_bank(self, bank: int) -> None:
        """Raise :class:`IndexError` if ``bank`` is out of range.

        For batch calls, whose rows may be empty; per-row calls use
        :meth:`validate_address`, which checks the bank inline because it
        runs once per row on the hammer path.
        """
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range [0, {self.banks})")


@dataclass(frozen=True, order=True)
class RowAddress:
    """A (bank, row) pair identifying one DRAM row within a chip."""

    bank: int
    row: int

    def offset(self, delta: int) -> "RowAddress":
        """Return the row address ``delta`` rows away within the same bank."""
        return RowAddress(self.bank, self.row + delta)
