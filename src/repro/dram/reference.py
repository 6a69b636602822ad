"""Reference (dict-of-rows) chip backend retained as the bit-identity oracle.

:class:`ReferenceDramChip` is the original object-at-a-time implementation
of the behavioural chip model: per-row ``_RowState`` objects in a dict,
per-wordline exposure floats in a dict, one victim row disturbed at a time.
It is deliberately the *slow, obviously sequential* formulation -- the
differential suite (``tests/dram/test_chip_differential.py``) drives it and
the columnar :class:`~repro.dram.chip.DramChip` through identical operation
soups and requires bit-identical flips, stats, and state digests.

Both backends draw every stochastic stream through the shared
:mod:`repro.dram.columnar` ``sample_*_row`` helpers (one independent
generator per row), so any divergence the suite finds is structural -- an
ordering or accumulation bug in the vectorized kernel -- not a sampling
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.dram.chip import RowData, _CalibratedChip
from repro.dram.columnar import sample_class_row, sample_noise_row, sample_threshold_row


@dataclass
class _RowState:
    """Mutable per-logical-row storage."""

    bits: np.ndarray
    check_bits: Optional[np.ndarray]
    epoch: int = 0


class ReferenceDramChip(_CalibratedChip):
    """Dict-of-rows chip backend, operation-for-operation sequential.

    Accepts the same construction parameters as
    :class:`~repro.dram.chip.DramChip` and exposes the same operation
    surface (including the batch ``write_rows`` / ``read_rows`` methods,
    implemented as plain loops).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rows: Dict[Tuple[int, int], _RowState] = {}
        self._exposure: Dict[Tuple[int, int], float] = {}
        self._thresholds: Dict[Tuple[int, int], np.ndarray] = {}
        self._classes: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._noise_cache: Dict[Tuple[int, int], Tuple[int, np.ndarray]] = {}

    @property
    def is_pristine(self) -> bool:
        """Whether the chip is still in its as-constructed state."""
        return not self._rows and not self._exposure

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_row(self, bank: int, row: int, data: RowData) -> None:
        """Write a full row (see :meth:`repro.dram.chip.DramChip.write_row`)."""
        self.geometry.validate_address(bank, row)
        bits = self._coerce_row_bits(data)
        state = self._rows.get((bank, row))
        check_bits = None
        if self._ondie_ecc is not None:
            check_bits = self._ondie_ecc.encode_row(bits)
        if state is None:
            state = _RowState(bits=bits, check_bits=check_bits, epoch=1)
            self._rows[(bank, row)] = state
        else:
            state.bits = bits
            state.check_bits = check_bits
            state.epoch += 1
        wordline = self.remapper.logical_to_physical(row)
        self._exposure[(bank, wordline)] = 0.0
        self.stats.row_writes += 1

    def write_rows(self, bank: int, rows: Sequence[int], data) -> None:
        """Batch write as a plain loop over :meth:`write_row`."""
        self.geometry.validate_bank(bank)
        rows = [int(row) for row in rows]
        if isinstance(data, (int, np.integer)):
            data = [data] * len(rows)
        if len(data) != len(rows):
            raise ValueError(f"expected {len(rows)} row payloads, got {len(data)}")
        for row, row_data in zip(rows, data):
            self.write_row(bank, row, row_data)

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Read a row as bytes, through on-die ECC when the chip has it."""
        self.geometry.validate_address(bank, row)
        self.stats.row_reads += 1
        state = self._rows.get((bank, row))
        if state is None:
            return np.zeros(self.geometry.row_bytes, dtype=np.uint8)
        bits = state.bits
        if self._ondie_ecc is not None and state.check_bits is not None:
            bits, _corrected = self._ondie_ecc.decode_row(bits, state.check_bits)
        return np.packbits(bits)

    def read_rows(self, bank: int, rows: Sequence[int]) -> np.ndarray:
        """Batch read as a plain loop over :meth:`read_row`."""
        self.geometry.validate_bank(bank)
        if not len(rows):
            return np.zeros((0, self.geometry.row_bytes), dtype=np.uint8)
        return np.stack([self.read_row(bank, int(row)) for row in rows])

    def read_row_raw(self, bank: int, row: int) -> np.ndarray:
        """Read the raw stored bits of a row, bypassing on-die ECC."""
        self.geometry.validate_address(bank, row)
        state = self._rows.get((bank, row))
        if state is None:
            return np.zeros(self.geometry.row_bits, dtype=np.uint8)
        return state.bits.copy()

    def read_rows_raw(self, bank: int, rows: Sequence[int]) -> np.ndarray:
        """Batch raw read as a plain loop over :meth:`read_row_raw`."""
        self.geometry.validate_bank(bank)
        if not len(rows):
            return np.zeros((0, self.geometry.row_bits), dtype=np.uint8)
        return np.stack([self.read_row_raw(bank, int(row)) for row in rows])

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh_row(self, bank: int, row: int) -> None:
        """Refresh one logical row, clearing its wordline's accumulated exposure."""
        self.geometry.validate_address(bank, row)
        wordline = self.remapper.logical_to_physical(row)
        self._refresh_wordline(bank, wordline)
        self.stats.refreshes += 1

    def refresh_all(self) -> None:
        """Refresh every row in the chip."""
        self._exposure.clear()
        for state in self._rows.values():
            state.epoch += 1
        self._noise_cache.clear()
        self.stats.refreshes += 1

    def _refresh_wordline(self, bank: int, wordline: int) -> None:
        self._exposure.pop((bank, wordline), None)
        for logical in self.remapper.physical_to_logical(wordline):
            if not 0 <= logical < self.geometry.rows_per_bank:
                continue
            state = self._rows.get((bank, logical))
            if state is not None:
                state.epoch += 1
            self._noise_cache.pop((bank, logical), None)

    # ------------------------------------------------------------------
    # Disturbance kernel (sequential)
    # ------------------------------------------------------------------
    def _apply_aggressor(self, bank: int, aggressor_row: int, count: int) -> int:
        """Apply ``count`` activations of one aggressor row and induce flips."""
        aggressor_wordline = self.remapper.logical_to_physical(aggressor_row)
        # Opening the aggressor row restores its own charge.
        self._exposure[(bank, aggressor_wordline)] = 0.0
        aggressor_bits = self._wordline_bits(bank, aggressor_wordline)
        new_flips = 0
        max_wordline = self.remapper.num_wordlines(self.geometry.rows_per_bank)
        for distance, coupling in self.profile.distance_coupling.items():
            for victim_wordline in (aggressor_wordline - distance, aggressor_wordline + distance):
                if not 0 <= victim_wordline < max_wordline:
                    continue
                key = (bank, victim_wordline)
                self._exposure[key] = self._exposure.get(key, 0.0) + coupling * count
                new_flips += self._disturb_wordline(
                    bank, victim_wordline, self._exposure[key], aggressor_bits
                )
        self.stats.bit_flips_induced += new_flips
        return new_flips

    def _wordline_bits(self, bank: int, wordline: int) -> Optional[np.ndarray]:
        """Stored bits of the (first) logical row on a physical wordline."""
        for logical in self.remapper.physical_to_logical(wordline):
            if not 0 <= logical < self.geometry.rows_per_bank:
                continue
            state = self._rows.get((bank, logical))
            if state is not None:
                return state.bits
            return np.zeros(self.geometry.row_bits, dtype=np.uint8)
        return None

    def _disturb_wordline(
        self,
        bank: int,
        victim_wordline: int,
        exposure: float,
        aggressor_bits: Optional[np.ndarray],
    ) -> int:
        """Flip cells on a victim wordline whose thresholds are exceeded."""
        if aggressor_bits is None:
            aggressor_bits = np.zeros(self.geometry.row_bits, dtype=np.uint8)
        flips = 0
        for logical in self.remapper.physical_to_logical(victim_wordline):
            if not 0 <= logical < self.geometry.rows_per_bank:
                continue
            state = self._rows.get((bank, logical))
            if state is None:
                # A row that has never been written holds no meaningful data;
                # flips in it would not be observable, so skip the work.
                continue
            thresholds = self._effective_thresholds(bank, logical, state.epoch)
            eligible = thresholds <= exposure
            if not eligible.any():
                continue
            required_victim, required_aggressor, required_parity = self._cell_classes(bank, logical)
            match = (
                eligible
                & (state.bits == required_victim)
                & (aggressor_bits == required_aggressor)
                & ((required_parity == 2) | (self._column_parity == required_parity))
            )
            flip_count = int(match.sum())
            if flip_count:
                state.bits[match] ^= 1
                flips += flip_count
        return flips

    def _base_thresholds(self, bank: int, row: int) -> np.ndarray:
        """Per-cell RowHammer thresholds (exposure units) for a logical row."""
        key = (bank, row)
        cached = self._thresholds.get(key)
        if cached is not None:
            return cached
        thresholds = sample_threshold_row(
            self.seed,
            bank,
            row,
            self.geometry.row_bits,
            self._threshold_scale,
            self.profile.flip_slope,
            self._threshold_floor,
            self._planted_cell,
        )
        self._thresholds[key] = thresholds
        return thresholds

    def _effective_thresholds(self, bank: int, row: int, epoch: int) -> np.ndarray:
        """Base thresholds with per-refresh-epoch jitter applied."""
        sigma = self.profile.threshold_noise_sigma
        base = self._base_thresholds(bank, row)
        if sigma <= 0:
            return base
        cached = self._noise_cache.get((bank, row))
        if cached is not None and cached[0] == epoch:
            noise = cached[1]
        else:
            noise = sample_noise_row(
                self.seed, bank, row, epoch, self.geometry.row_bits, sigma
            )
            self._noise_cache[(bank, row)] = (epoch, noise)
        return base * noise

    def _cell_classes(self, bank: int, row: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell coupling-class requirements for a logical row."""
        key = (bank, row)
        cached = self._classes.get(key)
        if cached is not None:
            return cached
        result = sample_class_row(
            self.seed, bank, row, self.geometry.row_bits, self.profile, self._planted_cell
        )
        self._classes[key] = result
        return result
