"""Columnar (structure-of-arrays) per-bank chip state.

The behavioural chip model used to keep per-row Python dicts -- one
``_RowState`` object per written row, one float per exposed wordline.  At
population scale (Table 1 is 1580 chips) that made every hammer a chain of
dict lookups.  This module holds the columnar replacement: one
:class:`BankColumns` per touched bank, with whole-bank numpy arrays that
``activate`` / ``hammer_pair`` / ``refresh_all`` operate on as single
vectorized ops.

Bit-identity contract
---------------------
Every stochastic stream is sampled *per row* from its own generator
(``make_rng(seed, kind, bank, row[, epoch])``), exactly as the dict-based
implementation did.  Because the streams are independent, materializing a
row's thresholds into ``BankColumns.thresholds[row]`` lazily -- in whatever
order rows happen to be touched -- produces bit-identical values to the
old per-row dict cache.  The module-level ``sample_*_row`` helpers are the
single source of truth for those draws; :class:`BankColumns` (for
:class:`~repro.dram.chip.DramChip`) and
:class:`~repro.dram.reference.ReferenceDramChip` both call them, which is
what keeps the columnar chip and the oracle bit-identical by construction
(and what the differential suite pins).

Array layout (per bank; ``R`` rows, ``B`` row bits, ``W`` wordlines)
--------------------------------------------------------------------
``bits``              (R, B)  uint8    stored data bits (zeros until written)
``check_bits``        (R, K)  uint8    on-die ECC check bits (ECC chips only)
``written``           (R,)    bool     row has been written at least once
``flipped``           (R,)    bool     stored data bits flipped by disturbance
                                       since the row's last write (on-die-ECC
                                       reads decode only these rows)
``epoch``             (R,)    int64    refresh epoch (0 until the row's first
                                       write; increments on write/refresh)
``exposure``          (W,)    float64  accumulated weighted disturbance
``exposure_present``  (W,)    bool     wordline has an exposure entry (pristine
                                       tracking mirrors the old dict's *key
                                       presence*, including zero-valued keys)
``thresholds``        (R, B)  float64  base per-cell flip thresholds (lazy)
``req_victim`` /
``req_aggressor``     (R, B)  uint8    coupling-class bit requirements (lazy)
``parity_ok``         (R, B)  bool     the cell's column meets its class's
                                       column-parity requirement (lazy)
``noise``             (R, B)  float64  per-epoch threshold jitter (lazy,
                                       valid where ``noise_epoch == epoch``)
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import make_rng


def sample_threshold_row(
    seed: int,
    bank: int,
    row: int,
    row_bits: int,
    scale: float,
    slope: float,
    floor: float,
    planted_cell: Tuple[int, int, int],
) -> np.ndarray:
    """Base per-cell thresholds of one logical row (exposure units).

    Inverse transform of ``P(T <= e) = scale * e**slope`` (capped at 1),
    floored at the planted weakest cell's threshold; the planted cell itself
    receives exactly the floor.
    """
    rng = make_rng(seed, "thresholds", bank, row)
    uniform = rng.random(row_bits)
    thresholds = (uniform / scale) ** (1.0 / slope)
    np.maximum(thresholds, floor, out=thresholds)
    planted_bank, planted_row, planted_column = planted_cell
    if (bank, row) == (planted_bank, planted_row):
        thresholds[planted_column] = floor
    return thresholds


def sample_class_row(
    seed: int,
    bank: int,
    row: int,
    row_bits: int,
    profile,
    planted_cell: Tuple[int, int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling-class requirement arrays of one logical row.

    Returns ``(required_victim_bit, required_aggressor_bit, required_parity)``
    with 2 in ``required_parity`` meaning "any column".  The planted weakest
    cell is forced into the profile's dominant class so the chip's worst-case
    data pattern always exposes it.
    """
    rng = make_rng(seed, "classes", bank, row)
    probabilities = profile.class_probabilities()
    class_indices = rng.choice(len(probabilities), size=row_bits, p=probabilities)
    required_victim = np.empty(row_bits, dtype=np.uint8)
    required_aggressor = np.empty(row_bits, dtype=np.uint8)
    required_parity = np.empty(row_bits, dtype=np.uint8)
    for index, cls in enumerate(profile.coupling_classes):
        mask = class_indices == index
        required_victim[mask] = cls.victim_bit
        required_aggressor[mask] = cls.aggressor_bit
        required_parity[mask] = 2 if cls.column_parity is None else cls.column_parity
    planted_bank, planted_row, planted_column = planted_cell
    if (bank, row) == (planted_bank, planted_row):
        dominant = profile.coupling_classes[0]
        required_victim[planted_column] = dominant.victim_bit
        required_aggressor[planted_column] = dominant.aggressor_bit
        required_parity[planted_column] = (
            2 if dominant.column_parity is None else dominant.column_parity
        )
    return required_victim, required_aggressor, required_parity


def sample_noise_row(
    seed: int, bank: int, row: int, epoch: int, row_bits: int, sigma: float
) -> np.ndarray:
    """Multiplicative per-refresh-epoch threshold jitter of one logical row."""
    rng = make_rng(seed, "noise", bank, row, epoch)
    return np.exp(rng.normal(0.0, sigma, row_bits))


class BankColumns:
    """Structure-of-arrays state of one bank of one chip.

    Data arrays (``bits`` .. ``exposure_present``) are allocated eagerly --
    they are touched by the first write or activation that creates the bank.
    Calibration arrays (thresholds, classes, noise) are allocated on first
    use and filled row-by-row on demand via the ``*_for`` accessors, so a
    chip that only ever hammers a few rows samples no more generator streams
    than the dict implementation did.
    """

    __slots__ = (
        "bank",
        "rows",
        "row_bits",
        "bits",
        "check_bits",
        "written",
        "flipped",
        "epoch",
        "exposure",
        "exposure_present",
        "thresholds",
        "thr_sampled",
        "req_victim",
        "req_aggressor",
        "parity_ok",
        "cls_sampled",
        "noise",
        "noise_epoch",
    )

    def __init__(
        self, bank: int, rows: int, row_bits: int, wordlines: int, check_bits_per_row: int
    ) -> None:
        self.bank = bank
        self.rows = rows
        self.row_bits = row_bits
        self.bits = np.zeros((rows, row_bits), dtype=np.uint8)
        self.check_bits: Optional[np.ndarray] = (
            np.zeros((rows, check_bits_per_row), dtype=np.uint8)
            if check_bits_per_row
            else None
        )
        self.written = np.zeros(rows, dtype=bool)
        self.flipped = np.zeros(rows, dtype=bool)
        self.epoch = np.zeros(rows, dtype=np.int64)
        self.exposure = np.zeros(wordlines, dtype=np.float64)
        self.exposure_present = np.zeros(wordlines, dtype=bool)
        self.thresholds: Optional[np.ndarray] = None
        self.thr_sampled = np.zeros(rows, dtype=bool)
        self.req_victim: Optional[np.ndarray] = None
        self.req_aggressor: Optional[np.ndarray] = None
        self.parity_ok: Optional[np.ndarray] = None
        self.cls_sampled = np.zeros(rows, dtype=bool)
        self.noise: Optional[np.ndarray] = None
        self.noise_epoch: Optional[np.ndarray] = None

    @property
    def touched(self) -> bool:
        """Whether any observable state exists (written rows or exposure keys)."""
        return bool(self.written.any() or self.exposure_present.any())

    # ------------------------------------------------------------------
    # Lazy calibration columns
    # ------------------------------------------------------------------
    def thresholds_for(
        self,
        rows_idx: np.ndarray,
        *,
        seed: int,
        scale: float,
        slope: float,
        floor: float,
        planted_cell: Tuple[int, int, int],
    ) -> np.ndarray:
        """Base thresholds for a set of distinct rows, sampling missing rows on demand."""
        if self.thresholds is None:
            self.thresholds = np.empty((self.rows, self.row_bits), dtype=np.float64)
        missing = rows_idx[~self.thr_sampled[rows_idx]]
        for row in missing.tolist():
            self.thresholds[row] = sample_threshold_row(
                seed, self.bank, row, self.row_bits, scale, slope, floor, planted_cell
            )
        self.thr_sampled[missing] = True
        return self.thresholds[rows_idx]

    def classes_for(
        self,
        rows_idx: np.ndarray,
        *,
        seed: int,
        profile,
        planted_cell: Tuple[int, int, int],
        column_parity: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coupling-class requirements for a set of distinct rows (lazy per row).

        Returns ``(required_victim_bit, required_aggressor_bit, parity_ok)``.
        A row's ``parity_ok`` (its cells' column parities, ``column_parity``,
        tested against its classes' requirements) is computed once, when the
        row's classes are sampled.
        """
        if self.req_victim is None:
            self.req_victim = np.empty((self.rows, self.row_bits), dtype=np.uint8)
            self.req_aggressor = np.empty((self.rows, self.row_bits), dtype=np.uint8)
            self.parity_ok = np.empty((self.rows, self.row_bits), dtype=bool)
        missing = rows_idx[~self.cls_sampled[rows_idx]]
        for row in missing.tolist():
            rv, ra, rp = sample_class_row(
                seed, self.bank, row, self.row_bits, profile, planted_cell
            )
            self.req_victim[row] = rv
            self.req_aggressor[row] = ra
            self.parity_ok[row] = (rp == 2) | (column_parity == rp)
        self.cls_sampled[missing] = True
        return (
            self.req_victim[rows_idx],
            self.req_aggressor[rows_idx],
            self.parity_ok[rows_idx],
        )

    def noise_for(self, rows_idx: np.ndarray, *, seed: int, sigma: float) -> np.ndarray:
        """Per-epoch threshold jitter for a set of distinct rows.

        A row's cached noise is valid while its refresh epoch is unchanged
        (epochs only ever increase, so an epoch never needs two samples --
        the same invariant the dict-based ``(epoch, noise)`` cache relied
        on).
        """
        if self.noise is None:
            self.noise = np.empty((self.rows, self.row_bits), dtype=np.float64)
            self.noise_epoch = np.full(self.rows, -1, dtype=np.int64)
        stale = rows_idx[self.noise_epoch[rows_idx] != self.epoch[rows_idx]]
        for row, epoch in zip(stale.tolist(), self.epoch[stale].tolist()):
            self.noise[row] = sample_noise_row(seed, self.bank, row, epoch, self.row_bits, sigma)
        self.noise_epoch[stale] = self.epoch[stale]
        return self.noise[rows_idx]
