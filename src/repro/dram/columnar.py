"""Columnar (structure-of-arrays) per-bank chip state and the cell law.

The behavioural chip model used to keep per-row Python dicts -- one
``_RowState`` object per written row, one float per exposed wordline.  At
population scale (Table 1 is 1580 chips) that made every hammer a chain of
dict lookups.  This module holds the columnar replacement: one
:class:`BankColumns` per touched bank, with whole-bank numpy arrays that
``activate`` / ``hammer_pair`` / ``refresh_all`` operate on as single
vectorized ops.

Bit-identity contract
---------------------
Every per-cell fact of a chip (flip threshold, coupling class, per-refresh
jitter) follows from one :class:`CellLaw`, fixed when the chip is built,
and the cell's address.  Every stochastic stream is sampled *per row* from
its own generator (``make_rng(seed, kind, bank, row[, epoch])``), exactly
as the dict-based implementation did.  Because the streams are
independent, materializing a row's thresholds into
``BankColumns.thresholds[row]`` lazily -- in whatever order rows happen to
be touched -- produces bit-identical values to the old per-row dict cache.
The module-level samplers ``sample_threshold_row(law, bank, row)``,
``sample_class_row(law, bank, row)`` and ``sample_noise_row(law, bank,
row, epoch)`` take nothing but the law and the address and are the single
source of truth for those draws; :class:`BankColumns` (for
:class:`~repro.dram.chip.DramChip`) and
:class:`~repro.dram.reference.ReferenceDramChip` both call them with their
chip's law, which is what keeps the columnar chip and the oracle
bit-identical by construction (and what the differential suite pins).

:class:`~repro.dram.chip.DramChip` draws a row's noise only when some cell
of the row can flip: below the row's *flip floor* (its smallest base
threshold times ``exp(-NOISE_Z_BOUND * sigma)``) no noise numpy's sampler
can return makes a cell eligible.  Streams are independent, so a skipped
(row, epoch) stream drawn later returns the same values and skipping
changes no payload.  :class:`~repro.dram.reference.ReferenceDramChip` never
skips, so the differential suite checks every skip;
``tests/dram/test_noise_skip.py`` pins the bound and checks each skip of
three studies against the row's noise drawn anyway.

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
``thresholds``        (R, B)  float64  base per-cell flip thresholds (lazy)
``flip_floor``        (R,)    float64  the row's smallest base threshold times
                                       ``exp(-NOISE_Z_BOUND * sigma)``: no cell
                                       flips below this exposure (filled with
                                       the row's thresholds)
``req_victim`` /
``req_aggressor``     (R, B)  uint8    coupling-class bit requirements (lazy)
``parity_ok``         (R, B)  bool     the cell's column meets its class's
                                       column-parity requirement (lazy)
``noise``             (R, B)  float64  per-epoch threshold jitter (lazy,
                                       valid where ``noise_epoch == epoch``)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dram.vulnerability import VulnerabilityProfile
from repro.utils.rng import derive_seed, make_rng

#: Version of the chip model: the cell law below, the row samplers and the
#: hammer, refresh and read kernels of both chip backends.  Bump it with any
#: change that moves what a chip study observes; every chip study's result
#: store entries record it, so entries written at another version read as
#: stale misses and are recomputed once (see :mod:`repro.experiments.store`).
CHIP_MODEL_VERSION = 1


@dataclass(frozen=True)
class CellLaw:
    """What one chip's per-cell thresholds, classes and jitter are drawn from.

    ``threshold_scale`` is the power-law coefficient of the threshold
    distribution and ``threshold_floor`` the planted weakest cell's
    threshold, which no other cell falls below; ``planted_cell`` is that
    cell's ``(bank, row, column)``.  The profile supplies the flip slope,
    the coupling classes and the jitter's sigma.
    """

    seed: int
    row_bits: int
    threshold_scale: float
    threshold_floor: float
    planted_cell: Tuple[int, int, int]
    profile: VulnerabilityProfile


def sample_threshold_row(law: CellLaw, bank: int, row: int) -> np.ndarray:
    """Base per-cell thresholds of one logical row (exposure units).

    Inverse transform of ``P(T <= e) = scale * e**slope`` (capped at 1),
    floored at the planted weakest cell's threshold; the planted cell itself
    receives exactly the floor.
    """
    rng = make_rng(law.seed, "thresholds", bank, row)
    uniform = rng.random(law.row_bits)
    thresholds = (uniform / law.threshold_scale) ** (1.0 / law.profile.flip_slope)
    np.maximum(thresholds, law.threshold_floor, out=thresholds)
    planted_bank, planted_row, planted_column = law.planted_cell
    if (bank, row) == (planted_bank, planted_row):
        thresholds[planted_column] = law.threshold_floor
    return thresholds


def sample_class_row(
    law: CellLaw, bank: int, row: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling-class requirement arrays of one logical row.

    Returns ``(required_victim_bit, required_aggressor_bit, required_parity)``
    with 2 in ``required_parity`` meaning "any column".  The planted weakest
    cell is forced into the profile's dominant class so the chip's worst-case
    data pattern always exposes it.
    """
    rng = make_rng(law.seed, "classes", bank, row)
    profile, row_bits = law.profile, law.row_bits
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
    planted_bank, planted_row, planted_column = law.planted_cell
    if (bank, row) == (planted_bank, planted_row):
        dominant = profile.coupling_classes[0]
        required_victim[planted_column] = dominant.victim_bit
        required_aggressor[planted_column] = dominant.aggressor_bit
        required_parity[planted_column] = (
            2 if dominant.column_parity is None else dominant.column_parity
        )
    return required_victim, required_aggressor, required_parity


#: Bound on ``|z|`` for every standard normal numpy's ziggurat sampler
#: returns.  Its tail branch returns ``r + x`` with ``r = 3.6541528853610088``
#: and accepts ``x`` only when ``x * x < 2 * y``, where ``y = -log(1 - U)`` of
#: a 53-bit uniform ``U`` is at most ``53 * ln 2``; every other branch
#: returns ``|z| < r``.  So ``|z| < r + sqrt(106 * ln 2) ~= 12.226``.
#: ``tests/dram/test_noise_skip.py`` pins it.
NOISE_Z_BOUND = 12.3


def sample_noise_row(law: CellLaw, bank: int, row: int, epoch: int) -> np.ndarray:
    """Multiplicative per-refresh-epoch threshold jitter of one logical row.

    Bit for bit ``np.exp(make_rng(law.seed, "noise", bank, row,
    epoch).normal(0.0, sigma, law.row_bits))``: ``normal(0.0, sigma)`` is
    ``0.0 + sigma * z`` for the same standard normals ``z``, scaled and
    exponentiated here in place.
    """
    rng = np.random.default_rng(derive_seed(law.seed, "noise", bank, row, epoch))
    noise = rng.standard_normal(law.row_bits)
    noise *= law.profile.threshold_noise_sigma
    return np.exp(noise, out=noise)


class BankColumns:
    """Structure-of-arrays state of one bank of one chip.

    Data arrays (``bits`` .. ``exposure``) are allocated eagerly -- they are
    touched by the first write or activation that creates the bank.
    Calibration arrays (thresholds and flip floors, classes, noise) are
    allocated on first use and filled row-by-row on demand from the chip's
    :class:`CellLaw`, so a chip that only ever hammers a few rows samples
    no more generator streams than the dict implementation did.
    """

    __slots__ = (
        "law",
        "bank",
        "rows",
        "bits",
        "check_bits",
        "written",
        "flipped",
        "epoch",
        "exposure",
        "thresholds",
        "flip_floor",
        "thr_sampled",
        "req_victim",
        "req_aggressor",
        "parity_ok",
        "cls_sampled",
        "noise",
        "noise_epoch",
    )

    def __init__(
        self, law: CellLaw, bank: int, rows: int, wordlines: int, check_bits_per_row: int
    ) -> None:
        self.law = law
        self.bank = bank
        self.rows = rows
        self.bits = np.zeros((rows, law.row_bits), dtype=np.uint8)
        self.check_bits: Optional[np.ndarray] = (
            np.zeros((rows, check_bits_per_row), dtype=np.uint8)
            if check_bits_per_row
            else None
        )
        self.written = np.zeros(rows, dtype=bool)
        self.flipped = np.zeros(rows, dtype=bool)
        self.epoch = np.zeros(rows, dtype=np.int64)
        self.exposure = np.zeros(wordlines, dtype=np.float64)
        self.thresholds: Optional[np.ndarray] = None
        self.flip_floor: Optional[np.ndarray] = None
        self.thr_sampled = np.zeros(rows, dtype=bool)
        self.req_victim: Optional[np.ndarray] = None
        self.req_aggressor: Optional[np.ndarray] = None
        self.parity_ok: Optional[np.ndarray] = None
        self.cls_sampled = np.zeros(rows, dtype=bool)
        self.noise: Optional[np.ndarray] = None
        self.noise_epoch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Lazy calibration columns
    # ------------------------------------------------------------------
    def may_flip(self, rows_idx: np.ndarray, exposure: np.ndarray) -> np.ndarray:
        """Which of a set of distinct rows have reached their flip floor at ``exposure``.

        Samples missing rows' thresholds on demand, filling ``thresholds``
        and ``flip_floor`` together.
        """
        if self.thresholds is None:
            self.thresholds = np.empty((self.rows, self.law.row_bits), dtype=np.float64)
            self.flip_floor = np.empty(self.rows, dtype=np.float64)
        missing = rows_idx[~self.thr_sampled[rows_idx]]
        if missing.size:
            lowest_jitter = math.exp(-NOISE_Z_BOUND * self.law.profile.threshold_noise_sigma)
            for row in missing.tolist():
                thresholds = sample_threshold_row(self.law, self.bank, row)
                self.thresholds[row] = thresholds
                self.flip_floor[row] = thresholds.min() * lowest_jitter
            self.thr_sampled[missing] = True
        return exposure >= self.flip_floor[rows_idx]

    def classes_for(
        self, rows_idx: np.ndarray, column_parity: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coupling-class requirements for a set of distinct rows (lazy per row).

        Returns ``(required_victim_bit, required_aggressor_bit, parity_ok)``.
        A row's ``parity_ok`` (its cells' column parities, ``column_parity``,
        tested against its classes' requirements) is computed once, when the
        row's classes are sampled.
        """
        if self.req_victim is None:
            shape = (self.rows, self.law.row_bits)
            self.req_victim = np.empty(shape, dtype=np.uint8)
            self.req_aggressor = np.empty(shape, dtype=np.uint8)
            self.parity_ok = np.empty(shape, dtype=bool)
        missing = rows_idx[~self.cls_sampled[rows_idx]]
        for row in missing.tolist():
            rv, ra, rp = sample_class_row(self.law, self.bank, row)
            self.req_victim[row] = rv
            self.req_aggressor[row] = ra
            self.parity_ok[row] = (rp == 2) | (column_parity == rp)
        self.cls_sampled[missing] = True
        return (
            self.req_victim[rows_idx],
            self.req_aggressor[rows_idx],
            self.parity_ok[rows_idx],
        )

    def noise_for(self, rows_idx: np.ndarray) -> np.ndarray:
        """Per-epoch threshold jitter for a set of distinct rows.

        A row's cached noise is valid while its refresh epoch is unchanged
        (epochs only ever increase, so an epoch never needs two samples --
        the same invariant the dict-based ``(epoch, noise)`` cache relied
        on).
        """
        if self.noise is None:
            self.noise = np.empty((self.rows, self.law.row_bits), dtype=np.float64)
            self.noise_epoch = np.full(self.rows, -1, dtype=np.int64)
        stale = rows_idx[self.noise_epoch[rows_idx] != self.epoch[rows_idx]]
        for row, epoch in zip(stale.tolist(), self.epoch[stale].tolist()):
            self.noise[row] = sample_noise_row(self.law, self.bank, row, epoch)
        self.noise_epoch[stale] = self.epoch[stale]
        return self.noise[rows_idx]
