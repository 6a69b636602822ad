"""Behavioural DRAM chip model with circuit-level RowHammer disturbance.

A :class:`DramChip` exposes the same observable operations the paper's test
infrastructure performs against real chips:

* ``write_row`` / ``read_row`` -- store and retrieve row data (the read path
  goes through on-die ECC for LPDDR4 chips, which cannot be disabled);
* ``activate`` -- open a row, disturbing physically nearby rows;
* ``hammer_pair`` -- bulk double-sided hammering (the worst-case access
  sequence of Section 4.3);
* ``refresh_row`` / ``refresh_all`` -- restore cell charge, resetting the
  accumulated disturbance;
* ``write_rows`` / ``read_rows`` / ``read_rows_raw`` -- batch counterparts
  that move whole row-lists in one vectorized payload, the way the FPGA
  testers the paper builds on batch row programs to the board.

Disturbance model
-----------------
Each activation of a physical wordline adds *weighted exposure* to nearby
wordlines according to the profile's ``distance_coupling``.  A cell flips
once the accumulated exposure of its wordline (since the last refresh or
activation of that wordline) reaches the cell's sampled threshold *and* the
stored data matches the cell's coupling class (see
:mod:`repro.dram.vulnerability`).  Flipped cells stay flipped until the row
is rewritten; refreshing a row resets its exposure but cannot recover a bit
that has already flipped, exactly as in a real device.

State layout
------------
Chip state is columnar: each touched bank owns one
:class:`~repro.dram.columnar.BankColumns` of whole-bank numpy arrays (bits,
refresh epochs, wordline exposure, lazily sampled thresholds / coupling
classes / noise), so an aggressor application disturbs every victim row of
the blast radius in one vectorized op instead of per-row dict updates.
:class:`~repro.dram.reference.ReferenceDramChip` retains the original
dict-of-rows implementation as the bit-identity oracle for the differential
suite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dram.columnar import BankColumns
from repro.dram.geometry import ChipGeometry
from repro.dram.remapping import RowRemapper, remapper_for
from repro.dram.spec import DramTypeSpec, spec_for
from repro.dram.vulnerability import VulnerabilityProfile
from repro.ecc.ondie import OnDieEcc
from repro.utils.rng import make_rng

#: Default geometry used when none is supplied: small enough that exhaustive
#: characterization sweeps finish quickly, large enough for meaningful
#: per-word and spatial statistics.
DEFAULT_GEOMETRY = ChipGeometry(banks=1, rows_per_bank=128, row_bytes=64)

RowData = Union[int, bytes, bytearray, np.ndarray]


@dataclass
class ChipStats:
    """Cumulative operation counters for one chip."""

    activations: int = 0
    refreshes: int = 0
    row_writes: int = 0
    row_reads: int = 0
    bit_flips_induced: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.activations = 0
        self.refreshes = 0
        self.row_writes = 0
        self.row_reads = 0
        self.bit_flips_induced = 0

    def merge(self, other: "ChipStats") -> None:
        """Add another counter set into this one.

        Used by the experiment executors, which run studies against a copy
        of the chip and fold the copy's counters back into the original.
        """
        self.activations += other.activations
        self.refreshes += other.refreshes
        self.row_writes += other.row_writes
        self.row_reads += other.row_reads
        self.bit_flips_induced += other.bit_flips_induced


class _CalibratedChip:
    """Construction-time calibration shared by every chip backend.

    Owns everything a chip *is* before any operation touches it: profile,
    geometry, remapper, on-die ECC, the sampled ``HC_first`` target, the
    derived threshold power-law scale/floor, and the planted weakest cell.
    Subclasses supply the state representation and the disturb kernel
    (:class:`DramChip` columnar arrays,
    :class:`~repro.dram.reference.ReferenceDramChip` per-row dicts).
    """

    #: Hammer-count ceiling used by the paper's characterization (Section 5.1).
    TEST_LIMIT_HC = 150_000

    def __init__(
        self,
        profile: VulnerabilityProfile,
        geometry: Optional[ChipGeometry] = None,
        seed: int = 0,
        hcfirst_target: Optional[float] = None,
        chip_id: str = "",
    ) -> None:
        self.profile = profile
        self.geometry = geometry or DEFAULT_GEOMETRY
        self.seed = seed
        self.chip_id = chip_id or f"{profile.type_node.value}-{profile.manufacturer}-{seed}"
        self.spec: DramTypeSpec = spec_for(profile.dram_type)
        self.remapper: RowRemapper = remapper_for(profile.remapper_name)
        self.stats = ChipStats()

        self._ondie_ecc: Optional[OnDieEcc] = None
        if profile.on_die_ecc:
            self._ondie_ecc = OnDieEcc(word_data_bits=128)
            # Validate the geometry against the ECC word size early.
            self._ondie_ecc.words_per_row(self.geometry.row_bits)

        chip_rng = make_rng(seed, "chip", profile.type_node.value, profile.manufacturer)
        if hcfirst_target is not None:
            self._hcfirst_target = float(hcfirst_target)
        else:
            sampled = profile.sample_chip_hcfirst(chip_rng)
            if sampled is None:
                # Not RowHammerable below the test limit: place the weakest
                # cell safely above 150k hammers.
                self._hcfirst_target = float(chip_rng.uniform(160_000.0, 500_000.0))
            else:
                self._hcfirst_target = float(sampled)
        # On-die ECC hides the first raw bit flip in every 128-bit word, so a
        # chip whose *visible* HC_first should equal the target needs its raw
        # (pre-ECC) weakest cell to fail earlier: roughly at the point where a
        # second flip is expected to land in some already-flipped word (a
        # birthday-bound argument over the chip's ECC words).
        calibration_target = self._hcfirst_target
        if self._ondie_ecc is not None:
            words = self.geometry.total_cells / self._ondie_ecc.word_data_bits
            masking_factor = (2.0 * math.log(2.0) * words) ** (
                1.0 / (2.0 * profile.flip_slope)
            )
            calibration_target = self._hcfirst_target / masking_factor
        self._threshold_scale = profile.threshold_scale(
            calibration_target, self.geometry.total_cells
        )
        # The chip's weakest cell is planted explicitly: one deterministic
        # cell receives exactly the target threshold and no sampled threshold
        # may fall below it.  This pins the chip's measured HC_first to its
        # sampled target (the sampled power-law tail would otherwise make the
        # measured minimum a noisy random variable), while leaving the
        # flip-count-versus-HC curve above HC_first unchanged.
        self._threshold_floor = 2.0 * calibration_target
        self._planted_cell = self._choose_planted_cell(chip_rng)
        self._column_parity = (np.arange(self.geometry.row_bits) % 2).astype(np.uint8)

    def _choose_planted_cell(self, rng) -> Tuple[int, int, int]:
        """Pick the (bank, row, column) of the chip's weakest cell.

        The row is kept away from the bank edges so the cell is always
        exercised by a full double-sided hammer, and the column respects the
        dominant coupling class's column-parity requirement so the cell is
        exposed by the chip's worst-case data pattern.
        """
        margin = (self.profile.blast_radius + 2) * (
            2 if self.remapper.name == "paired" else 1
        )
        rows = self.geometry.rows_per_bank
        if rows > 2 * margin + 1:
            row = int(rng.integers(margin, rows - margin))
        else:
            row = rows // 2
        bank = int(rng.integers(0, self.geometry.banks))
        dominant = self.profile.coupling_classes[0]
        column = int(rng.integers(0, self.geometry.row_bits))
        if dominant.column_parity is not None and column % 2 != dominant.column_parity:
            column = (column + 1) % self.geometry.row_bits
        return (bank, row, column)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hcfirst_target(self) -> float:
        """The chip's sampled target ``HC_first`` in hammers."""
        return self._hcfirst_target

    @property
    def weakest_cell(self) -> Tuple[int, int, int]:
        """(bank, row, bit index) of the chip's weakest (planted) cell.

        Exposed for calibration tests and examples; a real characterization
        discovers this location through testing (see
        :func:`repro.core.first_flip.run_hcfirst_search`).
        """
        return self._planted_cell

    @property
    def has_on_die_ecc(self) -> bool:
        """Whether reads pass through an undisableable on-die SEC ECC."""
        return self._ondie_ecc is not None

    def is_rowhammerable(self, hammer_limit: int = TEST_LIMIT_HC) -> bool:
        """Whether the chip's weakest cell is expected to flip within the limit."""
        return self._hcfirst_target <= hammer_limit

    # ------------------------------------------------------------------
    # Shared operation surface (delegates to the backend kernels)
    # ------------------------------------------------------------------
    def fill_bank(self, bank: int, victim_byte: int, aggressor_byte: Optional[int] = None) -> None:
        """Write every row of a bank with a repeated byte pattern.

        When ``aggressor_byte`` is given, rows alternate between the victim
        byte (even physical wordlines) and the aggressor byte (odd physical
        wordlines); this matches how row-stripe and checkered patterns are
        laid out in memory before hammering (Section 4.3).
        """
        rows = range(self.geometry.rows_per_bank)
        if aggressor_byte is None:
            data: List[RowData] = [victim_byte] * self.geometry.rows_per_bank
        else:
            data = [
                victim_byte
                if self.remapper.logical_to_physical(row) % 2 == 0
                else aggressor_byte
                for row in rows
            ]
        self.write_rows(bank, rows, data)

    def activate(self, bank: int, row: int, count: int = 1) -> int:
        """Activate a logical row ``count`` times (single-sided hammering).

        Returns the number of new bit flips induced in neighbouring rows.
        """
        self.geometry.validate_address(bank, row)
        if count <= 0:
            return 0
        self.stats.activations += count
        return self._apply_aggressor(bank, row, count)

    def hammer_pair(self, bank: int, row_a: int, row_b: int, count: int) -> int:
        """Hammer two aggressor rows ``count`` times each (double-sided).

        One *hammer* is one activation of each aggressor (paper Section 4.3),
        so this issues ``2 * count`` activations in total.  Returns the
        number of new bit flips induced.
        """
        self.geometry.validate_address(bank, row_a)
        self.geometry.validate_address(bank, row_b)
        if count <= 0:
            return 0
        self.stats.activations += 2 * count
        flips = self._apply_aggressor(bank, row_a, count)
        flips += self._apply_aggressor(bank, row_b, count)
        return flips

    def _apply_aggressor(self, bank: int, aggressor_row: int, count: int) -> int:
        raise NotImplementedError

    def write_rows(self, bank: int, rows: Sequence[int], data) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _coerce_row_bits(self, data: RowData) -> np.ndarray:
        """Convert supported row-data forms into a bit array."""
        row_bytes = self.geometry.row_bytes
        if isinstance(data, (int, np.integer)):
            if not 0 <= int(data) <= 0xFF:
                raise ValueError("fill byte must be within [0, 255]")
            byte_array = np.full(row_bytes, int(data), dtype=np.uint8)
            return np.unpackbits(byte_array)
        array = np.asarray(bytearray(data) if isinstance(data, (bytes, bytearray)) else data)
        array = array.astype(np.uint8)
        if array.size == row_bytes:
            return np.unpackbits(array)
        if array.size == self.geometry.row_bits:
            return array.copy()
        raise ValueError(
            f"row data must be {row_bytes} bytes or {self.geometry.row_bits} bits, "
            f"got {array.size} elements"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(id={self.chip_id!r}, config={self.profile.type_node.value}/"
            f"{self.profile.manufacturer}, hcfirst_target={self._hcfirst_target:.0f})"
        )


class DramChip(_CalibratedChip):
    """One simulated DRAM chip with a calibrated RowHammer vulnerability.

    Parameters
    ----------
    profile:
        The :class:`~repro.dram.vulnerability.VulnerabilityProfile` of the
        chip's type-node configuration and manufacturer.
    geometry:
        Simulated chip dimensions; defaults to :data:`DEFAULT_GEOMETRY`.
    seed:
        Seed controlling every stochastic aspect of this chip (cell
        thresholds, coupling classes, chip-to-chip variation).
    hcfirst_target:
        Optional override of the chip's target ``HC_first`` in hammers.  When
        omitted it is sampled from the profile; chips the profile deems not
        RowHammerable receive a target above the 150k-hammer test limit.
    chip_id:
        Free-form identifier used in reports.

    State is columnar: one :class:`~repro.dram.columnar.BankColumns` per
    touched bank, in ``chip._banks``.
    """

    def __init__(
        self,
        profile: VulnerabilityProfile,
        geometry: Optional[ChipGeometry] = None,
        seed: int = 0,
        hcfirst_target: Optional[float] = None,
        chip_id: str = "",
    ) -> None:
        super().__init__(profile, geometry, seed, hcfirst_target, chip_id)
        self._banks: Dict[int, BankColumns] = {}
        self._num_wordlines = self.remapper.num_wordlines(self.geometry.rows_per_bank)

    def _bank(self, bank: int) -> BankColumns:
        columns = self._banks.get(bank)
        if columns is None:
            check_bits = (
                self._ondie_ecc.check_bits_per_row(self.geometry.row_bits)
                if self._ondie_ecc is not None
                else 0
            )
            columns = BankColumns(
                bank,
                self.geometry.rows_per_bank,
                self.geometry.row_bits,
                self._num_wordlines,
                check_bits,
            )
            self._banks[bank] = columns
        return columns

    @property
    def is_pristine(self) -> bool:
        """Whether the chip is still in its as-constructed state.

        True until the first row write or activation.  A pristine chip's
        observable behaviour is a pure function of its construction
        parameters, which is what lets the experiments result store key
        cached study results by those parameters alone.
        """
        return not any(columns.touched for columns in self._banks.values())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_row(self, bank: int, row: int, data: RowData) -> None:
        """Write a full row.

        ``data`` may be a fill byte (``int``), a byte buffer of exactly
        ``row_bytes`` bytes, or a bit array of ``row_bits`` bits.  Writing a
        row restores its charge: accumulated disturbance on its wordline is
        cleared and any previously flipped cells take the new value.
        """
        self.geometry.validate_address(bank, row)
        bits = self._coerce_row_bits(data)
        columns = self._bank(bank)
        columns.bits[row] = bits
        if self._ondie_ecc is not None:
            columns.check_bits[row] = self._ondie_ecc.encode_row(bits)
        columns.epoch[row] = columns.epoch[row] + 1 if columns.written[row] else 1
        columns.written[row] = True
        wordline = self.remapper.logical_to_physical(row)
        columns.exposure[wordline] = 0.0
        columns.exposure_present[wordline] = True
        self.stats.row_writes += 1

    def write_rows(self, bank: int, rows: Sequence[int], data) -> None:
        """Write a batch of rows in one vectorized payload.

        ``rows`` is a sequence of logical row numbers; ``data`` is either a
        single fill byte applied to every row or a sequence of per-row
        values accepted by :meth:`write_row`.  Semantically identical to
        writing the rows one at a time in order (duplicate rows fall back to
        exactly that).
        """
        self.geometry.validate_bank(bank)
        rows = [int(row) for row in rows]
        if isinstance(data, (int, np.integer)):
            data = [data] * len(rows)
        if len(data) != len(rows):
            raise ValueError(f"expected {len(rows)} row payloads, got {len(data)}")
        if not rows:
            return
        if len(set(rows)) != len(rows):
            # Later duplicates overwrite earlier ones; keep strict
            # write-at-a-time semantics for that (rare) case.
            for row, row_data in zip(rows, data):
                self.write_row(bank, row, row_data)
            return
        for row in rows:
            self.geometry.validate_address(bank, row)
        bits = np.stack([self._coerce_row_bits(row_data) for row_data in data])
        columns = self._bank(bank)
        index = np.asarray(rows, dtype=np.intp)
        columns.bits[index] = bits
        if self._ondie_ecc is not None:
            columns.check_bits[index] = self._ondie_ecc.encode_row(
                bits.reshape(-1)
            ).reshape(len(rows), -1)
        columns.epoch[index] = np.where(columns.written[index], columns.epoch[index] + 1, 1)
        columns.written[index] = True
        wordlines = np.asarray(
            [self.remapper.logical_to_physical(row) for row in rows], dtype=np.intp
        )
        columns.exposure[wordlines] = 0.0
        columns.exposure_present[wordlines] = True
        self.stats.row_writes += len(rows)

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Read a row as bytes, through on-die ECC when the chip has it."""
        self.geometry.validate_address(bank, row)
        self.stats.row_reads += 1
        columns = self._banks.get(bank)
        if columns is None or not columns.written[row]:
            return np.zeros(self.geometry.row_bytes, dtype=np.uint8)
        bits = columns.bits[row]
        if self._ondie_ecc is not None and columns.check_bits is not None:
            bits, _corrected = self._ondie_ecc.decode_row(bits, columns.check_bits[row])
        return np.packbits(bits)

    def read_rows(self, bank: int, rows: Sequence[int]) -> np.ndarray:
        """Read a batch of rows as a ``(len(rows), row_bytes)`` byte matrix.

        Equivalent to stacking :meth:`read_row` results (ECC decode is
        batched across the written rows in one call).
        """
        self.geometry.validate_bank(bank)
        rows = [int(row) for row in rows]
        for row in rows:
            self.geometry.validate_address(bank, row)
        self.stats.row_reads += len(rows)
        out = np.zeros((len(rows), self.geometry.row_bits), dtype=np.uint8)
        columns = self._banks.get(bank)
        if columns is not None and rows:
            index = np.asarray(rows, dtype=np.intp)
            written = np.nonzero(columns.written[index])[0]
            if written.size:
                stored = columns.bits[index[written]]
                if self._ondie_ecc is not None and columns.check_bits is not None:
                    decoded, _corrected = self._ondie_ecc.decode_row(
                        stored.reshape(-1),
                        columns.check_bits[index[written]].reshape(-1),
                    )
                    stored = decoded.reshape(written.size, -1)
                out[written] = stored
        return np.packbits(out, axis=1)

    def read_row_raw(self, bank: int, row: int) -> np.ndarray:
        """Read the raw stored bits of a row, bypassing on-die ECC."""
        self.geometry.validate_address(bank, row)
        columns = self._banks.get(bank)
        if columns is None or not columns.written[row]:
            return np.zeros(self.geometry.row_bits, dtype=np.uint8)
        return columns.bits[row].copy()

    def read_rows_raw(self, bank: int, rows: Sequence[int]) -> np.ndarray:
        """Raw stored bits of a batch of rows as ``(len(rows), row_bits)``."""
        self.geometry.validate_bank(bank)
        rows = [int(row) for row in rows]
        for row in rows:
            self.geometry.validate_address(bank, row)
        columns = self._banks.get(bank)
        if columns is None:
            return np.zeros((len(rows), self.geometry.row_bits), dtype=np.uint8)
        index = np.asarray(rows, dtype=np.intp)
        out = columns.bits[index].copy()
        out[~columns.written[index]] = 0
        return out

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh_row(self, bank: int, row: int) -> None:
        """Refresh one logical row, clearing its wordline's accumulated exposure."""
        self.geometry.validate_address(bank, row)
        columns = self._banks.get(bank)
        if columns is not None:
            wordline = self.remapper.logical_to_physical(row)
            columns.exposure[wordline] = 0.0
            columns.exposure_present[wordline] = False
            for logical in self.remapper.physical_to_logical(wordline):
                if 0 <= logical < self.geometry.rows_per_bank and columns.written[logical]:
                    columns.epoch[logical] += 1
        self.stats.refreshes += 1

    def refresh_all(self) -> None:
        """Refresh every row in the chip."""
        for columns in self._banks.values():
            columns.exposure.fill(0.0)
            columns.exposure_present.fill(False)
            columns.epoch[columns.written] += 1
        self.stats.refreshes += 1

    # ------------------------------------------------------------------
    # Disturbance kernel
    # ------------------------------------------------------------------
    def _wordline_bits(self, columns: BankColumns, wordline: int) -> np.ndarray:
        """Stored bits of the (first) logical row on a physical wordline."""
        for logical in self.remapper.physical_to_logical(wordline):
            if not 0 <= logical < self.geometry.rows_per_bank:
                continue
            if columns.written[logical]:
                return columns.bits[logical]
            break
        return np.zeros(self.geometry.row_bits, dtype=np.uint8)

    def _apply_aggressor(self, bank: int, aggressor_row: int, count: int) -> int:
        """Apply ``count`` activations of one aggressor row and induce flips.

        All victim rows of the blast radius are disturbed in one vectorized
        op.  Within a single application every victim wordline is distinct
        from every other and from the aggressor wordline, so batching with
        each wordline's post-increment exposure is exactly equivalent to the
        sequential per-wordline walk.
        """
        columns = self._bank(bank)
        aggressor_wordline = self.remapper.logical_to_physical(aggressor_row)
        # Opening the aggressor row restores its own charge.
        columns.exposure[aggressor_wordline] = 0.0
        columns.exposure_present[aggressor_wordline] = True
        aggressor_bits = self._wordline_bits(columns, aggressor_wordline)

        victim_rows: List[int] = []
        victim_exposure: List[float] = []
        for distance, coupling in self.profile.distance_coupling.items():
            for victim_wordline in (
                aggressor_wordline - distance,
                aggressor_wordline + distance,
            ):
                if not 0 <= victim_wordline < self._num_wordlines:
                    continue
                columns.exposure[victim_wordline] += coupling * count
                columns.exposure_present[victim_wordline] = True
                exposure = float(columns.exposure[victim_wordline])
                for logical in self.remapper.physical_to_logical(victim_wordline):
                    if 0 <= logical < self.geometry.rows_per_bank and columns.written[logical]:
                        # A row that has never been written holds no
                        # meaningful data; flips in it would not be
                        # observable, so skip the work.
                        victim_rows.append(logical)
                        victim_exposure.append(exposure)
        if not victim_rows:
            return 0

        index = np.asarray(victim_rows, dtype=np.intp)
        exposure = np.asarray(victim_exposure, dtype=np.float64)
        effective = columns.thresholds_for(
            index,
            seed=self.seed,
            scale=self._threshold_scale,
            slope=self.profile.flip_slope,
            floor=self._threshold_floor,
            planted_cell=self._planted_cell,
        )
        sigma = self.profile.threshold_noise_sigma
        if sigma > 0:
            effective = effective * columns.noise_for(index, seed=self.seed, sigma=sigma)
        eligible = effective <= exposure[:, None]
        if not eligible.any():
            return 0
        required_victim, required_aggressor, required_parity = columns.classes_for(
            index, seed=self.seed, profile=self.profile, planted_cell=self._planted_cell
        )
        match = (
            eligible
            & (columns.bits[index] == required_victim)
            & (aggressor_bits[None, :] == required_aggressor)
            & ((required_parity == 2) | (self._column_parity[None, :] == required_parity))
        )
        flips = int(np.count_nonzero(match))
        if flips:
            # Victim rows within one application are distinct, so the fused
            # gather-xor-scatter cannot double-apply a flip.
            columns.bits[index] = columns.bits[index] ^ match.astype(np.uint8)
        self.stats.bit_flips_induced += flips
        return flips


def state_digest(chip) -> str:
    """Hex digest of a chip's observable raw state.

    Hashes the raw (pre-ECC) stored bits of every row of every bank through
    the public read API, so it is computable for any backend
    (:class:`DramChip`, :class:`~repro.dram.reference.ReferenceDramChip`)
    and identical exactly when their observable states are.  Reads bypass
    the stats counters (``read_row_raw`` does not count), so digesting is
    side-effect-free.
    """
    digest = hashlib.sha256()
    for bank in range(chip.geometry.banks):
        for row in range(chip.geometry.rows_per_bank):
            digest.update(chip.read_row_raw(bank, row).tobytes())
    return digest.hexdigest()
