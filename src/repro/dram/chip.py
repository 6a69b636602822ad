"""Behavioural DRAM chip model with circuit-level RowHammer disturbance.

A :class:`DramChip` exposes the same observable operations the paper's test
infrastructure performs against real chips:

* ``write_rows`` / ``read_rows`` -- store and retrieve a list of rows in one
  payload, the way the FPGA testers the paper builds on move whole row lists
  to the board (the read path goes through on-die ECC for LPDDR4 chips,
  which cannot be disabled);
* ``read_rows_raw`` -- the stored bits of a list of rows, bypassing on-die
  ECC;
* ``activate`` -- open a row, disturbing physically nearby rows;
* ``hammer_pair`` -- bulk double-sided hammering (the worst-case access
  sequence of Section 4.3);
* ``refresh_row`` / ``refresh_all`` -- restore cell charge, resetting the
  accumulated disturbance.

A row operation is all or nothing: every row of a batch is range-checked and
every payload coerced before any state changes, so a batch that raises
changes no row and no :class:`ChipStats` counter.  Banks, rows and hammer
counts must be integers (``operator.index``; numpy integers pass): any
other value raises ``TypeError`` before anything changes.

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
Everything a chip's cells will ever be is fixed at construction as one
:class:`~repro.dram.columnar.CellLaw` (seed, row bits, threshold power-law
scale and floor, planted weakest cell, profile): both backends sample every
cell's threshold, coupling class and per-refresh jitter from the law and
the cell's address, and nothing else.  Whether the chip is still
*pristine* is one flag, ``is_pristine``: the first row write or activation
clears it, and no refresh sets it again.

Chip state is columnar: each touched bank owns one
:class:`~repro.dram.columnar.BankColumns` of whole-bank numpy arrays (bits,
refresh epochs, wordline exposure, thresholds / coupling classes / noise
sampled lazily from the law), so an aggressor application disturbs every
victim row of the blast radius in one vectorized op instead of per-row dict
updates.  Besides the banks, a :class:`DramChip` keeps two per-chip caches
of work that would otherwise repeat on every hammer test:

* the *fill cache*: a fill byte's row bits and, on an on-die-ECC chip, its
  check bits, built on the byte's first write and stored read-only (a
  pattern write holds two distinct bytes);
* the *victim plans*: per aggressor wordline, the in-range victim
  wordlines, their couplings and the logical rows on them.

The bank column ``flipped`` marks the rows whose stored data bits the
disturbance kernel flipped since their last write.  Only those rows are
ECC-decoded on read: an unmarked row holds the codeword its write encoded,
which decodes to itself.  Any code that changes a row's stored data or
check bits must therefore mark the row.

:class:`~repro.dram.reference.ReferenceDramChip` retains the original
dict-of-rows implementation as the bit-identity oracle for the differential
suite.  It shares none of these caches: it coerces, encodes and decodes
every row.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dram.columnar import BankColumns, CellLaw
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
    geometry, remapper, on-die ECC, the sampled ``HC_first`` target and the
    :class:`~repro.dram.columnar.CellLaw` derived from it, plus the
    ``is_pristine`` flag that the first row write or activation clears.
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
        #: True until the first row write or activation.  A pristine chip's
        #: observable behaviour is a pure function of its construction
        #: parameters, which is what lets the experiments result store key
        #: cached study results by those parameters alone.  Refreshing
        #: never restores it.
        self.is_pristine = True

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
        # The chip's weakest cell is planted explicitly: one deterministic
        # cell receives exactly the target threshold and no sampled threshold
        # may fall below it.  This pins the chip's measured HC_first to its
        # sampled target (the sampled power-law tail would otherwise make the
        # measured minimum a noisy random variable), while leaving the
        # flip-count-versus-HC curve above HC_first unchanged.
        self._law = CellLaw(
            seed=seed,
            row_bits=self.geometry.row_bits,
            threshold_scale=profile.threshold_scale(
                calibration_target, self.geometry.total_cells
            ),
            threshold_floor=2.0 * calibration_target,
            planted_cell=self._choose_planted_cell(chip_rng),
            profile=profile,
        )
        self._column_parity = (np.arange(self.geometry.row_bits) % 2).astype(np.uint8)

    def _choose_planted_cell(self, rng) -> Tuple[int, int, int]:
        """Pick the (bank, row, column) of the chip's weakest cell.

        The row is kept away from the bank edges so the cell is always
        exercised by a full double-sided hammer, and the column respects the
        dominant coupling class's column-parity requirement so the cell is
        exposed by the chip's worst-case data pattern.
        """
        margin = (self.profile.blast_radius + 2) * self.remapper.rows_per_wordline
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
        return self._law.planted_cell

    @property
    def has_on_die_ecc(self) -> bool:
        """Whether reads pass through an undisableable on-die SEC ECC."""
        return self._ondie_ecc is not None

    def is_rowhammerable(self) -> bool:
        """Whether the chip's weakest cell is expected to flip within the test limit."""
        return self._hcfirst_target <= self.TEST_LIMIT_HC

    # ------------------------------------------------------------------
    # Shared operation surface (delegates to the backend kernels)
    # ------------------------------------------------------------------
    def activate(self, bank: int, row: int, count: int = 1) -> int:
        """Activate a logical row ``count`` times (single-sided hammering).

        Returns the number of new bit flips induced in neighbouring rows.
        """
        bank, row, count = operator.index(bank), operator.index(row), operator.index(count)
        self.geometry.validate_address(bank, row)
        if count <= 0:
            return 0
        self.is_pristine = False
        self.stats.activations += count
        return self._apply_aggressor(bank, row, count)

    def hammer_pair(self, bank: int, row_a: int, row_b: int, count: int) -> int:
        """Hammer two aggressor rows ``count`` times each (double-sided).

        One *hammer* is one activation of each aggressor (paper Section 4.3),
        so this issues ``2 * count`` activations in total.  Returns the
        number of new bit flips induced.
        """
        bank, row_a, row_b, count = map(operator.index, (bank, row_a, row_b, count))
        self.geometry.validate_address(bank, row_a)
        self.geometry.validate_address(bank, row_b)
        if count <= 0:
            return 0
        self.is_pristine = False
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
    def _batch_address(self, bank: int, rows: Sequence[int]) -> Tuple[int, List[int]]:
        """A batch's bank and rows as ``int``, the bank range-checked.

        Raises ``TypeError`` for a bank or row that is not an integer and
        the :class:`IndexError` of :meth:`ChipGeometry.validate_bank`.
        """
        bank = operator.index(bank)
        self.geometry.validate_bank(bank)
        return bank, list(map(operator.index, rows))

    def _coerce_row_bits(self, data: RowData) -> np.ndarray:
        """The row bits of a fill byte or of a ``row_bytes``-long byte buffer.

        Raises ``ValueError`` for a buffer of another length and for a fill
        byte or buffer value outside ``[0, 255]``.
        """
        row_bytes = self.geometry.row_bytes
        if isinstance(data, (int, np.integer)):
            if not 0 <= int(data) <= 0xFF:
                raise ValueError("fill byte must be within [0, 255]")
            byte_array = np.full(row_bytes, int(data), dtype=np.uint8)
            return np.unpackbits(byte_array)
        array = np.asarray(bytearray(data) if isinstance(data, (bytes, bytearray)) else data)
        if array.size != row_bytes:
            raise ValueError(f"row data must be {row_bytes} bytes, got {array.size} elements")
        byte_array = array.astype(np.uint8)
        if not np.array_equal(byte_array, array):
            raise ValueError("row data bytes must be within [0, 255]")
        return np.unpackbits(byte_array)

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
        #: Fill byte -> read-only (row bits, check bits or None); see _row_data.
        self._fill_rows: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        #: Aggressor wordline -> victim plan; see _victim_plan.
        self._victim_plans: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

    def _bank(self, bank: int) -> BankColumns:
        columns = self._banks.get(bank)
        if columns is None:
            check_bits = (
                self._ondie_ecc.check_bits_per_row(self.geometry.row_bits)
                if self._ondie_ecc is not None
                else 0
            )
            columns = BankColumns(
                self._law, bank, self.geometry.rows_per_bank, self._num_wordlines, check_bits
            )
            self._banks[bank] = columns
        return columns

    def _row_data(self, data: RowData) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Row bits and on-die-ECC check bits (``None`` without ECC) to store for ``data``.

        A fill byte's pair is built on the byte's first use and kept in a
        per-chip cache.  Both arrays are read-only: a write copies them into
        bank storage, so no bank row ever aliases them.
        """
        fill = isinstance(data, (int, np.integer))
        if fill:
            entry = self._fill_rows.get(int(data))
            if entry is not None:
                return entry
        bits = self._coerce_row_bits(data)
        check_bits = self._ondie_ecc.encode_row(bits) if self._ondie_ecc is not None else None
        if fill:
            bits.flags.writeable = False
            if check_bits is not None:
                check_bits.flags.writeable = False
            self._fill_rows[int(data)] = (bits, check_bits)
        return bits, check_bits

    def _validate_rows(self, bank: int, rows: List[int]) -> None:
        """Range-check a batch's rows in one test (its bank is already checked).

        Raises the :class:`IndexError` of :meth:`ChipGeometry.validate_address`
        for the first row out of range.
        """
        if rows and (min(rows) < 0 or max(rows) >= self.geometry.rows_per_bank):
            for row in rows:
                self.geometry.validate_address(bank, row)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_rows(self, bank: int, rows: Sequence[int], data) -> None:
        """Write a batch of rows, all or none.

        ``rows`` is a sequence of logical row numbers.  ``data`` is one fill
        byte (``int``) for every row, or one payload per row: a fill byte or
        a byte buffer of exactly ``row_bytes`` bytes, each within
        ``[0, 255]``.  Rows are written in order, so a row the batch repeats
        holds its last payload.  Writing a row restores its charge:
        accumulated disturbance on its wordline is cleared and any
        previously flipped cells take the new value.

        Every row is range-checked and every payload coerced before any
        state changes, so a batch that raises (``TypeError`` for a bank or
        row that is not an integer, ``IndexError`` for one out of range,
        ``ValueError`` for a payload count that does not match or a payload
        no row can hold) changes no row and no counter.
        """
        bank, rows = self._batch_address(bank, rows)
        if isinstance(data, (int, np.integer)):
            data = [data] * len(rows)
        if len(data) != len(rows):
            raise ValueError(f"expected {len(rows)} row payloads, got {len(data)}")
        if not rows:
            return
        self._validate_rows(bank, rows)
        row_data = [self._row_data(value) for value in data]
        self.is_pristine = False
        columns = self._bank(bank)
        for row, (bits, check_bits) in zip(rows, row_data):
            columns.bits[row] = bits
            if check_bits is not None:
                columns.check_bits[row] = check_bits
        index = np.asarray(rows, dtype=np.intp)
        columns.flipped[index] = False
        # Every write advances the row's epoch (an unwritten row's is 0), a
        # row the batch repeats once per write.
        np.add.at(columns.epoch, index, 1)
        columns.written[index] = True
        wordlines = np.asarray(
            [self.remapper.logical_to_physical(row) for row in rows], dtype=np.intp
        )
        columns.exposure[wordlines] = 0.0
        self.stats.row_writes += len(rows)

    def read_rows(self, bank: int, rows: Sequence[int]) -> np.ndarray:
        """Read a batch of rows as a ``(len(rows), row_bytes)`` byte matrix.

        Reads go through on-die ECC when the chip has it (one decode over
        the rows the disturbance kernel flipped); a row never written reads
        as zeros.  Every row is type- and range-checked first, so a batch
        that raises counts no read.
        """
        bank, rows = self._batch_address(bank, rows)
        self._validate_rows(bank, rows)
        self.stats.row_reads += len(rows)
        columns = self._banks.get(bank)
        if columns is None:
            return np.zeros((len(rows), self.geometry.row_bytes), dtype=np.uint8)
        index = np.asarray(rows, dtype=np.intp)
        bits = columns.bits[index]  # zeros until written
        if self._ondie_ecc is not None:
            flipped = np.nonzero(columns.flipped[index])[0]
            if flipped.size:
                decoded, _corrected = self._ondie_ecc.decode_row(
                    bits[flipped].reshape(-1),
                    columns.check_bits[index[flipped]].reshape(-1),
                )
                bits[flipped] = decoded.reshape(flipped.size, -1)
        return np.packbits(bits, axis=1)

    def read_rows_raw(self, bank: int, rows: Sequence[int]) -> np.ndarray:
        """Raw stored bits of a batch of rows as ``(len(rows), row_bits)``.

        Bypasses on-die ECC and counts no read.
        """
        bank, rows = self._batch_address(bank, rows)
        self._validate_rows(bank, rows)
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
        bank, row = operator.index(bank), operator.index(row)
        self.geometry.validate_address(bank, row)
        columns = self._banks.get(bank)
        if columns is not None:
            wordline = self.remapper.logical_to_physical(row)
            columns.exposure[wordline] = 0.0
            for logical in self.remapper.physical_to_logical(wordline):
                if 0 <= logical < self.geometry.rows_per_bank and columns.written[logical]:
                    columns.epoch[logical] += 1
        self.stats.refreshes += 1

    def refresh_all(self) -> None:
        """Refresh every row in the chip."""
        for columns in self._banks.values():
            columns.exposure.fill(0.0)
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

    def _victim_plan(
        self, aggressor_wordline: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What one activation of a wordline disturbs, built once per chip.

        Returns the in-range victim wordlines, their couplings, the logical
        rows on those wordlines that lie inside the bank, and each such
        row's wordline.  The victim wordlines are distinct from each other
        and from the aggressor wordline (coupling distances are distinct
        and positive).
        """
        plan = self._victim_plans.get(aggressor_wordline)
        if plan is None:
            wordlines: List[int] = []
            couplings: List[float] = []
            rows: List[int] = []
            row_wordlines: List[int] = []
            for distance, coupling in self.profile.distance_coupling.items():
                for victim_wordline in (
                    aggressor_wordline - distance,
                    aggressor_wordline + distance,
                ):
                    if not 0 <= victim_wordline < self._num_wordlines:
                        continue
                    wordlines.append(victim_wordline)
                    couplings.append(coupling)
                    for logical in self.remapper.physical_to_logical(victim_wordline):
                        if 0 <= logical < self.geometry.rows_per_bank:
                            rows.append(logical)
                            row_wordlines.append(victim_wordline)
            plan = (
                np.asarray(wordlines, dtype=np.intp),
                np.asarray(couplings, dtype=np.float64),
                np.asarray(rows, dtype=np.intp),
                np.asarray(row_wordlines, dtype=np.intp),
            )
            self._victim_plans[aggressor_wordline] = plan
        return plan

    def _apply_aggressor(self, bank: int, aggressor_row: int, count: int) -> int:
        """Apply ``count`` activations of one aggressor row and induce flips.

        All victim rows of the blast radius are disturbed in one vectorized
        op.  Within a single application every victim wordline is distinct
        from every other and from the aggressor wordline, so batching with
        each wordline's post-increment exposure is exactly equivalent to the
        sequential per-wordline walk.

        Only written victim rows whose exposure reaches their flip floor
        (:meth:`~repro.dram.columnar.BankColumns.may_flip`) go on to gather
        thresholds, draw their epoch's noise and sample their coupling
        classes; :mod:`repro.dram.columnar` says why skipping the rest
        changes no payload.
        """
        columns = self._bank(bank)
        aggressor_wordline = self.remapper.logical_to_physical(aggressor_row)
        # Opening the aggressor row restores its own charge.
        columns.exposure[aggressor_wordline] = 0.0

        wordlines, couplings, rows, row_wordlines = self._victim_plan(aggressor_wordline)
        columns.exposure[wordlines] += couplings * count
        # A row that has never been written holds no meaningful data; flips
        # in it would not be observable, so skip the work.
        written = columns.written[rows]
        index = rows[written]
        if not index.size:
            return 0
        exposure = columns.exposure[row_wordlines[written]]
        reachable = columns.may_flip(index, exposure)
        if not reachable.any():
            return 0
        index, exposure = index[reachable], exposure[reachable]
        effective = columns.thresholds[index]
        if self.profile.threshold_noise_sigma > 0:
            effective = effective * columns.noise_for(index)
        eligible = effective <= exposure[:, None]
        if not eligible.any():
            return 0
        required_victim, required_aggressor, parity_ok = columns.classes_for(
            index, self._column_parity
        )
        aggressor_bits = self._wordline_bits(columns, aggressor_wordline)
        victim_bits = columns.bits[index]
        match = (
            eligible
            & parity_ok
            & (victim_bits == required_victim)
            & (aggressor_bits[None, :] == required_aggressor)
        )
        flips = int(np.count_nonzero(match))
        if flips:
            # Victim rows within one application are distinct, so the fused
            # gather-xor-scatter cannot double-apply a flip.
            columns.bits[index] = victim_bits ^ match
            columns.flipped[index] |= match.any(axis=1)
        self.stats.bit_flips_induced += flips
        return flips


def state_digest(chip) -> str:
    """Hex digest of a chip's observable raw state.

    Hashes the raw (pre-ECC) stored bits of every row of every bank through
    the public read API, so it is computable for any backend
    (:class:`DramChip`, :class:`~repro.dram.reference.ReferenceDramChip`)
    and identical exactly when their observable states are.  Reads bypass
    the stats counters (``read_rows_raw`` does not count), so digesting is
    side-effect-free.
    """
    digest = hashlib.sha256()
    for bank in range(chip.geometry.banks):
        digest.update(chip.read_rows_raw(bank, range(chip.geometry.rows_per_bank)).tobytes())
    return digest.hexdigest()
