"""Behavioural DRAM device substrate with a circuit-level RowHammer model.

This package replaces the 1580 real DRAM chips characterized by the paper
with a calibrated stochastic device model (see :mod:`repro.dram.vulnerability`
for the per-configuration profiles calibrated to the paper's results).  The
observable interface of a :class:`~repro.dram.chip.DramChip` is the same set
of operations the paper's testing infrastructure performs on real chips:
write rows, activate (hammer) a row, refresh, and read rows back.
The chip is the unit every study runs on; the paper's module inventories
(Table 1 and appendix Tables 7 and 8) are kept as records in
:mod:`repro.dram.population`.

The cell law and the state
--------------------------
Everything a chip's cells are is fixed at construction as one
:class:`~repro.dram.columnar.CellLaw` (seed, row bits, threshold scale and
floor, planted weakest cell, profile); both chip backends sample every
cell's threshold, coupling class and per-refresh jitter from it through the
same :mod:`repro.dram.columnar` row samplers.  ``is_pristine`` is one flag
of the chip: True until its first row write or activation, and no refresh
sets it again.

Chip state is *columnar* (structure-of-arrays): each touched bank owns one
:class:`~repro.dram.columnar.BankColumns` whose whole-bank numpy arrays are
what the hammer/refresh kernels operate on --

* ``bits (rows, row_bits)`` and ``check_bits (rows, check_bits_per_row)``
  hold the stored data and on-die-ECC check bits of every row;
* ``written (rows,)`` / ``epoch (rows,)`` track which rows hold data and
  their refresh epoch (the key for per-epoch threshold noise);
* ``flipped (rows,)`` marks the rows whose stored data bits disturbance
  flipped since their last write, the only rows an on-die-ECC read decodes;
* ``exposure (wordlines,)`` accumulates weighted disturbance per physical
  wordline;
* thresholds, coupling-class requirements, and per-epoch noise are
  ``(rows, row_bits)`` matrices sampled lazily from the law, one
  independent RNG stream per row, so any access order yields the same
  values.

One ``activate`` / ``hammer_pair`` disturbs every victim row of the blast
radius in a single vectorized op.

Rows are written and read in batches (``write_rows`` / ``read_rows`` /
``read_rows_raw``), all or nothing: a batch that raises changes no row and
no counter. :class:`~repro.dram.reference.ReferenceDramChip` keeps a
dict-of-rows implementation as the oracle the differential suite pins the
vectorized kernels against, and :func:`~repro.dram.chip.state_digest`
hashes any backend's observable raw state for those comparisons.
"""

from repro.dram.spec import DramType, DramTypeSpec, SPECS, spec_for
from repro.dram.geometry import ChipGeometry
from repro.dram.remapping import (
    RowRemapper,
    IdentityRemapper,
    PairedWordlineRemapper,
    remapper_for,
)
from repro.dram.vulnerability import (
    CouplingClass,
    VulnerabilityProfile,
    PROFILES,
    profile_for,
    TypeNode,
)
from repro.dram.chip import DramChip, state_digest
from repro.dram.reference import ReferenceDramChip
from repro.dram.population import (
    make_chip,
    make_population,
    PopulationEntry,
)

__all__ = [
    "DramType",
    "DramTypeSpec",
    "SPECS",
    "spec_for",
    "ChipGeometry",
    "RowRemapper",
    "IdentityRemapper",
    "PairedWordlineRemapper",
    "remapper_for",
    "CouplingClass",
    "VulnerabilityProfile",
    "PROFILES",
    "profile_for",
    "TypeNode",
    "DramChip",
    "ReferenceDramChip",
    "state_digest",
    "make_chip",
    "make_population",
    "PopulationEntry",
]
