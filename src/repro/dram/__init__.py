"""Behavioural DRAM device substrate with a circuit-level RowHammer model.

This package replaces the 1580 real DRAM chips characterized by the paper
with a calibrated stochastic device model (see :mod:`repro.dram.vulnerability`
for the per-configuration profiles calibrated to the paper's results).  The
observable interface of a :class:`~repro.dram.chip.DramChip` is the same set
of operations the paper's testing infrastructure performs on real chips:
write a row, activate (hammer) a row, refresh, and read a row back.

Columnar state layout
---------------------
Chip state is *columnar* (structure-of-arrays): each touched bank owns one
:class:`~repro.dram.columnar.BankColumns` whose whole-bank numpy arrays are
what the hammer/refresh kernels operate on --

* ``bits (rows, row_bits)`` and ``check_bits (rows, check_bits_per_row)``
  hold the stored data and on-die-ECC check bits of every row;
* ``written (rows,)`` / ``epoch (rows,)`` track which rows hold data and
  their refresh epoch (the key for per-epoch threshold noise);
* ``exposure (wordlines,)`` accumulates weighted disturbance per physical
  wordline, with ``exposure_present`` recording which wordlines have an
  exposure entry at all (the old implementation tracked this as dict-key
  presence; ``is_pristine`` is exactly "no written rows and no exposure
  entries");
* thresholds, coupling-class requirements, and per-epoch noise are lazily
  sampled ``(rows, row_bits)`` matrices, one independent RNG stream per
  row, so any access order yields the same values.

One ``activate`` / ``hammer_pair`` disturbs every victim row of the blast
radius in a single vectorized op.

Single-row operations (``write_row`` / ``read_row``) index one row of the
arrays. :class:`~repro.dram.reference.ReferenceDramChip` keeps a
dict-of-rows implementation as the oracle the differential suite pins the
vectorized kernels against, and :func:`~repro.dram.chip.state_digest`
hashes any backend's observable raw state for those comparisons.
"""

from repro.dram.spec import DramType, DramTypeSpec, SPECS, spec_for
from repro.dram.geometry import ChipGeometry, RowAddress
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
from repro.dram.module import DramModule
from repro.dram.population import (
    make_chip,
    make_module,
    make_population,
    PopulationEntry,
)

__all__ = [
    "DramType",
    "DramTypeSpec",
    "SPECS",
    "spec_for",
    "ChipGeometry",
    "RowAddress",
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
    "DramModule",
    "make_chip",
    "make_module",
    "make_population",
    "PopulationEntry",
]
