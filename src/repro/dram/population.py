"""Chip population generation.

The paper characterizes 1580 chips from 300 modules (Table 1); appendix
Tables 7 and 8 list every DDR4 and DDR3 module with its metadata and minimum
``HC_first``.  This module provides

* factory helpers (:func:`make_chip`, :func:`make_population`) that build
  simulated chip populations matching the paper's sample sizes (optionally
  scaled down for quick experiments), and
* the paper's population inventory as data
  (:data:`TABLE1_POPULATION`, :data:`TABLE7_DDR4_MODULES`,
  :data:`TABLE8_DDR3_MODULES`) so the population benchmark can regenerate
  Table 1 and the appendix tables directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dram.chip import DramChip
from repro.dram.geometry import ChipGeometry
from repro.dram.vulnerability import TypeNode, profile_for
from repro.utils.rng import derive_seed

TypeNodeLike = Union[TypeNode, str]


@dataclass(frozen=True)
class PopulationEntry:
    """One row of Table 1: chip and module counts for a configuration."""

    type_node: TypeNode
    manufacturer: str
    chips: int
    modules: int


#: Table 1 of the paper: number of chips (modules) tested per configuration.
TABLE1_POPULATION: Tuple[PopulationEntry, ...] = (
    PopulationEntry(TypeNode.DDR3_OLD, "A", 56, 10),
    PopulationEntry(TypeNode.DDR3_OLD, "B", 88, 11),
    PopulationEntry(TypeNode.DDR3_OLD, "C", 28, 7),
    PopulationEntry(TypeNode.DDR3_NEW, "A", 80, 10),
    PopulationEntry(TypeNode.DDR3_NEW, "B", 52, 9),
    PopulationEntry(TypeNode.DDR3_NEW, "C", 104, 13),
    PopulationEntry(TypeNode.DDR4_OLD, "A", 112, 16),
    PopulationEntry(TypeNode.DDR4_OLD, "B", 24, 3),
    PopulationEntry(TypeNode.DDR4_OLD, "C", 128, 18),
    PopulationEntry(TypeNode.DDR4_NEW, "A", 264, 43),
    PopulationEntry(TypeNode.DDR4_NEW, "B", 16, 2),
    PopulationEntry(TypeNode.DDR4_NEW, "C", 108, 28),
    PopulationEntry(TypeNode.LPDDR4_1X, "A", 12, 3),
    PopulationEntry(TypeNode.LPDDR4_1X, "B", 180, 45),
    PopulationEntry(TypeNode.LPDDR4_1Y, "A", 184, 46),
    PopulationEntry(TypeNode.LPDDR4_1Y, "C", 144, 36),
)


@dataclass(frozen=True)
class ModuleRecord:
    """One module row of appendix Table 7 (DDR4) or Table 8 (DDR3)."""

    module_ids: str
    manufacturer: str
    node: str  # "old" / "new"
    date: Optional[str]
    frequency_mts: int
    trc_ns: float
    size_gb: float
    chips: int
    pins: str
    min_hcfirst_k: Optional[float]


#: Appendix Table 7: the 110 DDR4 modules (grouped as in the paper).
TABLE7_DDR4_MODULES: Tuple[ModuleRecord, ...] = (
    ModuleRecord("A0-15", "A", "old", "17-08", 2133, 47.06, 4, 8, "x8", 17.5),
    ModuleRecord("A16-18", "A", "new", "19-19", 2400, 46.16, 4, 4, "x16", 12.5),
    ModuleRecord("A19-24", "A", "new", "19-36", 2666, 46.25, 4, 4, "x16", 10),
    ModuleRecord("A25-33", "A", "new", "19-45", 2666, 46.25, 4, 4, "x16", 10),
    ModuleRecord("A34-36", "A", "new", "19-51", 2133, 46.5, 8, 8, "x8", 10),
    ModuleRecord("A37-46", "A", "new", "20-07", 2400, 46.16, 8, 8, "x8", 12.5),
    ModuleRecord("A47-58", "A", "new", "20-08", 2133, 46.5, 4, 8, "x8", 10),
    ModuleRecord("B0-2", "B", "old", None, 2133, 46.5, 4, 8, "x8", 30),
    ModuleRecord("B3-4", "B", "new", None, 2133, 46.5, 4, 8, "x8", 25),
    ModuleRecord("C0-7", "C", "old", "16-48", 2133, 46.5, 4, 8, "x8", 147.5),
    ModuleRecord("C8-17", "C", "old", "17-12", 2133, 46.5, 4, 8, "x8", 87),
    ModuleRecord("C45", "C", "new", "19-01", 2400, 45.75, 8, 8, "x8", 54),
    ModuleRecord("C44", "C", "new", "19-06", 2400, 45.75, 8, 8, "x8", 63),
    ModuleRecord("C34", "C", "new", "19-11", 2400, 45.75, 4, 4, "x16", 62.5),
    ModuleRecord("C35-36", "C", "new", "19-23", 2400, 45.75, 4, 4, "x16", 63),
    ModuleRecord("C37-43", "C", "new", "19-44", 2133, 46.5, 8, 8, "x8", 57.5),
    ModuleRecord("C18-27", "C", "new", "19-48", 2400, 45.75, 8, 8, "x8", 52.5),
    ModuleRecord("C28-33", "C", "new", None, 2666, 46.5, 4, 8, "x4", 40),
)

#: Appendix Table 8: the 60 DDR3 modules (grouped as in the paper).
TABLE8_DDR3_MODULES: Tuple[ModuleRecord, ...] = (
    ModuleRecord("A0", "A", "old", "10-19", 1066, 50.625, 1, 8, "x8", 155),
    ModuleRecord("A1", "A", "old", "10-40", 1333, 49.5, 2, 8, "x8", None),
    ModuleRecord("A2-6", "A", "old", "12-11", 1866, 47.91, 2, 8, "x8", 156),
    ModuleRecord("A7-9", "A", "old", "12-32", 1600, 48.75, 2, 8, "x8", 69.2),
    ModuleRecord("A10-16", "A", "new", "14-16", 1600, 48.75, 4, 8, "x8", 85),
    ModuleRecord("A17-18", "A", "new", "14-26", 1600, 48.75, 2, 4, "x16", 160),
    ModuleRecord("A19", "A", "new", "15-23", 1600, 48.75, 8, 16, "x4", 155),
    ModuleRecord("B0-1", "B", "old", "10-48", 1333, 49.5, 1, 8, "x8", None),
    ModuleRecord("B2-4", "B", "old", "11-42", 1333, 49.5, 2, 8, "x8", None),
    ModuleRecord("B5-6", "B", "old", "12-24", 1600, 48.75, 2, 8, "x8", 157),
    ModuleRecord("B7-10", "B", "old", "13-51", 1600, 48.75, 4, 8, "x8", None),
    ModuleRecord("B11-14", "B", "new", "15-22", 1600, 50.625, 4, 8, "x8", 33.5),
    ModuleRecord("B15-19", "B", "new", "15-25", 1600, 48.75, 2, 4, "x16", 22.4),
    ModuleRecord("C0-6", "C", "old", "10-43", 1333, 49.125, 1, 4, "x16", 155),
    ModuleRecord("C7", "C", "new", "15-04", 1600, 48.75, 4, 8, "x8", None),
    ModuleRecord("C8-12", "C", "new", "15-46", 1600, 48.75, 2, 8, "x8", 33.5),
    ModuleRecord("C13-19", "C", "new", "17-03", 1600, 48.75, 4, 8, "x8", 24),
)


def make_chip(
    type_node: TypeNodeLike,
    manufacturer: str = "A",
    seed: int = 0,
    geometry: Optional[ChipGeometry] = None,
    hcfirst_target: Optional[float] = None,
) -> DramChip:
    """Create one simulated chip of a given type-node configuration.

    >>> chip = make_chip("LPDDR4-1y", "A", seed=3)
    >>> chip.profile.type_node.value
    'LPDDR4-1y'
    """
    profile = profile_for(type_node, manufacturer)
    return DramChip(profile, geometry=geometry, seed=seed, hcfirst_target=hcfirst_target)


def make_population(
    chips_per_config: Optional[int] = None,
    seed: int = 0,
    geometry: Optional[ChipGeometry] = None,
    configurations: Optional[Sequence[Tuple[TypeNodeLike, str]]] = None,
) -> Dict[Tuple[TypeNode, str], List[DramChip]]:
    """Create a population of chips per type-node configuration.

    Parameters
    ----------
    chips_per_config:
        Number of chips to create per configuration.  ``None`` uses the
        paper's full Table 1 chip counts (1580 chips in total), which is
        appropriate for population-statistics benchmarks but slow for
        full characterization.
    seed:
        Top-level seed; every chip derives an independent stream from it.
    geometry:
        Geometry shared by all chips (defaults to the small test geometry).
    configurations:
        Restrict the population to these (type-node, manufacturer) pairs.
        Every pair must name a :data:`TABLE1_POPULATION` row (manufacturer
        letters are case-sensitive); otherwise ``ValueError`` lists the
        pairs that match none.

    Returns
    -------
    dict mapping ``(TypeNode, manufacturer)`` to the list of chips.
    """
    population: Dict[Tuple[TypeNode, str], List[DramChip]] = {}
    entries: Iterable[PopulationEntry]
    if configurations is not None:
        wanted = [
            (TypeNode(tn) if isinstance(tn, str) else tn, mfr) for tn, mfr in configurations
        ]
        known = {(e.type_node, e.manufacturer) for e in TABLE1_POPULATION}
        unknown = [f"{tn.value}/{mfr}" for tn, mfr in wanted if (tn, mfr) not in known]
        if unknown:
            raise ValueError(f"configurations not in Table 1: {', '.join(unknown)}")
        entries = [e for e in TABLE1_POPULATION if (e.type_node, e.manufacturer) in wanted]
    else:
        entries = TABLE1_POPULATION
    for entry in entries:
        count = entry.chips if chips_per_config is None else chips_per_config
        profile = profile_for(entry.type_node, entry.manufacturer)
        chips = [
            DramChip(
                profile,
                geometry=geometry,
                seed=derive_seed(seed, entry.type_node.value, entry.manufacturer, index),
                chip_id=f"{entry.type_node.value}-{entry.manufacturer}-{index}",
            )
            for index in range(count)
        ]
        population[(entry.type_node, entry.manufacturer)] = chips
    return population


def flatten_population(
    population: Mapping[Tuple[TypeNode, str], Sequence[DramChip]],
) -> List[DramChip]:
    """Flatten a :func:`make_population` dict into one ordered chip list.

    Chips appear in configuration order (Table 1 order for a full
    population) then chip order, which is the canonical population order
    used by :class:`repro.experiments.session.ExperimentSession`.
    """
    chips: List[DramChip] = []
    for config_chips in population.values():
        chips.extend(config_chips)
    return chips
