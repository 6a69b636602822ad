"""Data-pattern coverage study (Figure 4, Table 3, Observations 2-3).

For a fixed hammer count the study runs the characterization once per data
pattern, aggregates the unique bit flips each pattern exposes, and reports
every pattern's *coverage*: the fraction of the union of all observed flips
that the pattern finds on its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import STANDARD_PATTERNS, pattern_by_name
from repro.core.results import CoverageResult
from repro.dram.chip import DramChip
from repro.experiments.study import WorkUnit, register_study


@dataclass(frozen=True)
class CoverageStudyConfig:
    """Parameters of the Figure 4 / Table 3 data-pattern coverage study.

    ``patterns`` holds standard-pattern names; the default is the paper's
    eight patterns in plotting order.  Unique flips are aggregated over
    ``iterations`` repeats per pattern (the paper uses ten).
    """

    hammer_count: int = DramChip.TEST_LIMIT_HC
    patterns: Tuple[str, ...] = tuple(p.name for p in STANDARD_PATTERNS)
    iterations: int = 1
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.hammer_count <= 0:
            raise ValueError("hammer_count must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.patterns:
            raise ValueError("at least one data pattern is required")
        for name in self.patterns:
            pattern_by_name(name)


# ----------------------------------------------------------------------
# Work-unit decomposition: one unit per data pattern
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatternCoverageUnit:
    """Payload of one coverage work unit: one pattern's flipped-cell set."""

    pattern: str
    chip_id: str
    type_node: str
    manufacturer: str
    cells: FrozenSet[Tuple[int, int, int]]


def _decompose_coverage(config: CoverageStudyConfig) -> List[WorkUnit]:
    """Shard the coverage study along its data-pattern axis.

    Each unit embeds the single-pattern restriction of the config (per the
    WorkUnit cache contract), so adding a pattern to a sweep replays the
    patterns already measured.
    """
    return [
        WorkUnit(
            study="fig4-coverage",
            unit_id=f"pattern/{name}",
            params={
                "pattern": name,
                "config": dataclasses.replace(config, patterns=(name,)),
            },
            index=position,
        )
        for position, name in enumerate(config.patterns)
    ]


def _run_coverage_unit(
    chip: DramChip, config: CoverageStudyConfig, unit: WorkUnit
) -> PatternCoverageUnit:
    """Hammer every victim with one pattern and collect its unique flips."""
    pattern = pattern_by_name(unit.param_dict["pattern"])
    characterizer = RowHammerCharacterizer(chip)
    victims = characterizer.victims(config.bank, config.victims)
    flipped = np.zeros((chip.geometry.rows_per_bank, chip.geometry.row_bits), dtype=bool)
    for _iteration in range(config.iterations):
        for result in characterizer.hammer_all_victims(
            config.hammer_count, data_pattern=pattern, bank=config.bank, victims=victims
        ):
            flipped[result.rows] |= result.diff
    rows, bits = np.nonzero(flipped)
    return PatternCoverageUnit(
        pattern=pattern.name,
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        cells=frozenset((config.bank, row, bit) for row, bit in zip(rows.tolist(), bits.tolist())),
    )


def _merge_coverage(
    config: CoverageStudyConfig, payloads: Sequence[PatternCoverageUnit]
) -> CoverageResult:
    """Union the per-pattern flip sets and compute coverage fractions."""
    all_cells: Set[Tuple[int, int, int]] = set()
    for payload in payloads:
        all_cells.update(payload.cells)
    first = payloads[0]
    return CoverageResult(
        chip_id=first.chip_id,
        type_node=first.type_node,
        manufacturer=first.manufacturer,
        hammer_count=config.hammer_count,
        unique_flips_total=len(all_cells),
        coverage_by_pattern={
            payload.pattern: (len(payload.cells) / len(all_cells) if all_cells else 0.0)
            for payload in payloads
        },
        flips_by_pattern={payload.pattern: len(payload.cells) for payload in payloads},
    )


@register_study(
    "fig4-coverage",
    config=CoverageStudyConfig,
    decompose=_decompose_coverage,
    unit_runner=_run_coverage_unit,
    merge=_merge_coverage,
)
def run_pattern_coverage(chip: DramChip, config: CoverageStudyConfig) -> CoverageResult:
    """Per-data-pattern bit-flip coverage (Figure 4 / Table 3).

    Called directly, the pattern units run one after another on the given
    chip.  Through a session the study runs *sharded*: one hermetic work
    unit per data pattern, each against a fresh copy of the chip, so every
    pattern's flip set is measured from the same pristine state (per-write
    refresh-epoch noise does not accumulate across patterns as it does in
    the direct call).
    """
    units = _decompose_coverage(config)
    return _merge_coverage(config, [_run_coverage_unit(chip, config, unit) for unit in units])
