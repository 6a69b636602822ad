"""Spatial distribution of RowHammer bit flips (Figure 6, Observations 6-7).

The study hammers every victim row and histograms the observed bit flips by
their signed row offset from the victim.  The paper's key findings are that
flips concentrate on the victim row, appear only at even offsets, never
appear in the aggressor rows themselves, and extend farther from the victim
in newer (LPDDR4) technology nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.calibration import resolve_hammer_count
from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, check_pattern, resolve_pattern
from repro.core.results import SpatialResult
from repro.dram.chip import DramChip
from repro.experiments.study import register_study
from repro.utils.stats import mean, stddev


@dataclass(frozen=True)
class SpatialStudyConfig:
    """Parameters of the Figure 6 spatial-distribution study.

    ``target_rate`` enables the paper's rate normalization: when set, the
    study first calibrates a chip-specific hammer count producing that
    aggregate flip rate and uses it instead of ``hammer_count`` (falling
    back to the 150k test ceiling when the rate is unreachable).
    """

    hammer_count: Optional[int] = None
    target_rate: Optional[float] = None
    data_pattern: Union[str, DataPattern, None] = None
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.hammer_count is not None and self.hammer_count <= 0:
            raise ValueError("hammer_count must be positive")
        if self.target_rate is not None and self.target_rate <= 0:
            raise ValueError("target_rate must be positive")
        check_pattern(self.data_pattern)


@register_study("fig6-spatial", config=SpatialStudyConfig)
def run_spatial_distribution(chip: DramChip, config: SpatialStudyConfig) -> SpatialResult:
    """Spatial distribution of bit flips around the victim (Figure 6).

    Histograms the observed bit flips by row offset from the victim.  The
    paper normalizes chips to a common bit-flip rate of 1e-6; without a
    ``target_rate`` or ``hammer_count`` the study uses the 150k test
    ceiling, which yields enough flips on the simulator's much smaller
    chips for a stable histogram.
    """
    characterizer = RowHammerCharacterizer(chip)
    data_pattern = resolve_pattern(config.data_pattern, chip.profile)
    victims = characterizer.victims(config.victims)
    hammer_count = resolve_hammer_count(
        chip, config.hammer_count, config.target_rate, data_pattern, config.bank, victims
    )

    # One bin per row of the observed neighbourhood, so every offset has one.
    radius = characterizer.hammer.radius
    flips_by_offset: Dict[int, int] = {offset: 0 for offset in range(-radius, radius + 1)}
    outcomes = characterizer.hammer_all_victims(
        hammer_count, data_pattern=data_pattern, bank=config.bank, victims=victims
    )
    for outcome in outcomes:
        offsets = (outcome.rows - outcome.victim_row).tolist()
        for offset, count in zip(offsets, outcome.diff.sum(axis=1).tolist()):
            flips_by_offset[offset] += count
    return SpatialResult(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        hammer_count=hammer_count,
        flips_by_offset=flips_by_offset,
    )


def aggregate_fraction_by_offset(
    results: Iterable[SpatialResult],
) -> Dict[int, Dict[str, float]]:
    """Mean and standard deviation of the per-offset flip fraction across chips.

    Matches how Figure 6 reports each configuration: one bar (mean) with an
    error bar (standard deviation) per row offset.
    """
    per_offset: Dict[int, List[float]] = {}
    for result in results:
        fractions = result.fraction_by_offset()
        for offset, fraction in fractions.items():
            per_offset.setdefault(offset, []).append(fraction)
    aggregated: Dict[int, Dict[str, float]] = {}
    for offset, values in sorted(per_offset.items()):
        aggregated[offset] = {"mean": mean(values), "stddev": stddev(values)}
    return aggregated


def flips_in_aggressor_rows(result: SpatialResult) -> int:
    """Number of flips observed in the aggressor rows (expected to be zero).

    Repeatedly activating a row refreshes it, so the paper observes no flips
    at the aggressor offsets, -1 and +1; this helper lets tests and reports
    verify the same invariant.
    """
    return sum(result.flips_by_offset.get(offset, 0) for offset in (-1, 1))
