"""Hammer-count sweep study (Figure 5, Observations 4-5).

Sweeping the hammer count and recording the aggregate bit-flip rate shows
the log-log-linear relationship between hammers and flips, and the clear
shift of the curve up and to the left for newer technology nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, check_pattern, resolve_pattern
from repro.core.results import SweepPoint, SweepResult
from repro.dram.chip import DramChip
from repro.experiments.study import register_study

#: Default sweep mirroring the paper's 10k-150k range (Section 5.3).
DEFAULT_HAMMER_COUNTS: Tuple[int, ...] = (
    10_000,
    15_000,
    25_000,
    40_000,
    65_000,
    100_000,
    150_000,
)


@dataclass(frozen=True)
class SweepStudyConfig:
    """Parameters of the Figure 5 hammer-count sweep.

    ``data_pattern`` is a standard pattern name or a :class:`DataPattern`;
    ``None`` means the chip's worst-case pattern.  ``victims`` of ``None``
    means every testable row.
    """

    hammer_counts: Tuple[int, ...] = DEFAULT_HAMMER_COUNTS
    data_pattern: Union[str, DataPattern, None] = None
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.hammer_counts:
            raise ValueError("at least one hammer count is required")
        if any(hc <= 0 for hc in self.hammer_counts):
            raise ValueError("hammer counts must be positive")
        check_pattern(self.data_pattern)


@register_study("fig5-hc-sweep", config=SweepStudyConfig, model_version=1)
def run_hammer_count_sweep(chip: DramChip, config: SweepStudyConfig) -> SweepResult:
    """Hammer-count versus bit-flip-rate sweep (Figure 5, Observations 4-5).

    The flip rate is the number of observed bit flips divided by the number
    of bits in the tested victim rows, matching the paper's definition
    (footnote 6).  Runs as one whole-study work unit: the sweep's points
    share mutated chip state, so the hammer-count axis stays sequential.
    """
    characterizer = RowHammerCharacterizer(chip)
    data_pattern = resolve_pattern(config.data_pattern, chip.profile)
    victims = characterizer.victims(config.victims)
    cells_tested = characterizer.cells_tested(victims)

    result = SweepResult(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        data_pattern=data_pattern.name,
    )
    for hammer_count in sorted(config.hammer_counts):
        outcomes = characterizer.hammer_all_victims(
            hammer_count, data_pattern=data_pattern, bank=config.bank, victims=victims
        )
        flips = sum(outcome.num_bit_flips for outcome in outcomes)
        result.points.append(
            SweepPoint(hammer_count=hammer_count, bit_flips=flips, cells_tested=cells_tested)
        )
    return result


def loglog_slope(sweep: SweepResult) -> Optional[float]:
    """Least-squares slope of log10(flip rate) versus log10(hammer count).

    Only points with a non-zero flip rate participate; ``None`` is returned
    when fewer than two such points exist.  Observation 4 states this
    relationship is linear.
    """
    points = [(p.hammer_count, p.flip_rate) for p in sweep.points if p.flip_rate > 0]
    if len(points) < 2:
        return None
    xs = [math.log10(hc) for hc, _rate in points]
    ys = [math.log10(rate) for _hc, rate in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return None
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return numerator / denominator


def average_flip_rates(
    sweeps: Iterable[SweepResult],
) -> Dict[int, float]:
    """Average flip rate per hammer count across several chips' sweeps.

    This is how Figure 5 aggregates chips of one type-node configuration.
    """
    totals: Dict[int, List[float]] = {}
    for sweep in sweeps:
        for point in sweep.points:
            totals.setdefault(point.hammer_count, []).append(point.flip_rate)
    return {hc: sum(rates) / len(rates) for hc, rates in sorted(totals.items())}
