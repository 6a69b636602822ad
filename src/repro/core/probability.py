"""Single-cell RowHammer bit-flip probability study (Table 5, Observation 14).

For each hammer count in a sweep the study hammers each victim row several
times (iterations) and records, per cell, how often it flipped.  A cell with
a *monotonically non-decreasing* empirical flip probability behaves the way
the underlying circuit mechanism predicts: more hammers mean more charge
loss and a higher chance of flipping.  The paper finds more than 97% of
DDR3/DDR4 cells behave monotonically while only about half of LPDDR4 cells
do -- because on-die ECC masks and un-masks flips as neighbouring cells in
the same ECC word start failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, check_pattern, resolve_pattern
from repro.core.results import ProbabilityResult
from repro.dram.chip import DramChip
from repro.experiments.study import register_study

#: Default hammer counts: a coarse version of the paper's 25k-150k sweep.
DEFAULT_PROBABILITY_HC_SWEEP: Tuple[int, ...] = (25_000, 50_000, 75_000, 100_000, 125_000, 150_000)


@dataclass(frozen=True)
class ProbabilityStudyConfig:
    """Parameters of the Table 5 flip-probability monotonicity study.

    The paper sweeps 25k-150k hammers in 5k steps and estimates each
    cell's flip probability from 20 iterations per hammer count.
    """

    hammer_counts: Tuple[int, ...] = DEFAULT_PROBABILITY_HC_SWEEP
    iterations: int = 10
    data_pattern: Union[str, DataPattern, None] = None
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.hammer_counts or any(hc <= 0 for hc in self.hammer_counts):
            raise ValueError("hammer_counts must hold positive values")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        check_pattern(self.data_pattern)


@register_study("table5-flip-probability", config=ProbabilityStudyConfig)
def run_flip_probability_study(
    chip: DramChip, config: ProbabilityStudyConfig
) -> ProbabilityResult:
    """Single-cell flip-probability monotonicity (Table 5).

    Hammers every victim ``iterations`` times per hammer count (ascending)
    and counts, per cell, the iterations in which it flipped.
    """
    characterizer = RowHammerCharacterizer(chip)
    hammer = characterizer.hammer
    data_pattern = resolve_pattern(config.data_pattern, chip.profile)
    victims = characterizer.victims(config.bank, config.victims)
    hammer_counts = tuple(sorted(config.hammer_counts))

    # flip_counts[cell][hc_index] = number of iterations in which the cell flipped
    flip_counts: Dict[Tuple[int, int, int], List[int]] = {}
    for hc_index, hammer_count in enumerate(hammer_counts):
        for _iteration in range(config.iterations):
            for victim in victims:
                outcome = hammer.hammer_victim(
                    config.bank, victim, hammer_count, data_pattern=data_pattern
                )
                for flip in outcome.flips:
                    counts = flip_counts.setdefault(flip.cell, [0] * len(hammer_counts))
                    counts[hc_index] += 1

    cells_observed = len(flip_counts)
    cells_monotonic = 0
    for counts in flip_counts.values():
        probabilities = [count / config.iterations for count in counts]
        if all(b >= a for a, b in zip(probabilities, probabilities[1:])):
            cells_monotonic += 1

    return ProbabilityResult(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        hammer_counts=hammer_counts,
        iterations=config.iterations,
        cells_observed=cells_observed,
        cells_monotonic=cells_monotonic,
    )
