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
from typing import Optional, Tuple, Union

import numpy as np

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
        if len(set(self.hammer_counts)) != len(self.hammer_counts):
            raise ValueError(f"hammer_counts must not repeat a value: {self.hammer_counts}")
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
    victims = characterizer.victims(config.victims)
    hammer_counts = tuple(sorted(config.hammer_counts))

    # Per-cell flip counts at the current and the previous hammer count.
    # Every hammer count runs the same number of iterations, so comparing
    # counts compares the cells' empirical flip probabilities.
    shape = (chip.geometry.rows_per_bank, chip.geometry.row_bits)
    previous = np.zeros(shape, dtype=np.int64)
    seen = np.zeros(shape, dtype=bool)
    monotonic = np.ones(shape, dtype=bool)
    for hammer_count in hammer_counts:
        counts = np.zeros(shape, dtype=np.int64)
        for _iteration in range(config.iterations):
            for victim in victims:
                outcome = hammer.hammer_victim(
                    config.bank, victim, hammer_count, data_pattern=data_pattern
                )
                counts[outcome.rows] += outcome.diff
        seen |= counts > 0
        monotonic &= counts >= previous
        previous = counts

    return ProbabilityResult(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        hammer_counts=hammer_counts,
        iterations=config.iterations,
        cells_observed=int(np.count_nonzero(seen)),
        cells_monotonic=int(np.count_nonzero(seen & monotonic)),
    )
