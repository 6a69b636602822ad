"""Bit-flip density per data word (Figure 7, Observations 8-9).

ECC protects DRAM at a word granularity (typically 64 or 128 bits), so what
matters for ECC's ability to mask RowHammer is how many flips land in the
*same* word.  This study histograms the number of flips per 64-bit word
across all words that contain at least one flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.calibration import resolve_hammer_count
from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, check_pattern, resolve_pattern
from repro.core.results import WordDensityResult
from repro.dram.chip import DramChip
from repro.experiments.study import register_study
from repro.utils.stats import mean, stddev

#: Figure 7 plots the fraction of words holding 1 to this many flips.
FIGURE7_MAX_FLIPS = 5


@dataclass(frozen=True)
class WordDensityStudyConfig:
    """Parameters of the Figure 7 flips-per-word study.

    As in :class:`repro.core.spatial.SpatialStudyConfig`, setting
    ``target_rate`` rate-normalizes the chip before measuring.
    """

    hammer_count: Optional[int] = None
    target_rate: Optional[float] = None
    word_bits: int = 64
    data_pattern: Union[str, DataPattern, None] = None
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.hammer_count is not None and self.hammer_count <= 0:
            raise ValueError("hammer_count must be positive")
        if self.target_rate is not None and self.target_rate <= 0:
            raise ValueError("target_rate must be positive")
        if self.word_bits <= 0:
            raise ValueError("word_bits must be positive")
        check_pattern(self.data_pattern)


@register_study("fig7-word-density", config=WordDensityStudyConfig, model_version=1)
def run_word_density(chip: DramChip, config: WordDensityStudyConfig) -> WordDensityResult:
    """Bit-flip density per data word (Figure 7).

    Histograms the number of bit flips per ``word_bits``-bit word over the
    words holding at least one flip.
    """
    characterizer = RowHammerCharacterizer(chip)
    data_pattern = resolve_pattern(config.data_pattern, chip.profile)
    victims = characterizer.victims(config.victims)
    hammer_count = resolve_hammer_count(
        chip, config.hammer_count, config.target_rate, data_pattern, config.bank, victims
    )

    outcomes = characterizer.hammer_all_victims(
        hammer_count, data_pattern=data_pattern, bank=config.bank, victims=victims
    )
    # Flips per (row, word) of the bank, summed over victims: a word in
    # several victims' neighbourhoods accumulates the flips of each.
    words_per_row = -(-chip.geometry.row_bits // config.word_bits)
    word_counts = np.zeros((chip.geometry.rows_per_bank, words_per_row), dtype=np.int64)
    for outcome in outcomes:
        word_counts[outcome.rows] += outcome.word_flip_counts(config.word_bits)
    flip_counts, num_words = np.unique(word_counts[word_counts > 0], return_counts=True)
    histogram: Dict[int, int] = dict(zip(flip_counts.tolist(), num_words.tolist()))
    return WordDensityResult(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        hammer_count=hammer_count,
        words_by_flip_count=histogram,
    )


def aggregate_fraction_by_flip_count(
    results: Iterable[WordDensityResult],
) -> Dict[int, Dict[str, float]]:
    """Mean / stddev fraction of words with N flips across chips (Figure 7 bars).

    N runs from 1 to :data:`FIGURE7_MAX_FLIPS`, the bars the figure plots.
    """
    per_count: Dict[int, List[float]] = {n: [] for n in range(1, FIGURE7_MAX_FLIPS + 1)}
    for result in results:
        fractions = result.fraction_by_flip_count()
        for n in range(1, FIGURE7_MAX_FLIPS + 1):
            per_count[n].append(fractions.get(n, 0.0))
    aggregated: Dict[int, Dict[str, float]] = {}
    for n, values in per_count.items():
        if values:
            aggregated[n] = {"mean": mean(values), "stddev": stddev(values)}
        else:
            aggregated[n] = {"mean": 0.0, "stddev": 0.0}
    return aggregated


def single_flip_fraction(result: WordDensityResult) -> float:
    """Fraction of flip-containing words that hold exactly one flip.

    DDR3/DDR4 chips show an exponential-decay distribution dominated by
    single-flip words; LPDDR4 chips (whose on-die ECC hides most single-bit
    errors) show a much smaller single-flip fraction (Observation 9).
    """
    return result.fraction_by_flip_count().get(1, 0.0)
