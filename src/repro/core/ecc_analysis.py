"""Effect of ECC strength on the effective ``HC_first`` (Figure 9).

A single-error-correcting code masks the first bit flip in every 64-bit
word, so a chip protected by SEC ECC effectively fails only once some word
accumulates *two* flips; a double-error-correcting code pushes that to
three.  The study therefore measures, per chip,

* ``HC_first``  -- hammers until the first word with one flip,
* ``HC_second`` -- hammers until the first word with two flips,
* ``HC_third``  -- hammers until the first word with three flips,

and reports the multiplicative headroom each additional bit of correction
capability buys (Observations 12-13).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, check_pattern, resolve_pattern
from repro.core.results import EccWordAnalysis
from repro.core.search import descend_and_search
from repro.dram.chip import DramChip
from repro.experiments.study import register_study
from repro.utils.stats import mean, stddev


def _max_flips_in_any_word(outcomes, word_bits: int) -> int:
    """Largest number of flips observed in any single word across outcomes."""
    counts = Counter(
        (flip.bank, flip.row, flip.bit_index // word_bits)
        for outcome in outcomes
        for flip in outcome.flips
    )
    return max(counts.values()) if counts else 0


@dataclass(frozen=True)
class EccWordStudyConfig:
    """Parameters of the Figure 9 ECC-strength analysis."""

    word_bits: int = 64
    flips_per_word: Tuple[int, ...] = (1, 2, 3)
    hammer_limit: int = 300_000
    data_pattern: Union[str, DataPattern, None] = None
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None
    relative_precision: float = 0.03
    max_candidates: int = 8

    def __post_init__(self) -> None:
        if self.word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if self.hammer_limit <= 0:
            raise ValueError("hammer_limit must be positive")
        if not self.flips_per_word or any(n < 1 for n in self.flips_per_word):
            raise ValueError("flips_per_word must hold positive counts")
        if not 0 < self.relative_precision < 1:
            raise ValueError("relative_precision must be within (0, 1)")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")
        check_pattern(self.data_pattern)


@register_study("fig9-ecc-words", config=EccWordStudyConfig)
def run_ecc_word_analysis(chip: DramChip, config: EccWordStudyConfig) -> EccWordAnalysis:
    """Hammer count to land 1, 2 and 3 flips in one word (Figure 9).

    For each requested per-word flip count the search screens all victims
    at the hammer limit, keeps the victims whose words accumulate the most
    flips, and binary-searches the minimal hammer count.

    The paper excludes LPDDR4 chips from this analysis because their
    on-die ECC already obfuscates the visible flips; on an LPDDR4 chip the
    result describes the flips visible *after* on-die ECC.
    """
    characterizer = RowHammerCharacterizer(chip)
    hammer = characterizer.hammer
    data_pattern = resolve_pattern(config.data_pattern, chip.profile)
    victims = characterizer.victims(config.bank, config.victims)

    analysis = EccWordAnalysis(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        word_bits=config.word_bits,
        hc_first_word_with={},
    )
    for target in config.flips_per_word:

        def reaches_target(victim: int, hammer_count: int, target=target) -> bool:
            outcome = hammer.hammer_victim(
                config.bank, victim, hammer_count, data_pattern=data_pattern
            )
            return _max_flips_in_any_word([outcome], config.word_bits) >= target

        best, _victim, _examined = descend_and_search(
            victims,
            reaches_target,
            hammer_limit=config.hammer_limit,
            relative_precision=config.relative_precision,
            max_candidates=config.max_candidates,
        )
        analysis.hc_first_word_with[int(target)] = best
    return analysis


def aggregate_hc_and_multipliers(
    analyses: Iterable[EccWordAnalysis],
    flips_per_word: Sequence[int] = (1, 2, 3),
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Aggregate Figure 9's two panels across chips of one configuration.

    Returns ``{"hc": {n: {mean, stddev}}, "multiplier": {n: {mean, stddev}}}``
    where the multiplier at ``n`` is the HC increase from ``n-1`` to ``n``
    flips per word.
    """
    analyses = list(analyses)
    hc_values: Dict[int, List[float]] = {n: [] for n in flips_per_word}
    multipliers: Dict[int, List[float]] = {n: [] for n in flips_per_word if n > 1}
    for analysis in analyses:
        for n in flips_per_word:
            value = analysis.hc_first_word_with.get(n)
            if value is not None:
                hc_values[n].append(float(value))
            if n > 1:
                multiplier = analysis.multiplier(n - 1, n)
                if multiplier is not None:
                    multipliers[n].append(multiplier)
    def summarize(series: Dict[int, List[float]]) -> Dict[int, Dict[str, float]]:
        summary: Dict[int, Dict[str, float]] = {}
        for key, values in series.items():
            if values:
                summary[key] = {"mean": mean(values), "stddev": stddev(values)}
            else:
                summary[key] = {"mean": 0.0, "stddev": 0.0}
        return summary

    return {"hc": summarize(hc_values), "multiplier": summarize(multipliers)}
