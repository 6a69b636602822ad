"""``HC_first`` search: the minimum hammer count causing the first bit flip.

``HC_first`` is the paper's headline vulnerability metric (Figure 8,
Table 4): the smallest number of double-sided hammers that induces any bit
flip anywhere in a chip.  Finding it naively requires a fine hammer-count
sweep over every row; this module implements the practical strategy a
characterization engineer would use:

1. hammer every candidate victim once at the test ceiling to find the rows
   containing the chip's weakest cells, then
2. binary-search the per-victim minimal hammer count over those candidates,
   pruning candidates that cannot beat the best value found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, check_pattern, resolve_pattern
from repro.core.search import descend_and_search
from repro.dram.chip import DramChip
from repro.experiments.study import register_study


@dataclass(frozen=True)
class HCFirstStudyConfig:
    """Parameters of the ``HC_first`` search (Figure 8 / Tables 2 and 4).

    ``hammer_limit`` is the highest hammer count tried (the paper's 150k
    keeps the core loop within one refresh window).  ``max_candidates``
    caps how many victims survive the geometric descent into the binary
    search of precision ``relative_precision`` (see
    :func:`repro.core.search.descend_and_search`).
    """

    hammer_limit: int = DramChip.TEST_LIMIT_HC
    data_pattern: Union[str, DataPattern, None] = None
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None
    relative_precision: float = 0.02
    max_candidates: int = 16

    def __post_init__(self) -> None:
        if self.hammer_limit <= 0:
            raise ValueError("hammer_limit must be positive")
        if not 0 < self.relative_precision < 1:
            raise ValueError("relative_precision must be within (0, 1)")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")
        check_pattern(self.data_pattern)


@dataclass
class HCFirstResult:
    """Result of an ``HC_first`` search on one chip."""

    chip_id: str
    type_node: str
    manufacturer: str
    hcfirst: Optional[int]
    victim_row: Optional[int]
    hammer_limit: int
    data_pattern: str
    candidates_examined: int = 0

    @property
    def rowhammerable(self) -> bool:
        """Whether any bit flip was induced within the hammer limit."""
        return self.hcfirst is not None


@register_study("fig8-hcfirst", config=HCFirstStudyConfig, model_version=1)
def run_hcfirst_search(chip: DramChip, config: HCFirstStudyConfig) -> HCFirstResult:
    """Minimum hammer count causing the first bit flip (Figure 8 / Table 4).

    Implements the search of Section 5.5 with
    :func:`repro.core.search.descend_and_search` over the victim rows.
    """
    characterizer = RowHammerCharacterizer(chip)
    hammer = characterizer.hammer
    data_pattern = resolve_pattern(config.data_pattern, chip.profile)
    victims = characterizer.victims(config.victims)

    def any_flip(victim: int, hammer_count: int) -> bool:
        result = hammer.hammer_victim(
            config.bank, victim, hammer_count, data_pattern=data_pattern
        )
        return result.num_bit_flips > 0

    best_hc, best_victim, examined = descend_and_search(
        victims,
        any_flip,
        hammer_limit=config.hammer_limit,
        relative_precision=config.relative_precision,
        max_candidates=config.max_candidates,
    )
    return HCFirstResult(
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        hcfirst=best_hc,
        victim_row=best_victim,
        hammer_limit=config.hammer_limit,
        data_pattern=data_pattern.name,
        candidates_examined=examined,
    )
