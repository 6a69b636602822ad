"""Shared result containers for characterization studies.

Results are plain dataclasses: two results are the same when they compare
equal, and the analysis layer aggregates them across chips and
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class SweepPoint:
    """One point of a hammer-count sweep: HC versus observed flip statistics."""

    hammer_count: int
    bit_flips: int
    cells_tested: int

    @property
    def flip_rate(self) -> float:
        """Observed RowHammer bit-flip rate (flips / cells tested)."""
        if self.cells_tested == 0:
            return 0.0
        return self.bit_flips / self.cells_tested


@dataclass
class SweepResult:
    """A full hammer-count sweep for one chip (one curve of Figure 5)."""

    chip_id: str
    type_node: str
    manufacturer: str
    data_pattern: str
    points: List[SweepPoint] = field(default_factory=list)

    def hammer_counts(self) -> List[int]:
        return [point.hammer_count for point in self.points]


@dataclass
class CoverageResult:
    """Per-data-pattern coverage of all observed bit flips (Figure 4)."""

    chip_id: str
    type_node: str
    manufacturer: str
    hammer_count: int
    unique_flips_total: int
    coverage_by_pattern: Dict[str, float] = field(default_factory=dict)
    flips_by_pattern: Dict[str, int] = field(default_factory=dict)

    @property
    def worst_case_pattern(self) -> Optional[str]:
        """The pattern with the highest coverage (Table 3), if any flips exist."""
        if not self.coverage_by_pattern:
            return None
        return max(self.coverage_by_pattern, key=self.coverage_by_pattern.get)


@dataclass
class SpatialResult:
    """Distribution of bit flips by row offset from the victim (Figure 6)."""

    chip_id: str
    type_node: str
    manufacturer: str
    hammer_count: int
    flips_by_offset: Dict[int, int] = field(default_factory=dict)

    @property
    def total_flips(self) -> int:
        return sum(self.flips_by_offset.values())

    def fraction_by_offset(self) -> Dict[int, float]:
        """Fraction of all flips observed at each row offset."""
        total = self.total_flips
        if total == 0:
            return {offset: 0.0 for offset in self.flips_by_offset}
        return {offset: count / total for offset, count in self.flips_by_offset.items()}

    def max_observed_offset(self) -> int:
        """Largest absolute row offset at which any flip was observed."""
        offsets = [abs(o) for o, count in self.flips_by_offset.items() if count > 0]
        return max(offsets) if offsets else 0


@dataclass
class WordDensityResult:
    """Distribution of the number of bit flips per 64-bit word (Figure 7)."""

    chip_id: str
    type_node: str
    manufacturer: str
    hammer_count: int
    words_by_flip_count: Dict[int, int] = field(default_factory=dict)

    @property
    def total_words_with_flips(self) -> int:
        return sum(self.words_by_flip_count.values())

    def fraction_by_flip_count(self) -> Dict[int, float]:
        """Fraction of flip-containing words that contain exactly N flips."""
        total = self.total_words_with_flips
        if total == 0:
            return {}
        return {n: count / total for n, count in self.words_by_flip_count.items()}

    def max_flips_in_any_word(self) -> int:
        populated = [n for n, count in self.words_by_flip_count.items() if count > 0]
        return max(populated) if populated else 0


@dataclass
class EccWordAnalysis:
    """``HC`` required to find the first word containing 1, 2 and 3 flips (Figure 9)."""

    chip_id: str
    type_node: str
    manufacturer: str
    word_bits: int
    hc_first_word_with: Dict[int, Optional[int]] = field(default_factory=dict)

    def multiplier(self, from_flips: int, to_flips: int) -> Optional[float]:
        """HC multiplier between finding ``from_flips`` and ``to_flips`` per word."""
        low = self.hc_first_word_with.get(from_flips)
        high = self.hc_first_word_with.get(to_flips)
        if low is None or high is None or low == 0:
            return None
        return high / low


@dataclass
class ProbabilityResult:
    """Single-cell flip-probability monotonicity statistics (Table 5)."""

    chip_id: str
    type_node: str
    manufacturer: str
    hammer_counts: Tuple[int, ...]
    iterations: int
    cells_observed: int
    cells_monotonic: int

    @property
    def monotonic_fraction(self) -> float:
        """Fraction of observed cells with monotonically non-decreasing probability."""
        if self.cells_observed == 0:
            return 0.0
        return self.cells_monotonic / self.cells_observed
