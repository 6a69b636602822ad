"""Shared result containers for characterization studies.

Results are plain dataclasses with dictionary serialization so that
benchmark harnesses can dump them as JSON-compatible structures and the
analysis layer can aggregate them across chips and configurations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.data_patterns import DataPattern


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

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["flip_rate"] = self.flip_rate
        return data


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

    def flip_rates(self) -> List[float]:
        return [point.flip_rate for point in self.points]

    def to_dict(self) -> Dict[str, object]:
        return {
            "chip_id": self.chip_id,
            "type_node": self.type_node,
            "manufacturer": self.manufacturer,
            "data_pattern": self.data_pattern,
            "points": [point.to_dict() for point in self.points],
        }


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "chip_id": self.chip_id,
            "type_node": self.type_node,
            "manufacturer": self.manufacturer,
            "hammer_count": self.hammer_count,
            "unique_flips_total": self.unique_flips_total,
            "coverage_by_pattern": dict(self.coverage_by_pattern),
            "flips_by_pattern": dict(self.flips_by_pattern),
            "worst_case_pattern": self.worst_case_pattern,
        }


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "chip_id": self.chip_id,
            "type_node": self.type_node,
            "manufacturer": self.manufacturer,
            "hammer_count": self.hammer_count,
            "flips_by_offset": {str(k): v for k, v in sorted(self.flips_by_offset.items())},
            "fraction_by_offset": {
                str(k): v for k, v in sorted(self.fraction_by_offset().items())
            },
        }


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "chip_id": self.chip_id,
            "type_node": self.type_node,
            "manufacturer": self.manufacturer,
            "hammer_count": self.hammer_count,
            "words_by_flip_count": {str(k): v for k, v in sorted(self.words_by_flip_count.items())},
            "fraction_by_flip_count": {
                str(k): v for k, v in sorted(self.fraction_by_flip_count().items())
            },
        }


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "chip_id": self.chip_id,
            "type_node": self.type_node,
            "manufacturer": self.manufacturer,
            "word_bits": self.word_bits,
            "hc_first_word_with": {str(k): v for k, v in sorted(self.hc_first_word_with.items())},
            "multiplier_1_to_2": self.multiplier(1, 2),
            "multiplier_2_to_3": self.multiplier(2, 3),
        }


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

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["monotonic_fraction"] = self.monotonic_fraction
        return data
