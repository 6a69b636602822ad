"""Algorithm 1: the general RowHammer characterization routine.

:class:`RowHammerCharacterizer` drives a :class:`~repro.dram.chip.DramChip`
through the paper's test procedure: for each data pattern, for each victim
row, for each hammer count, run a worst-case double-sided hammer and record
every observed bit flip.  The narrower studies in the sibling modules
(coverage, sweeps, spatial, first-flip, ...) are built on top of this class.

The registered ``alg1-characterization`` study runs this loop one hammer
count per work unit, so it runs through an
:class:`~repro.experiments.session.ExperimentSession`; to run the whole
grid on one chip in place, call :meth:`RowHammerCharacterizer.run`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.data_patterns import DataPattern, resolve_pattern, worst_case_pattern
from repro.core.hammer import BitFlip, DoubleSidedHammer, HammerResult
from repro.dram.chip import DramChip
from repro.experiments.study import WorkUnit, register_study


@dataclass(frozen=True)
class CharacterizationConfig:
    """Parameters of a characterization run.

    Attributes
    ----------
    hammer_counts:
        Hammer counts to sweep (Algorithm 1 line 8).  The paper sweeps
        2k-150k; the default covers the same range more coarsely.
    data_patterns:
        Data patterns to test (Algorithm 1 line 2); ``None`` means only the
        chip's worst-case pattern.
    banks:
        Banks to test; ``None`` means bank 0 only (chips behave identically
        across banks in the model, as the paper's analyses are bank-agnostic).
    victim_rows:
        Victim rows to test; ``None`` means every row whose double-sided
        neighbourhood fits in the bank.
    max_test_hammers:
        Safety limit corresponding to the paper's 150k-hammer ceiling, which
        keeps the core loop within a refresh window.
    """

    hammer_counts: Tuple[int, ...] = (10_000, 25_000, 50_000, 100_000, 150_000)
    data_patterns: Optional[Tuple[DataPattern, ...]] = None
    banks: Optional[Tuple[int, ...]] = None
    victim_rows: Optional[Tuple[int, ...]] = None
    max_test_hammers: int = 150_000

    def __post_init__(self) -> None:
        if not self.hammer_counts:
            raise ValueError("at least one hammer count is required")
        if any(hc <= 0 for hc in self.hammer_counts):
            raise ValueError("hammer counts must be positive")
        if len(set(self.hammer_counts)) != len(self.hammer_counts):
            raise ValueError(f"hammer_counts must not repeat a value: {self.hammer_counts}")
        if max(self.hammer_counts) > self.max_test_hammers:
            raise ValueError(
                f"hammer counts exceed the test limit of {self.max_test_hammers}"
            )


@dataclass
class CharacterizationRecord:
    """Flips observed for one (pattern, hammer count, victim) combination."""

    data_pattern: str
    hammer_count: int
    bank: int
    victim_row: int
    flips: Tuple[BitFlip, ...]


@dataclass
class CharacterizationResult:
    """All records produced by one characterization run on one chip."""

    chip_id: str
    type_node: str
    manufacturer: str
    config: CharacterizationConfig
    records: List[CharacterizationRecord] = field(default_factory=list)
    cells_tested_per_victim: int = 0


# ----------------------------------------------------------------------
# Work-unit decomposition: one unit per hammer count of the grid
# ----------------------------------------------------------------------
def _decompose_characterization(config: CharacterizationConfig) -> List[WorkUnit]:
    """Shard Algorithm 1 along its hammer-count axis.

    The hammer counts are the one grid axis always enumerable from the
    config alone (patterns and victims may default from the chip), and each
    count is by far the most expensive dimension of the loop.
    """
    # Embedding the single-count restriction of the config satisfies the
    # WorkUnit cache contract by construction: every other config field
    # (patterns, banks, victims, test limit) rides along in the params, so
    # adding a hammer count to a sweep leaves the existing counts' cache
    # entries valid.
    return [
        WorkUnit(
            study="alg1-characterization",
            unit_id=f"hc{hammer_count}",
            params={
                "hammer_count": hammer_count,
                "config": dataclasses.replace(config, hammer_counts=(hammer_count,)),
            },
        )
        for hammer_count in config.hammer_counts
    ]


def _merge_characterization(
    config: CharacterizationConfig, payloads: Sequence["CharacterizationResult"]
) -> "CharacterizationResult":
    """Interleave per-hammer-count records back into Algorithm 1's order.

    Each unit's records are ordered pattern -> bank -> victim for its fixed
    hammer count; Algorithm 1 (:meth:`RowHammerCharacterizer.run`) iterates
    hammer counts innermost, so the merged record list takes one record per
    unit per (pattern, bank, victim) position.
    """
    first = payloads[0]
    record_counts = {len(payload.records) for payload in payloads}
    if len(record_counts) != 1:
        raise ValueError(
            f"characterization units disagree on grid size: {sorted(record_counts)}"
        )
    merged = CharacterizationResult(
        chip_id=first.chip_id,
        type_node=first.type_node,
        manufacturer=first.manufacturer,
        config=config,
        cells_tested_per_victim=first.cells_tested_per_victim,
    )
    for position in range(len(first.records)):
        for payload in payloads:
            merged.records.append(payload.records[position])
    return merged


@register_study(
    "alg1-characterization",
    config=CharacterizationConfig,
    description="Algorithm 1: the full characterization loop over one chip.",
    decompose=_decompose_characterization,
    merge=_merge_characterization,
)
def _run_characterization_unit(
    chip: DramChip, config: CharacterizationConfig, unit: WorkUnit
) -> "CharacterizationResult":
    """Run the full pattern/bank/victim loop at one hammer count.

    A session runs each hammer count's unit against a fresh copy of the
    chip, so every count is measured from the same pristine state.
    """
    return RowHammerCharacterizer(chip).run(unit.param_dict["config"])


class RowHammerCharacterizer:
    """Runs Algorithm 1 against one chip.

    The characterizer hammers each victim row individually with its
    worst-case access sequence, exactly as the paper's methodology requires
    for comparability across testing infrastructures (Section 4.3).
    """

    def __init__(self, chip: DramChip) -> None:
        self.chip = chip
        self.hammer = DoubleSidedHammer(chip)

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def default_victims(self) -> List[int]:
        """All victim rows whose neighbourhood fits entirely in a bank."""
        return self.hammer.testable_victims()

    def victims(self, victims: Optional[Sequence[int]] = None) -> List[int]:
        """The given victim rows, or every testable row of a bank for ``None``."""
        return list(victims) if victims is not None else self.default_victims()

    def _resolve(self, config: CharacterizationConfig) -> Tuple[
        Tuple[DataPattern, ...], Tuple[int, ...], Tuple[int, ...]
    ]:
        patterns = config.data_patterns or (worst_case_pattern(self.chip.profile),)
        banks = config.banks or (0,)
        victims = config.victim_rows or tuple(self.default_victims())
        return tuple(patterns), tuple(banks), tuple(victims)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def run(self, config: Optional[CharacterizationConfig] = None) -> CharacterizationResult:
        """Execute the full characterization loop and collect every record."""
        config = config or CharacterizationConfig()
        patterns, banks, victims = self._resolve(config)
        result = CharacterizationResult(
            chip_id=self.chip.chip_id,
            type_node=self.chip.profile.type_node.value,
            manufacturer=self.chip.profile.manufacturer,
            config=config,
            cells_tested_per_victim=self.chip.geometry.row_bits,
        )
        for pattern in patterns:
            for bank in banks:
                for victim in victims:
                    for hammer_count in config.hammer_counts:
                        outcome = self.hammer.hammer_victim(
                            bank, victim, hammer_count, data_pattern=pattern
                        )
                        result.records.append(
                            CharacterizationRecord(
                                data_pattern=pattern.name,
                                hammer_count=hammer_count,
                                bank=bank,
                                victim_row=victim,
                                flips=tuple(outcome.flips),
                            )
                        )
        return result

    # ------------------------------------------------------------------
    # Convenience primitives used by the focused studies
    # ------------------------------------------------------------------
    def hammer_all_victims(
        self,
        hammer_count: int,
        data_pattern: Optional[DataPattern] = None,
        bank: int = 0,
        victims: Optional[Sequence[int]] = None,
    ) -> List[HammerResult]:
        """Hammer every victim row once at a fixed hammer count."""
        data_pattern = resolve_pattern(data_pattern, self.chip.profile)
        victims = self.victims(victims)
        return [
            self.hammer.hammer_victim(bank, victim, hammer_count, data_pattern=data_pattern)
            for victim in victims
        ]

    def cells_tested(self, victims: Sequence[int]) -> int:
        """Number of distinct victim-row cells covered by a set of victims."""
        return len(victims) * self.chip.geometry.row_bits
