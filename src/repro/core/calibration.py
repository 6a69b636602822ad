"""Per-chip hammer-count calibration for rate-normalized studies.

The paper's spatial-distribution and word-density studies (Figures 6 and 7)
normalize chips to a common RowHammer bit-flip rate by choosing a
chip-specific hammer count.  This module measures a chip's flip rate at a
couple of hammer counts and exploits the log-log-linear relationship between
hammer count and flip rate (Observation 4) to find the hammer count that
produces a requested rate.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import DataPattern, resolve_pattern
from repro.dram.chip import DramChip

#: Slope-extrapolation steps :func:`hammer_count_for_flip_rate` takes at most.
MAX_SEARCH_STEPS = 6
#: Relative tolerance on the achieved rate: the search stops once the
#: measured rate is within ``[target * (1 - tol), target / (1 - tol)]``.
RATE_TOLERANCE = 0.5


def measure_flip_rate(
    chip: DramChip,
    hammer_count: int,
    data_pattern: Optional[DataPattern] = None,
    bank: int = 0,
    victims: Optional[Sequence[int]] = None,
) -> float:
    """Measure the chip's aggregate flip rate at one hammer count."""
    characterizer = RowHammerCharacterizer(chip)
    data_pattern = resolve_pattern(data_pattern, chip.profile)
    victims = characterizer.victims(victims)
    outcomes = characterizer.hammer_all_victims(
        hammer_count, data_pattern=data_pattern, bank=bank, victims=victims
    )
    flips = sum(outcome.num_bit_flips for outcome in outcomes)
    return flips / characterizer.cells_tested(victims)


def resolve_hammer_count(
    chip: DramChip,
    hammer_count: Optional[int],
    target_rate: Optional[float],
    data_pattern: Optional[DataPattern] = None,
    bank: int = 0,
    victims: Optional[Sequence[int]] = None,
) -> int:
    """Hammer count for a (possibly rate-normalized) per-chip study.

    This is the shared normalization policy of the Figure 6 / Figure 7
    studies: calibrate a chip-specific hammer count when ``target_rate`` is
    set, otherwise use the explicit ``hammer_count``, otherwise fall back
    to the 150k test ceiling (also used when the rate is unreachable).
    """
    if target_rate is not None:
        calibrated = hammer_count_for_flip_rate(
            chip,
            target_rate=target_rate,
            data_pattern=data_pattern,
            bank=bank,
            victims=victims,
        )
        if calibrated is not None:
            return calibrated
    if hammer_count is not None:
        return hammer_count
    return DramChip.TEST_LIMIT_HC


def hammer_count_for_flip_rate(
    chip: DramChip,
    target_rate: float,
    data_pattern: Optional[DataPattern] = None,
    bank: int = 0,
    victims: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Find a hammer count producing roughly ``target_rate`` bit flips per cell.

    Returns ``None`` when even the 150k test limit cannot reach the target
    rate.  The search exploits the power-law relationship between hammer
    count and flip rate: each of at most :data:`MAX_SEARCH_STEPS` steps fits
    the local slope from the two most recent measurements and extrapolates
    towards the target, stopping within :data:`RATE_TOLERANCE` of it.
    """
    hammer_limit = DramChip.TEST_LIMIT_HC
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    rate_at_limit = measure_flip_rate(chip, hammer_limit, data_pattern, bank, victims)
    if rate_at_limit < target_rate:
        return None
    current_hc = hammer_limit
    current_rate = rate_at_limit
    previous = (hammer_limit // 2, measure_flip_rate(chip, hammer_limit // 2, data_pattern, bank, victims))
    low, high = target_rate * (1 - RATE_TOLERANCE), target_rate / (1 - RATE_TOLERANCE)
    for _ in range(MAX_SEARCH_STEPS):
        if low <= current_rate <= high:
            return current_hc
        if current_rate == 0.0:
            # The step back also saw no flip, so no slope can be fitted
            # through it: the target lies below the last count that flipped.
            return previous[0]
        prev_hc, prev_rate = previous
        if prev_rate > 0 and prev_rate != current_rate and prev_hc != current_hc:
            slope = (math.log(current_rate) - math.log(prev_rate)) / (
                math.log(current_hc) - math.log(prev_hc)
            )
        else:
            slope = 4.0  # sensible default when the lower point saw no flips
        slope = max(1.0, slope)
        guess = int(current_hc * (target_rate / current_rate) ** (1.0 / slope))
        guess = max(1, min(hammer_limit, guess))
        if guess == current_hc:
            return current_hc
        previous = (current_hc, current_rate)
        current_hc = guess
        current_rate = measure_flip_rate(chip, current_hc, data_pattern, bank, victims)
        if current_rate == 0.0:
            # Undershot below the first flip; step back towards the previous point.
            current_hc = (current_hc + previous[0]) // 2
            current_rate = measure_flip_rate(chip, current_hc, data_pattern, bank, victims)
    return current_hc if current_rate > 0 else None
