"""Technology-scaling projection of ``HC_first`` (Section 6 motivation).

The paper's mitigation study sweeps ``HC_first`` far below today's observed
minimum (4.8k) because the characterization shows a clear downward trend
from older to newer technology nodes.  This module fits that trend and
projects the minimum ``HC_first`` of future technology nodes.  Figure 10's
sweep itself (200k down to 64) is
:data:`repro.analysis.mitigation_study.DEFAULT_HCFIRST_SWEEP`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.vulnerability import PROFILES, TypeNode

#: Observed minimum HC_first per generation ordered oldest to newest, taken
#: from Table 4 (the smallest value across manufacturers per type-node) as
#: the calibrated profiles hold it.
OBSERVED_GENERATION_MINIMA: Tuple[Tuple[str, float], ...] = tuple(
    (
        type_node.value,
        min(profile.hcfirst_min for (node, _), profile in PROFILES.items() if node is type_node),
    )
    for type_node in TypeNode
)

#: The nodes manufacturers are forecast to reach next (Section 6.3).
FUTURE_GENERATIONS: Tuple[str, ...] = ("1z", "1a")


@dataclass(frozen=True)
class ScalingProjection:
    """An exponential fit of ``HC_first`` versus generation index."""

    intercept_log10: float
    slope_log10_per_generation: float
    generations: Tuple[str, ...]

    def hcfirst_at(self, generation_index: float) -> float:
        """Projected ``HC_first`` at a (possibly fractional/future) generation index."""
        return 10 ** (self.intercept_log10 + self.slope_log10_per_generation * generation_index)

    def generations_until(self, target_hcfirst: float) -> Optional[float]:
        """How many generations beyond the last observed one until the target.

        Returns ``None`` if the fitted trend is not decreasing.
        """
        if self.slope_log10_per_generation >= 0:
            return None
        last_index = len(self.generations) - 1
        target_index = (math.log10(target_hcfirst) - self.intercept_log10) / (
            self.slope_log10_per_generation
        )
        return target_index - last_index


def fit_scaling_trend() -> ScalingProjection:
    """Least-squares fit of log10(HC_first) against generation index.

    The points are :data:`OBSERVED_GENERATION_MINIMA`.

    >>> projection = fit_scaling_trend()
    >>> projection.slope_log10_per_generation < 0
    True
    """
    observations = OBSERVED_GENERATION_MINIMA
    xs = list(range(len(observations)))
    ys = [math.log10(value) for _label, value in observations]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denominator
    intercept = mean_y - slope * mean_x
    return ScalingProjection(
        intercept_log10=intercept,
        slope_log10_per_generation=slope,
        generations=tuple(label for label, _value in observations),
    )


def project_future_hcfirst() -> Dict[str, float]:
    """Project the minimum ``HC_first`` of the :data:`FUTURE_GENERATIONS`.

    The projection extrapolates the fitted generation-over-generation
    decline past the last observed generation.
    """
    projection = fit_scaling_trend()
    last_index = len(OBSERVED_GENERATION_MINIMA) - 1
    projected: Dict[str, float] = {}
    for offset, label in enumerate(FUTURE_GENERATIONS, start=1):
        projected[label] = projection.hcfirst_at(last_index + offset)
    return projected
