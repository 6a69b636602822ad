"""Small statistics helpers used by the analysis layer.

The paper reports most per-configuration results either as box-and-whisker
distributions (Figure 8) or as means with standard deviations (Figures 6, 7,
and 9).  :class:`BoxStats` captures exactly the quantities a box plot needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class BoxStats:
    """Summary statistics matching a box-and-whisker plot.

    Whiskers extend at most 1.5x the inter-quartile range beyond the box, as
    in the paper (Section 5.5, footnote 9); data points beyond the whiskers
    are reported as outliers.
    """

    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    lower_whisker: float
    upper_whisker: float
    outliers: tuple
    count: int


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("cannot compute quantile of empty sequence")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    fraction = position - lower
    low = float(sorted_values[lower])
    high = float(sorted_values[upper])
    # Clamp: rounding in the interpolation (e.g. with subnormal inputs) must
    # never push a quantile outside the bracketing samples, or quantiles of
    # the same data could come out non-monotone.
    return min(max(low * (1 - fraction) + high * fraction, low), high)


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute :class:`BoxStats` for a sequence of values."""
    if len(values) == 0:
        raise ValueError("cannot compute box statistics of empty sequence")
    ordered = sorted(float(v) for v in values)
    q1 = _quantile(ordered, 0.25)
    median = _quantile(ordered, 0.50)
    q3 = _quantile(ordered, 0.75)
    iqr = q3 - q1
    lower_limit = q1 - 1.5 * iqr
    upper_limit = q3 + 1.5 * iqr
    in_range = [v for v in ordered if lower_limit <= v <= upper_limit]
    outliers = tuple(v for v in ordered if v < lower_limit or v > upper_limit)
    lower_whisker = min(in_range) if in_range else q1
    upper_whisker = max(in_range) if in_range else q3
    return BoxStats(
        minimum=ordered[0],
        first_quartile=q1,
        median=median,
        third_quartile=q3,
        maximum=ordered[-1],
        lower_whisker=lower_whisker,
        upper_whisker=upper_whisker,
        outliers=outliers,
        count=len(ordered),
    )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input rather than returning NaN)."""
    if len(values) == 0:
        raise ValueError("cannot compute mean of empty sequence")
    return sum(float(v) for v in values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    if len(values) == 0:
        raise ValueError("cannot compute stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((float(v) - mu) ** 2 for v in values) / len(values))
