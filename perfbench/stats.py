"""Summary statistics shared by the benchmark runner and its report."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), the
    same estimator the benchmark's acceptance check applies to ten runs.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def tail_percentile(
    values: Sequence[float], beyond: int = 10
) -> Optional[Tuple[float, float]]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(percentile, value)``: ``value`` is the order statistic with
    exactly ``beyond`` samples larger than it in sort order, and
    ``percentile`` is the share of samples at or below it, in percent.
    ``None`` when there are too few samples for any percentile to qualify.
    """
    ordered = sorted(values)
    position = len(ordered) - beyond - 1
    if position < 0:
        return None
    return 100.0 * (position + 1) / len(ordered), float(ordered[position])
