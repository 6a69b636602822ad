"""Performance metrics used by the mitigation evaluation (Section 6.2.1).

* *Weighted speedup* measures multi-programmed job throughput:
  ``sum_i IPC_shared_i / IPC_alone_i``.
* *Normalized system performance* is the weighted speedup of a configuration
  normalized to the baseline (no mitigation) configuration of the same
  workload; the paper reports it as a percentage.
* *DRAM bandwidth overhead* is the DRAM bank-time consumed by the mitigation
  mechanism relative to the bank-time consumed by demand traffic, as a
  percentage (Figure 10a spans far above 100% for aggressive mechanisms).
"""

from __future__ import annotations

from typing import Sequence


def weighted_speedup(shared_ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """Weighted speedup of a multi-programmed run.

    >>> weighted_speedup([1.0, 1.0], [2.0, 2.0])
    1.0
    """
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("shared and alone IPC lists must have the same length")
    if not shared_ipcs:
        raise ValueError("at least one core is required")
    total = 0.0
    for shared, alone in zip(shared_ipcs, alone_ipcs):
        if alone <= 0:
            raise ValueError("alone IPC must be positive")
        total += shared / alone
    return total


def normalized_performance(
    weighted_speedup_with_mitigation: float, weighted_speedup_baseline: float
) -> float:
    """Normalized system performance as a percentage of the baseline."""
    if weighted_speedup_baseline <= 0:
        raise ValueError("baseline weighted speedup must be positive")
    return 100.0 * weighted_speedup_with_mitigation / weighted_speedup_baseline


def bandwidth_overhead_percent(
    mitigation_busy_cycles: float, demand_busy_cycles: float
) -> float:
    """Mitigation-consumed DRAM bank-time relative to demand traffic (percent).

    When there is no demand traffic at all the overhead is reported as zero
    (an idle system has no bandwidth for the mitigation to steal).
    """
    if demand_busy_cycles <= 0:
        return 0.0
    return 100.0 * mitigation_busy_cycles / demand_busy_cycles
