"""Increased refresh rate mitigation [Kim+ ISCA'14], Section 6.1.

The original RowHammer study's simplest mitigation: refresh every row often
enough that no aggressor can accumulate ``HC_first`` activations within one
refresh window.  The refresh window must shrink to ``HC_first * tRC``, which
means the refresh rate grows without bound as chips become more vulnerable;
the paper notes the mechanism cannot scale below ``HC_first`` of roughly 32k
because refreshing all rows faster than that starves demand traffic.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mitigations.base import MitigationConfig, MitigationMechanism


class IncreasedRefreshRate(MitigationMechanism):
    """Globally increase the DRAM refresh rate.

    The mechanism issues no victim refreshes of its own; its entire effect
    comes from shortening the refresh interval, which the controller applies
    through :meth:`refresh_interval_multiplier`.
    """

    name = "IncreasedRefresh"

    def __init__(self, config: MitigationConfig) -> None:
        super().__init__(config)
        timings = config.timings
        required_window_cycles = config.hcfirst * timings.trc
        nominal_window_cycles = timings.refresh_window_cycles
        self._multiplier = min(1.0, required_window_cycles / nominal_window_cycles)

    @property
    def refresh_rate_multiplier(self) -> float:
        """How many times more often than nominal the chip must be refreshed."""
        if self._multiplier <= 0:
            return float("inf")
        return 1.0 / self._multiplier

    def refresh_interval_multiplier(self) -> float:
        return self._multiplier

    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        return []
