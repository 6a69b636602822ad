"""Ideal refresh-based mitigation mechanism (Section 6.1, last paragraph).

The oracle the paper compares everything against: a mechanism that tracks
every activation of every row and refreshes a victim row only at the last
possible moment -- just before one of its aggressors reaches ``HC_first``
activations since the victim was last refreshed.  It issues the minimum
possible number of additional refreshes for a refresh-based approach, so its
overhead is a lower bound for this whole mitigation class.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mitigations.base import MitigationConfig, MitigationMechanism


class IdealRefresh(MitigationMechanism):
    """Oracle selective-refresh mechanism.

    Implementation note: the mechanism keeps one activation counter per
    potential victim row, counting activations of the victim's adjacent
    rows since the victim was last refreshed (either by the mechanism or by
    the periodic auto-refresh, which sweeps every row once per refresh
    window).  When the counter reaches ``HC_first - 1`` the victim is
    refreshed and the counter reset -- exactly one refresh per ``HC_first``
    aggressor activations, the minimum a refresh-based defense can do.
    """

    name = "Ideal"

    def __init__(self, config: MitigationConfig) -> None:
        super().__init__(config)
        self._counters: Dict[Tuple[int, int], int] = {}
        self._refresh_window_cycles = config.refresh_window_cycles
        self._last_window_sweep = 0

    def _sweep_if_window_elapsed(self, cycle: int) -> None:
        """Model the periodic auto-refresh restoring every row once per window."""
        if cycle - self._last_window_sweep >= self._refresh_window_cycles:
            self._counters.clear()
            self._last_window_sweep = cycle

    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        self._sweep_if_window_elapsed(cycle)
        victims: List[Tuple[int, int]] = []
        threshold = max(1, int(self.config.scaled_hcfirst) - 1)
        for victim_row in self.config.adjacent_rows(row):
            key = (bank, victim_row)
            count = self._counters.get(key, 0) + 1
            if count >= threshold:
                victims.append(key)
                self._counters[key] = 0
            else:
                self._counters[key] = count
        return victims

    def on_victim_refreshed(self, bank: int, row: int, cycle: int) -> None:
        self._counters[(bank, row)] = 0

    @property
    def tracked_rows(self) -> int:
        """Number of rows currently holding a non-zero activation count."""
        return len(self._counters)
