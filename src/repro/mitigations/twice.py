"""TWiCe: time-window counters [Lee+ ISCA'19], Section 6.1.

TWiCe keeps a table entry per candidate victim row with two counters: an
*activation* counter (how many times the victim's aggressors have been
activated since the entry was allocated) and a *lifetime* counter (how many
refresh intervals the entry has existed).  A victim whose activation count
reaches the row-hammer threshold ``tRH = HC_first / 4`` is refreshed; during
every periodic refresh the table is pruned of entries whose activation rate
is too low to ever reach the threshold within the refresh window.

TWiCe's pruning rule breaks down once ``tRH`` falls below the number of
refresh intervals per refresh window (about 8k): the pruning threshold
becomes fractional and the table can no longer be kept small, so the paper
deems the mechanism non-scalable below ``HC_first`` of roughly 32k and
evaluates an idealized variant ("TWiCe-ideal") that assumes those issues
away at lower ``HC_first`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mitigations.base import MitigationConfig, MitigationMechanism


@dataclass
class _TwiceEntry:
    """Tracking state for one candidate victim row."""

    activation_count: int = 0
    lifetime_intervals: int = 0


class TWiCe(MitigationMechanism):
    """Time-window counter-based victim tracking.

    Parameters
    ----------
    config:
        Shared mitigation configuration.
    ideal:
        When true, models "TWiCe-ideal": the variant the paper evaluates for
        ``HC_first`` below 32k, which assumes the pruning-latency and
        table-size problems of the real design are solved.  It simulates
        exactly like TWiCe; only its name differs, and with it the
        ``HC_first`` range the registry evaluates it over.
    """

    name = "TWiCe"

    def __init__(self, config: MitigationConfig, ideal: bool = False) -> None:
        super().__init__(config)
        if ideal:
            self.name = "TWiCe-ideal"
        self.row_hammer_threshold = max(1, int(config.scaled_hcfirst) // 4)
        refreshes_per_window = config.refreshes_per_window
        #: minimum activations-per-interval rate an entry must sustain to stay
        self.pruning_threshold = self.row_hammer_threshold / refreshes_per_window
        self._table: Dict[Tuple[int, int], _TwiceEntry] = {}

    @property
    def table_size(self) -> int:
        """Current number of tracked victim rows."""
        return len(self._table)

    # ------------------------------------------------------------------
    # Mechanism hooks
    # ------------------------------------------------------------------
    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        victims: List[Tuple[int, int]] = []
        for victim_row in self.config.adjacent_rows(row):
            key = (bank, victim_row)
            entry = self._table.get(key)
            if entry is None:
                entry = _TwiceEntry()
                self._table[key] = entry
            entry.activation_count += 1
            if entry.activation_count >= self.row_hammer_threshold:
                victims.append(key)
        return victims

    def on_victim_refreshed(self, bank: int, row: int, cycle: int) -> None:
        # Refreshing the victim restores its charge; its tracking entry can
        # be retired.
        self._table.pop((bank, row), None)

    def on_refresh(self, cycle: int) -> List[Tuple[int, int]]:
        """Pruning stage, performed under cover of the periodic refresh."""
        to_prune = []
        for key, entry in self._table.items():
            entry.lifetime_intervals += 1
            if entry.activation_count < self.pruning_threshold * entry.lifetime_intervals:
                to_prune.append(key)
        for key in to_prune:
            del self._table[key]
        return []
