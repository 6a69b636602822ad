"""Per-bank and rank-level DRAM timing state machines.

The model enforces the timing constraints that matter for the evaluation's
relative results: row-cycle time within a bank (tRCD / tRAS / tRP / tRC),
activation spacing across banks (tRRD, tFAW), data-bus occupancy for bursts,
and all-bank refresh (tRFC every tREFI).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.sim.timing import DramTimings


@dataclass(slots=True)
class BankState:
    """Timing state of one DRAM bank."""

    timings: DramTimings
    open_row: Optional[int] = None
    #: earliest cycle at which each command type may be issued to this bank
    next_activate: int = 0
    next_precharge: int = 0
    next_read: int = 0
    next_write: int = 0

    # ------------------------------------------------------------------
    # Command legality and issue
    # ------------------------------------------------------------------
    def can_activate(self, cycle: int) -> bool:
        """Whether an ACT may be issued this cycle (bank must be closed)."""
        return self.open_row is None and cycle >= self.next_activate

    def can_precharge(self, cycle: int) -> bool:
        """Whether a PRE may be issued this cycle (a row must be open)."""
        return self.open_row is not None and cycle >= self.next_precharge

    def can_column_access(self, cycle: int, is_write: bool) -> bool:
        """Whether a RD/WR to the open row may be issued this cycle."""
        if self.open_row is None:
            return False
        return cycle >= (self.next_write if is_write else self.next_read)

    def activate(self, cycle: int, row: int) -> None:
        """Issue ACT: open ``row`` and set downstream timing constraints."""
        timings = self.timings
        self.open_row = row
        self.next_read = cycle + timings.trcd
        self.next_write = cycle + timings.trcd
        self.next_precharge = cycle + timings.tras
        self.next_activate = cycle + timings.trc

    def precharge(self, cycle: int) -> None:
        """Issue PRE: close the open row."""
        self.open_row = None
        self.next_activate = max(self.next_activate, cycle + self.timings.trp)

    def column_access(self, cycle: int, is_write: bool) -> int:
        """Issue RD/WR to the open row; returns the data-completion cycle."""
        timings = self.timings
        if is_write:
            data_done = cycle + timings.tcl + timings.burst_cycles + timings.twr
            self.next_precharge = max(self.next_precharge, data_done)
            self.next_read = max(self.next_read, cycle + timings.tccd_l + timings.twtr)
            self.next_write = max(self.next_write, cycle + timings.tccd_l)
        else:
            data_done = cycle + timings.tcl + timings.burst_cycles
            self.next_precharge = max(self.next_precharge, cycle + timings.trtp)
            self.next_read = max(self.next_read, cycle + timings.tccd_l)
            self.next_write = max(self.next_write, cycle + timings.tccd_l)
        return data_done

    def block_until(self, cycle: int) -> None:
        """Block the bank until ``cycle`` (used for refresh)."""
        self.open_row = None
        self.next_activate = max(self.next_activate, cycle)
        self.next_precharge = max(self.next_precharge, cycle)
        self.next_read = max(self.next_read, cycle)
        self.next_write = max(self.next_write, cycle)


@dataclass(slots=True)
class RankState:
    """Rank-level constraints shared by all banks: tRRD, tFAW and the data bus."""

    timings: DramTimings
    next_activate: int = 0
    data_bus_free: int = 0
    recent_activates: Deque[int] = field(default_factory=deque)

    def can_activate(self, cycle: int) -> bool:
        """Whether any bank in the rank may receive an ACT this cycle."""
        if cycle < self.next_activate:
            return False
        self._expire(cycle)
        return len(self.recent_activates) < 4

    def record_activate(self, cycle: int) -> None:
        """Account for an issued ACT (tRRD and tFAW tracking)."""
        self.next_activate = cycle + self.timings.trrd_l
        self.recent_activates.append(cycle)
        self._expire(cycle)

    def can_use_data_bus(self, cycle: int) -> bool:
        """Whether the shared data bus is free for a new burst."""
        return cycle + self.timings.tcl >= self.data_bus_free

    def occupy_data_bus(self, cycle: int) -> None:
        """Occupy the data bus for one burst starting after CAS latency."""
        start = cycle + self.timings.tcl
        self.data_bus_free = max(self.data_bus_free, start + self.timings.burst_cycles)

    def _expire(self, cycle: int) -> None:
        window_start = cycle - self.timings.tfaw
        while self.recent_activates and self.recent_activates[0] <= window_start:
            self.recent_activates.popleft()

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def next_activate_cycle(self) -> int:
        """Earliest cycle at which the rank could admit another ACT.

        Combines the tRRD timer with tFAW: while four activates sit in the
        rolling window, the next one becomes legal only once the oldest
        leaves the window.
        """
        ready = self.next_activate
        if len(self.recent_activates) >= 4:
            ready = max(ready, self.recent_activates[0] + self.timings.tfaw)
        return ready

    def data_bus_ready_cycle(self) -> int:
        """Earliest cycle at which a new burst could claim the data bus."""
        return self.data_bus_free - self.timings.tcl
