"""Common interface between the memory controller and mitigation mechanisms.

A mechanism observes every demand row activation and may request *victim
refreshes*: refreshes of rows adjacent to a heavily activated aggressor, to
restore their charge before a RowHammer bit flip can occur.  It may also
piggyback work on the periodic refresh command, or globally increase the
refresh rate.

Every mechanism is parameterized by the ``HC_first`` it must protect against
(the chip's vulnerability level), which is how the paper studies scalability
to future, more vulnerable chips.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sim.timing import DDR4_2400, DramTimings


@dataclass(frozen=True)
class MitigationConfig:
    """Parameters shared by all mitigation mechanisms.

    Attributes
    ----------
    hcfirst:
        The hammer count at which the protected chip's weakest cell flips.
        The mechanism must guarantee no row's neighbours accumulate this
        many activations without an intervening refresh of the row.
    banks, rows_per_bank:
        Geometry of the protected memory (sizes the tracking structures).
    timings:
        DRAM timings (used to convert between time and activation budgets).
    seed:
        RNG seed for probabilistic mechanisms.
    time_scale:
        Fraction of a refresh window the simulation actually models.  The
        paper simulates hundreds of millions of instructions, long enough
        for per-row activation counters to reach thresholds like
        ``HC_first / 4``; the pure-Python simulator models a much shorter
        window, so counter-based mechanisms (TWiCe, the ideal mechanism)
        scale their thresholds by this factor to preserve the *rate* of
        mitigation refreshes (refreshes per activation), which is what
        determines their bandwidth and performance overhead.  Stateless
        mechanisms (PARA) and rate-based mechanisms (increased refresh rate,
        ProHIT's per-REF refresh) are unaffected.
    """

    hcfirst: int
    banks: int = 16
    rows_per_bank: int = 16384
    timings: DramTimings = field(default_factory=lambda: DDR4_2400)
    seed: int = 0
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.hcfirst <= 0:
            raise ValueError("hcfirst must be positive")
        if self.banks <= 0 or self.rows_per_bank <= 0:
            raise ValueError("banks and rows_per_bank must be positive")
        if not 0.0 < self.time_scale <= 1.0:
            raise ValueError("time_scale must be within (0, 1]")

    @property
    def scaled_hcfirst(self) -> float:
        """``HC_first`` scaled to the simulated fraction of a refresh window."""
        return max(1.0, self.hcfirst * self.time_scale)

    @property
    def refresh_window_cycles(self) -> int:
        """Refresh window in DRAM cycles."""
        return self.timings.refresh_window_cycles

    @property
    def refreshes_per_window(self) -> int:
        """Number of refresh intervals per refresh window."""
        return self.timings.refreshes_per_window

    def adjacent_rows(self, row: int) -> List[int]:
        """The in-range rows next to an aggressor row (the potential victims).

        Every evaluated mechanism protects the immediately adjacent rows,
        ``row - 1`` then ``row + 1``.
        """
        return [victim for victim in (row - 1, row + 1) if 0 <= victim < self.rows_per_bank]


class MitigationMechanism(ABC):
    """Abstract RowHammer mitigation mechanism.

    Subclasses implement :meth:`on_activate` (and optionally
    :meth:`on_refresh` / :meth:`refresh_interval_multiplier`) and report the
    victim rows they want refreshed; the memory controller performs the
    refreshes and charges their cost to the mechanism.

    A mechanism acts only through these hooks, and the controller calls
    each of them (and :meth:`on_victim_refreshed`) at one of its own events:
    a demand activation, a periodic refresh command or a victim refresh.
    PARA and MRLoc draw their RNG per activation; ProHIT refreshes its top
    hot entry and TWiCe prunes its table per refresh command.  The
    event-driven simulator skips the cycles between events, so a mechanism
    must never assume the controller is ticked on every cycle.

    The Figure 10 harness relies on this contract: a mechanism whose
    multiplier is 1.0 and whose hooks request no victim leaves the run
    identical to an unmitigated one, so the harness reuses the unmitigated
    run for it instead of simulating again (see
    :mod:`repro.analysis.mitigation_study`).  A new mechanism must therefore
    not act outside its hooks, for example by reading or changing
    controller state of its own accord.
    """

    #: short name used in reports and the registry
    name: str = "abstract"

    def __init__(self, config: MitigationConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Hooks called by the memory controller
    # ------------------------------------------------------------------
    @abstractmethod
    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        """Called on every demand activation of (bank, row).

        Returns a list of (bank, row) victim rows to refresh now.
        """

    def on_refresh(self, cycle: int) -> List[Tuple[int, int]]:
        """Called at every periodic refresh command; may return victim rows.

        This is the hook for periodic work: refresh commands recur every
        tREFI (scaled by :meth:`refresh_interval_multiplier`).
        """
        return []

    def on_victim_refreshed(self, bank: int, row: int, cycle: int) -> None:
        """Called after the controller has refreshed a victim row."""

    def refresh_interval_multiplier(self) -> float:
        """Scaling applied to tREFI (< 1 refreshes more often, 1 = nominal)."""
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(hcfirst={self.config.hcfirst})"
