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
from typing import Dict, List, Tuple

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
    blast_radius:
        How many rows on each side of an aggressor the mechanism refreshes;
        the evaluated mechanisms all protect the immediately adjacent rows.
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
    blast_radius: int = 1
    seed: int = 0
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.hcfirst <= 0:
            raise ValueError("hcfirst must be positive")
        if self.banks <= 0 or self.rows_per_bank <= 0:
            raise ValueError("banks and rows_per_bank must be positive")
        if self.blast_radius < 1:
            raise ValueError("blast_radius must be at least 1")
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
        """Rows within the blast radius of an aggressor row (the potential victims)."""
        victims = []
        for distance in range(1, self.blast_radius + 1):
            for victim in (row - distance, row + distance):
                if 0 <= victim < self.rows_per_bank:
                    victims.append(victim)
        return victims


class MitigationMechanism(ABC):
    """Abstract RowHammer mitigation mechanism.

    Subclasses implement :meth:`on_activate` (and optionally
    :meth:`on_refresh` / :meth:`refresh_interval_multiplier`) and report the
    victim rows they want refreshed; the memory controller performs the
    refreshes and charges their cost to the mechanism.
    """

    #: short name used in reports and the registry
    name: str = "abstract"
    #: whether the mechanism's design scales to arbitrarily low HC_first
    #: values (Section 6.1 discusses which mechanisms do not)
    scalable: bool = True

    def __init__(self, config: MitigationConfig) -> None:
        self.config = config
        self.victim_refreshes_requested = 0

    # ------------------------------------------------------------------
    # Hooks called by the memory controller
    # ------------------------------------------------------------------
    @abstractmethod
    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        """Called on every demand activation of (bank, row).

        Returns a list of (bank, row) victim rows to refresh now.
        """

    def on_refresh(self, cycle: int) -> List[Tuple[int, int]]:
        """Called at every periodic refresh command; may return victim rows."""
        return []

    def on_victim_refreshed(self, bank: int, row: int, cycle: int) -> None:
        """Called after the controller has refreshed a victim row."""

    def refresh_interval_multiplier(self) -> float:
        """Scaling applied to tREFI (< 1 refreshes more often, 1 = nominal)."""
        return 1.0

    # ------------------------------------------------------------------
    # Autonomous timers (the event-registration API)
    # ------------------------------------------------------------------
    def register_events(self, port) -> None:
        """Called once when the mechanism is attached to a controller.

        ``port`` is a
        :class:`repro.sim.controller.MitigationEventPort`: a mechanism that
        schedules autonomous work (say, a background scrubber) keeps a
        reference and calls ``port.schedule_timer(cycle)``; the controller
        then dispatches :meth:`on_timer` at that cycle in **both** step
        modes and folds the timer into every event horizon, so the
        event-driven fast-forward can never jump over it.  The timer is
        one-shot: re-arm it from inside :meth:`on_timer` for periodic work.

        All evaluated mechanisms act only inside :meth:`on_activate` and
        :meth:`on_refresh` -- both of which fire at controller events that
        are already part of the horizon (PARA draws its RNG per activation,
        TWiCe advances its table epochs and ProHIT/MRLoc pop their queues
        per refresh command) -- so the default registers nothing.
        """

    def on_timer(self, cycle: int) -> List[Tuple[int, int]]:
        """Dispatched when a timer registered through ``register_events``
        fires; may return (bank, row) victim rows to refresh and re-arm the
        timer through the retained port."""
        return []

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def _request(self, victims: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Record and return a list of requested victim refreshes."""
        self.victim_refreshes_requested += len(victims)
        return victims

    def describe(self) -> Dict[str, object]:
        """Human-readable description of the mechanism's configuration."""
        return {
            "name": self.name,
            "hcfirst": self.config.hcfirst,
            "scalable": self.scalable,
            "victim_refreshes_requested": self.victim_refreshes_requested,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(hcfirst={self.config.hcfirst})"
