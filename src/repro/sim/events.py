"""Indexed priority event queue for the event-driven simulator.

The event-driven fast path of :mod:`repro.sim.system` is keyed on a single
:class:`EventQueue`: every core owns a *wake entry* in the queue (keyed on
:meth:`repro.sim.core.SimpleCore.wake_bound`), and the run loop repeatedly
drains the earliest entry instead of polling every core each cycle.  The
memory controller's horizon rides along directly (the byproduct of its
quiescent tick), so only core indices ever appear as queue keys.

Design
------
The queue is a binary heap of ``[cycle, seq, key]`` entries (the classic
calendar-of-events structure, collapsed to one priority bucket list because
simulated horizons are sparse and irregular -- a fixed-width calendar array
would mostly hold empty buckets) with a side *index* mapping each key to its
live heap entry.  The index makes :meth:`schedule` a reschedule-or-insert
and :meth:`cancel` O(1): superseded entries are marked dead in place and
discarded lazily when they surface at the heap top, so no heap surgery is
ever needed.

Determinism
-----------
Entries scheduled for the same cycle pop in schedule order (FIFO): every
entry carries a monotonically increasing sequence number that breaks cycle
ties.  The simulator's bit-identical replay guarantee rides on this -- two
runs that schedule the same events in the same order drain them in the same
order, with no dependence on key hashing or insertion history.

Entries are *lower bounds*: popping an entry early merely costs a wasted
revalidation (the owner reschedules it later), while an entry later than
its owner's true horizon would let the clock jump over an event.  Owners
must therefore only ever move their entry **later** after re-evaluating
their own state, which is what :meth:`schedule`'s reschedule form is for.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, Hashable, List, Optional, Tuple

#: Sentinel horizon for a component that cannot act again until some other
#: event wakes it (far beyond any simulated run).  Shared by the event
#: queue (an entry at NEVER is simply not held), the core (a stalled core
#: waits for a completion or queue drain) and the controller (a queue with
#: no timer-bound issue opportunity).
NEVER = 1 << 62


class EventQueueStats:
    """Cumulative accounting of one :class:`EventQueue`'s traffic."""

    __slots__ = ("scheduled", "rescheduled", "cancelled", "popped", "max_depth")

    def __init__(self) -> None:
        self.scheduled = 0
        self.rescheduled = 0
        self.cancelled = 0
        self.popped = 0
        self.max_depth = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "scheduled": self.scheduled,
            "rescheduled": self.rescheduled,
            "cancelled": self.cancelled,
            "popped": self.popped,
            "max_depth": self.max_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EventQueueStats({self.to_dict()})"


class EventQueue:
    """Indexed min-priority queue of (cycle, key) events.

    Keys are arbitrary hashable component identities (the simulation loop
    uses core indices for its wake entries).  Each key owns at most one
    live entry; scheduling a key again *moves* its entry.
    """

    __slots__ = ("_heap", "_index", "_seq", "_live", "stats")

    def __init__(self) -> None:
        #: heap of [cycle, seq, key] lists; dead entries have key set to None
        self._heap: List[List[Any]] = []
        #: key -> live heap entry
        self._index: Dict[Hashable, List[Any]] = {}
        self._seq = 0
        self._live = 0
        self.stats = EventQueueStats()

    # ------------------------------------------------------------------
    # Scheduling interface
    # ------------------------------------------------------------------
    def schedule(self, key: Hashable, cycle: int) -> None:
        """Schedule (or move) ``key``'s event to ``cycle``.

        A cycle at or beyond :data:`NEVER` drops the entry instead (the
        component cannot act until something else revives it).
        """
        if cycle >= NEVER:
            self.cancel(key)
            return
        index = self._index
        entry = index.get(key)
        if entry is not None:
            if entry[0] == cycle:
                return  # already scheduled there; keep FIFO position
            entry[2] = None  # lazy-invalidate the superseded entry
            self._live -= 1
            self.stats.rescheduled += 1
        else:
            self.stats.scheduled += 1
        self._seq += 1
        entry = [cycle, self._seq, key]
        index[key] = entry
        heappush(self._heap, entry)
        self._live += 1
        if self._live > self.stats.max_depth:
            self.stats.max_depth = self._live

    def cancel(self, key: Hashable) -> bool:
        """Drop ``key``'s entry if present; returns whether one existed."""
        entry = self._index.pop(key, None)
        if entry is None:
            return False
        entry[2] = None
        self._live -= 1
        self.stats.cancelled += 1
        return True

    # ------------------------------------------------------------------
    # Draining interface
    # ------------------------------------------------------------------
    def peek_cycle(self) -> int:
        """Cycle of the earliest live entry, or :data:`NEVER` when empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is not None:
                return head[0]
            heappop(heap)  # discard a lazily-invalidated entry
        return NEVER

    def pop(self) -> Optional[Tuple[int, Hashable]]:
        """Remove and return the earliest live ``(cycle, key)``, or ``None``."""
        heap = self._heap
        while heap:
            cycle, _seq, key = heappop(heap)
            if key is not None:
                del self._index[key]
                self._live -= 1
                self.stats.popped += 1
                return (cycle, key)
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cycle_of(self, key: Hashable) -> int:
        """Scheduled cycle of ``key``'s entry, or :data:`NEVER` if absent."""
        entry = self._index.get(key)
        return entry[0] if entry is not None else NEVER

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EventQueue(live={self._live}, next={self.peek_cycle()})"
