"""Simple core model (Table 6: 4 GHz, 4-wide issue, 128-entry window).

The core executes a trace of interleaved non-memory instructions and memory
requests.  Non-memory instructions retire at the issue width; memory reads
occupy a slot in the instruction window until their data returns from the
memory controller, providing memory-level parallelism bounded by the window
size; writes are posted and never stall the core.  This matches the simple
core model used by Ramulator-based evaluations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

from repro.sim.config import SystemConfig
from repro.sim.events import NEVER
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.trace import TraceRecord

__all__ = ["NEVER", "CoreStats", "SimpleCore"]


@dataclass(slots=True)
class CoreStats:
    """Cumulative statistics for one core."""

    cpu_cycles: int = 0
    instructions_retired: int = 0
    memory_reads_issued: int = 0
    memory_writes_issued: int = 0
    stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions retired per CPU cycle."""
        if self.cpu_cycles == 0:
            return 0.0
        return self.instructions_retired / self.cpu_cycles


class SimpleCore:
    """Trace-driven core with an instruction window.

    Parameters
    ----------
    core_id:
        Index of the core in the simulated system.
    trace:
        The memory-access trace to execute.  The trace repeats from the
        beginning if the simulation runs longer than the trace.
    config:
        System configuration (issue width, window size).
    controller:
        The shared memory controller the core sends its requests to.
    """

    def __init__(
        self,
        core_id: int,
        trace: Sequence[TraceRecord],
        config: SystemConfig,
        controller,
    ) -> None:
        if not trace:
            raise ValueError("trace must contain at least one record")
        self.core_id = core_id
        self.trace = list(trace)
        self.config = config
        self.controller = controller
        self.stats = CoreStats()

        self._trace_index = 0
        self._bubbles_remaining = self.trace[0].bubble_instructions
        #: The reads in flight, oldest first; each retires once the
        #: controller marks it ``completed``.
        self._window: Deque[MemoryRequest] = deque()
        #: Which resource blocked the core's next memory request the last
        #: time :meth:`_record_blocked` returned ``True``: ``0`` = write
        #: queue full, ``1`` = read queue full, ``2`` = instruction window
        #: full with an incomplete head.  The event loop settles a deferred
        #: core only when its channel's wake actually fires.
        self.blocked_channel = -1
        #: Upper bound on CPU ticks the core receives per DRAM cycle; used to
        #: convert a bubble budget into a safe DRAM-cycle horizon.
        self._max_ticks_per_cycle = max(
            1, int(math.ceil(config.cpu_cycles_per_dram_cycle))
        )
        # Cached hot config scalars and controller queues (attribute chains
        # cost on the tick path).
        self._issue_width = config.issue_width
        self._window_limit = config.instruction_window
        self._reads = controller.reads
        self._writes = controller.writes

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> bool:
        """Advance the core by one CPU cycle.

        ``cycle`` is the current DRAM cycle, used only to timestamp requests.
        Returns whether the core retired or issued anything.  ``False``
        implies the core is blocked on the memory system; since queues only
        fill and completions only arrive between DRAM cycles, it will stay
        blocked for every further CPU tick of the same DRAM cycle.
        """
        stats = self.stats
        issue_width = self._issue_width
        stats.cpu_cycles += 1
        window = self._window
        if window and window[0].completed:
            retired = 0
            while retired < issue_width and window and window[0].completed:
                window.popleft()
                retired += 1
        issued = 0
        made_progress = False
        trace = self.trace
        while issued < issue_width:
            bubbles = self._bubbles_remaining
            if bubbles > 0:
                # Retire the run of buffered non-memory instructions in one
                # step (arithmetic-identical to retiring them one per loop
                # iteration).
                take = issue_width - issued
                if take > bubbles:
                    take = bubbles
                self._bubbles_remaining = bubbles - take
                stats.instructions_retired += take
                issued += take
                made_progress = True
                continue
            # The next instruction is a memory request.
            record = trace[self._trace_index]
            if record.is_write:
                request = MemoryRequest(
                    request_type=RequestType.WRITE,
                    bank=record.bank,
                    row=record.row,
                    column=record.column,
                    core_id=self.core_id,
                )
                if not self.controller.enqueue(request, cycle):
                    break  # write queue full; retry next cycle
                stats.memory_writes_issued += 1
            else:
                if len(window) >= self._window_limit:
                    break  # the window is full of outstanding reads
                request = MemoryRequest(
                    request_type=RequestType.READ,
                    bank=record.bank,
                    row=record.row,
                    column=record.column,
                    core_id=self.core_id,
                )
                if not self.controller.enqueue(request, cycle):
                    break  # read queue full; retry next cycle
                window.append(request)
                stats.memory_reads_issued += 1
            # The memory instruction itself counts as one retired instruction.
            stats.instructions_retired += 1
            issued += 1
            made_progress = True
            self._trace_index = next_index = (self._trace_index + 1) % len(trace)
            self._bubbles_remaining = trace[next_index].bubble_instructions
        if not made_progress:
            stats.stall_cycles += 1
        return made_progress

    def run_ticks(self, cycle: int, ticks: int) -> None:
        """Apply ``ticks`` exact CPU ticks at one DRAM cycle (lone-core path).

        Replays the reference interleaving for a core running alone: tick
        until a tick makes no progress, then batch the remaining ticks of
        the DRAM cycle as stalls -- queues only fill and completions only
        arrive between DRAM cycles, so a blocked core stays blocked for the
        rest of the cycle.  Used by the event loop for single-core
        (alone-IPC) runs, where the multi-core tick-major interleaving
        collapses to a plain loop over this one core.
        """
        for index in range(ticks):
            if not self.tick(cycle):
                rest = ticks - index - 1
                if rest:
                    self.settle_stall(rest)
                return

    # ------------------------------------------------------------------
    # Event-driven fast path
    # ------------------------------------------------------------------
    #
    # Three tick patterns need no interaction with the memory controller and
    # can therefore be applied in bulk, bit-identically to ticking:
    #
    # * ``"stall"`` -- the next instruction is a memory request the core
    #   cannot issue (its queue is full, or the instruction window is full
    #   with an incomplete head).  Queues only *fill* while cores run, and
    #   completion flags only change inside ``MemoryController.tick``, so a
    #   stall observed after the controller's tick holds for every remaining
    #   CPU tick until the next controller event.
    # * ``"bubble"`` -- the core has enough non-memory instructions buffered
    #   to retire at full issue width for all requested ticks without
    #   reaching a memory request.
    # * ``"drain"`` -- the remaining bubbles run out within the requested
    #   ticks, but the memory request behind them is blocked (same condition
    #   as ``"stall"``), so the whole span retires the bubbles and then
    #   stalls without ever reaching the controller.
    #
    # In every pattern each tick still retires completed reads from the
    # window head (at most ``issue_width`` per tick), which the batched
    # application (:meth:`fast_tick`, :meth:`settle_stall`) replays exactly.

    def _record_blocked(self) -> bool:
        """Whether the next memory request cannot be issued.

        The blocking conditions (full queue, or full window with an
        incomplete head) can only be cleared by a controller event, so a
        blocked record stays blocked until the matching wake channel fires
        (recorded in :attr:`blocked_channel`): a write-queue pop, a
        read-queue pop, or a completion of one of this core's own reads.
        """
        record = self.trace[self._trace_index]
        if record.is_write:
            writes = self._writes
            if writes.length >= writes.depth:
                self.blocked_channel = 0
                return True
            return False
        reads = self._reads
        if reads.length >= reads.depth:
            self.blocked_channel = 1
            return True
        window = self._window
        if len(window) >= self._window_limit and not window[0].completed:
            self.blocked_channel = 2
            return True
        return False

    def settle_stall(self, ticks: int) -> None:
        """Apply ``ticks`` stalled CPU ticks in bulk.

        Used by the event loop to settle deferred stall spans (and the tail
        of a cycle once a tick made no progress).  Completion flags are
        frozen while the controller is quiescent, so ``ticks`` calls to
        ``_retire()`` pop exactly the run of completed entries at the window
        head, capped at ``issue_width`` per tick.
        """
        stats = self.stats
        stats.cpu_cycles += ticks
        stats.stall_cycles += ticks
        retire_cap = ticks * self._issue_width
        window = self._window
        popped = 0
        while popped < retire_cap and window and window[0].completed:
            window.popleft()
            popped += 1

    def fast_tick(self, ticks: int) -> Optional[str]:
        """Classify and, when possible, batch-apply ``ticks`` CPU ticks.

        Returns the batch mode applied (``"bubble"``, ``"stall"`` or
        ``"drain"`` -- see the pattern notes above), or ``None`` when the
        core would reach an issuable memory request and must be ticked
        exactly.  This runs once per core per processed DRAM cycle, so the
        classification and its application are fused into one call.
        """
        issue_width = self._issue_width
        stats = self.stats
        bubbles = self._bubbles_remaining
        retire_cap = ticks * issue_width
        if bubbles >= retire_cap:
            self._bubbles_remaining = bubbles - retire_cap
            stats.cpu_cycles += ticks
            stats.instructions_retired += retire_cap
            mode = "bubble"
        else:
            if not self._record_blocked():
                return None
            stats.cpu_cycles += ticks
            if bubbles:
                self._bubbles_remaining = 0
                stats.instructions_retired += bubbles
                progress_ticks = bubbles // issue_width
                if bubbles - progress_ticks * issue_width:
                    progress_ticks += 1
                stats.stall_cycles += ticks - progress_ticks
                mode = "drain"
            else:
                stats.stall_cycles += ticks
                mode = "stall"
        window = self._window
        if window and window[0].completed:
            popped = 0
            while popped < retire_cap and window and window[0].completed:
                window.popleft()
                popped += 1
        return mode

    def wake_bound(self, cycle: int) -> int:
        """DRAM cycle before which this core cannot interact with the memory
        controller, valid *across* controller wake events.

        A core with ``n`` buffered bubble instructions cannot reach its next
        memory request for ``n // issue_width`` CPU ticks, converted into DRAM
        cycles conservatively; an issuing core returns ``cycle + 1``.  A
        blocked core still holding buffered bubbles reports its bubble
        bound rather than :data:`NEVER`: a wake may unblock it mid-bubble
        without any loop-visible core transition (it never stalls, so it is
        never deferred and no wake reschedules it), and the bubble bound is
        a valid lower bound either way -- the bubbles must drain before the
        core can reach the controller.  Only a blocked core with no bubbles
        reports :data:`NEVER` (its next classification is a stall, so the
        unblocking wake event itself revives its entry).  The event loop
        keys the :class:`~repro.sim.events.EventQueue` entries on this.
        """
        if self._bubbles_remaining > 0:
            safe_ticks = self._bubbles_remaining // self._issue_width
            return cycle + 1 + safe_ticks // self._max_ticks_per_cycle
        if self._record_blocked():
            return NEVER
        return cycle + 1
