"""FR-FCFS memory controller with refresh and RowHammer-mitigation hooks.

The controller services read/write requests from the cores over a single
channel and rank (Table 6), scheduling with the FR-FCFS policy: row-buffer
hits first, then oldest-first.  It issues all-bank refresh every tREFI and
exposes two hooks to a RowHammer mitigation mechanism:

* ``on_activate(bank, row, cycle)`` is called for every demand activation and
  returns rows the mechanism wants refreshed (performed as internal
  victim-refresh requests that occupy the bank for a full row cycle), and
* ``on_refresh(cycle)`` is called at every periodic refresh command (used by
  mechanisms such as ProHIT that piggyback victim refreshes on refresh).

The mechanism interface is the only observer of the controller's commands:
an observer of activations and victim refreshes (a chip model, say) wraps
the mechanism and forwards its calls.

The controller also accounts separately for the DRAM bank-time consumed by
demand traffic, by nominal refresh, and by the mitigation mechanism, which
is what the bandwidth-overhead metric of Figure 10a reports.

Per-queue index
---------------
The fast scheduler never scans the request queues.  Each demand queue
(reads, writes) is one :class:`DemandQueue` that indexes its requests three
ways, maintained incrementally at enqueue/issue time:

* **per-bank FIFOs** keep each bank's pending requests in arrival order, so
  the oldest request of a bank is a head read;
* **per-(bank, row) buckets** keep the requests targeting one row in arrival
  order, so when a bank opens a row its hit set -- and the oldest hit -- is
  one dictionary lookup;
* **head-of-index sequence mirrors** expose each bank's oldest live request
  and oldest live row hit as flat integers, so the FR-FCFS selection loop
  touches only int arrays (bank classification comes from the pending/hit
  counters and the mirrored open rows and command timers) and the deques
  behind the index are touched exactly once per issued command.

Every scheduling helper takes the queue it works on, so each decision has
one body for reads and writes.

Issued requests are removed lazily: they carry a ``popped`` tombstone flag
and are dropped when they surface at a deque head (every head read --
selection, hit recount, issue-time head advance -- cleans the dead prefix,
and live counts bound the garbage to the queue depth), while live sizes are
tracked in a plain integer counter (``DemandQueue.length``).  The flat
arrival-order ``DemandQueue.requests`` list is the *reference* scheduler's
representation and is compacted periodically in fast mode.

FR-FCFS over the index: the oldest ready row hit is the minimum, over
hit-ready banks, of each bank's row-bucket head sequence number; the
oldest-first fallback is the minimum, over precharge/activate-ready banks,
of each bank's FIFO head sequence number.  Every queued request of such a
bank is a candidate, so the bank-head minimum equals the full queue scan's
choice -- the golden-trace suite pins this equivalence against the
scan-based reference scheduler for every mechanism.

Event horizon
-------------
All controller state changes happen at *events*: a command issue, a read
completion or a periodic refresh.  A quiescent :meth:`MemoryController.tick`
returns the earliest future cycle at which any of those could occur, a
byproduct of its failed scheduling scan over the same per-bank index.
Between two events, ticking the controller is a no-op by construction; the
``_quiet_until`` cache remembers a proven horizon and is *incrementally
lowered* when cores enqueue new work (each new request contributes its own
bank-local bound) instead of being discarded, so an enqueue does not force
a full rescan (:meth:`MemoryController.post_enqueue_horizon`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.bank import BankState, RankState
from repro.sim.config import SystemConfig
from repro.sim.events import NEVER as _NEVER
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.timing import DramTimings

#: Flat-list tombstone threshold before the fast path compacts a queue.
_COMPACT_MIN_DEAD = 48


@dataclass(slots=True)
class ControllerStats:
    """Cumulative controller statistics."""

    cycles: int = 0
    reads_serviced: int = 0
    writes_serviced: int = 0
    demand_activates: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    refresh_commands: int = 0
    refresh_busy_cycles: int = 0
    mitigation_refreshes: int = 0
    mitigation_busy_cycles: int = 0
    demand_busy_cycles: int = 0
    read_latency_total: int = 0
    read_latency_samples: int = 0

    @property
    def average_read_latency(self) -> float:
        """Mean read latency in DRAM cycles."""
        if self.read_latency_samples == 0:
            return 0.0
        return self.read_latency_total / self.read_latency_samples


class DemandQueue:
    """One demand queue (reads or writes) and its FR-FCFS index.

    Per-bank lists are indexed by bank, row-keyed dicts by
    ``bank * rows_per_bank + row`` (see the module docstring).
    """

    __slots__ = (
        "is_write", "depth", "requests", "length", "dead", "pops",
        "fifo", "rows", "row_count", "pending", "hits", "head_seq", "hit_seq",
    )

    def __init__(self, is_write: bool, depth: int, banks: int) -> None:
        self.is_write = is_write
        #: Capacity: :meth:`MemoryController.enqueue` refuses a request once
        #: ``length`` reaches it.
        self.depth = depth
        #: Arrival-order list: the reference scheduler's representation.  The
        #: fast path leaves issued requests in place as tombstones
        #: (``request.popped``, counted in ``dead``) and compacts lazily;
        #: ``length`` is the live size.
        self.requests: List[MemoryRequest] = []
        self.length = 0
        self.dead = 0
        #: Issued column commands.  This is the queue's core-visible wake
        #: channel: a core blocked on a full queue can only resume after a pop.
        self.pops = 0
        self.fifo: List[Deque[MemoryRequest]] = [deque() for _ in range(banks)]
        self.rows: Dict[int, Deque[MemoryRequest]] = {}
        self.row_count: Dict[int, int] = {}
        #: Per bank: how many queued requests target it, and how many of them
        #: are row hits (target the bank's currently open row).
        self.pending = [0] * banks
        self.hits = [0] * banks
        #: Per bank: the arrival sequence number of its oldest live request
        #: (FIFO head) and of its oldest live row hit (open-row bucket head);
        #: ``NEVER`` when none.
        self.head_seq = [_NEVER] * banks
        self.hit_seq = [_NEVER] * banks


def mitigated_timings(timings: DramTimings, mitigation) -> DramTimings:
    """The timings a controller runs with under ``mitigation`` (or ``None``).

    A mechanism whose ``refresh_interval_multiplier`` is not 1.0 gets its
    refresh interval scaled (an increased refresh rate; see
    :meth:`~repro.sim.timing.DramTimings.scaled_refresh`).
    """
    if mitigation is not None:
        multiplier = mitigation.refresh_interval_multiplier()
        if multiplier != 1.0:
            return timings.scaled_refresh(multiplier)
    return timings


class MemoryController:
    """Single-channel FR-FCFS memory controller.

    Parameters
    ----------
    config:
        System configuration (bank count, queue depths, timings).
    mitigation:
        Optional RowHammer mitigation mechanism implementing the
        :class:`repro.mitigations.base.MitigationMechanism` interface.  The
        mechanism may also override the refresh interval (increased refresh
        rate) through its ``refresh_interval_multiplier``.
    """

    def __init__(self, config: SystemConfig, mitigation=None) -> None:
        self.config = config
        self.mitigation = mitigation
        self.timings = timings = mitigated_timings(config.timings, mitigation)
        self._nominal_trefi = config.timings.trefi

        banks = config.banks
        self.banks: List[BankState] = [BankState(timings) for _ in range(banks)]
        # Flat mirrors of the hot per-bank fields (open row and command
        # timers).  The scheduler classifies banks from these every processed
        # cycle; reading plain list slots is markedly cheaper than attribute
        # access on the BankState objects.  Every controller code path that
        # mutates a bank must call :meth:`_sync_bank` afterwards -- the push
        # half of the event model: a bank timer change lands in the index
        # here rather than being re-polled -- and the banks are
        # controller-owned, so no other code mutates them.
        self._bank_open_row: List[Optional[int]] = [None] * banks
        self._bank_next_activate = [0] * banks
        self._bank_next_precharge = [0] * banks
        self._bank_next_read = [0] * banks
        self._bank_next_write = [0] * banks
        self.rank = RankState(timings)
        #: The two demand queues.  Their ``length`` and ``pops`` are what a
        #: core blocked on a full queue waits on.
        self.reads = DemandQueue(False, config.read_queue_depth, banks)
        self.writes = DemandQueue(True, config.write_queue_depth, banks)
        self._queues = (self.reads, self.writes)
        self.victim_queue: List[MemoryRequest] = []
        self._pending_completions: List[Tuple[int, MemoryRequest]] = []
        #: Earliest cycle at which a pending read's data returns (``NEVER``
        #: when none are in flight).  Public for the event loop, which must
        #: settle lazily accounted core state *before* the tick that fires a
        #: completion (completion flags feed window retirement).
        self.earliest_completion_cycle = _NEVER
        self._next_refresh = timings.trefi
        self._refresh_until = 0
        self.stats = ControllerStats()
        self._row_stride = config.rows_per_bank
        self._bank_count = banks
        self._tcl = timings.tcl
        self._tfaw = timings.tfaw
        self._write_drain_level = config.write_queue_depth // 2
        #: Controller-local arrival counter; FR-FCFS age comparisons use the
        #: ``seq`` it stamps on every accepted request.
        self._seq = 0
        # Event horizon cache: while ``cycle < _quiet_until``, ticking is a
        # proven no-op.  Enqueues *lower* the bound incrementally (each new
        # request folds its bank-local issue bound) instead of discarding it.
        self._quiet_until = 0
        #: Number of requests accepted into the queues; the simulation loop
        #: compares snapshots of this to detect whether cores injected work.
        self.enqueue_count = 0

    def _sync_bank(self, bank_index: int) -> None:
        """Refresh the flat per-bank mirrors after a bank mutation."""
        bank = self.banks[bank_index]
        self._bank_open_row[bank_index] = bank.open_row
        self._bank_next_activate[bank_index] = bank.next_activate
        self._bank_next_precharge[bank_index] = bank.next_precharge
        self._bank_next_read[bank_index] = bank.next_read
        self._bank_next_write[bank_index] = bank.next_write

    def _sync_bank_precharge(self, bank_index: int) -> None:
        """Mirror sync specialized for a precharge (only the row closes and
        the activate timer moves)."""
        bank = self.banks[bank_index]
        self._bank_open_row[bank_index] = None
        self._bank_next_activate[bank_index] = bank.next_activate

    def _sync_bank_column(self, bank_index: int) -> None:
        """Mirror sync specialized for a column access (only the column and
        precharge timers move)."""
        bank = self.banks[bank_index]
        self._bank_next_precharge[bank_index] = bank.next_precharge
        self._bank_next_read[bank_index] = bank.next_read
        self._bank_next_write[bank_index] = bank.next_write

    def _clear_bank_hits(self, bank_index: int) -> None:
        """Zero both queues' hit accounting for a bank that closed its row."""
        for queue in self._queues:
            queue.hits[bank_index] = 0
            queue.hit_seq[bank_index] = _NEVER

    # ------------------------------------------------------------------
    # Enqueue interface (used by cores)
    # ------------------------------------------------------------------
    def enqueue(self, request: MemoryRequest, cycle: int) -> bool:
        """Add a request to the controller; returns ``False`` if the queue is full."""
        request_type = request.request_type
        if request_type is RequestType.READ:
            queue = self.reads
        elif request_type is RequestType.WRITE:
            queue = self.writes
        else:
            self.victim_queue.append(request)
            request.arrival_cycle = cycle
            self.enqueue_count += 1
            self._quiet_until = 0
            return True
        if queue.length >= queue.depth:
            return False
        bank = request.bank
        row = request.row
        request.arrival_cycle = cycle
        self.enqueue_count += 1
        self._seq = seq = self._seq + 1
        request.seq = seq
        queue.requests.append(request)
        queue.fifo[bank].append(request)
        key = bank * self._row_stride + row
        bucket = queue.rows.get(key)
        if bucket is None:
            queue.rows[key] = bucket = deque()
        bucket.append(request)
        queue.row_count[key] = queue.row_count.get(key, 0) + 1
        queue.length += 1
        pending = queue.pending[bank]
        queue.pending[bank] = pending + 1
        if not pending:
            queue.head_seq[bank] = seq
        if self._bank_open_row[bank] == row:
            new_hits = queue.hits[bank] + 1
            queue.hits[bank] = new_hits
            if new_hits == 1:
                queue.hit_seq[bank] = seq
        if not queue.is_write:
            if self._quiet_until > cycle:
                self._fold_enqueue_bound(bank, row, queue, cycle)
            return True
        if self._quiet_until > cycle:
            if queue.length == self._write_drain_level:
                # Crossing the drain threshold turns every write bank into an
                # issue candidate at once; recomputing all their bounds is not
                # worth it for this rare edge, so force a full rescan instead.
                self._quiet_until = 0
            elif not self.reads.length or queue.length >= self._write_drain_level:
                self._fold_enqueue_bound(bank, row, queue, cycle)
            # Otherwise writes are not draining: the new request adds no
            # issue opportunity until a (horizon-tracked) event changes that.
        # Posted write: the core considers it done once buffered.
        request.completed = True
        return True

    def _fold_enqueue_bound(
        self, bank: int, row: int, queue: DemandQueue, cycle: int
    ) -> None:
        """Lower ``_quiet_until`` by the new request's bank-local issue bound.

        Mirrors the scheduler's per-bank classification for the one affected
        bank.  A new request can only *add* an issue opportunity on its own
        bank (it may also block another bank's precharge or stop a write
        drain, but those only remove opportunities, for which a too-early
        quiet bound merely costs one extra failed scan).
        """
        open_row = self._bank_open_row[bank]
        if open_row == row:
            if queue.is_write:
                bound = self._bank_next_write[bank]
            else:
                bound = self._bank_next_read[bank]
            bus_ready = self.rank.data_bus_ready_cycle()
            if bus_ready > bound:
                bound = bus_ready
        elif open_row is not None:
            if queue.hits[bank]:
                # The bank's open row still has pending hits in this queue;
                # the precharge this request is waiting for is blocked until
                # they drain, which takes an (already horizon-tracked) event.
                return
            bound = self._bank_next_precharge[bank]
        else:
            bound = self._bank_next_activate[bank]
            rank_activate = self.rank.next_activate_cycle()
            if rank_activate > bound:
                bound = rank_activate
        # Floor at the *current* cycle, not the next: a caller that enqueues
        # before ticking the same cycle (the reference flow) must have that
        # tick scan.  Inside the event loop cores enqueue after the tick, so
        # the next tick is at ``cycle + 1`` and scans either way.
        if bound < cycle:
            bound = cycle
        if bound < self._quiet_until:
            self._quiet_until = bound

    @property
    def outstanding_requests(self) -> int:
        """Number of requests currently queued or in flight."""
        return (
            self.reads.length
            + self.writes.length
            + len(self.victim_queue)
            + len(self._pending_completions)
        )

    # ------------------------------------------------------------------
    # Main tick
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> Optional[int]:
        """Advance the controller by one DRAM cycle.

        Returns ``None`` when an event occurred this cycle (a completion, a
        refresh command, or a command issue); otherwise the cycle was
        quiescent and the return value is the controller's event horizon --
        the earliest future cycle at which its state can change, computed as
        a byproduct of the failed scheduling scan.  The event-driven loop
        uses this to fast-forward without a second scan.
        """
        self.stats.cycles = cycle + 1
        if cycle < self._quiet_until:
            # A previous quiescent tick proved nothing can happen before its
            # horizon (enqueues since then have folded their own bounds in).
            return self._quiet_until
        completed = cycle >= self.earliest_completion_cycle and self._complete_due(cycle)
        refreshed = cycle >= self._next_refresh and self._maybe_refresh(cycle)
        if cycle < self._refresh_until:
            # The rank is busy with an all-bank refresh; nothing can issue
            # before it ends.
            if completed or refreshed:
                return None
            issue_horizon = self._refresh_until
        else:
            issue_horizon = self._schedule(cycle)
            if issue_horizon is None or completed or refreshed:
                self._quiet_until = 0
                return None
        horizon = self._next_refresh
        if issue_horizon < horizon:
            horizon = issue_horizon
        if self.earliest_completion_cycle < horizon:
            horizon = self.earliest_completion_cycle
        floor = cycle + 1
        horizon = horizon if horizon > floor else floor
        self._quiet_until = horizon
        return horizon

    def post_enqueue_horizon(self, cycle: int) -> Optional[int]:
        """Event horizon after cores enqueued requests mid-cycle.

        The enqueue path folds each new request's bank-local bound into the
        quiet cache, so the still-valid bound is simply read back; ``None``
        means the next cycle must be processed (no proven quiet span).
        """
        quiet = self._quiet_until
        return quiet if quiet > cycle + 1 else None

    # ------------------------------------------------------------------
    # Reference tick (the ``step_mode="cycle"`` oracle)
    # ------------------------------------------------------------------
    #
    # The reference path makes every scheduling decision by scanning the
    # request queues and reading the BankState objects directly -- the
    # simple, obviously-correct FR-FCFS formulation this simulator started
    # with.  It deliberately does NOT consult the indexed structures the
    # fast path relies on (per-bank FIFOs and row buckets, flat bank
    # mirrors, the quiet-until cache), so the golden regression suite
    # genuinely validates that machinery against an independent
    # implementation instead of comparing it with itself.  Issued commands
    # still run through the shared bookkeeping helpers, which keeps the
    # indexed structures consistent either way (asserted by the consistency
    # unit tests).
    def tick_reference(self, cycle: int) -> None:
        """Advance the controller by one DRAM cycle (reference scheduler)."""
        self.stats.cycles = cycle + 1
        self._complete_due(cycle)
        if cycle >= self._next_refresh:
            self._maybe_refresh(cycle)
        if cycle < self._refresh_until:
            return  # the rank is busy with an all-bank refresh
        self._schedule_reference(cycle)

    def _schedule_reference(self, cycle: int) -> None:
        # Victim refreshes have priority: they are the mitigation mechanism's
        # correctness-critical work.
        if self.victim_queue and self._issue_victim_refresh_reference(cycle):
            return
        if self._issue_from_queue_reference(self.reads, cycle):
            return
        # Drain writes when there is no read work to do or the queue is deep.
        drain_writes = not self.reads.length or self.writes.length >= self._write_drain_level
        if drain_writes and self._issue_from_queue_reference(self.writes, cycle):
            return

    def _issue_victim_refresh_reference(self, cycle: int) -> bool:
        for index, request in enumerate(self.victim_queue):
            bank = self.banks[request.bank]
            if bank.open_row is not None:
                if bank.can_precharge(cycle):
                    bank.precharge(cycle)
                    self._sync_bank(request.bank)
                    self._clear_bank_hits(request.bank)
                    return True
                continue
            if bank.can_activate(cycle) and self.rank.can_activate(cycle):
                # A victim refresh is an activate followed by a precharge; the
                # bank is occupied for a full row cycle.
                bank.activate(cycle, request.row)
                self.rank.record_activate(cycle)
                bank.block_until(cycle + self.timings.trc)
                self._sync_bank(request.bank)
                self.stats.mitigation_refreshes += 1
                self.stats.mitigation_busy_cycles += self.timings.trc
                self.victim_queue.pop(index)
                if self.mitigation is not None:
                    self.mitigation.on_victim_refreshed(request.bank, request.row, cycle)
                return True
        return False

    def _issue_from_queue_reference(self, queue: DemandQueue, cycle: int) -> bool:
        requests = queue.requests
        if not requests:
            return False
        is_write = queue.is_write
        # First ready: a request whose row is already open and can issue its
        # column access now (row hit).
        for index, request in enumerate(requests):
            bank = self.banks[request.bank]
            if (
                bank.open_row == request.row
                and bank.can_column_access(cycle, is_write)
                and self.rank.can_use_data_bus(cycle)
            ):
                self._issue_column_reference(queue, index, cycle)
                return True
        # Then oldest first: progress the oldest request towards opening its row.
        for request in requests:
            bank_index = request.bank
            bank = self.banks[bank_index]
            if bank.open_row == request.row:
                continue  # waiting for column timing; nothing to issue
            if bank.open_row is not None:
                if bank.can_precharge(cycle) and not self._row_has_pending_hit(
                    bank_index, bank.open_row, requests
                ):
                    bank.precharge(cycle)
                    self._sync_bank(bank_index)
                    self._clear_bank_hits(bank_index)
                    self.stats.row_conflicts += 1
                    return True
                continue
            if bank.can_activate(cycle) and self.rank.can_activate(cycle):
                bank.activate(cycle, request.row)
                self._sync_bank(bank_index)
                self.rank.record_activate(cycle)
                self.stats.demand_activates += 1
                self.stats.demand_busy_cycles += self.timings.trc
                self._recount_hits(bank_index, request.row)
                self._notify_activation(bank_index, request.row, cycle)
                return True
        return False

    def _row_has_pending_hit(
        self, bank_index: int, open_row: int, requests: List[MemoryRequest]
    ) -> bool:
        """Whether any queued request still targets the bank's open row.

        Reference-scheduler helper: scans the flat queue (tombstones never
        arise in reference mode, which pops the list eagerly).
        """
        for request in requests:
            if request.bank == bank_index and request.row == open_row:
                return True
        return False

    def _issue_column_reference(self, queue: DemandQueue, index: int, cycle: int) -> None:
        """Reference-path column issue: eager flat-list pop, shared accounting."""
        request = queue.requests.pop(index)
        self._account_pop(request, queue)
        self._perform_column(request, cycle, queue)

    # ------------------------------------------------------------------
    # Refresh handling
    # ------------------------------------------------------------------
    def _maybe_refresh(self, cycle: int) -> bool:
        """Issue the periodic all-bank refresh (caller checks ``_next_refresh``)."""
        timings = self.timings
        # Close all banks and block the rank for tRFC.
        start = cycle
        for bank in self.banks:
            start = max(start, bank.next_precharge if bank.open_row is not None else cycle)
        end = start + timings.trfc
        for bank in self.banks:
            bank.block_until(end)
        # Every bank is closed now; no queued request is a row hit any more.
        for bank_index in range(self._bank_count):
            self._sync_bank(bank_index)
            self._clear_bank_hits(bank_index)
        self._refresh_until = end
        self._next_refresh += timings.trefi
        self.stats.refresh_commands += 1
        self.stats.refresh_busy_cycles += timings.trfc
        if self.mitigation is not None:
            for bank, row in self.mitigation.on_refresh(cycle):
                self._enqueue_victim_refresh(bank, row, cycle)
        return True

    # ------------------------------------------------------------------
    # Scheduling (FR-FCFS over the per-queue index)
    # ------------------------------------------------------------------
    #
    # The scheduling helpers double as the horizon computation: each returns
    # ``None`` when it issued a command this cycle, and otherwise the
    # earliest future cycle at which any of its queued requests could have a
    # command issued.  Every bound uses only timers that move when commands
    # issue (bank timers, rank tRRD/tFAW, data-bus occupancy) plus queue
    # contents that only change at events, so a failed scan's horizon stays
    # valid until the next event.
    def _schedule(self, cycle: int) -> Optional[int]:
        horizon = _NEVER
        rank = self.rank
        rank_activate = rank.next_activate
        recent = rank.recent_activates
        if len(recent) >= 4:
            faw_bound = recent[0] + self._tfaw
            if faw_bound > rank_activate:
                rank_activate = faw_bound
        # Victim refreshes have priority: they are the mitigation mechanism's
        # correctness-critical work.
        if self.victim_queue:
            victim_horizon = self._issue_victim_refresh(cycle, rank_activate)
            if victim_horizon is None:
                return None
            if victim_horizon < horizon:
                horizon = victim_horizon
        reads = self.reads
        read_horizon = self._issue_demand(cycle, reads, rank_activate)
        if read_horizon is None:
            return None
        if read_horizon < horizon:
            horizon = read_horizon
        # Drain writes when there is no read work to do or the queue is deep.
        writes = self.writes
        if not reads.length or writes.length >= self._write_drain_level:
            write_horizon = self._issue_demand(cycle, writes, rank_activate)
            if write_horizon is None:
                return None
            if write_horizon < horizon:
                horizon = write_horizon
        return horizon

    def _issue_victim_refresh(self, cycle: int, rank_activate: int) -> Optional[int]:
        horizon = _NEVER
        for index, request in enumerate(self.victim_queue):
            bank = self.banks[request.bank]
            if bank.open_row is not None:
                if bank.can_precharge(cycle):
                    bank.precharge(cycle)
                    self._sync_bank_precharge(request.bank)
                    self._clear_bank_hits(request.bank)
                    return None
                if bank.next_precharge < horizon:
                    horizon = bank.next_precharge
                continue
            if cycle >= bank.next_activate and self.rank.can_activate(cycle):
                # A victim refresh is an activate followed by a precharge; the
                # bank is occupied for a full row cycle.
                bank.activate(cycle, request.row)
                self.rank.record_activate(cycle)
                bank.block_until(cycle + self.timings.trc)
                self._sync_bank(request.bank)
                self.stats.mitigation_refreshes += 1
                self.stats.mitigation_busy_cycles += self.timings.trc
                self.victim_queue.pop(index)
                if self.mitigation is not None:
                    self.mitigation.on_victim_refreshed(request.bank, request.row, cycle)
                return None
            bound = bank.next_activate
            if rank_activate > bound:
                bound = rank_activate
            if bound < horizon:
                horizon = bound
        return horizon

    def _issue_demand(
        self, cycle: int, queue: DemandQueue, rank_activate: int
    ) -> Optional[int]:
        """Issue the FR-FCFS choice of one demand queue, or return its horizon.

        One fused pass over the banks with queued work: classification
        (hit / conflict / closed) and the FR-FCFS age tie-break both read
        only flat per-bank integer arrays (command-timer mirrors and the
        head-of-index sequence numbers); the deques behind the index are
        touched exactly once, for the single issued command.
        """
        if not queue.length:
            return _NEVER
        pending = queue.pending
        hits = queue.hits
        head_seqs = queue.head_seq
        hit_seqs = queue.hit_seq
        column_timers = self._bank_next_write if queue.is_write else self._bank_next_read
        open_rows = self._bank_open_row
        activate_timers = self._bank_next_activate
        precharge_timers = self._bank_next_precharge
        bus_ready = self.rank.data_bus_free - self._tcl
        horizon = _NEVER
        best_hit_seq = _NEVER
        best_hit_bank = -1
        best_old_seq = _NEVER
        best_old_bank = -1
        best_precharge = False
        rank_ok: Optional[bool] = None
        for bank_index, pending_here in enumerate(pending):
            if not pending_here:
                continue
            if hits[bank_index]:
                # Hit bank: its oldest hit is a candidate once the column
                # timer and the shared data bus allow; its open row must not
                # be precharged either way.
                ready = column_timers[bank_index]
                if bus_ready > ready:
                    ready = bus_ready
                if cycle >= ready:
                    seq = hit_seqs[bank_index]
                    if seq < best_hit_seq:
                        best_hit_seq = seq
                        best_hit_bank = bank_index
                elif ready < horizon:
                    horizon = ready
                continue
            if open_rows[bank_index] is not None:
                # Conflict bank (open row, no hits in this queue): precharge
                # when legal; every queued request is a candidate, so the
                # bank's candidate is its FIFO head.
                bound = precharge_timers[bank_index]
                if cycle >= bound:
                    seq = head_seqs[bank_index]
                    if seq < best_old_seq:
                        best_old_seq = seq
                        best_old_bank = bank_index
                        best_precharge = True
                elif bound < horizon:
                    horizon = bound
                continue
            # Closed bank: activate the oldest request's row when bank and
            # rank allow.
            bound = activate_timers[bank_index]
            if cycle >= bound:
                if rank_ok is None:
                    rank_ok = self.rank.can_activate(cycle)
                if rank_ok:
                    seq = head_seqs[bank_index]
                    if seq < best_old_seq:
                        best_old_seq = seq
                        best_old_bank = bank_index
                        best_precharge = False
                    continue
                bound = rank_activate
            elif rank_activate > bound:
                bound = rank_activate
            if bound < horizon:
                horizon = bound
        # First ready: the oldest hit among hit-ready banks.
        if best_hit_bank >= 0:
            self._issue_column_fast(best_hit_bank, cycle, queue)
            return None
        # Then oldest first: the oldest request among issuable banks.
        if best_old_bank >= 0:
            if best_precharge:
                self.banks[best_old_bank].precharge(cycle)
                self._sync_bank_precharge(best_old_bank)
                # This queue had no hits on the bank (that is what allowed
                # the precharge), but the other queue may have; the bank is
                # closed now, so neither has any.
                self._clear_bank_hits(best_old_bank)
                self.stats.row_conflicts += 1
                return None
            fifo = queue.fifo[best_old_bank]
            head = fifo[0]
            while head.popped:
                fifo.popleft()
                head = fifo[0]
            row = head.row
            self.banks[best_old_bank].activate(cycle, row)
            self._sync_bank(best_old_bank)
            self.rank.record_activate(cycle)
            self.stats.demand_activates += 1
            self.stats.demand_busy_cycles += self.timings.trc
            self._recount_hits(best_old_bank, row)
            self._notify_activation(best_old_bank, row, cycle)
            return None
        return horizon

    def _recount_hits(self, bank_index: int, open_row: int) -> None:
        """Refresh both queues' hit accounting after a bank opened ``open_row``.

        The live per-(bank, row) bucket counts make this O(1) -- no queue
        scans; the oldest hit is the bucket head (cleaned of tombstones
        here so the selection loop can trust the mirrored sequence number).
        """
        key = bank_index * self._row_stride + open_row
        for queue in self._queues:
            count = queue.row_count.get(key, 0)
            queue.hits[bank_index] = count
            if count:
                bucket = queue.rows[key]
                head = bucket[0]
                while head.popped:
                    bucket.popleft()
                    head = bucket[0]
                queue.hit_seq[bank_index] = head.seq
            else:
                queue.hit_seq[bank_index] = _NEVER

    # ------------------------------------------------------------------
    # Column issue (shared bookkeeping of both schedulers)
    # ------------------------------------------------------------------
    def _account_pop(self, request: MemoryRequest, queue: DemandQueue) -> None:
        """Remove an issued request from the live accounting structures.

        Shared by both schedulers.  The head-of-index sequence mirrors are
        *not* advanced here: the fast path advances them from the deques it
        already holds (:meth:`_issue_column_fast`), and the reference path
        never reads them (:meth:`_recount_hits` re-derives them on the next
        activate either way).
        """
        request.popped = True
        bank = request.bank
        key = bank * self._row_stride + request.row
        queue.length -= 1
        queue.pending[bank] -= 1
        queue.hits[bank] -= 1
        remaining = queue.row_count[key] - 1
        if remaining:
            queue.row_count[key] = remaining
        else:
            # Prune the emptied bucket (and any tombstones it retains),
            # bounding the row-bucket dicts by live queue contents.
            del queue.row_count[key]
            del queue.rows[key]

    def _perform_column(self, request: MemoryRequest, cycle: int, queue: DemandQueue) -> None:
        """Issue the column access for a dequeued row-hit request."""
        is_write = queue.is_write
        bank = self.banks[request.bank]
        data_done = bank.column_access(cycle, is_write)
        self._sync_bank_column(request.bank)
        self.rank.occupy_data_bus(cycle)
        self.stats.row_hits += 1
        self.stats.demand_busy_cycles += self.timings.burst_cycles
        queue.pops += 1
        if is_write:
            self.stats.writes_serviced += 1
            return
        self.stats.reads_serviced += 1
        self._pending_completions.append((data_done, request))
        if data_done < self.earliest_completion_cycle:
            self.earliest_completion_cycle = data_done

    def _issue_column_fast(self, bank: int, cycle: int, queue: DemandQueue) -> None:
        """Fast-path column issue of ``bank``'s oldest row hit.

        Dequeues the open-row bucket head, advances the head-of-index
        sequence mirrors, tombstones the flat list entry (compacting once
        enough accumulate), and performs the shared physical issue.
        """
        bucket = queue.rows[bank * self._row_stride + self._bank_open_row[bank]]
        request = bucket[0]
        while request.popped:
            bucket.popleft()
            request = bucket[0]
        bucket.popleft()
        self._account_pop(request, queue)
        # Advance the oldest-hit mirror to the next live hit, if any.
        if queue.hits[bank]:
            head = bucket[0]
            while head.popped:
                bucket.popleft()
                head = bucket[0]
            queue.hit_seq[bank] = head.seq
        else:
            queue.hit_seq[bank] = _NEVER
        # Advance the oldest-request mirror if the FIFO head was issued.
        head_seqs = queue.head_seq
        if queue.pending[bank]:
            if head_seqs[bank] == request.seq:
                fifo = queue.fifo[bank]
                head = fifo[0]
                while head.popped:
                    fifo.popleft()
                    head = fifo[0]
                head_seqs[bank] = head.seq
        else:
            head_seqs[bank] = _NEVER
        queue.dead = dead = queue.dead + 1
        requests = queue.requests
        if dead >= _COMPACT_MIN_DEAD and dead * 2 >= len(requests):
            requests[:] = [r for r in requests if not r.popped]
            queue.dead = 0
        self._perform_column(request, cycle, queue)

    def due_completion_cores(self, cycle: int) -> List[int]:
        """Core ids whose pending read data returns at or before ``cycle``.

        The event loop settles exactly these cores' deferred stall time
        before the tick that fires the completions: only their window flags
        are about to change, so only their lazily accounted retirement needs
        the pre-completion replay barrier.
        """
        return [
            request.core_id
            for done_cycle, request in self._pending_completions
            if done_cycle <= cycle
        ]

    def _complete_due(self, cycle: int) -> bool:
        if cycle < self.earliest_completion_cycle:
            return False
        still_pending = []
        earliest = _NEVER
        for done_cycle, request in self._pending_completions:
            if done_cycle <= cycle:
                request.completed = True
                self.stats.read_latency_total += cycle - request.arrival_cycle
                self.stats.read_latency_samples += 1
            else:
                still_pending.append((done_cycle, request))
                if done_cycle < earliest:
                    earliest = done_cycle
        completed = len(still_pending) < len(self._pending_completions)
        self._pending_completions = still_pending
        self.earliest_completion_cycle = earliest
        return completed

    # ------------------------------------------------------------------
    # Mitigation integration
    # ------------------------------------------------------------------
    def _notify_activation(self, bank: int, row: int, cycle: int) -> None:
        if self.mitigation is None:
            return
        for victim_bank, victim_row in self.mitigation.on_activate(bank, row, cycle):
            self._enqueue_victim_refresh(victim_bank, victim_row, cycle)

    def _enqueue_victim_refresh(self, bank: int, row: int, cycle: int) -> None:
        if not 0 <= row < self.config.rows_per_bank:
            return
        request = MemoryRequest(
            request_type=RequestType.VICTIM_REFRESH,
            bank=bank,
            row=row,
            core_id=-1,
            arrival_cycle=cycle,
        )
        self.victim_queue.append(request)

    # ------------------------------------------------------------------
    # Bandwidth accounting
    # ------------------------------------------------------------------
    def extra_refresh_busy_cycles(self) -> float:
        """Refresh bank-time beyond what the nominal refresh rate would use.

        Non-zero only when a mitigation mechanism increases the refresh rate.
        """
        if self.timings.trefi >= self._nominal_trefi:
            return 0.0
        nominal_refreshes = self.stats.cycles / self._nominal_trefi
        nominal_busy = nominal_refreshes * self.timings.trfc
        return max(0.0, self.stats.refresh_busy_cycles - nominal_busy)

    def mitigation_busy_cycles(self) -> float:
        """Total DRAM bank-time consumed by the mitigation mechanism."""
        return self.stats.mitigation_busy_cycles + self.extra_refresh_busy_cycles()
