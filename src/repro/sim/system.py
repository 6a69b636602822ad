"""Top-level multi-core simulation harness.

A :class:`Simulation` wires a set of trace-driven cores to one memory
controller (optionally carrying a RowHammer mitigation mechanism) and runs
the whole system at DRAM-cycle granularity, ticking each core the
appropriate number of CPU cycles per DRAM cycle.  The result carries
per-core IPCs and the controller's bandwidth accounting, from which the
evaluation derives weighted speedup, normalized performance, and DRAM
bandwidth overhead (Figure 10).

Step modes
----------
The harness offers two bit-identical execution strategies selected by the
``step_mode`` flag:

* ``"cycle"`` -- the reference implementation: tick the controller and every
  core at every single DRAM cycle.
* ``"event"`` (default) -- the fast path: between events the system is
  quiescent by construction, so the loop is keyed on an indexed
  :class:`~repro.sim.events.EventQueue`.  The controller's horizon (bank and
  rank timers, refresh, read completions) is the byproduct of its
  quiescent tick; every core owns a *wake entry* in the
  queue that is revalidated lazily when it surfaces, instead of being
  re-polled each step.  The loop jumps the clock to the earliest confirmed
  event, accounting skipped cycles in bulk (CPU-cycle debt, stall cycles,
  window retirement); within processed cycles stalled or bubble-retiring
  cores are batch-ticked.  Every counter in the resulting
  :class:`SimulationResult` is bit-identical to ``"cycle"`` mode; the golden
  regression suite (``tests/sim/test_golden_trace.py``) enforces this for
  every mitigation mechanism.

These are the simulator's only two execution paths;
:class:`repro.sim.batch.SimulationBatch` runs a group of simulations
through one of them in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.config import SystemConfig
from repro.sim.controller import ControllerStats, MemoryController
from repro.sim.core import CoreStats, SimpleCore
from repro.sim.events import EventQueue
from repro.sim.metrics import bandwidth_overhead_percent
from repro.sim.trace import TraceRecord
from repro.sim.workloads import WorkloadMix

#: Valid values of the ``step_mode`` flag.
STEP_MODES = ("event", "cycle")


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    dram_cycles: int
    core_ipcs: List[float]
    core_stats: List[CoreStats]
    controller_stats: ControllerStats
    mitigation_busy_cycles: float
    demand_busy_cycles: float
    mitigation_name: str = "none"

    @property
    def bandwidth_overhead_percent(self) -> float:
        """DRAM bank-time the mitigation consumed relative to demand traffic."""
        return bandwidth_overhead_percent(
            self.mitigation_busy_cycles, self.demand_busy_cycles
        )


class Simulation:
    """One multi-core memory-system simulation.

    Parameters
    ----------
    config:
        System configuration.
    traces:
        One trace per core (the number of traces defines the core count for
        the run; it may be smaller than ``config.cores`` for single-core
        "alone" runs used in weighted-speedup computation).
    mitigation:
        Optional RowHammer mitigation mechanism attached to the controller.
    step_mode:
        ``"event"`` (default) fast-forwards the clock between component
        event horizons; ``"cycle"`` is the cycle-by-cycle reference
        implementation.  Both produce bit-identical results.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Sequence[TraceRecord]],
        mitigation=None,
        step_mode: str = "event",
    ) -> None:
        if not traces:
            raise ValueError("at least one core trace is required")
        if step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {step_mode!r}")
        self.config = config
        self.controller = MemoryController(config, mitigation=mitigation)
        self.cores = [
            SimpleCore(core_id, trace, config, self.controller)
            for core_id, trace in enumerate(traces)
        ]
        self.mitigation = mitigation
        self.step_mode = step_mode
        #: Core wake-event queue driving the event-mode run loop (empty and
        #: unused in cycle mode); its ``stats`` feed the simulator benchmark.
        self.event_queue = EventQueue()

    def run(self, dram_cycles: int) -> SimulationResult:
        """Run the system for a fixed number of DRAM cycles."""
        if dram_cycles <= 0:
            raise ValueError("dram_cycles must be positive")
        if self.step_mode == "cycle":
            self._run_cycle_mode(dram_cycles)
        else:
            self._run_event_mode(dram_cycles)
        stats = self.controller.stats
        return SimulationResult(
            dram_cycles=dram_cycles,
            core_ipcs=[core.stats.ipc for core in self.cores],
            core_stats=[core.stats for core in self.cores],
            controller_stats=stats,
            mitigation_busy_cycles=self.controller.mitigation_busy_cycles(),
            demand_busy_cycles=float(stats.demand_busy_cycles),
            mitigation_name=getattr(self.mitigation, "name", "none"),
        )

    def _run_cycle_mode(self, dram_cycles: int) -> None:
        """Reference implementation: tick every component at every DRAM cycle.

        Uses :meth:`~repro.sim.controller.MemoryController.tick_reference`,
        whose scheduling decisions come from plain queue scans over the
        ``BankState`` objects -- independent of the incremental bookkeeping
        the event-driven fast path relies on -- so comparing the two modes
        validates that machinery end to end.
        """
        cpu_ratio = self.config.cpu_cycles_per_dram_cycle
        cpu_cycle_debt = 0.0
        for cycle in range(dram_cycles):
            self.controller.tick_reference(cycle)
            cpu_cycle_debt += cpu_ratio
            ticks = int(cpu_cycle_debt)
            cpu_cycle_debt -= ticks
            for _ in range(ticks):
                for core in self.cores:
                    core.tick(cycle)

    def _run_event_mode(self, dram_cycles: int) -> None:
        """Event-driven fast path, bit-identical to :meth:`_run_cycle_mode`.

        The loop drains the simulation's :class:`~repro.sim.events.EventQueue`
        instead of polling components.  The controller's horizon is the
        byproduct of its quiescent tick (or, after cores enqueue mid-cycle,
        the incrementally maintained quiet bound); each core owns a wake
        entry in the queue holding a *lower bound* on the next cycle it
        could interact with the memory system.  Entries are revalidated
        lazily: when one surfaces below a prospective jump target, the
        core's horizon is recomputed once and the entry moved, so cores far
        from their next interaction (deep bubble budgets, long stalls) are
        never re-polled.  A blocked core's entry is dropped entirely and
        revived by the wake event that can unblock it.

        The clock then jumps to the earliest confirmed event.  The CPU-cycle
        debt accumulator is advanced with the exact float operations of the
        reference loop so tick counts match bit-for-bit, and each skipped
        core applies its ticks in bulk
        (:meth:`~repro.sim.core.SimpleCore.fast_tick`).  Within a processed
        cycle, cores that provably cannot interact with the controller this
        cycle (stalled, or retiring buffered bubbles at full width) are
        batch-ticked as well; the rest tick exactly, in original
        interleaving order (a lone core collapses to
        :meth:`~repro.sim.core.SimpleCore.run_ticks`).  Stalled cores enter
        *deferred stall*: their ticks change nothing but their own cycle
        counters, so the accounting is settled lazily -- and selectively,
        per wake *channel*: a write-queue pop settles only write-blocked
        cores, a read-queue pop only read-blocked ones, and a read
        completion settles exactly the owning cores just before the tick
        that fires it (retirement replay needs the pre-completion window
        flags); everyone else stays deferred until its own channel fires or
        the run ends.
        """
        controller = self.controller
        controller_tick = controller.tick
        cores = self.cores
        core_items = list(enumerate(cores))
        core_count = len(cores)
        lone_core = cores[0] if core_count == 1 else None
        reads = controller.reads
        writes = controller.writes
        events = self.event_queue
        cpu_ratio = self.config.cpu_cycles_per_dram_cycle
        cpu_cycle_debt = 0.0
        cycle = 0
        slow_cores: List[SimpleCore] = []
        deferred = [False] * core_count
        deferred_count = 0
        synced_ticks = [0] * core_count
        tick_total = 0
        last_read_pops = reads.pops
        last_write_pops = writes.pops
        #: Non-deferred cores in index order (the reference interleaving);
        #: rebuilt whenever the deferred set changes.
        active_items = list(core_items)
        for index in range(core_count):
            events.schedule(index, 0)

        def settle_core(index: int) -> None:
            """Un-defer one core, applying its accumulated stall ticks.

            The core gets its wake entry back, conservatively at the current
            cycle: normally the very next tick phase reclassifies it anyway
            (re-deferring it or re-registering a fresh entry), but on a
            processed cycle that carries zero CPU ticks (possible when the
            CPU is clocked slower than the DRAM bus) the tick phase is
            skipped, and without an entry a later jump could batch the core
            across a span it must be ticked exactly in."""
            nonlocal deferred_count
            lag = tick_total - synced_ticks[index]
            if lag:
                cores[index].settle_stall(lag)
            deferred[index] = False
            deferred_count -= 1
            events.schedule(index, cycle)

        def rebuild_active() -> None:
            """Recompute the index-ordered non-deferred core list."""
            active_items[:] = [item for item in core_items if not deferred[item[0]]]

        def settle_channel(channel: int) -> None:
            """Settle the deferred cores blocked on one wake channel."""
            settled = False
            for index in range(core_count):
                if deferred[index] and cores[index].blocked_channel == channel:
                    settle_core(index)
                    settled = True
            if settled:
                rebuild_active()

        def settle_deferred() -> None:
            """Apply every deferred core's accumulated stall ticks."""
            for index in range(core_count):
                if deferred[index]:
                    settle_core(index)
            active_items[:] = core_items

        while cycle < dram_cycles:
            if deferred_count and cycle >= controller.earliest_completion_cycle:
                # This tick will complete reads, setting window flags that
                # feed retirement.  Exactly the owning cores' deferred stall
                # time must be settled with the *pre-completion* flags to
                # replay retirement bit-exactly; other cores' windows are
                # untouched by the completions and may stay lazy.
                settled = False
                for core_id in controller.due_completion_cores(cycle):
                    if core_id >= 0 and deferred[core_id]:
                        settle_core(core_id)
                        settled = True
                if settled:
                    rebuild_active()
            # A quiescent controller tick returns its event horizon; ``None``
            # means an event fired, so the next cycle must be processed.
            controller_horizon = controller_tick(cycle)
            if deferred_count:
                # Queue-pop wakes, per channel: a drained write queue can
                # only unblock write-blocked cores, a drained read queue
                # read-blocked ones.  Settle them so the tick phase
                # reclassifies; everyone else stays lazily deferred.
                pops = writes.pops
                if pops != last_write_pops:
                    last_write_pops = pops
                    settle_channel(0)
                pops = reads.pops
                if pops != last_read_pops:
                    last_read_pops = pops
                    settle_channel(1)
            else:
                last_write_pops = writes.pops
                last_read_pops = reads.pops
            cpu_cycle_debt += cpu_ratio
            ticks = int(cpu_cycle_debt)
            cpu_cycle_debt -= ticks
            if ticks:
                tick_total += ticks
                enqueues_before = controller.enqueue_count
                if lone_core is not None:
                    # Single-core (alone-IPC) runs: no tick-major
                    # interleaving to respect, so an interacting core runs
                    # its whole DRAM cycle in one call.
                    if not deferred[0]:
                        mode = lone_core.fast_tick(ticks)
                        if mode is None:
                            lone_core.run_ticks(cycle, ticks)
                            if 0 not in events:
                                events.schedule(0, cycle + 1)
                        elif mode != "bubble":
                            deferred[0] = True
                            deferred_count = 1
                            synced_ticks[0] = tick_total
                            active_items[:] = []
                else:
                    slow_cores.clear()
                    rebuild = False
                    for index, core in active_items:
                        mode = core.fast_tick(ticks)
                        if mode is None:
                            slow_cores.append(core)
                            if index not in events:
                                # An interacting core must stay visible to
                                # the jump logic (it may have been dropped
                                # while blocked).
                                events.schedule(index, cycle + 1)
                        elif mode != "bubble":
                            # Entering deferred stall (a "drain" leaves the
                            # core stalled too): ticks are current as of now;
                            # everything later settles lazily.  The stale
                            # wake entry is discarded lazily when it pops.
                            deferred[index] = True
                            deferred_count += 1
                            synced_ticks[index] = tick_total
                            rebuild = True
                    if rebuild:
                        rebuild_active()
                    if slow_cores:
                        # Tick-major over the interacting cores, exactly as
                        # the reference loop.  A core whose tick made no
                        # progress is blocked for the rest of this DRAM cycle
                        # (queues only fill, completions only arrive between
                        # cycles), so its remaining ticks are batched as
                        # stalls.
                        for tick_index in range(ticks):
                            if not slow_cores:
                                break
                            rest = ticks - tick_index - 1
                            retained = 0
                            for core in slow_cores:
                                if core.tick(cycle) or not rest:
                                    slow_cores[retained] = core
                                    retained += 1
                                else:
                                    core.settle_stall(rest)
                            del slow_cores[retained:]
                if controller.enqueue_count != enqueues_before:
                    # Cores injected requests this cycle.  Each enqueue
                    # folded its own bank-local bound into the controller's
                    # quiet horizon, so the updated bound replaces the one
                    # reported before the cores ran.
                    controller_horizon = controller.post_enqueue_horizon(cycle)
            next_cycle = cycle + 1
            if next_cycle >= dram_cycles:
                break
            if controller_horizon is None:
                cycle = next_cycle
                continue
            horizon = controller_horizon if controller_horizon < dram_cycles else dram_cycles
            if horizon > next_cycle:
                # Drain core wake entries below the prospective jump target,
                # revalidating each against its core's current horizon.  A
                # deferred core's entry is simply discarded (its wake event
                # will reschedule it); a confirmed earlier wake tightens the
                # jump.
                while True:
                    head = events.peek_cycle()
                    if head >= horizon:
                        break
                    index = events.pop()[1]
                    if deferred[index]:
                        continue
                    core_horizon = cores[index].wake_bound(cycle)
                    events.schedule(index, core_horizon)
                    if core_horizon < horizon:
                        horizon = core_horizon if core_horizon > next_cycle else next_cycle
                        if horizon <= next_cycle:
                            break
            if horizon > next_cycle:
                # Fast-forward: account the skipped span in bulk.  The debt
                # accumulator replays the reference loop's float arithmetic.
                total_ticks = 0
                for _ in range(horizon - next_cycle):
                    cpu_cycle_debt += cpu_ratio
                    skipped_ticks = int(cpu_cycle_debt)
                    cpu_cycle_debt -= skipped_ticks
                    total_ticks += skipped_ticks
                if total_ticks:
                    tick_total += total_ticks
                    # Every core is batchable across the span: the queue
                    # guarantees it (every live wake entry is at or beyond
                    # the horizon, a deferred or entry-less core is blocked
                    # until a controller event, and a bubble core's entry
                    # bounds the span by its remaining bubble budget).
                    rebuild = False
                    for index, core in active_items:
                        if core.fast_tick(total_ticks) != "bubble":
                            deferred[index] = True
                            deferred_count += 1
                            synced_ticks[index] = tick_total
                            rebuild = True
                    if rebuild:
                        rebuild_active()
                # The reference loop's last skipped tick would have recorded
                # this cycle count.
                controller.stats.cycles = horizon
                cycle = horizon
            else:
                cycle = next_cycle
        # Settle any remaining deferred stall time before reporting results.
        settle_deferred()


def run_workload(
    config: SystemConfig,
    mix: WorkloadMix,
    dram_cycles: int = 20_000,
    requests_per_core: int = 4_000,
    mitigation=None,
    seed: int = 0,
    step_mode: str = "event",
) -> SimulationResult:
    """Convenience wrapper: build traces for a mix and run it."""
    traces = mix.build_traces(
        banks=config.banks,
        rows_per_bank=config.rows_per_bank,
        columns_per_row=config.columns_per_row,
        requests_per_core=requests_per_core,
        seed=seed,
    )
    simulation = Simulation(config, traces, mitigation=mitigation, step_mode=step_mode)
    return simulation.run(dram_cycles)


def run_alone_ipcs(
    config: SystemConfig,
    mix: WorkloadMix,
    dram_cycles: int = 20_000,
    requests_per_core: int = 4_000,
    seed: int = 0,
    step_mode: str = "event",
) -> List[float]:
    """Per-benchmark alone IPCs (each benchmark run on the system by itself).

    Used as the denominator of the weighted-speedup metric.  Results are
    deterministic for a given seed, so callers typically cache them per mix.
    """
    traces = mix.build_traces(
        banks=config.banks,
        rows_per_bank=config.rows_per_bank,
        columns_per_row=config.columns_per_row,
        requests_per_core=requests_per_core,
        seed=seed,
    )
    alone_ipcs: List[float] = []
    for trace in traces:
        simulation = Simulation(config, [trace], mitigation=None, step_mode=step_mode)
        result = simulation.run(dram_cycles)
        alone_ipcs.append(result.core_ipcs[0])
    return alone_ipcs
