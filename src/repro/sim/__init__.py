"""Cycle-level DDR4 memory-system simulator with an event-queue fast path.

This package replaces the paper's Ramulator + SPEC CPU2006 setup (Table 6)
with a pure-Python equivalent:

* :mod:`repro.sim.config` -- the simulated system configuration (Table 6).
* :mod:`repro.sim.timing` -- DDR4 timing parameters in DRAM-bus cycles.
* :mod:`repro.sim.requests` -- memory requests and their life cycle.
* :mod:`repro.sim.events` -- the indexed :class:`~repro.sim.events.EventQueue`
  (schedule / reschedule / cancel, deterministic FIFO tie-breaking) the
  event-driven run loop drains.
* :mod:`repro.sim.bank` -- per-bank and per-rank timing state machines.
* :mod:`repro.sim.controller` -- FR-FCFS memory controller with refresh and
  RowHammer-mitigation hooks, scheduling over indexed per-bank buckets.
* :mod:`repro.sim.core` -- the simple out-of-order-window core model.
* :mod:`repro.sim.trace` -- synthetic memory-access trace generation.
* :mod:`repro.sim.workloads` -- SPEC-like benchmark profiles and the 8-core
  workload mixes used in the evaluation.
* :mod:`repro.sim.metrics` -- weighted speedup and bandwidth-overhead metrics.
* :mod:`repro.sim.system` -- the top-level multi-core simulation harness.
* :mod:`repro.sim.batch` -- :class:`~repro.sim.batch.SimulationBatch`, a
  group of independent simulations of one system run one after another
  (the Figure 10 study's per-core alone-IPC runs).

Execution model
---------------
A :class:`~repro.sim.system.Simulation` runs in one of two bit-identical
step modes (the golden and differential suites enforce this per
mechanism):

* ``step_mode="cycle"`` -- the reference implementation ticks the controller
  and every core at every DRAM cycle, scheduling by scanning the request
  queues directly.  It is the oracle the fast path is validated against
  (``tests/sim/test_golden_trace.py``).
* ``step_mode="event"`` (default) -- the event-queue fast path.  All state
  changes happen at *events*: command issues, read-data completions,
  periodic refreshes, and trace injections by the cores.  The run loop is
  keyed on one :class:`~repro.sim.events.EventQueue`:

  - The **memory controller**'s horizon is the byproduct of its quiescent
    tick.  Scheduling state is *indexed*, not scanned: each demand queue
    keeps per-bank FIFOs, per-(bank, row) hit buckets and flat
    head-of-index sequence mirrors, which give the FR-FCFS choice (and, on
    a failed scan, the earliest future issue opportunity) in O(banks with
    work), with no queue scans.  Bank
    and rank timer changes are pushed into flat mirrors at mutation time
    (:meth:`~repro.sim.controller.MemoryController._sync_bank`) rather
    than re-polled, and the quiet-horizon cache is lowered incrementally
    when cores enqueue new work instead of being thrown away.
  - Every **core** owns a *wake entry* in the queue: a lower bound on the
    next cycle it could interact with the memory system.  Entries are
    revalidated lazily when they surface below a prospective jump target,
    so cores deep in bubble budgets or long stalls are not re-polled each
    step.  Blocked cores carry no entry at all; the controller's wake
    *channels* (write-queue pop, read-queue pop, per-core read completion)
    revive exactly the cores the wake can unblock.

  The loop jumps the clock to the earliest confirmed event and accounts the
  skipped span in bulk (exact CPU-debt replay; batched stall/bubble/drain
  core ticks; deferred-stall settling flushed before the completions that
  could change window retirement).  Every counter in the resulting
  :class:`~repro.sim.system.SimulationResult` is bit-identical to
  ``"cycle"`` mode; the golden regression suite enforces this for every
  mitigation mechanism.

How a mitigation interacts with the simulation
----------------------------------------------
A mechanism acts only through three methods of
:class:`~repro.mitigations.base.MitigationMechanism`:

* ``on_activate``, called at every demand activation;
* ``on_refresh``, called at every periodic refresh command;
* ``refresh_interval_multiplier``, a fixed tREFI scaling read once, when
  the controller is built.

Activations and refresh commands are controller events, so the event path
never jumps over a hook call, and both step modes call the hooks at the
same cycles with the same arguments.  A mechanism must not assume the
controller is ticked on every cycle; periodic work belongs in
``on_refresh``.
"""

from repro.sim.config import SystemConfig
from repro.sim.timing import DramTimings, DDR4_2400
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.events import EventQueue, EventQueueStats, NEVER
from repro.sim.controller import ControllerStats, MemoryController
from repro.sim.core import SimpleCore
from repro.sim.trace import SyntheticTraceGenerator, TraceRecord
from repro.sim.workloads import BenchmarkProfile, SPEC_LIKE_BENCHMARKS, make_workload_mixes
from repro.sim.metrics import weighted_speedup, normalized_performance
from repro.sim.system import Simulation, SimulationResult

__all__ = [
    "SystemConfig",
    "DramTimings",
    "DDR4_2400",
    "MemoryRequest",
    "RequestType",
    "EventQueue",
    "EventQueueStats",
    "NEVER",
    "MemoryController",
    "ControllerStats",
    "SimpleCore",
    "SyntheticTraceGenerator",
    "TraceRecord",
    "BenchmarkProfile",
    "SPEC_LIKE_BENCHMARKS",
    "make_workload_mixes",
    "weighted_speedup",
    "normalized_performance",
    "Simulation",
    "SimulationResult",
]
