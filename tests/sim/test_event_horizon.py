"""Unit tests for the horizons the event-driven fast path jumps by.

The simulation loop jumps the clock to the minimum of the controller's
horizon -- the return value of a quiescent :meth:`MemoryController.tick`,
or :meth:`MemoryController.post_enqueue_horizon` after cores enqueued --
and the cores' wake entries (:meth:`SimpleCore.wake_bound`), whose rank
inputs come from ``RankState``.  A horizon that undershoots merely costs a
wasted wake-up; a horizon that overshoots would skip an event and corrupt
results, so these tests pin the exact values for known component states.
"""

import pytest

from repro.sim.bank import RankState
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.core import NEVER, SimpleCore
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.timing import DDR4_2400
from repro.sim.trace import TraceRecord


@pytest.fixture
def system() -> SystemConfig:
    return SystemConfig(cores=2, banks=4, rows_per_bank=256, read_queue_depth=8, write_queue_depth=8)


def read_request(bank, row):
    return MemoryRequest(request_type=RequestType.READ, bank=bank, row=row)


class TestRankHorizon:
    def test_rank_next_activate_includes_tfaw(self):
        rank = RankState(DDR4_2400)
        for cycle in (0, 6, 12, 18):  # tRRD_L apart, all inside the tFAW window
            assert rank.can_activate(cycle)
            rank.record_activate(cycle)
        # Four activates in the window: the fifth waits for the oldest to age out.
        assert rank.next_activate_cycle() == 0 + DDR4_2400.tfaw
        assert not rank.can_activate(DDR4_2400.tfaw - 1)
        assert rank.can_activate(DDR4_2400.tfaw)

    def test_rank_data_bus_ready_cycle(self):
        rank = RankState(DDR4_2400)
        rank.occupy_data_bus(100)
        ready = rank.data_bus_ready_cycle()
        assert not rank.can_use_data_bus(ready - 1)
        assert rank.can_use_data_bus(ready)


class TestControllerHorizon:
    def test_idle_controller_horizon_is_next_refresh(self, system):
        controller = MemoryController(system)
        assert controller.tick(0) == system.timings.trefi

    def test_queued_request_pulls_post_enqueue_horizon_in(self, system):
        controller = MemoryController(system)
        assert controller.tick(0) == system.timings.trefi
        # A core enqueues after the tick, as in the event loop.  A fresh bank
        # can activate at once, so the next cycle must be processed.
        controller.enqueue(read_request(0, 5), cycle=0)
        assert controller.post_enqueue_horizon(0) is None
        assert controller.tick(1) is None
        assert controller.stats.demand_activates == 1

    def test_pending_completion_bounds_horizon(self, system):
        controller = MemoryController(system)
        controller.enqueue(read_request(0, 5), cycle=0)
        cycle = 0
        while not controller._pending_completions:
            controller.tick(cycle)
            cycle += 1
        done_cycle = controller._pending_completions[0][0]
        assert controller.earliest_completion_cycle == done_cycle
        horizon = controller.tick(cycle)
        assert horizon is not None and cycle < horizon <= done_cycle

    def test_jumping_by_tick_horizons_matches_cycle_reference(self, system):
        """Jumping to each quiescent tick's horizon ends in the same state as
        ticking the reference scheduler on every cycle."""
        controller = MemoryController(system)
        reference = MemoryController(system)
        for row in (5, 9, 5):
            controller.enqueue(read_request(0, row), cycle=0)
            reference.enqueue(read_request(0, row), cycle=0)
        cycle = 0
        jumps = 0
        while cycle < 600:
            last_tick = cycle
            horizon = controller.tick(cycle)
            if horizon is None:
                cycle += 1
                continue
            assert horizon > cycle
            jumps += 1
            cycle = horizon
        for reference_cycle in range(last_tick + 1):
            reference.tick_reference(reference_cycle)
        assert jumps > 0
        assert controller.stats.reads_serviced == 3
        assert controller.stats == reference.stats
        assert controller.banks == reference.banks

    def test_never_overshoots_an_issue(self, system):
        """Ticking at the horizon must find work if the quiescent scan
        promised it (otherwise events would starve)."""
        controller = MemoryController(system)
        for row in (5, 9, 5, 13):
            controller.enqueue(read_request(0, row), cycle=0)
        cycle = 0
        while cycle < 2_000 and controller.stats.reads_serviced < 4:
            horizon = controller.tick(cycle)
            cycle = cycle + 1 if horizon is None else horizon
        assert controller.stats.reads_serviced == 4


class TestCoreHorizon:
    def make_core(self, system, records, controller=None):
        controller = controller or MemoryController(system)
        return SimpleCore(0, records, system, controller), controller

    def test_bubble_rich_core_reports_safe_span(self, system):
        records = [TraceRecord(10_000, 0, 1, 0, False)]
        core, _controller = self.make_core(system, records)
        horizon = core.wake_bound(0)
        safe_ticks = 10_000 // system.issue_width
        assert horizon == 1 + safe_ticks // core._max_ticks_per_cycle
        assert horizon > 1

    def test_issuing_core_reports_next_cycle(self, system):
        records = [TraceRecord(0, 0, 1, 0, False)]
        core, _controller = self.make_core(system, records)
        assert core.wake_bound(0) == 1

    def test_queue_blocked_core_reports_never(self, system):
        records = [TraceRecord(0, 0, 1, 0, False)]
        core, controller = self.make_core(system, records)
        for index in range(system.read_queue_depth):
            controller.enqueue(read_request(0, index), cycle=0)
        assert core.wake_bound(0) == NEVER
        assert core.blocked_channel == 1

    def test_blocked_core_with_leftover_bubbles_reports_bubble_bound(self, system):
        """A wake may unblock the core before its bubbles drain, so a blocked
        core mid-bubble keeps its bubble bound instead of ``NEVER``."""
        records = [TraceRecord(7, 0, 1, 0, False)]
        core, controller = self.make_core(system, records)
        for index in range(system.read_queue_depth):
            controller.enqueue(read_request(0, index), cycle=0)
        assert core._bubbles_remaining > 0
        safe_ticks = core._bubbles_remaining // system.issue_width
        assert core.wake_bound(0) == 1 + safe_ticks // core._max_ticks_per_cycle

    def test_fast_tick_declines_interacting_core(self, system):
        """A core that would reach an issuable memory request must be ticked
        exactly (fast_tick returns None and applies nothing)."""
        records = [TraceRecord(3, 0, 1, 0, False)]
        core, _controller = self.make_core(system, records)
        assert core.fast_tick(3) is None
        assert core.stats.cpu_cycles == 0

    def test_fast_tick_bubble_equivalence(self, system):
        records = [TraceRecord(100, 0, 1, 0, False)]
        batched, _c1 = self.make_core(system, records)
        exact, _c2 = self.make_core(system, records)
        assert batched.fast_tick(3) == "bubble"
        for _ in range(3):
            exact.tick(0)
        assert batched.stats == exact.stats
        assert batched._bubbles_remaining == exact._bubbles_remaining

    def test_fast_tick_stall_and_drain_equivalence(self, system):
        for bubbles in (0, 7):
            records = [TraceRecord(bubbles, 0, 1, 0, False)]
            batched, controller_a = self.make_core(system, records)
            exact, controller_b = self.make_core(system, records)
            for controller in (controller_a, controller_b):
                for index in range(system.read_queue_depth):
                    controller.enqueue(read_request(0, index), cycle=0)
            ticks = 4
            mode = batched.fast_tick(ticks)
            assert mode == ("drain" if bubbles else "stall")
            for _ in range(ticks):
                exact.tick(0)
            assert batched.stats == exact.stats
            assert batched._bubbles_remaining == exact._bubbles_remaining


class TestMechanismHorizon:
    def test_no_mechanism_moves_the_idle_horizon(self, system):
        """Mechanisms act only at controller events, so an idle controller's
        horizon is its next refresh whatever mechanism it carries."""
        from repro.mitigations.base import MitigationConfig
        from repro.mitigations.registry import available_mechanisms, build_mechanism

        for name in available_mechanisms():
            mechanism = build_mechanism(
                name,
                MitigationConfig(
                    hcfirst=50_000, banks=system.banks, rows_per_bank=system.rows_per_bank
                ),
            )
            controller = MemoryController(system, mitigation=mechanism)
            assert controller.tick(0) == controller.timings.trefi
