"""Boundary-condition tests for the event-horizon machinery.

The event-driven loop's correctness rests on one contract: the horizon a
quiescent controller reports is *sound* -- nothing can happen strictly
before it -- and *useful* -- it is strictly in the future, even when a
timer expires exactly at the current cycle (``horizon == cycle`` is the
off-by-one this suite pins).  The edges exercised here:

* rank tFAW admission at exactly ``oldest_activate + tFAW`` (legal) vs
  one cycle earlier (illegal), and the matching ``next_activate_cycle``
  bound;
* bank timers at exact expiry (``can_activate`` / ``can_precharge`` /
  ``can_column_access`` flip on the boundary cycle, not one later);
* the refresh window: horizons during an all-bank refresh, a quiet cache
  that expires exactly at its own horizon, and runs that end on a tREFI
  boundary;
* a hypothesis run-forward property: at every point of a random run driven
  by the reference scheduler, the horizon the fast path's :meth:`tick`
  reports for the next cycle (taken on a deep copy, so the run itself
  stays on the reference path) must point strictly past that cycle, and
  replaying the reference scheduler up to the horizon must find no
  observable event before it.  The requests carry no completion
  callbacks, so the copy shares no state with the run.
"""

import copy
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bank import BankState, RankState
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.timing import DramTimings

#: Refresh boundaries every 400 cycles so short runs cross several.
FAST_REFRESH = dataclasses.replace(DramTimings(), trefi=400, trfc=60)

SMALL = SystemConfig(
    cores=2,
    banks=4,
    rows_per_bank=64,
    read_queue_depth=8,
    write_queue_depth=8,
    timings=FAST_REFRESH,
)


def _request(kind, bank, row):
    return MemoryRequest(request_type=kind, bank=bank, row=row)


def _observable(controller):
    """Everything an 'event' can change, minus the free-running cycle count."""
    stats = dataclasses.asdict(controller.stats)
    stats.pop("cycles")
    return (
        stats,
        controller.reads.length,
        controller.writes.length,
        len(controller.victim_queue),
        len(controller._pending_completions),
        [dataclasses.asdict(bank) for bank in controller.banks],
        controller.rank.next_activate,
        controller.rank.data_bus_free,
        list(controller.rank.recent_activates),
    )


class TestRankTfawEdges:
    def test_admission_at_exact_tfaw_boundary(self):
        timings = DramTimings()
        rank = RankState(timings=timings)
        # Four activates spaced exactly tRRD_L apart fill the rolling window.
        cycles = [index * timings.trrd_l for index in range(4)]
        for cycle in cycles:
            assert rank.can_activate(cycle)
            rank.record_activate(cycle)
        bound = cycles[0] + timings.tfaw
        trrd_bound = cycles[-1] + timings.trrd_l
        assert rank.next_activate_cycle() == max(bound, trrd_bound)
        # tFAW expiry is ``oldest <= cycle - tFAW``: the boundary cycle
        # itself readmits, one cycle earlier does not.
        assert not rank.can_activate(bound - 1)
        assert rank.can_activate(bound)

    def test_trrd_binds_when_window_not_full(self):
        timings = DramTimings()
        rank = RankState(timings=timings)
        rank.record_activate(10)
        assert rank.next_activate_cycle() == 10 + timings.trrd_l
        assert not rank.can_activate(10 + timings.trrd_l - 1)
        assert rank.can_activate(10 + timings.trrd_l)


class TestBankTimerEdges:
    def test_timers_flip_on_their_expiry_cycle(self):
        timings = DramTimings()
        bank = BankState(timings=timings)
        bank.activate(0, row=5)
        assert bank.open_row == 5
        # Column access legal exactly at tRCD, precharge exactly at tRAS.
        assert not bank.can_column_access(timings.trcd - 1, is_write=False)
        assert bank.can_column_access(timings.trcd, is_write=False)
        assert not bank.can_precharge(timings.tras - 1)
        assert bank.can_precharge(timings.tras)
        bank.precharge(timings.tras)
        # Activate legal exactly at the tRC/tRP-derived expiry.
        assert not bank.can_activate(bank.next_activate - 1)
        assert bank.can_activate(bank.next_activate)


class TestHorizonAtCurrentCycle:
    def test_tick_horizon_never_returns_the_present(self):
        """One cycle before the refresh boundary the horizon is the boundary
        itself; on the boundary the refresh fires; inside the refresh window
        the horizon is strictly in the future."""
        controller = MemoryController(SMALL)
        trefi = SMALL.timings.trefi
        assert controller.tick(trefi - 1) == trefi
        assert controller.tick(trefi) is None  # the refresh command
        inside = controller.tick(trefi + 1)
        assert inside is not None and inside > trefi + 1

    def test_quiet_cache_expires_on_its_own_horizon(self):
        """A quiescent tick's horizon is where the next tick must process:
        ``tick(horizon)`` may not echo the cached bound back."""
        controller = MemoryController(SMALL)
        controller.enqueue(_request(RequestType.READ, bank=1, row=3), 0)
        horizon = None
        cycle = 0
        for _ in range(2_000):
            result = controller.tick(cycle)
            if result is not None:
                horizon = result
                break
            cycle += 1
        assert horizon is not None and horizon > cycle
        assert controller._quiet_until == horizon
        follow_up = controller.tick(horizon)
        assert follow_up is None or follow_up > horizon

    def test_refresh_window_horizon(self):
        """Inside an all-bank refresh the horizon is the window end, and
        scheduling resumes exactly at ``_refresh_until``."""
        controller = MemoryController(SMALL)
        trefi = SMALL.timings.trefi
        controller.enqueue(_request(RequestType.READ, bank=0, row=1), 0)
        for cycle in range(trefi):
            controller.tick_reference(cycle)
        assert controller.tick(trefi) is None  # the refresh command itself
        until = controller._refresh_until
        assert until > trefi + 1
        inside = controller.tick(trefi + 1)
        assert inside is not None and inside >= until
        controller.enqueue(_request(RequestType.READ, bank=2, row=7), trefi + 1)
        # The enqueue fold may not promise anything beyond the window end.
        assert controller._quiet_until <= until
        # At the window end the queued read's activate becomes issuable.
        reads_before = controller.stats.reads_serviced
        activates_before = controller.stats.demand_activates
        assert controller.tick(until) is None
        assert controller.stats.demand_activates == activates_before + 1
        del reads_before


_SOUP = st.lists(
    st.tuples(
        st.integers(0, 60),  # idle gap before the enqueue
        st.booleans(),  # write?
        st.integers(0, SMALL.banks - 1),
        st.integers(0, SMALL.rows_per_bank - 1),
    ),
    min_size=4,
    max_size=24,
)


def _next_horizon(controller, cycle):
    """First cycle after ``cycle`` at which the fast path says state may
    change: the horizon of ``tick(cycle + 1)``, or ``cycle + 1`` when that
    tick fires an event.  Taken on a copy, so the controller itself stays
    on the reference path."""
    horizon = copy.deepcopy(controller).tick(cycle + 1)
    if horizon is None:
        return cycle + 1  # an event fires on the very next cycle
    assert horizon > cycle + 1
    return horizon


class TestRunForwardSoundness:
    @settings(max_examples=40, deadline=None)
    @given(_SOUP)
    def test_tick_horizon_is_sound_and_future(self, soup):
        """At every point: replaying the reference scheduler strictly before
        the fast path's horizon changes nothing observable."""
        controller = MemoryController(SMALL)
        cycle = 0
        checked = 0
        for gap, is_write, bank, row in soup:
            target = cycle + gap
            while cycle < target:
                horizon = _next_horizon(controller, cycle)
                before = _observable(controller)
                # Tick reference strictly up to the horizon (bounded to the
                # enqueue target): every cycle must be a no-op.
                quiet_until = min(horizon, target)
                while cycle + 1 < quiet_until:
                    cycle += 1
                    controller.tick_reference(cycle)
                    assert _observable(controller) == before
                    checked += 1
                cycle += 1
                controller.tick_reference(cycle)
            kind = RequestType.WRITE if is_write else RequestType.READ
            controller.enqueue(_request(kind, bank, row), cycle)
        # Drain with the same invariant until idle (bounded).
        for _ in range(4):
            horizon = _next_horizon(controller, cycle)
            before = _observable(controller)
            while cycle + 1 < horizon:
                cycle += 1
                controller.tick_reference(cycle)
                assert _observable(controller) == before
                checked += 1
            cycle += 1
            controller.tick_reference(cycle)
        assert checked > 0  # the property actually exercised quiet spans
