"""Property and unit tests for the event-queue core of ``repro.sim``.

Three layers:

* :class:`EventQueue` against a naive model: ordering, deterministic FIFO
  tie-breaking, reschedule/cancel correctness (hypothesis stateful-ish
  operation sequences).
* The controller's indexed bank buckets against full scans of the live
  queues, and the fast scheduler's decisions against the independent
  scan-based reference scheduler, on randomized request soups.
* The mitigation timer event-registration API
  (:meth:`~repro.mitigations.base.MitigationMechanism.register_events` /
  ``on_timer``), including bit-identity across step modes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.base import MitigationConfig, MitigationMechanism
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.events import NEVER, EventQueue
from repro.sim.requests import MemoryRequest, RequestType
from repro.sim.system import Simulation
from repro.sim.workloads import make_workload_mixes


# ----------------------------------------------------------------------
# EventQueue vs naive model
# ----------------------------------------------------------------------
class NaiveQueue:
    """Reference model: a plain dict of key -> (cycle, fifo_rank)."""

    def __init__(self):
        self.entries = {}
        self.rank = 0

    def schedule(self, key, cycle):
        if cycle >= NEVER:
            self.entries.pop(key, None)
            return
        current = self.entries.get(key)
        if current is not None and current[0] == cycle:
            return  # EventQueue keeps the FIFO position of an unmoved entry
        self.rank += 1
        self.entries[key] = (cycle, self.rank)

    def cancel(self, key):
        return self.entries.pop(key, None) is not None

    def pop(self):
        if not self.entries:
            return None
        key = min(self.entries, key=lambda k: self.entries[k])
        cycle, _ = self.entries.pop(key)
        return (cycle, key)

    def peek_cycle(self):
        if not self.entries:
            return NEVER
        return min(self.entries.values())[0]


#: One operation of a randomized schedule/cancel/pop interleaving.
_OPS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=7),
        st.one_of(st.integers(min_value=0, max_value=50), st.just(NEVER)),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
)


class TestEventQueueProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    def test_matches_naive_model(self, ops):
        """Pops, peeks and membership match the reference model exactly."""
        queue = EventQueue()
        model = NaiveQueue()
        for op in ops:
            if op[0] == "schedule":
                queue.schedule(op[1], op[2])
                model.schedule(op[1], op[2])
            elif op[0] == "cancel":
                assert queue.cancel(op[1]) == model.cancel(op[1])
            elif op[0] == "pop":
                assert queue.pop() == model.pop()
            else:
                assert queue.peek_cycle() == model.peek_cycle()
            assert len(queue) == len(model.entries)
            for key in range(8):
                assert (key in queue) == (key in model.entries)
                expected = model.entries.get(key, (NEVER,))[0]
                assert queue.cycle_of(key) == expected
        drained = []
        while True:
            item = queue.pop()
            if item is None:
                break
            drained.append(item)
        assert drained == sorted(drained, key=lambda item: item[0])
        assert model.pop() is None or drained  # model drains identically above

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 10)), min_size=1, max_size=32
        )
    )
    def test_same_cycle_pops_in_schedule_order(self, pairs):
        """Entries scheduled for the same cycle drain in schedule order."""
        queue = EventQueue()
        latest = {}
        for order, (key, cycle) in enumerate(pairs):
            queue.schedule(key, cycle)
            if latest.get(key, (None, None))[0] != cycle:
                latest[key] = (cycle, order)
        drained = []
        while queue:
            drained.append(queue.pop())
        expected = sorted(latest.items(), key=lambda item: item[1])
        assert drained == [(cycle, key) for key, (cycle, order) in expected]

    def test_stats_accounting(self):
        queue = EventQueue()
        queue.schedule("a", 5)
        queue.schedule("b", 5)
        queue.schedule("a", 9)  # reschedule
        queue.schedule("a", 9)  # no-op: already there
        assert queue.stats.scheduled == 2
        assert queue.stats.rescheduled == 1
        assert queue.stats.max_depth == 2
        assert queue.cancel("b")
        assert not queue.cancel("b")
        assert queue.stats.cancelled == 1
        assert queue.pop() == (9, "a")
        assert queue.stats.popped == 1
        assert queue.pop() is None
        assert queue.peek_cycle() == NEVER

    def test_never_schedules_drop_the_entry(self):
        queue = EventQueue()
        queue.schedule(3, 10)
        queue.schedule(3, NEVER)
        assert 3 not in queue
        assert queue.pop() is None


# ----------------------------------------------------------------------
# Indexed bank buckets vs full scans and the reference scheduler
# ----------------------------------------------------------------------
SMALL = SystemConfig(
    cores=2, banks=4, rows_per_bank=64, read_queue_depth=8, write_queue_depth=8
)


def _request(kind, bank, row):
    return MemoryRequest(request_type=kind, bank=bank, row=row)


def _assert_index_consistent(controller):
    """Cross-check every incremental structure against naive scans."""
    live_reads = controller.queued_reads()
    live_writes = controller.queued_writes()
    assert controller.read_len == len(live_reads)
    assert controller.write_len == len(live_writes)
    for bank_index, bank in enumerate(controller.banks):
        reads = [r for r in live_reads if r.bank == bank_index]
        writes = [w for w in live_writes if w.bank == bank_index]
        assert controller._read_pending[bank_index] == len(reads)
        assert controller._write_pending[bank_index] == len(writes)
        read_hits = [r for r in reads if r.row == bank.open_row]
        write_hits = [w for w in writes if w.row == bank.open_row]
        assert controller._read_hits[bank_index] == len(read_hits)
        assert controller._write_hits[bank_index] == len(write_hits)
        assert [r for r in controller._read_fifo[bank_index] if not r.popped] == reads
        assert [w for w in controller._write_fifo[bank_index] if not w.popped] == writes
        assert controller._read_head_seq[bank_index] == (
            reads[0].seq if reads else NEVER
        )
        assert controller._write_head_seq[bank_index] == (
            writes[0].seq if writes else NEVER
        )
        assert controller._read_hit_seq[bank_index] == (
            read_hits[0].seq if read_hits else NEVER
        )
        assert controller._write_hit_seq[bank_index] == (
            write_hits[0].seq if write_hits else NEVER
        )
    for queue, rows, counts in (
        (live_reads, controller._read_rows, controller._read_row_count),
        (live_writes, controller._write_rows, controller._write_row_count),
    ):
        grouped = {}
        for request in queue:
            key = request.bank * controller._row_stride + request.row
            grouped.setdefault(key, []).append(request)
        for key, bucket in rows.items():
            live = [r for r in bucket if not r.popped]
            assert live == grouped.get(key, [])
            assert counts.get(key, 0) == len(live)


_SOUP = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=12),  # tick gap before the enqueue
        st.booleans(),  # write?
        st.integers(min_value=0, max_value=3),  # bank
        st.integers(min_value=0, max_value=7),  # row (small: force hits/conflicts)
    ),
    min_size=1,
    max_size=40,
)


class TestBucketInvariants:
    @settings(max_examples=60, deadline=None)
    @given(_SOUP)
    def test_fast_scheduler_matches_reference_on_random_soup(self, soup):
        """Two controllers fed the same request stream -- one ticked through
        the indexed fast path, one through the scan-based reference -- must
        produce identical stats and bank states, and the fast controller's
        index must stay consistent throughout."""
        fast = MemoryController(SMALL)
        reference = MemoryController(SMALL)
        cycle = 0
        for gap, is_write, bank, row in soup:
            for _ in range(gap):
                fast.tick(cycle)
                reference.tick_reference(cycle)
                cycle += 1
            kind = RequestType.WRITE if is_write else RequestType.READ
            accepted_fast = fast.enqueue(_request(kind, bank, row), cycle)
            accepted_ref = reference.enqueue(_request(kind, bank, row), cycle)
            assert accepted_fast == accepted_ref
        # Drain: run both controllers until idle (bounded).
        for _ in range(3_000):
            if not (fast.outstanding_requests or reference.outstanding_requests):
                break
            fast.tick(cycle)
            reference.tick_reference(cycle)
            cycle += 1
        _assert_index_consistent(fast)
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(reference.stats)
        for fast_bank, ref_bank in zip(fast.banks, reference.banks):
            assert dataclasses.asdict(fast_bank) == dataclasses.asdict(ref_bank)

    @settings(max_examples=60, deadline=None)
    @given(_SOUP)
    def test_index_consistent_at_every_step(self, soup):
        """The index invariants hold after every single tick and enqueue."""
        controller = MemoryController(SMALL)
        cycle = 0
        for gap, is_write, bank, row in soup:
            for _ in range(gap):
                controller.tick(cycle)
                cycle += 1
            kind = RequestType.WRITE if is_write else RequestType.READ
            controller.enqueue(_request(kind, bank, row), cycle)
            _assert_index_consistent(controller)
        for _ in range(200):
            controller.tick(cycle)
            cycle += 1
        _assert_index_consistent(controller)


# ----------------------------------------------------------------------
# Mitigation timer event-registration API
# ----------------------------------------------------------------------
class ScrubberMechanism(MitigationMechanism):
    """Test mechanism: an autonomous periodic scrubber using the port API.

    Every ``period`` cycles it asks for one victim refresh of a row it
    cycles through -- activity that exists *only* through ``on_timer``
    dispatch, so both step modes must dispatch it identically for the
    golden comparison to hold.
    """

    name = "test-scrubber"

    def __init__(self, config, period=700):
        super().__init__(config)
        self.period = period
        self.fired_at = []
        self._port = None
        self._next_row = 0

    def register_events(self, port):
        self._port = port
        port.schedule_timer(self.period)

    def on_timer(self, cycle):
        self.fired_at.append(cycle)
        self._port.schedule_timer(cycle + self.period)
        row = self._next_row
        self._next_row = (self._next_row + 3) % self.config.rows_per_bank
        return self._request([(0, row)])

    def on_activate(self, bank, row, cycle):
        return []


class LateTimerMechanism(MitigationMechanism):
    """Test mechanism: arms one-shot timers mid-run, from ``on_activate``.

    Each timer is scheduled ``delay`` cycles after an activation, while the
    controller may already hold a quiet horizon past it -- the event path
    must pull its horizon in rather than jump over the new timer.
    """

    name = "test-late-timer"

    def __init__(self, config, delay=37, timers=5):
        super().__init__(config)
        self.delay = delay
        self.timers = timers
        self.armed_at = []
        self.fired_at = []
        self._port = None

    def register_events(self, port):
        self._port = port

    def on_activate(self, bank, row, cycle):
        if self._port.timer_cycle == NEVER and len(self.armed_at) < self.timers:
            self.armed_at.append(cycle)
            self._port.schedule_timer(cycle + self.delay)
        return []

    def on_timer(self, cycle):
        self.fired_at.append(cycle)
        return self._request([(0, 1)])


def timer_traces(config, seed=11):
    mix = make_workload_mixes(num_mixes=1, cores=config.cores, seed=seed)[0]
    return mix.build_traces(
        banks=config.banks,
        rows_per_bank=config.rows_per_bank,
        columns_per_row=config.columns_per_row,
        requests_per_core=400,
        seed=seed,
    )


def assert_runs_identical(results):
    assert dataclasses.asdict(results["cycle"].controller_stats) == dataclasses.asdict(
        results["event"].controller_stats
    )
    assert results["cycle"].core_ipcs == results["event"].core_ipcs


class TestMitigationTimerRegistration:
    def _mechanism(self, config, period=700):
        return ScrubberMechanism(
            MitigationConfig(
                hcfirst=2_000,
                banks=config.banks,
                rows_per_bank=config.rows_per_bank,
                timings=config.timings,
            ),
            period=period,
        )

    def test_timer_fires_at_registered_cycles_in_both_modes(self):
        config = SystemConfig(
            cores=2, banks=4, rows_per_bank=256, read_queue_depth=8, write_queue_depth=8
        )
        mix = make_workload_mixes(num_mixes=1, cores=2, seed=11)[0]
        traces = mix.build_traces(
            banks=config.banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            requests_per_core=400,
            seed=11,
        )
        results = {}
        fired = {}
        for mode in ("cycle", "event"):
            mechanism = self._mechanism(config)
            simulation = Simulation(config, traces, mitigation=mechanism, step_mode=mode)
            results[mode] = simulation.run(5_000)
            fired[mode] = list(mechanism.fired_at)
        assert fired["cycle"] == fired["event"]
        assert fired["event"] == [700 * n for n in range(1, 8)]
        assert results["cycle"].controller_stats.mitigation_refreshes > 0
        assert dataclasses.asdict(results["cycle"].controller_stats) == dataclasses.asdict(
            results["event"].controller_stats
        )
        assert results["cycle"].core_ipcs == results["event"].core_ipcs

    def test_registered_timer_bounds_horizon(self):
        config = SystemConfig(
            cores=1, banks=4, rows_per_bank=64, read_queue_depth=8, write_queue_depth=8
        )
        mechanism = self._mechanism(config, period=123)
        controller = MemoryController(config, mitigation=mechanism)
        # No queued work: the horizon is the timer, not the distant refresh.
        assert controller.next_event_cycle(0) == 123
        horizon = controller.tick(0)
        assert horizon == 123

    def test_cancelled_timer_releases_horizon(self):
        config = SystemConfig(
            cores=1, banks=4, rows_per_bank=64, read_queue_depth=8, write_queue_depth=8
        )
        mechanism = self._mechanism(config, period=123)
        controller = MemoryController(config, mitigation=mechanism)
        mechanism._port.cancel_timer()
        assert mechanism._port.timer_cycle == NEVER
        assert controller.next_event_cycle(0) == config.timings.trefi

    def test_timer_armed_mid_run_fires_on_time_in_both_modes(self):
        config = SystemConfig(
            cores=2, banks=4, rows_per_bank=256, read_queue_depth=8, write_queue_depth=8
        )
        traces = timer_traces(config)
        results, fired = {}, {}
        for mode in ("cycle", "event"):
            mechanism = LateTimerMechanism(
                MitigationConfig(
                    hcfirst=2_000,
                    banks=config.banks,
                    rows_per_bank=config.rows_per_bank,
                    timings=config.timings,
                )
            )
            results[mode] = Simulation(
                config, traces, mitigation=mechanism, step_mode=mode
            ).run(5_000)
            assert mechanism.fired_at == [cycle + 37 for cycle in mechanism.armed_at]
            fired[mode] = mechanism.fired_at
        assert fired["cycle"] == fired["event"]
        assert len(fired["event"]) == 5
        assert results["event"].controller_stats.mitigation_refreshes == 5
        assert_runs_identical(results)

    def test_timer_on_refresh_boundaries_fires_in_both_modes(self):
        """A timer due on the same cycle as each periodic refresh command."""
        config = SystemConfig(
            cores=2, banks=4, rows_per_bank=256, read_queue_depth=8, write_queue_depth=8
        )
        trefi = config.timings.trefi
        traces = timer_traces(config)
        results, fired = {}, {}
        for mode in ("cycle", "event"):
            mechanism = self._mechanism(config, period=trefi)
            results[mode] = Simulation(
                config, traces, mitigation=mechanism, step_mode=mode
            ).run(3 * trefi + 1)
            fired[mode] = mechanism.fired_at
        assert fired["cycle"] == fired["event"] == [trefi, 2 * trefi, 3 * trefi]
        assert results["event"].controller_stats.refresh_commands >= 3
        assert_runs_identical(results)
