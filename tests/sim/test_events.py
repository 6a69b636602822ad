"""Property and unit tests for the event-queue core of ``repro.sim``.

Two layers:

* :class:`EventQueue` against a naive model: ordering, deterministic FIFO
  tie-breaking, reschedule/cancel correctness (hypothesis stateful-ish
  operation sequences).
* The controller's per-queue index against full scans of the live
  queues, and the fast scheduler's decisions against the independent
  scan-based reference scheduler, on randomized request soups.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController
from repro.sim.events import NEVER, EventQueue
from repro.sim.requests import MemoryRequest, RequestType


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
    for queue in (controller.reads, controller.writes):
        live = [r for r in queue.requests if not r.popped]
        assert queue.length == len(live)
        for bank_index, bank in enumerate(controller.banks):
            requests = [r for r in live if r.bank == bank_index]
            hits = [r for r in requests if r.row == bank.open_row]
            assert queue.pending[bank_index] == len(requests)
            assert queue.hits[bank_index] == len(hits)
            assert [r for r in queue.fifo[bank_index] if not r.popped] == requests
            assert queue.head_seq[bank_index] == (requests[0].seq if requests else NEVER)
            assert queue.hit_seq[bank_index] == (hits[0].seq if hits else NEVER)
        grouped = {}
        for request in live:
            key = request.bank * controller._row_stride + request.row
            grouped.setdefault(key, []).append(request)
        for key, bucket in queue.rows.items():
            live_bucket = [r for r in bucket if not r.popped]
            assert live_bucket == grouped.get(key, [])
            assert queue.row_count.get(key, 0) == len(live_bucket)


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
