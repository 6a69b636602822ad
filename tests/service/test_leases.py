"""Unit tests of the lease state machine (no sockets, simulated clock)."""

from __future__ import annotations

import pytest

from repro.service.leases import LeaseManager, UnitRecord, UnitState


def make_units(count, submission="sub", prefix="u"):
    return [
        UnitRecord(
            key=f"{prefix}{index}",
            submission_id=submission,
            index=index,
            task_blob=f"blob-{index}",
        )
        for index in range(count)
    ]


def make_manager(**kwargs):
    defaults = dict(lease_ttl=10.0, max_attempts=3, backoff_base=1.0, backoff_cap=8.0)
    defaults.update(kwargs)
    return LeaseManager(**defaults)


class TestGrantAndComplete:
    def test_grant_leases_up_to_capacity(self):
        manager = make_manager()
        manager.add_submission("sub", "label", make_units(5))
        lease = manager.grant("w1", capacity=3, now=0.0)
        assert lease is not None and len(lease.keys) == 3
        assert all(manager.units[key].state is UnitState.LEASED for key in lease.keys)
        assert all(manager.units[key].attempts == 1 for key in lease.keys)
        # Remaining units still grantable to another worker.
        second = manager.grant("w2", capacity=10, now=0.0)
        assert second is not None and len(second.keys) == 2

    def test_complete_marks_done_and_empties_lease(self):
        manager = make_manager()
        manager.add_submission("sub", "label", make_units(2))
        lease = manager.grant("w1", capacity=2, now=0.0)
        for key in sorted(lease.keys):
            assert manager.complete(key) == "accepted"
        assert manager.submissions["sub"].done
        assert lease.lease_id not in manager.leases  # emptied leases are dropped

    def test_nothing_to_grant_returns_none(self):
        manager = make_manager()
        assert manager.grant("w1", capacity=1, now=0.0) is None
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        assert manager.grant("w2", capacity=1, now=0.0) is None  # all leased

    def test_duplicate_and_unknown_completions(self):
        manager = make_manager()
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        assert manager.complete("u0") == "accepted"
        # Idempotent: a second completion (re-dispatch race) is a duplicate.
        assert manager.complete("u0") == "duplicate"
        assert manager.submissions["sub"].completed == 1
        assert manager.complete("nope") == "unknown"


class TestExpiryAndReclaim:
    def test_expired_lease_requeues_units_with_backoff(self):
        manager = make_manager(lease_ttl=5.0, backoff_base=1.0)
        manager.add_submission("sub", "label", make_units(2))
        lease = manager.grant("w1", capacity=2, now=0.0)
        expired, events = manager.reap_expired(now=4.9)
        assert expired == 0 and not events
        expired, events = manager.reap_expired(now=5.1)
        assert expired == 1
        assert sorted(e.transition for e in events) == ["requeued", "requeued"]
        unit = manager.units["u0"]
        assert unit.state is UnitState.PENDING
        assert unit.requeues == 1
        # Backoff gate: not grantable immediately, grantable after it passes.
        assert manager.grant("w2", capacity=2, now=5.2) is None
        assert manager.next_available_in(5.2) == pytest.approx(0.9, abs=0.05)
        regrant = manager.grant("w2", capacity=2, now=6.2)
        assert regrant is not None and len(regrant.keys) == 2
        assert lease.lease_id not in manager.leases

    def test_heartbeat_extends_lease(self):
        manager = make_manager(lease_ttl=5.0)
        manager.add_submission("sub", "label", make_units(1))
        lease = manager.grant("w1", capacity=1, now=0.0)
        assert manager.heartbeat(lease.lease_id, now=4.0)
        expired, _ = manager.reap_expired(now=6.0)  # would have expired at 5.0
        assert expired == 0
        expired, _ = manager.reap_expired(now=9.1)
        assert expired == 1
        assert not manager.heartbeat(lease.lease_id, now=9.2)  # gone now

    def test_release_worker_reclaims_all_its_leases(self):
        manager = make_manager()
        manager.add_submission("sub", "label", make_units(4))
        manager.grant("w1", capacity=2, now=0.0)
        lease_w2 = manager.grant("w2", capacity=2, now=0.0)
        events = manager.release_worker("w1", now=1.0)
        assert len(events) == 2
        assert all(e.transition == "requeued" for e in events)
        # w2's lease is untouched.
        assert lease_w2.lease_id in manager.leases
        assert manager.state_counts()["leased"] == 2

    def test_late_completion_after_expiry_is_accepted(self):
        """A presumed-dead worker that finishes anyway saves the re-execution."""
        manager = make_manager(lease_ttl=1.0, backoff_base=0.0)
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        manager.reap_expired(now=2.0)  # w1 presumed hung; unit back to pending
        assert manager.complete("u0") == "accepted"
        assert manager.submissions["sub"].done

    def test_completion_race_between_old_and_new_worker(self):
        manager = make_manager(lease_ttl=1.0, backoff_base=0.0)
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        manager.reap_expired(now=2.0)
        manager.grant("w2", capacity=1, now=2.1)  # re-dispatched
        assert manager.complete("u0") == "accepted"  # w1's late report first
        assert manager.complete("u0") == "duplicate"  # then w2's
        assert manager.submissions["sub"].completed == 1


class TestQuarantine:
    def test_unit_quarantined_after_max_attempts(self):
        manager = make_manager(max_attempts=2, backoff_base=0.0)
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        event = manager.fail("u0", "boom 1", now=0.1, worker="w1")
        assert event.transition == "requeued"
        manager.grant("w1", capacity=1, now=0.2)
        event = manager.fail("u0", "boom 2", now=0.3, worker="w1")
        assert event.transition == "quarantined"
        unit = manager.units["u0"]
        assert unit.state is UnitState.QUARANTINED
        assert unit.errors == ["boom 1", "boom 2"]
        # The submission terminates despite the poison unit.
        assert manager.submissions["sub"].done
        assert manager.submissions["sub"].quarantined == ["u0"]
        # Quarantined units are never re-granted.
        assert manager.grant("w1", capacity=1, now=1.0) is None

    def test_worker_death_counts_toward_poison(self):
        """A unit that crashes its worker must still quarantine eventually."""
        manager = make_manager(max_attempts=2, backoff_base=0.0)
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        events = manager.release_worker("w1", now=0.1)
        assert events[0].transition == "requeued"
        manager.grant("w2", capacity=1, now=0.2)
        events = manager.release_worker("w2", now=0.3)
        assert events[0].transition == "quarantined"

    def test_stale_failure_reports_ignored(self):
        manager = make_manager()
        manager.add_submission("sub", "label", make_units(1))
        manager.grant("w1", capacity=1, now=0.0)
        assert manager.fail("u0", "boom", now=0.1, worker="other") is None
        manager.complete("u0")
        assert manager.fail("u0", "boom", now=0.2, worker="w1") is None


class TestBackoffGate:
    def test_all_units_backing_off_grants_nothing_and_reports_wait(self):
        """Regression: a fleet hammering ``grant`` while every pending unit
        backs off must get ``None`` plus an accurate ``next_available_in``,
        and the repeated empty grants must not churn the pending order."""
        manager = make_manager(lease_ttl=5.0, backoff_base=2.0)
        manager.add_submission("sub", "label", make_units(3))
        lease = manager.grant("w1", capacity=3, now=0.0)
        assert lease is not None
        manager.reap_expired(now=6.0)  # all three requeue with 2s backoff

        pending_before = list(manager.submissions["sub"].pending)
        for attempt in range(5):  # busy-poll storm
            assert manager.grant("w2", capacity=3, now=6.5) is None
        assert list(manager.submissions["sub"].pending) == pending_before
        wait = manager.next_available_in(now=6.5)
        assert wait == pytest.approx(1.5)

        # Once the backoff lapses the very same units are granted, in order.
        lease = manager.grant("w2", capacity=3, now=6.0 + 2.0)
        assert lease is not None and len(lease.keys) == 3

    def test_next_available_in_states(self):
        manager = make_manager(backoff_base=4.0)
        assert manager.next_available_in(now=0.0) is None  # nothing pending
        manager.add_submission("sub", "label", make_units(1))
        assert manager.next_available_in(now=0.0) == 0.0  # grantable now
        manager.grant("w1", capacity=1, now=0.0)
        assert manager.next_available_in(now=0.0) is None  # all leased

    def test_fail_lease_requeues_every_leased_unit(self):
        manager = make_manager(backoff_base=1.0)
        manager.add_submission("sub", "label", make_units(2))
        lease = manager.grant("w1", capacity=2, now=0.0)
        events = manager.fail_lease(lease.lease_id, "heartbeat thread died", now=1.0)
        assert {event.transition for event in events} == {"requeued"}
        assert lease.lease_id not in manager.leases
        for key in ("u0", "u1"):
            unit = manager.units[key]
            assert unit.state is UnitState.PENDING
            assert unit.errors[-1] == "heartbeat thread died"
            assert unit.available_at > 1.0
        # Stale ids (already reclaimed) are a harmless no-op.
        assert manager.fail_lease(lease.lease_id, "again", now=2.0) == []
        assert manager.fail_lease("lease-nope", "never existed", now=2.0) == []


class TestFairnessAndCancel:
    def test_round_robin_across_submissions(self):
        manager = make_manager()
        manager.add_submission("a", "A", make_units(4, submission="a", prefix="a"))
        manager.add_submission("b", "B", make_units(4, submission="b", prefix="b"))
        first = manager.grant("w1", capacity=2, now=0.0)
        second = manager.grant("w2", capacity=2, now=0.0)
        submissions_served = {
            manager.units[key].submission_id for key in first.keys | second.keys
        }
        # The second grant serves the other submission: no starvation.
        assert submissions_served == {"a", "b"}

    def test_capacity_spans_submissions(self):
        manager = make_manager()
        manager.add_submission("a", "A", make_units(1, submission="a", prefix="a"))
        manager.add_submission("b", "B", make_units(1, submission="b", prefix="b"))
        lease = manager.grant("w1", capacity=5, now=0.0)
        assert len(lease.keys) == 2

    def test_cancel_submission_frees_units(self):
        manager = make_manager()
        manager.add_submission("a", "A", make_units(3, submission="a", prefix="a"))
        manager.grant("w1", capacity=1, now=0.0)
        dropped = manager.cancel_submission("a")
        assert dropped == 3
        assert not manager.units  # memory bounded by live work
        assert manager.complete("a0") == "unknown"
        assert manager.cancel_submission("a") == 0

    def test_cancel_submission_drops_its_emptied_lease(self):
        manager = make_manager(lease_ttl=10.0)
        manager.add_submission("a", "A", make_units(2, submission="a", prefix="a"))
        lease = manager.grant("w1", capacity=2, now=0.0)
        assert manager.cancel_submission("a") == 2
        assert manager.leases == {}
        # The worker's heartbeats renew nothing, and once it stops the sweep
        # counts no expired lease, as no worker hung.
        assert manager.heartbeat(lease.lease_id, 1.0) is False
        assert manager.reap_expired(10.0) == (0, [])

    def test_cancel_submission_keeps_a_lease_another_submission_shares(self):
        manager = make_manager()
        manager.add_submission("a", "A", make_units(1, submission="a", prefix="a"))
        manager.add_submission("b", "B", make_units(1, submission="b", prefix="b"))
        lease = manager.grant("w1", capacity=2, now=0.0)
        assert lease.keys == {"a0", "b0"}
        manager.cancel_submission("a")
        assert manager.leases[lease.lease_id].keys == {"b0"}
        assert manager.heartbeat(lease.lease_id, 1.0) is True

    def test_duplicate_submission_or_key_rejected(self):
        manager = make_manager()
        manager.add_submission("a", "A", make_units(1, submission="a"))
        with pytest.raises(ValueError):
            manager.add_submission("a", "A", make_units(1, submission="a", prefix="x"))
        with pytest.raises(ValueError):
            manager.add_submission("b", "B", make_units(1, submission="b"))
