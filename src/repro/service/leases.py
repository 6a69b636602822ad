"""Leased work-unit dispatch: the scheduler's fault-tolerance core.

The :class:`LeaseManager` owns every submitted work unit's scheduling state
and is deliberately free of sockets, asyncio and wall clocks -- every
transition takes an explicit ``now``, so the whole state machine is unit
testable at any simulated timescale.

Lease state machine (per unit)
------------------------------
::

                 grant                    complete
    PENDING  ------------->  LEASED  ----------------->  COMPLETED
       ^                       |
       |   requeue (+backoff)  |  lease expired / worker died /
       +-----------------------+  worker-reported failure
       |
       |   attempts >= max_attempts
       +----------------------------->  QUARANTINED

* A *lease* covers one batch of units granted to one worker and carries an
  expiry; heartbeats push the expiry forward.  A worker that stops
  heartbeating (hung) or whose connection drops (dead) has its incomplete
  units *requeued*: back to PENDING, eligible again after a capped
  exponential backoff.
* Every grant counts as an attempt.  A unit whose attempts reach
  ``max_attempts`` without a completion is *quarantined* (poisoned) instead
  of requeued -- the submission still terminates, reporting the quarantined
  keys, rather than retrying a crashing unit forever.
* Completions are idempotent by unit key (``<submission id>/<index>``, so
  keys never collide across submissions): the first completion wins, and a
  late completion from a presumed-dead worker is either accepted (if nobody
  else finished the unit first -- the payload is bit-identical either way)
  or counted as a duplicate and dropped.

Fairness: units are granted round-robin across active submissions, so one
huge study does not starve a small one submitted after it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Deque, Dict, List, Optional, Set, Tuple


class UnitState(Enum):
    PENDING = "pending"
    LEASED = "leased"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"


@dataclass
class UnitRecord:
    """Scheduling state of one submitted work unit."""

    key: str
    submission_id: str
    index: int
    task_blob: str
    state: UnitState = UnitState.PENDING
    #: Times the unit has been granted to a worker.
    attempts: int = 0
    #: Times a lease on the unit was reclaimed (expiry or worker death).
    requeues: int = 0
    #: Earliest time the unit may be granted again (backoff gate).
    available_at: float = 0.0
    lease_id: Optional[str] = None
    errors: List[str] = field(default_factory=list)


@dataclass
class Lease:
    """One batch of units granted to one worker, with an expiry."""

    lease_id: str
    worker: str
    expires_at: float
    keys: Set[str] = field(default_factory=set)


@dataclass
class SubmissionRecord:
    """One client submission: an ordered set of units plus progress state."""

    submission_id: str
    label: str
    #: Where the submission's events go; opaque here (the scheduler keeps
    #: the submitting client's connection).
    client: Any = None
    #: Set once ``submission_done`` has been sent.
    finished: bool = False
    keys: List[str] = field(default_factory=list)
    #: Grant queue; keys are lazily revalidated at grant time, so stale
    #: entries (completed or re-queued elsewhere) cost one skip each.
    pending: Deque[str] = field(default_factory=deque)
    completed: int = 0
    quarantined: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.keys)

    @property
    def done(self) -> bool:
        return self.completed + len(self.quarantined) >= self.total


@dataclass
class UnitEvent:
    """Outcome of one reclaim/failure transition, for the scheduler to act on."""

    key: str
    submission_id: str
    transition: str  # "requeued" | "quarantined"


class LeaseManager:
    """Tracks unit scheduling state across submissions, leases and retries.

    Parameters
    ----------
    lease_ttl:
        Seconds a lease stays valid without a heartbeat.
    max_attempts:
        Grants a unit may consume before it is quarantined as poisoned.
    backoff_base, backoff_cap:
        A re-queued unit becomes grantable again after
        ``min(backoff_cap, backoff_base * 2**(attempts - 1))`` seconds --
        capped exponential backoff per unit.
    """

    def __init__(
        self,
        lease_ttl: float = 15.0,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 10.0,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.units: Dict[str, UnitRecord] = {}
        self.leases: Dict[str, Lease] = {}
        self.submissions: Dict[str, SubmissionRecord] = {}
        self._order: Deque[str] = deque()
        self._lease_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    def add_submission(
        self, submission_id: str, label: str, units: List[UnitRecord], client: Any = None
    ) -> SubmissionRecord:
        if submission_id in self.submissions:
            raise ValueError(f"duplicate submission id {submission_id!r}")
        if not units:
            raise ValueError("a submission needs at least one unit")
        record = SubmissionRecord(submission_id=submission_id, label=label, client=client)
        for unit in units:
            if unit.key in self.units:
                raise ValueError(f"duplicate unit key {unit.key!r}")
            unit.submission_id = submission_id
            self.units[unit.key] = unit
            record.keys.append(unit.key)
            record.pending.append(unit.key)
        self.submissions[submission_id] = record
        self._order.append(submission_id)
        return record

    def cancel_submission(self, submission_id: str) -> int:
        """Drop a submission (client went away); returns units discarded.

        Leased units keep running on their workers; their eventual results
        arrive for an unknown key and are dropped.  Unit records are freed,
        and so is every lease left with no unit (its heartbeats then renew
        nothing and it never expires), so scheduler memory stays bounded by
        *active* work.
        """
        record = self.submissions.pop(submission_id, None)
        if record is None:
            return 0
        try:
            self._order.remove(submission_id)
        except ValueError:
            pass
        dropped = 0
        for key in record.keys:
            unit = self.units.pop(key, None)
            if unit is None:
                continue
            self._detach_from_lease(unit)
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def grant(self, worker: str, capacity: int, now: float) -> Optional[Lease]:
        """Lease up to ``capacity`` grantable units to ``worker``.

        Fills round-robin across submissions (rotating the service order by
        one per grant) and returns ``None`` when nothing is grantable --
        either no pending units exist or all are sitting out a backoff.
        """
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        granted: List[UnitRecord] = []
        for _ in range(len(self._order)):
            submission = self.submissions[self._order[0]]
            pending = submission.pending
            deferred: List[str] = []
            while pending and len(granted) < capacity:
                key = pending.popleft()
                unit = self.units.get(key)
                if unit is None or unit.state is not UnitState.PENDING:
                    continue  # stale queue entry
                if unit.available_at > now:
                    deferred.append(key)  # backing off; keep for later
                    continue
                granted.append(unit)
            # Backed-off keys go back to the *front* in their original order:
            # a grant attempt that finds everything backing off must not churn
            # the queue (repeated empty grants would otherwise rotate units
            # behind later arrivals and perturb grant order).
            pending.extendleft(reversed(deferred))
            self._order.rotate(-1)
            if len(granted) >= capacity:
                break
        if not granted:
            return None
        lease = Lease(
            lease_id=f"lease-{next(self._lease_ids)}",
            worker=worker,
            expires_at=now + self.lease_ttl,
            keys={unit.key for unit in granted},
        )
        self.leases[lease.lease_id] = lease
        for unit in granted:
            unit.state = UnitState.LEASED
            unit.attempts += 1
            unit.lease_id = lease.lease_id
        return lease

    def next_available_in(self, now: float) -> Optional[float]:
        """Seconds until the earliest backed-off pending unit is grantable.

        ``None`` when no pending units exist at all; ``0.0`` when something
        is grantable right now.
        """
        horizon: Optional[float] = None
        for unit in self.units.values():
            if unit.state is not UnitState.PENDING:
                continue
            wait = max(0.0, unit.available_at - now)
            if horizon is None or wait < horizon:
                horizon = wait
            if horizon == 0.0:
                break
        return horizon

    # ------------------------------------------------------------------
    # Heartbeats and completion
    # ------------------------------------------------------------------
    def heartbeat(self, lease_id: str, now: float) -> bool:
        """Renew a lease; ``False`` if it no longer exists (expired/reclaimed)."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return False
        lease.expires_at = now + self.lease_ttl
        return True

    def complete(self, key: str) -> str:
        """Record a unit completion: ``"accepted"``, ``"duplicate"`` or ``"unknown"``.

        First completion wins.  A completion for a unit currently leased to
        a *different* worker (the original lease expired and the unit was
        re-dispatched) is still accepted -- payloads are bit-identical, so
        finishing early saves the re-execution; the re-execution's own
        completion then lands as a duplicate.
        """
        unit = self.units.get(key)
        if unit is None:
            return "unknown"
        if unit.state is UnitState.COMPLETED:
            return "duplicate"
        if unit.state is UnitState.QUARANTINED:
            # A very late success on a unit already given up on: accept it,
            # un-quarantining -- a real result always beats a poison verdict.
            self.submissions[unit.submission_id].quarantined.remove(key)
        self._detach_from_lease(unit)
        unit.state = UnitState.COMPLETED
        submission = self.submissions[unit.submission_id]
        submission.completed += 1
        return "accepted"

    def fail(self, key: str, error: str, now: float, worker: Optional[str] = None) -> Optional[UnitEvent]:
        """Record a worker-reported unit failure; returns the transition.

        ``None`` when the failure is stale (unit unknown, already completed,
        or no longer leased to the reporting worker).
        """
        unit = self.units.get(key)
        if unit is None or unit.state is not UnitState.LEASED:
            return None
        if worker is not None and self.leases[unit.lease_id].worker != worker:
            return None
        unit.errors.append(error)
        self._detach_from_lease(unit)
        return self._requeue_or_quarantine(unit, now)

    def fail_lease(self, lease_id: str, reason: str, now: float) -> List[UnitEvent]:
        """Reclaim a whole lease the worker itself reported as failed.

        A worker whose heartbeat thread dies mid-batch cannot keep the lease
        alive, so it surrenders the lease explicitly instead of waiting for
        the TTL sweep to notice.  Stale ids (already expired or reclaimed)
        are a no-op, mirroring :meth:`heartbeat`.
        """
        return self._reclaim_lease(lease_id, now, reason)

    # ------------------------------------------------------------------
    # Reclaim paths
    # ------------------------------------------------------------------
    def release_worker(self, worker: str, now: float) -> List[UnitEvent]:
        """Reclaim every lease of a dead worker (connection dropped)."""
        events: List[UnitEvent] = []
        for lease_id in [
            lease_id for lease_id, lease in self.leases.items() if lease.worker == worker
        ]:
            events.extend(self._reclaim_lease(lease_id, now, f"worker {worker} died"))
        return events

    def reap_expired(self, now: float) -> Tuple[int, List[UnitEvent]]:
        """Reclaim every lease whose expiry has passed (hung worker).

        Returns ``(expired_lease_count, unit_events)``.
        """
        expired = [
            lease_id for lease_id, lease in self.leases.items() if lease.expires_at <= now
        ]
        events: List[UnitEvent] = []
        for lease_id in expired:
            worker = self.leases[lease_id].worker
            events.extend(
                self._reclaim_lease(lease_id, now, f"lease expired on worker {worker}")
            )
        return len(expired), events

    def _reclaim_lease(self, lease_id: str, now: float, reason: str) -> List[UnitEvent]:
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return []
        events: List[UnitEvent] = []
        for key in list(lease.keys):
            unit = self.units.get(key)
            if unit is None or unit.state is not UnitState.LEASED:
                continue
            unit.errors.append(reason)
            unit.requeues += 1
            unit.lease_id = None
            event = self._requeue_or_quarantine(unit, now)
            if event is not None:
                events.append(event)
        return events

    def _requeue_or_quarantine(self, unit: UnitRecord, now: float) -> UnitEvent:
        submission = self.submissions[unit.submission_id]
        if unit.attempts >= self.max_attempts:
            unit.state = UnitState.QUARANTINED
            submission.quarantined.append(unit.key)
            return UnitEvent(unit.key, unit.submission_id, "quarantined")
        unit.state = UnitState.PENDING
        backoff = min(self.backoff_cap, self.backoff_base * (2 ** (unit.attempts - 1)))
        unit.available_at = now + backoff
        submission.pending.append(unit.key)
        return UnitEvent(unit.key, unit.submission_id, "requeued")

    def _detach_from_lease(self, unit: UnitRecord) -> None:
        if unit.lease_id is not None:
            lease = self.leases.get(unit.lease_id)
            if lease is not None:
                lease.keys.discard(unit.key)
                if not lease.keys:
                    del self.leases[unit.lease_id]
        unit.lease_id = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        """Unit counts by state across all live submissions."""
        counts = {state.value: 0 for state in UnitState}
        for unit in self.units.values():
            counts[unit.state.value] += 1
        return counts

    def submission_view(self, submission_id: str) -> Dict[str, object]:
        """JSON-safe progress snapshot of one submission."""
        record = self.submissions[submission_id]
        leased = retried = 0
        for key in record.keys:
            unit = self.units.get(key)
            if unit is None:
                continue
            if unit.state is UnitState.LEASED:
                leased += 1
            if unit.attempts > 1:
                retried += 1
        return {
            "id": submission_id,
            "label": record.label,
            "total": record.total,
            "completed": record.completed,
            "leased": leased,
            "quarantined": len(record.quarantined),
            "retried_units": retried,
            "done": record.done,
        }
