"""Live scheduler observability with bounded memory.

The scheduler answers ``status_request`` messages from a snapshot built
here: monotonically increasing counters (units, leases, retries,
quarantines), per-worker liveness, and *streaming* aggregate statistics of
unit execution times.  At fleet scale a sweep completes millions of units,
so per-unit samples cannot be kept: :class:`StreamingStats` holds exact
count/mean/min/max plus a fixed-size uniform reservoir, and summarises the
reservoir through :func:`repro.utils.stats.box_stats` -- the same
box-and-whisker shape the paper uses for its distributions -- keeping
scheduler memory O(reservoir), not O(units).
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.utils.stats import box_stats

#: Values a :class:`StreamingStats` reservoir holds at most.
RESERVOIR_CAPACITY = 512
#: Seed of the reservoir's RNG.
RESERVOIR_SEED = 2020


class StreamingStats:
    """Exact moments plus a bounded uniform sample of a value stream.

    Uses Vitter's reservoir sampling (Algorithm R): after ``n`` adds, each
    of the ``n`` values has probability ``RESERVOIR_CAPACITY / n`` of being
    in the reservoir, so quantiles computed from it estimate the full
    stream.  ``count``/``mean``/``min``/``max`` stay exact.  The RNG is
    seeded, so a given insertion order always produces the same snapshot.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._reservoir: list = []
        self._rng = random.Random(RESERVOIR_SEED)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        if len(self._reservoir) < RESERVOIR_CAPACITY:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_CAPACITY:
                self._reservoir[slot] = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def snapshot(self) -> Optional[Dict[str, object]]:
        """JSON-safe summary; ``None`` before the first value."""
        if self.count == 0:
            return None
        box = box_stats(self._reservoir)
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "sampled": len(self._reservoir),
            "p25": box.first_quartile,
            "p50": box.median,
            "p75": box.third_quartile,
            "whisker_low": box.lower_whisker,
            "whisker_high": box.upper_whisker,
        }


@dataclass
class WorkerView:
    """Liveness and contribution of one worker connection."""

    name: str
    connected_at: float
    last_seen: float
    state: str = "alive"  # "alive" | "dead"
    units_completed: int = 0
    units_failed: int = 0
    leases_granted: int = 0


@dataclass
class SchedulerTelemetry:
    """Counters, worker liveness and streaming stats behind ``/status``.

    All times are ``time.monotonic()`` values fed in by the scheduler, so
    snapshots report ages (seconds since) rather than wall-clock stamps.
    """

    started_at: float = field(default_factory=time.monotonic)
    counters: Dict[str, int] = field(
        default_factory=lambda: {
            "submissions_opened": 0,
            "submissions_completed": 0,
            "submissions_cancelled": 0,
            "units_submitted": 0,
            "units_completed": 0,
            "units_failed": 0,
            "units_requeued": 0,
            "units_quarantined": 0,
            "duplicate_completions": 0,
            "unknown_completions": 0,
            "leases_granted": 0,
            "leases_expired": 0,
            "leases_released": 0,
            "leases_failed": 0,
            "heartbeats": 0,
        }
    )
    workers: Dict[str, WorkerView] = field(default_factory=dict)
    unit_seconds: StreamingStats = field(default_factory=StreamingStats)
    #: Completion stamps of the most recent units, for a windowed rate.
    _recent: Deque[float] = field(default_factory=lambda: deque(maxlen=256))

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def worker_connected(self, name: str, now: float) -> None:
        self.workers[name] = WorkerView(name=name, connected_at=now, last_seen=now)

    def worker_seen(self, name: str, now: float) -> None:
        view = self.workers.get(name)
        if view is not None:
            view.last_seen = now

    def worker_dead(self, name: str, now: float) -> None:
        view = self.workers.get(name)
        if view is not None:
            view.state = "dead"
            view.last_seen = now

    def unit_completed(self, worker: Optional[str], elapsed_s: float, now: float) -> None:
        self.bump("units_completed")
        self.unit_seconds.add(elapsed_s)
        self._recent.append(now)
        if worker is not None and worker in self.workers:
            self.workers[worker].units_completed += 1

    def unit_failed(self, worker: Optional[str], now: float) -> None:
        self.bump("units_failed")
        if worker is not None and worker in self.workers:
            self.workers[worker].units_failed += 1

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def throughput(self, now: float) -> Dict[str, Optional[float]]:
        """Overall and recent-window completion rates (units/second)."""
        elapsed = max(now - self.started_at, 1e-9)
        overall = self.counters["units_completed"] / elapsed
        recent: Optional[float] = None
        if len(self._recent) >= 2:
            window = max(now - self._recent[0], 1e-9)
            recent = len(self._recent) / window
        return {"overall_units_per_s": overall, "recent_units_per_s": recent}

    def status(self, now: float) -> Dict[str, object]:
        """JSON-safe telemetry block of the scheduler status reply."""
        return {
            "uptime_s": now - self.started_at,
            "counters": dict(self.counters),
            "throughput": self.throughput(now),
            "unit_seconds": self.unit_seconds.snapshot(),
            "workers": {
                name: {
                    "state": view.state,
                    "connected_for_s": now - view.connected_at,
                    "last_seen_s_ago": now - view.last_seen,
                    "units_completed": view.units_completed,
                    "units_failed": view.units_failed,
                    "leases_granted": view.leases_granted,
                }
                for name, view in self.workers.items()
            },
        }
