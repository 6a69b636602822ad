"""Streaming-statistics and telemetry snapshot tests."""

from __future__ import annotations

import random

import pytest

from repro.service.telemetry import RESERVOIR_CAPACITY, SchedulerTelemetry, StreamingStats
from repro.utils.stats import box_stats


class TestStreamingStats:
    def test_exact_moments_with_bounded_memory(self):
        stats = StreamingStats()
        values = [float(v) for v in range(2 * RESERVOIR_CAPACITY)]
        for value in values:
            stats.add(value)
        assert stats.count == len(values)
        assert stats.minimum == 0.0
        assert stats.maximum == values[-1]
        assert stats.mean == pytest.approx(sum(values) / len(values))
        assert len(stats._reservoir) == RESERVOIR_CAPACITY  # never grows past capacity

    def test_small_streams_are_kept_exactly(self):
        stats = StreamingStats()
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        for value in values:
            stats.add(value)
        snapshot = stats.snapshot()
        box = box_stats(values)
        assert snapshot["p50"] == box.median
        assert snapshot["p25"] == box.first_quartile
        assert snapshot["p75"] == box.third_quartile
        assert snapshot["sampled"] == 5

    def test_reservoir_quantiles_track_distribution(self):
        rng = random.Random(7)
        stats = StreamingStats()
        for _ in range(20_000):
            stats.add(rng.uniform(0.0, 100.0))
        snapshot = stats.snapshot()
        # Uniform(0,100): quartiles land near 25/50/75; the reservoir is a
        # uniform sample so estimates are close (generous tolerance).
        assert snapshot["p50"] == pytest.approx(50.0, abs=12.0)
        assert snapshot["p25"] == pytest.approx(25.0, abs=12.0)
        assert snapshot["p75"] == pytest.approx(75.0, abs=12.0)

    def test_snapshot_none_before_first_value(self):
        assert StreamingStats().snapshot() is None

    def test_deterministic_given_insertion_order(self):
        # Past the capacity, so the seeded RNG picks which values stay.
        a, b = StreamingStats(), StreamingStats()
        for value in range(4 * RESERVOIR_CAPACITY):
            a.add(float(value))
            b.add(float(value))
        assert a.snapshot() == b.snapshot()


class TestSchedulerTelemetry:
    def test_worker_lifecycle_and_counters(self):
        telemetry = SchedulerTelemetry(started_at=0.0)
        telemetry.worker_connected("w1", now=1.0)
        telemetry.unit_completed("w1", elapsed_s=0.5, now=2.0)
        telemetry.unit_completed("w1", elapsed_s=1.5, now=3.0)
        telemetry.unit_failed("w1", now=3.5)
        telemetry.worker_dead("w1", now=4.0)
        status = telemetry.status(now=5.0)
        assert status["counters"]["units_completed"] == 2
        assert status["counters"]["units_failed"] == 1
        worker = status["workers"]["w1"]
        assert worker["state"] == "dead"
        assert worker["units_completed"] == 2
        assert worker["units_failed"] == 1
        assert status["unit_seconds"]["count"] == 2
        assert status["unit_seconds"]["mean"] == pytest.approx(1.0)
        assert status["throughput"]["overall_units_per_s"] == pytest.approx(0.4)

    def test_status_is_json_safe(self):
        import json

        telemetry = SchedulerTelemetry(started_at=0.0)
        telemetry.worker_connected("w1", now=0.5)
        telemetry.unit_completed("w1", elapsed_s=0.1, now=1.0)
        json.dumps(telemetry.status(now=2.0))  # must not raise
