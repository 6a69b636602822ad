"""Unit tests for the Section 6.2.1 performance metrics."""

import pytest

from repro.sim.metrics import (
    bandwidth_overhead_percent,
    normalized_performance,
    weighted_speedup,
)


class TestWeightedSpeedup:
    def test_equal_ipcs_sum_to_core_count(self):
        assert weighted_speedup([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 3.0

    def test_halved_shared_ipcs(self):
        assert weighted_speedup([1.0, 1.0], [2.0, 2.0]) == 1.0

    def test_per_core_ratios_accumulate(self):
        # 0.5 + 0.25 -- each core contributes its own slowdown ratio.
        assert weighted_speedup([1.0, 0.5], [2.0, 2.0]) == 0.75

    def test_zero_shared_ipc_is_allowed(self):
        # A fully stalled core contributes zero, not an error.
        assert weighted_speedup([0.0, 1.0], [1.0, 1.0]) == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([], [])

    def test_nonpositive_alone_ipc_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])


class TestNormalizedPerformance:
    def test_baseline_is_100_percent(self):
        assert normalized_performance(1.5, 1.5) == 100.0

    def test_scales_linearly(self):
        assert normalized_performance(0.75, 1.5) == 50.0
        assert normalized_performance(3.0, 1.5) == 200.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized_performance(1.0, 0.0)


class TestBandwidthOverhead:
    def test_percent_of_demand_busy_time(self):
        assert bandwidth_overhead_percent(50.0, 100.0) == 50.0

    def test_can_exceed_100_percent(self):
        # Figure 10a: aggressive mechanisms far exceed demand bank-time.
        assert bandwidth_overhead_percent(300.0, 100.0) == 300.0

    def test_idle_system_reports_zero(self):
        assert bandwidth_overhead_percent(10.0, 0.0) == 0.0
        assert bandwidth_overhead_percent(0.0, 0.0) == 0.0
