"""Tests for statistics helpers."""

import math

import pytest

from repro.utils.stats import box_stats, mean, stddev


class TestBoxStats:
    def test_simple_distribution(self):
        stats = box_stats([1, 2, 3, 4, 5])
        assert stats.minimum == 1
        assert stats.maximum == 5
        assert stats.median == 3
        assert stats.first_quartile == 2
        assert stats.third_quartile == 4
        assert stats.count == 5

    def test_outliers_detected(self):
        values = [10, 11, 12, 13, 14, 100]
        stats = box_stats(values)
        assert 100 in stats.outliers
        assert stats.upper_whisker < 100

    def test_low_outliers_detected(self):
        stats = box_stats([-100, 10, 11, 12, 13, 14])
        assert stats.outliers == (-100.0,)
        assert stats.lower_whisker == 10

    def test_quartiles_interpolate_linearly(self):
        stats = box_stats([4, 1, 3, 2])
        assert (stats.first_quartile, stats.median, stats.third_quartile) == (1.75, 2.5, 3.25)

    def test_single_value(self):
        stats = box_stats([7.0])
        assert stats.minimum == stats.maximum == stats.median == 7.0
        assert stats.first_quartile == stats.third_quartile == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_whiskers_within_data_range(self):
        stats = box_stats([3, 1, 4, 1, 5, 9, 2, 6])
        assert stats.lower_whisker >= stats.minimum
        assert stats.upper_whisker <= stats.maximum


class TestMeanStddev:
    def test_mean(self):
        assert mean([1, 2, 3]) == pytest.approx(2.0)

    def test_stddev(self):
        assert stddev([2, 2, 2]) == pytest.approx(0.0)
        assert stddev([0, 2]) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            stddev([])
