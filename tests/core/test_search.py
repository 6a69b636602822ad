"""Tests for the hammer-count search helpers."""

import pytest

from repro.core.search import descend_and_search, minimal_hammer_count


class TestMinimalHammerCount:
    def test_finds_threshold(self):
        threshold = 12_345
        found = minimal_hammer_count(lambda hc: hc >= threshold, hc_max=150_000)
        assert found is not None
        assert threshold <= found <= threshold * 1.03

    def test_none_when_condition_never_holds(self):
        assert minimal_hammer_count(lambda hc: False, hc_max=1000) is None

    def test_returns_minimum_when_always_true(self):
        assert minimal_hammer_count(lambda hc: True, hc_max=1000, hc_min=3) == 3

    def test_evaluation_count_is_logarithmic(self):
        calls = []

        def condition(hc):
            calls.append(hc)
            return hc >= 70_000

        minimal_hammer_count(condition, hc_max=150_000)
        assert len(calls) < 30

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            minimal_hammer_count(lambda hc: True, hc_max=10, hc_min=20)
        with pytest.raises(ValueError):
            minimal_hammer_count(lambda hc: True, hc_max=10, relative_precision=2.0)


class TestDescendAndSearch:
    def test_finds_weakest_victim(self):
        thresholds = {1: 90_000, 2: 40_000, 3: 12_000, 4: 60_000}

        def evaluate(victim, hc):
            return hc >= thresholds[victim]

        best_hc, best_victim, _ = descend_and_search(
            list(thresholds), evaluate, hammer_limit=150_000
        )
        assert best_victim == 3
        assert 12_000 <= best_hc <= 12_600

    def test_none_when_nothing_satisfies(self):
        best_hc, best_victim, examined = descend_and_search(
            [1, 2, 3], lambda victim, hc: False, hammer_limit=1000
        )
        assert best_hc is None and best_victim is None and examined == 0

    def test_handles_threshold_of_one(self):
        best_hc, best_victim, _ = descend_and_search(
            [7], lambda victim, hc: hc >= 1, hammer_limit=1000
        )
        assert best_victim == 7
        assert best_hc == 1

    def test_rejects_bad_descent_factor(self):
        with pytest.raises(ValueError):
            descend_and_search([1], lambda v, hc: True, hammer_limit=100, descent_factor=1.0)

    def test_rejects_max_candidates_below_one(self):
        # Zero candidates would search nothing and report "never satisfied".
        calls = []

        def evaluate(victim, hc):
            calls.append(hc)
            return True

        with pytest.raises(ValueError, match="max_candidates"):
            descend_and_search([1, 2], evaluate, hammer_limit=100, max_candidates=0)
        assert calls == []

    def test_respects_max_candidates(self):
        def evaluate(victim, hc):
            return hc >= 500

        _hc, _victim, examined = descend_and_search(
            list(range(50)), evaluate, hammer_limit=1000, max_candidates=5
        )
        assert examined <= 5
