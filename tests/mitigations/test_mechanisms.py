"""Tests for the RowHammer mitigation mechanisms."""

import pytest

from repro.mitigations.base import MitigationConfig
from repro.mitigations.ideal import IdealRefresh
from repro.mitigations.mrloc import QUEUE_ENTRIES, MRLoc
from repro.mitigations.para import PARA, TARGET_FAILURES_PER_HOUR, probability_for
from repro.mitigations.prohit import COLD_ENTRIES, HOT_ENTRIES, ProHIT
from repro.mitigations.refresh_rate import IncreasedRefreshRate
from repro.mitigations.registry import available_mechanisms, build_mechanism, is_evaluable
from repro.mitigations.twice import TWiCe
from repro.sim.timing import DDR4_2400


def config(hcfirst, **kwargs):
    return MitigationConfig(hcfirst=hcfirst, banks=4, rows_per_bank=1024, **kwargs)


class TestMitigationConfig:
    def test_adjacent_rows_within_bounds(self):
        cfg = config(1000)
        assert cfg.adjacent_rows(0) == [1]
        assert cfg.adjacent_rows(1023) == [1022]
        assert cfg.adjacent_rows(10) == [9, 11]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            config(0)
        with pytest.raises(ValueError):
            config(100, time_scale=0.0)

    def test_scaled_hcfirst(self):
        assert config(1000, time_scale=0.01).scaled_hcfirst == pytest.approx(10.0)
        assert config(10, time_scale=0.001).scaled_hcfirst == 1.0


class TestIncreasedRefreshRate:
    def test_multiplier_shrinks_with_hcfirst(self):
        weak = IncreasedRefreshRate(config(10_000))
        strong = IncreasedRefreshRate(config(100_000))
        assert weak.refresh_interval_multiplier() < strong.refresh_interval_multiplier()
        assert weak.refresh_rate_multiplier > strong.refresh_rate_multiplier

    def test_no_scaling_when_window_already_safe(self):
        # HC_first so large that the nominal 64 ms window is already safe.
        mechanism = IncreasedRefreshRate(config(10_000_000))
        assert mechanism.refresh_interval_multiplier() == pytest.approx(1.0)

    def test_never_requests_victim_refreshes(self):
        mechanism = IncreasedRefreshRate(config(10_000))
        assert mechanism.on_activate(0, 10, cycle=0) == []


class TestPARA:
    def test_probability_increases_for_lower_hcfirst(self):
        trc = DDR4_2400.trc_ns
        assert probability_for(128, trc) > probability_for(4_800, trc) > probability_for(100_000, trc)

    def test_probability_bounded(self):
        assert probability_for(1, DDR4_2400.trc_ns) <= 1.0
        with pytest.raises(ValueError):
            probability_for(0, DDR4_2400.trc_ns)

    def test_refreshes_adjacent_row_when_forced(self):
        mechanism = PARA(config(128))
        mechanism.probability = 1.0
        victims = mechanism.on_activate(2, 100, cycle=0)
        assert len(victims) == 1
        bank, row = victims[0]
        assert bank == 2 and row in (99, 101)

    def test_refresh_rate_tracks_probability(self):
        mechanism = PARA(config(128, seed=1))
        activations = 20_000
        refreshes = sum(len(mechanism.on_activate(0, 500, cycle=i)) for i in range(activations))
        assert refreshes / activations == pytest.approx(mechanism.probability, rel=0.15)

    def test_probability_meets_the_paper_reliability_target(self):
        for hcfirst in (128, 2_000, 50_000):
            mechanism = PARA(config(hcfirst))
            assert mechanism.probability == probability_for(
                hcfirst, DDR4_2400.trc_ns, TARGET_FAILURES_PER_HOUR
            )


class TestProHIT:
    def test_tracked_victim_refreshed_on_refresh_command(self):
        # A victim enters the cold table with probability 0.1 per sighting
        # and is promoted to the hot table when seen again there.
        mechanism = ProHIT(config(2_000, seed=2))
        for cycle in range(200):
            mechanism.on_activate(0, 500, cycle)
        victims = mechanism.on_refresh(cycle=300)
        assert victims and victims[0][1] in (499, 501)

    def test_no_refresh_when_tables_empty(self):
        mechanism = ProHIT(config(2_000))
        assert mechanism.on_refresh(cycle=0) == []

    def test_table_sizes_bounded(self):
        # Aggressors 1, 3, 5, ... share a victim with their predecessor, so
        # victims are both inserted and promoted; both tables fill up.
        mechanism = ProHIT(config(2_000, seed=3))
        for row in range(500):
            mechanism.on_activate(0, row * 2 + 1, cycle=row)
            assert len(mechanism._hot) <= HOT_ENTRIES
            assert len(mechanism._cold) <= COLD_ENTRIES
        assert len(mechanism._hot) == HOT_ENTRIES
        assert len(mechanism._cold) == COLD_ENTRIES


class TestMRLoc:
    def test_repeatedly_hammered_victim_eventually_refreshed(self):
        mechanism = MRLoc(config(2_000, seed=4))
        refreshed = []
        for cycle in range(2_000):
            refreshed.extend(mechanism.on_activate(0, 300, cycle))
        assert refreshed
        assert all(row in (299, 301) for _bank, row in refreshed)

    def test_queue_bounded(self):
        # Every activation brings two new victims: 1,000 in all.
        mechanism = MRLoc(config(2_000, seed=5))
        for row in range(500):
            mechanism.on_activate(0, row * 3 + 1, cycle=row)
        assert len(mechanism._queue) == QUEUE_ENTRIES


class TestTWiCe:
    def test_victim_refreshed_at_threshold(self):
        mechanism = TWiCe(config(400))
        threshold = mechanism.row_hammer_threshold
        victims = []
        for cycle in range(threshold + 1):
            victims.extend(mechanism.on_activate(0, 50, cycle))
        assert (0, 49) in victims and (0, 51) in victims

    def test_counter_resets_after_victim_refresh(self):
        mechanism = TWiCe(config(400))
        threshold = mechanism.row_hammer_threshold
        for cycle in range(threshold):
            mechanism.on_activate(0, 50, cycle)
        mechanism.on_victim_refreshed(0, 49, cycle=threshold)
        assert (0, 49) not in mechanism._table

    def test_pruning_removes_cold_entries(self):
        mechanism = TWiCe(config(200_000))
        mechanism.on_activate(0, 10, cycle=0)  # single activation, cold entry
        assert mechanism.table_size > 0
        for _ in range(3):
            mechanism.on_refresh(cycle=0)
        assert mechanism.table_size == 0

    def test_viability_and_ideal_variant(self):
        assert is_evaluable("TWiCe", 50_000)
        assert not is_evaluable("TWiCe", 4_800)
        assert is_evaluable("TWiCe-ideal", 4_800)
        assert TWiCe(config(4_800), ideal=True).name == "TWiCe-ideal"

    def test_time_scale_shrinks_threshold(self):
        nominal = TWiCe(config(100_000))
        scaled = TWiCe(config(100_000, time_scale=0.01))
        assert scaled.row_hammer_threshold < nominal.row_hammer_threshold


class TestIdealRefresh:
    def test_refresh_exactly_at_threshold(self):
        mechanism = IdealRefresh(config(64))
        victims = []
        for cycle in range(200):
            victims.extend(mechanism.on_activate(0, 10, cycle))
        # Two victims (rows 9 and 11), each refreshed once every 63 activations.
        per_victim = [row for _bank, row in victims]
        assert per_victim.count(9) == 200 // 63
        assert per_victim.count(11) == 200 // 63

    def test_no_refresh_below_threshold(self):
        mechanism = IdealRefresh(config(1_000))
        victims = []
        for cycle in range(500):
            victims.extend(mechanism.on_activate(0, 10, cycle))
        assert victims == []

    def test_window_sweep_clears_counters(self):
        mechanism = IdealRefresh(config(64))
        for cycle in range(30):
            mechanism.on_activate(0, 10, cycle)
        assert mechanism.tracked_rows > 0
        mechanism.on_activate(0, 10, cycle=mechanism.config.refresh_window_cycles + 1)
        assert mechanism.tracked_rows <= 2


class TestRegistry:
    def test_all_expected_mechanisms_registered(self):
        assert set(available_mechanisms()) == {
            "IncreasedRefresh",
            "PARA",
            "ProHIT",
            "MRLoc",
            "TWiCe",
            "TWiCe-ideal",
            "Ideal",
        }

    def test_build_by_name(self):
        mechanism = build_mechanism("TWiCe-ideal", config(128))
        assert mechanism.name == "TWiCe-ideal"
        with pytest.raises(ValueError):
            build_mechanism("Nonexistent", config(128))

    def test_evaluation_constraints_match_paper(self):
        assert is_evaluable("PARA", 64)
        assert is_evaluable("Ideal", 64)
        assert is_evaluable("ProHIT", 2_000)
        assert not is_evaluable("ProHIT", 4_800)
        assert not is_evaluable("MRLoc", 64)
        assert is_evaluable("IncreasedRefresh", 50_000)
        assert not is_evaluable("IncreasedRefresh", 4_800)
        assert not is_evaluable("TWiCe", 4_800)
        assert is_evaluable("TWiCe-ideal", 64)
