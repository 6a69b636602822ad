"""Tests for the HC_first search."""

import pytest

from repro.analysis.tables import build_table4_min_hcfirst
from repro.core.first_flip import HCFirstStudyConfig, run_hcfirst_search
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.experiments import ExperimentSession

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)


class TestFindHCFirst:
    def test_measured_close_to_target_without_ondie_ecc(self):
        chip = make_chip("DDR4-new", "A", seed=21, geometry=GEOMETRY, hcfirst_target=40_000)
        result = run_hcfirst_search(chip, HCFirstStudyConfig())
        assert result.rowhammerable
        assert result.hcfirst == pytest.approx(40_000, rel=0.10)

    def test_not_rowhammerable_chip_returns_none(self, robust_chip):
        result = run_hcfirst_search(robust_chip, HCFirstStudyConfig())
        assert not result.rowhammerable
        assert result.hcfirst is None
        assert result.victim_row is None

    def test_victim_row_matches_planted_weakest_cell(self):
        chip = make_chip("DDR4-new", "A", seed=33, geometry=GEOMETRY, hcfirst_target=30_000)
        result = run_hcfirst_search(chip, HCFirstStudyConfig())
        assert result.victim_row == chip.weakest_cell[1]

    def test_respects_hammer_limit(self):
        chip = make_chip("DDR4-new", "A", seed=5, geometry=GEOMETRY, hcfirst_target=90_000)
        result = run_hcfirst_search(chip, HCFirstStudyConfig(hammer_limit=50_000))
        assert result.hcfirst is None
        assert result.hammer_limit == 50_000

    def test_result_serializes(self):
        chip = make_chip("DDR4-new", "A", seed=2, geometry=GEOMETRY, hcfirst_target=30_000)
        result = run_hcfirst_search(chip, HCFirstStudyConfig())
        assert result.chip_id == chip.chip_id
        assert result.rowhammerable is True


class TestPopulationHelpers:
    def test_population_and_minimum(self):
        chips = [
            make_chip("DDR4-new", "A", seed=seed, geometry=GEOMETRY, hcfirst_target=target)
            for seed, target in [(1, 50_000), (2, 25_000), (3, 70_000)]
        ]
        results = ExperimentSession(chips).run("fig8-hcfirst").payloads()
        assert len(results) == 3
        minimum_k = build_table4_min_hcfirst(results)["DDR4-new"]["A"]
        assert minimum_k == pytest.approx(25.0, rel=0.10)

    def test_minimum_of_empty_or_unflippable_is_none(self, robust_chip):
        assert build_table4_min_hcfirst([]) == {}
        results = ExperimentSession([robust_chip]).run("fig8-hcfirst").payloads()
        assert build_table4_min_hcfirst(results) == {"DDR4-new": {"A": None}}
