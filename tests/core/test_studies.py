"""Tests for the focused characterization studies (coverage, sweeps, spatial,
word density, ECC analysis, probability, scaling)."""

import pytest

from repro.analysis.tables import build_table3_worst_patterns
from repro.core.calibration import hammer_count_for_flip_rate, measure_flip_rate
from repro.core.coverage import CoverageStudyConfig, run_pattern_coverage
from repro.core.data_patterns import STANDARD_PATTERNS, worst_case_pattern
from repro.core.ecc_analysis import EccWordStudyConfig, run_ecc_word_analysis
from repro.core.first_flip import HCFirstStudyConfig
from repro.core.probability import ProbabilityStudyConfig, run_flip_probability_study
from repro.core.scaling import (
    MITIGATION_EVALUATION_HCFIRST,
    fit_scaling_trend,
    project_future_hcfirst,
)
from repro.core.spatial import (
    SpatialStudyConfig,
    flips_in_aggressor_rows,
    run_spatial_distribution,
)
from repro.core.sweeps import SweepStudyConfig, loglog_slope, run_hammer_count_sweep
from repro.core.word_density import (
    WordDensityStudyConfig,
    run_word_density,
    single_flip_fraction,
)
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)


@pytest.fixture(scope="module")
def vulnerable_chip():
    """A very vulnerable DDR4 chip so every study observes plenty of flips."""
    return make_chip("DDR4-new", "A", seed=50, geometry=GEOMETRY, hcfirst_target=12_000)


@pytest.fixture(scope="module")
def vulnerable_lpddr4():
    return make_chip("LPDDR4-1y", "A", seed=51, geometry=GEOMETRY, hcfirst_target=12_000)


class TestConfigValidation:
    """Study configs reject bad values at construction, before any hammering."""

    @pytest.mark.parametrize(
        "config_cls,field,value",
        [
            (CoverageStudyConfig, "patterns", ("RowStripe0", "Bogus")),
            (SweepStudyConfig, "data_pattern", "RowStripe"),
            (SpatialStudyConfig, "data_pattern", "RowStripe"),
            (WordDensityStudyConfig, "data_pattern", "RowStripe"),
            (HCFirstStudyConfig, "data_pattern", "RowStripe"),
            (EccWordStudyConfig, "data_pattern", "RowStripe"),
            (ProbabilityStudyConfig, "data_pattern", "RowStripe"),
        ],
    )
    def test_rejects_unknown_pattern_name(self, config_cls, field, value):
        with pytest.raises(ValueError, match="unknown data pattern"):
            config_cls(**{field: value})

    @pytest.mark.parametrize("config_cls", [HCFirstStudyConfig, EccWordStudyConfig])
    @pytest.mark.parametrize(
        "field,value",
        [("max_candidates", 0), ("relative_precision", 0.0), ("relative_precision", 1.0)],
    )
    def test_rejects_bad_search_settings(self, config_cls, field, value):
        with pytest.raises(ValueError, match=field):
            config_cls(**{field: value})


class TestCoverage:
    def test_worst_case_pattern_has_highest_coverage(self, vulnerable_chip):
        result = run_pattern_coverage(vulnerable_chip, CoverageStudyConfig(hammer_count=150_000))
        assert result.unique_flips_total > 0
        expected = worst_case_pattern(vulnerable_chip.profile).name
        assert result.worst_case_pattern == expected

    def test_no_pattern_reaches_full_coverage(self, vulnerable_chip):
        result = run_pattern_coverage(vulnerable_chip, CoverageStudyConfig(hammer_count=150_000))
        assert all(value <= 1.0 for value in result.coverage_by_pattern.values())
        assert result.coverage_by_pattern[result.worst_case_pattern] < 1.0

    def test_coverages_cover_all_patterns(self, vulnerable_chip):
        result = run_pattern_coverage(vulnerable_chip, CoverageStudyConfig(hammer_count=150_000))
        assert set(result.coverage_by_pattern) == {p.name for p in STANDARD_PATTERNS}

    def test_table3_aggregation(self, vulnerable_chip):
        result = run_pattern_coverage(vulnerable_chip, CoverageStudyConfig(hammer_count=150_000))
        table = build_table3_worst_patterns([result])
        assert table["DDR4-new"]["A"] == result.worst_case_pattern


class TestSweeps:
    def test_accepts_non_standard_pattern(self, vulnerable_chip):
        # The config must keep accepting arbitrary DataPattern objects
        # (e.g. inverses), not only the eight named standard patterns.
        from repro.core.data_patterns import ROWSTRIPE0

        config = SweepStudyConfig(hammer_counts=(150_000,), data_pattern=ROWSTRIPE0.inverse())
        sweep = run_hammer_count_sweep(vulnerable_chip, config)
        assert sweep.data_pattern == "RowStripe0-inverse"

    def test_flip_rate_monotonic_in_hc(self, vulnerable_chip):
        sweep = run_hammer_count_sweep(
            vulnerable_chip, SweepStudyConfig(hammer_counts=(20_000, 60_000, 150_000))
        )
        rates = sweep.flip_rates()
        assert rates == sorted(rates)
        assert rates[-1] > 0

    def test_loglog_slope_close_to_profile(self, vulnerable_chip):
        sweep = run_hammer_count_sweep(
            vulnerable_chip, SweepStudyConfig(hammer_counts=(30_000, 60_000, 100_000, 150_000))
        )
        slope = loglog_slope(sweep)
        assert slope is not None
        assert slope == pytest.approx(vulnerable_chip.profile.flip_slope, rel=0.35)

    def test_sweep_serializes(self, vulnerable_chip):
        sweep = run_hammer_count_sweep(vulnerable_chip, SweepStudyConfig(hammer_counts=(50_000,)))
        payload = sweep.to_dict()
        assert payload["points"][0]["hammer_count"] == 50_000


class TestSpatial:
    def test_no_flips_in_aggressor_rows(self, vulnerable_chip):
        result = run_spatial_distribution(vulnerable_chip, SpatialStudyConfig())
        assert flips_in_aggressor_rows(result) == 0

    def test_flips_only_at_even_offsets(self, vulnerable_chip):
        result = run_spatial_distribution(vulnerable_chip, SpatialStudyConfig())
        for offset, count in result.flips_by_offset.items():
            if count > 0:
                assert offset % 2 == 0

    def test_victim_row_dominates(self, vulnerable_chip):
        result = run_spatial_distribution(vulnerable_chip, SpatialStudyConfig())
        fractions = result.fraction_by_offset()
        assert fractions.get(0, 0.0) > 0.5

    def test_ddr4_blast_radius_at_most_two(self, vulnerable_chip):
        result = run_spatial_distribution(vulnerable_chip, SpatialStudyConfig())
        assert result.max_observed_offset() <= 2

    def test_lpddr4_blast_radius_larger(self, vulnerable_lpddr4):
        result = run_spatial_distribution(vulnerable_lpddr4, SpatialStudyConfig())
        assert result.max_observed_offset() >= 2


class TestWordDensity:
    def test_ddr4_dominated_by_single_flip_words_at_low_rate(self, vulnerable_chip):
        # The paper normalizes chips to a low flip rate (1e-6); at a low rate
        # most flip-containing 64-bit words hold exactly one flip.
        hammer_count = hammer_count_for_flip_rate(vulnerable_chip, target_rate=5e-3)
        assert hammer_count is not None
        config = WordDensityStudyConfig(hammer_count=hammer_count)
        result = run_word_density(vulnerable_chip, config)
        assert result.total_words_with_flips > 0
        assert single_flip_fraction(result) > 0.5

    def test_lpddr4_single_flip_fraction_lower(self, vulnerable_chip, vulnerable_lpddr4):
        ddr4_hc = hammer_count_for_flip_rate(vulnerable_chip, target_rate=5e-3)
        lpddr4_hc = hammer_count_for_flip_rate(vulnerable_lpddr4, target_rate=5e-3)
        ddr4 = run_word_density(vulnerable_chip, WordDensityStudyConfig(hammer_count=ddr4_hc))
        lpddr4 = run_word_density(
            vulnerable_lpddr4, WordDensityStudyConfig(hammer_count=lpddr4_hc)
        )
        assert single_flip_fraction(lpddr4) < single_flip_fraction(ddr4)

    def test_fractions_sum_to_one(self, vulnerable_chip):
        result = run_word_density(vulnerable_chip, WordDensityStudyConfig(hammer_count=100_000))
        assert sum(result.fraction_by_flip_count().values()) == pytest.approx(1.0)


class TestCalibration:
    def test_reaches_requested_rate(self, vulnerable_chip):
        target = 5e-3
        hammer_count = hammer_count_for_flip_rate(vulnerable_chip, target_rate=target)
        assert hammer_count is not None
        achieved = measure_flip_rate(vulnerable_chip, hammer_count)
        assert target / 4 <= achieved <= target * 4

    def test_unreachable_rate_returns_none(self, vulnerable_chip):
        assert hammer_count_for_flip_rate(vulnerable_chip, target_rate=10.0) is None

    def test_invalid_target_rejected(self, vulnerable_chip):
        with pytest.raises(ValueError):
            hammer_count_for_flip_rate(vulnerable_chip, target_rate=0.0)


class TestEccAnalysis:
    def test_hc_increases_with_required_flips_per_word(self, vulnerable_chip):
        analysis = run_ecc_word_analysis(vulnerable_chip, EccWordStudyConfig(hammer_limit=250_000))
        hc1 = analysis.hc_first_word_with[1]
        hc2 = analysis.hc_first_word_with[2]
        assert hc1 is not None and hc2 is not None
        assert hc2 > hc1
        assert analysis.multiplier(1, 2) > 1.0

    def test_serialization_includes_multipliers(self, vulnerable_chip):
        analysis = run_ecc_word_analysis(vulnerable_chip, EccWordStudyConfig(hammer_limit=250_000))
        payload = analysis.to_dict()
        assert "multiplier_1_to_2" in payload


class TestProbability:
    def test_ddr4_mostly_monotonic(self, vulnerable_chip):
        result = run_flip_probability_study(
            vulnerable_chip,
            ProbabilityStudyConfig(hammer_counts=(40_000, 80_000, 120_000), iterations=4),
        )
        assert result.cells_observed > 0
        assert result.monotonic_fraction > 0.9

    def test_lpddr4_less_monotonic_than_ddr4(self, vulnerable_chip, vulnerable_lpddr4):
        config = ProbabilityStudyConfig(hammer_counts=(40_000, 80_000, 120_000), iterations=4)
        ddr4 = run_flip_probability_study(vulnerable_chip, config)
        lpddr4 = run_flip_probability_study(vulnerable_lpddr4, config)
        assert lpddr4.monotonic_fraction <= ddr4.monotonic_fraction


class TestScaling:
    def test_trend_is_decreasing(self):
        projection = fit_scaling_trend()
        assert projection.slope_log10_per_generation < 0

    def test_future_projection_below_current_minimum(self):
        projected = project_future_hcfirst(("1z", "1a"))
        assert projected["1z"] < 16_800
        assert projected["1a"] < projected["1z"]

    def test_generations_until_target(self):
        projection = fit_scaling_trend()
        generations = projection.generations_until(128)
        assert generations is not None and generations > 0

    def test_mitigation_sweep_covers_paper_range(self):
        assert max(MITIGATION_EVALUATION_HCFIRST) == 200_000
        assert min(MITIGATION_EVALUATION_HCFIRST) == 64
        assert 2_000 in MITIGATION_EVALUATION_HCFIRST

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_scaling_trend([("only", 1000.0)])
