"""Tests for the focused characterization studies (coverage, sweeps, spatial,
word density, ECC analysis, probability, scaling)."""

import pytest

from repro.analysis.tables import build_table3_worst_patterns
from repro.core.calibration import hammer_count_for_flip_rate, measure_flip_rate
from repro.core.characterization import CharacterizationConfig
from repro.core.coverage import CoverageStudyConfig
from repro.core.data_patterns import STANDARD_PATTERNS, worst_case_pattern
from repro.core.ecc_analysis import EccWordStudyConfig, run_ecc_word_analysis
from repro.core.first_flip import HCFirstStudyConfig
from repro.core.probability import ProbabilityStudyConfig, run_flip_probability_study
from repro.core.scaling import fit_scaling_trend, project_future_hcfirst
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
from repro.dram.chip import DramChip
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.experiments import ExperimentSession

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)


def make_vulnerable_chip():
    """A very vulnerable DDR4 chip so every study observes plenty of flips."""
    return make_chip("DDR4-new", "A", seed=50, geometry=GEOMETRY, hcfirst_target=12_000)


# The chip fixtures are function-scoped: the studies below hammer the chip
# they are given, so a chip shared by the module would make each test
# measure what the tests before it left behind (and depend on test order
# and -k selection).  Every test gets a pristine chip instead.
@pytest.fixture
def vulnerable_chip():
    return make_vulnerable_chip()


@pytest.fixture
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

    @pytest.mark.parametrize("config_cls", [ProbabilityStudyConfig, CharacterizationConfig])
    def test_rejects_duplicate_hammer_counts(self, config_cls):
        # A repeated count would compare two samples of one hammer count as
        # if they were a sweep (Table 5), or collide on the unit id "hc50000"
        # only once a session runs it (Algorithm 1).
        with pytest.raises(ValueError, match="must not repeat"):
            config_cls(hammer_counts=(50_000, 100_000, 50_000))


@pytest.fixture(scope="module")
def coverage():
    """The Figure 4 study's payload for the vulnerable DDR4 chip."""
    return (
        ExperimentSession(make_vulnerable_chip())
        .run("fig4-coverage", CoverageStudyConfig(hammer_count=150_000))
        .single()
    )


class TestCoverage:
    def test_worst_case_pattern_has_highest_coverage(self, vulnerable_chip, coverage):
        assert coverage.unique_flips_total > 0
        expected = worst_case_pattern(vulnerable_chip.profile).name
        assert coverage.worst_case_pattern == expected

    def test_no_pattern_reaches_full_coverage(self, coverage):
        assert all(value <= 1.0 for value in coverage.coverage_by_pattern.values())
        assert coverage.coverage_by_pattern[coverage.worst_case_pattern] < 1.0

    def test_coverages_cover_all_patterns(self, coverage):
        assert set(coverage.coverage_by_pattern) == {p.name for p in STANDARD_PATTERNS}

    def test_table3_aggregation(self, coverage):
        table = build_table3_worst_patterns([coverage])
        assert table["DDR4-new"]["A"] == coverage.worst_case_pattern


class TestSweeps:
    def test_accepts_non_standard_pattern(self, vulnerable_chip):
        # The config must keep accepting arbitrary DataPattern objects
        # (e.g. an inverted RowStripe0), not only the eight named standard
        # patterns.
        from repro.core.data_patterns import DataPattern

        inverse = DataPattern("RowStripe0-inverse", "~RS0", 0xFF, 0x00)
        config = SweepStudyConfig(hammer_counts=(150_000,), data_pattern=inverse)
        sweep = run_hammer_count_sweep(vulnerable_chip, config)
        assert sweep.data_pattern == "RowStripe0-inverse"

    def test_flip_rate_monotonic_in_hc(self, vulnerable_chip):
        sweep = run_hammer_count_sweep(
            vulnerable_chip, SweepStudyConfig(hammer_counts=(20_000, 60_000, 150_000))
        )
        rates = [point.flip_rate for point in sweep.points]
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
        assert sweep.points[0].hammer_count == 50_000


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

    def test_a_rate_below_one_flip_returns_the_last_count_that_flipped(self):
        """At the paper's normalization rate, 1e-6, this chip's tested cells
        cannot show one flip, so the search undershoots to a count with no
        flip and its step back flips nothing either.  It returns the last
        count that flipped instead of fitting a slope through a zero rate,
        which raised a math domain error in Figure 6's calibration too."""

        def chip():
            return make_chip("DDR3-new", "B", seed=0)

        hammer_count = hammer_count_for_flip_rate(chip(), target_rate=1e-6)
        assert hammer_count is not None and hammer_count < DramChip.TEST_LIMIT_HC
        assert measure_flip_rate(chip(), hammer_count) > 0
        config = SpatialStudyConfig(target_rate=1e-6)
        assert ExperimentSession(chip()).run("fig6-spatial", config).single().hammer_count == (
            hammer_count
        )


class TestEccAnalysis:
    def test_hc_increases_with_required_flips_per_word(self, vulnerable_chip):
        analysis = run_ecc_word_analysis(vulnerable_chip, EccWordStudyConfig(hammer_limit=250_000))
        hc1 = analysis.hc_first_word_with[1]
        hc2 = analysis.hc_first_word_with[2]
        assert hc1 is not None and hc2 is not None
        assert hc2 > hc1
        assert analysis.multiplier(1, 2) > 1.0


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
        projected = project_future_hcfirst()
        assert projected["1z"] < 16_800
        assert projected["1a"] < projected["1z"]

    def test_generations_until_target(self):
        projection = fit_scaling_trend()
        generations = projection.generations_until(128)
        assert generations is not None and generations > 0
