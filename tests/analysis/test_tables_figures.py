"""Tests for the table/figure builders and text reports."""

import pytest

from repro.analysis.figures import (
    build_figure4_coverage,
    build_figure5_hc_sweep,
    build_figure6_spatial,
    build_figure7_word_density,
    build_figure8_hcfirst_distribution,
    build_figure9_ecc,
)
from repro.analysis.report import format_table, render_series
from repro.analysis.tables import (
    PAPER_TABLE4_MIN_HCFIRST_K,
    build_table1_population,
    build_table2_rowhammerable,
    build_table3_worst_patterns,
    build_table4_min_hcfirst,
    build_table5_monotonicity,
)
from repro.core.first_flip import HCFirstResult
from repro.core.scaling import OBSERVED_GENERATION_MINIMA
from repro.core.results import (
    CoverageResult,
    EccWordAnalysis,
    ProbabilityResult,
    SpatialResult,
    SweepPoint,
    SweepResult,
    WordDensityResult,
)

#: The paper's Table 4: minimum HC_first (thousands of hammers) per type-node
#: and manufacturer; ``None`` where the paper tested no chips.
PAPER_TABLE4 = {
    "DDR3-old": {"A": 69.2, "B": 157.0, "C": 155.0},
    "DDR3-new": {"A": 85.0, "B": 22.4, "C": 24.0},
    "DDR4-old": {"A": 17.5, "B": 30.0, "C": 87.0},
    "DDR4-new": {"A": 10.0, "B": 25.0, "C": 40.0},
    "LPDDR4-1x": {"A": 43.2, "B": 16.8, "C": None},
    "LPDDR4-1y": {"A": 4.8, "B": None, "C": 9.6},
}


def _hcfirst(type_node, manufacturer, value, chip_id="c"):
    return HCFirstResult(
        chip_id=chip_id,
        type_node=type_node,
        manufacturer=manufacturer,
        hcfirst=value,
        victim_row=1 if value else None,
        hammer_limit=150_000,
        data_pattern="RowStripe0",
    )


class TestTables:
    def test_table1_matches_paper(self):
        table = build_table1_population()
        assert table["DDR4-new"]["A"] == (264, 43)
        assert table["LPDDR4-1y"]["C"] == (144, 36)
        assert "C" not in table["LPDDR4-1x"]

    def test_table2_fractions(self):
        results = [
            _hcfirst("DDR3-old", "A", 100_000),
            _hcfirst("DDR3-old", "A", None),
            _hcfirst("DDR3-new", "B", 30_000),
            _hcfirst("DDR4-new", "A", 20_000),  # not a DDR3 row
        ]
        table = build_table2_rowhammerable(results)
        assert table["DDR3-old"]["A"] == (1, 2)
        assert table["DDR3-new"]["B"] == (1, 1)
        assert "DDR4-new" not in table

    def test_table3_votes_majority(self):
        def coverage(winner):
            return CoverageResult(
                chip_id="c",
                type_node="DDR4-new",
                manufacturer="A",
                hammer_count=150_000,
                unique_flips_total=100,
                coverage_by_pattern={winner: 0.9, "Solid0": 0.1},
            )

        table = build_table3_worst_patterns(
            [coverage("RowStripe0"), coverage("RowStripe0"), coverage("Checkered1")]
        )
        assert table["DDR4-new"]["A"] == "RowStripe0"

    def test_table3_skips_chips_without_enough_flips(self):
        sparse = CoverageResult(
            chip_id="c", type_node="DDR3-new", manufacturer="A",
            hammer_count=150_000, unique_flips_total=2,
            coverage_by_pattern={"Solid0": 1.0},
        )
        assert build_table3_worst_patterns([sparse]) == {}

    def test_table4_minimum_and_none(self):
        results = [
            _hcfirst("DDR4-new", "A", 12_000),
            _hcfirst("DDR4-new", "A", 18_000),
            _hcfirst("DDR3-old", "B", None),
        ]
        table = build_table4_min_hcfirst(results)
        assert table["DDR4-new"]["A"] == pytest.approx(12.0)
        assert table["DDR3-old"]["B"] is None

    def test_table4_paper_reference_shape(self):
        assert PAPER_TABLE4_MIN_HCFIRST_K["LPDDR4-1y"]["A"] == pytest.approx(4.8)

    def test_table4_minima_derived_from_profiles_match_the_paper(self):
        """The report reference and the scaling fit both read the profiles'
        Table 4 minima, so a profile recalibrated away from the paper fails
        here."""
        assert PAPER_TABLE4_MIN_HCFIRST_K == PAPER_TABLE4
        assert OBSERVED_GENERATION_MINIMA == tuple(
            (type_node, 1000 * min(value for value in row.values() if value is not None))
            for type_node, row in PAPER_TABLE4.items()
        )

    def test_table5_average_percentage(self):
        results = [
            ProbabilityResult("c1", "DDR4-new", "A", (10, 20), 5, 100, 98),
            ProbabilityResult("c2", "DDR4-new", "A", (10, 20), 5, 100, 100),
        ]
        table = build_table5_monotonicity(results)
        assert table["DDR4-new"]["A"] == pytest.approx(99.0)


class TestFigures:
    def test_figure4_averages_percentages(self):
        results = [
            CoverageResult("c1", "DDR4-new", "A", 150_000, 10, {"RowStripe0": 0.8}),
            CoverageResult("c2", "DDR4-new", "A", 150_000, 10, {"RowStripe0": 0.6}),
        ]
        figure = build_figure4_coverage(results)
        assert figure[("DDR4-new", "A")]["RowStripe0"] == pytest.approx(70.0)

    def test_figure5_average_rates(self):
        sweep = SweepResult(
            "c", "DDR4-new", "A", "RowStripe0",
            points=[SweepPoint(10_000, 10, 1000), SweepPoint(20_000, 100, 1000)],
        )
        figure = build_figure5_hc_sweep([sweep])
        assert figure[("DDR4-new", "A")][20_000] == pytest.approx(0.1)

    def test_figure6_and_7_aggregate(self):
        spatial = SpatialResult("c", "DDR4-new", "A", 1000, {0: 8, 2: 2})
        density = WordDensityResult("c", "DDR4-new", "A", 1000, {1: 9, 2: 1})
        fig6 = build_figure6_spatial([spatial])
        fig7 = build_figure7_word_density([density])
        assert fig6[("DDR4-new", "A")][0]["mean"] == pytest.approx(0.8)
        assert fig7[("DDR4-new", "A")][1]["mean"] == pytest.approx(0.9)

    def test_figure7_plots_one_to_five_flips_per_word(self):
        density = WordDensityResult("c", "DDR4-new", "A", 1000, {1: 6, 2: 2, 7: 2})
        bars = build_figure7_word_density([density])[("DDR4-new", "A")]
        assert list(bars) == [1, 2, 3, 4, 5]
        assert bars[3]["mean"] == 0.0

    def test_figure8_box_stats_and_none(self):
        results = [
            _hcfirst("DDR4-new", "A", 10_000),
            _hcfirst("DDR4-new", "A", 30_000),
            _hcfirst("DDR3-old", "B", None),
        ]
        figure = build_figure8_hcfirst_distribution(results)
        assert figure[("DDR4-new", "A")].minimum == 10_000
        assert figure[("DDR3-old", "B")] is None

    def test_figure9_multipliers(self):
        analysis = EccWordAnalysis(
            "c", "DDR4-new", "A", 64, {1: 10_000, 2: 25_000, 3: 40_000}
        )
        figure = build_figure9_ecc([analysis])
        data = figure[("DDR4-new", "A")]
        assert data["hc"][2]["mean"] == pytest.approx(25_000)
        assert data["multiplier"][2]["mean"] == pytest.approx(2.5)

    def test_figure9_reports_the_flip_counts_measured(self):
        analysis = EccWordAnalysis("c", "DDR4-new", "A", 64, {1: 10_000, 2: 25_000, 4: 60_000})
        data = build_figure9_ecc([analysis])[("DDR4-new", "A")]
        assert list(data["hc"]) == [1, 2, 4]
        assert data["hc"][4]["mean"] == pytest.approx(60_000)
        # A multiplier needs the count below it: 3 flips were not measured.
        assert list(data["multiplier"]) == [2]


class TestReport:
    def test_format_table_alignment_and_none(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["b", None]])
        assert "name" in text and "N/A" in text
        assert len(text.splitlines()) == 4

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_render_series(self):
        text = render_series({64: 20.0, 128: 40.0}, label="perf", key_label="hcfirst")
        assert "hcfirst" in text and "128" in text
