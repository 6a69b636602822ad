"""Figure 4 and Table 3: data-pattern coverage and worst-case patterns.

The paper's Observation 2 (no single pattern finds all flips) and
Observation 3 (the worst-case pattern is consistent within a configuration)
are regenerated from per-chip coverage studies.
"""

from conftest import print_banner

from repro.analysis.figures import build_figure4_coverage
from repro.analysis.report import format_table
from repro.analysis.tables import PAPER_TABLE3_WORST_PATTERNS, build_table3_worst_patterns
from repro.core.coverage import CoverageStudyConfig
from repro.core.data_patterns import STANDARD_PATTERNS


def test_fig4_coverage_and_table3_worst_patterns(benchmark, bench_session, representative_chips):
    # Skip configurations whose chips essentially never flip (the paper marks
    # them "Not Enough Bit Flips").
    chips = {
        key: chip
        for key, chip in representative_chips.items()
        if chip.is_rowhammerable()
    }

    config = CoverageStudyConfig(hammer_count=150_000)

    def run():
        return bench_session.run(
            "fig4-coverage", config, chips=list(chips.values())
        ).payloads()

    coverage_results = benchmark.pedantic(run, rounds=1, iterations=1)
    figure4 = build_figure4_coverage(coverage_results)
    table3 = build_table3_worst_patterns(coverage_results)

    print_banner("Figure 4: RowHammer bit-flip coverage per data pattern (%)")
    pattern_names = [pattern.name for pattern in STANDARD_PATTERNS]
    rows = []
    for (type_node, manufacturer), coverages in sorted(figure4.items()):
        rows.append(
            [f"{type_node}/{manufacturer}"]
            + [round(coverages.get(name, 0.0), 1) for name in pattern_names]
        )
    print(format_table(["configuration"] + pattern_names, rows))

    print_banner("Table 3: Worst-case data pattern per configuration")
    rows = []
    for type_node in sorted(table3):
        row = [type_node]
        for manufacturer in ("A", "B", "C"):
            measured = table3.get(type_node, {}).get(manufacturer)
            paper = PAPER_TABLE3_WORST_PATTERNS.get(type_node, {}).get(manufacturer)
            row.append(f"{measured or 'N/A'} (paper: {paper or 'N/A'})")
        rows.append(row)
    print(format_table(["type-node", "Mfr. A", "Mfr. B", "Mfr. C"], rows))

    # Observation 2: no pattern achieves full coverage on any chip.
    for result in coverage_results:
        if result.unique_flips_total < 10:
            continue
        assert max(result.coverage_by_pattern.values()) < 1.0

    # Table 3: measured worst-case patterns match the paper wherever the
    # paper reports one and the simulated chip produced enough flips.
    matches, comparisons = 0, 0
    for type_node, per_mfr in table3.items():
        for manufacturer, measured in per_mfr.items():
            paper = PAPER_TABLE3_WORST_PATTERNS.get(type_node, {}).get(manufacturer)
            if paper is None or measured is None:
                continue
            comparisons += 1
            if measured == paper:
                matches += 1
    assert comparisons > 0
    assert matches / comparisons >= 0.8
