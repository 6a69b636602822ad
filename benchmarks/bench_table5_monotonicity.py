"""Table 5: fraction of cells with monotonically increasing flip probability.

Observation 14: nearly all DDR3/DDR4 cells behave monotonically as the
hammer count increases, while only about half of LPDDR4 cells appear to --
because on-die ECC masks and un-masks flips.
"""

from conftest import print_banner

from repro.analysis.report import format_table
from repro.analysis.tables import PAPER_TABLE5_MONOTONIC_PERCENT, build_table5_monotonicity
from repro.core.probability import ProbabilityStudyConfig

HAMMER_COUNTS = (50_000, 75_000, 100_000, 125_000, 150_000)
ITERATIONS = 6


def test_table5_flip_probability_monotonicity(benchmark, bench_session, representative_chips):
    chips = {
        key: chip for key, chip in representative_chips.items() if chip.is_rowhammerable()
    }

    config = ProbabilityStudyConfig(hammer_counts=HAMMER_COUNTS, iterations=ITERATIONS)

    def run():
        return bench_session.run(
            "table5-flip-probability", config, chips=list(chips.values())
        ).payloads()

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table5 = build_table5_monotonicity(results)

    print_banner("Table 5: % of cells with monotonically increasing flip probability")
    rows = []
    for type_node in sorted(table5):
        row = [type_node]
        for manufacturer in ("A", "B", "C"):
            measured = table5[type_node].get(manufacturer)
            paper = PAPER_TABLE5_MONOTONIC_PERCENT.get(type_node, {}).get(manufacturer)
            measured_text = f"{measured:.1f}" if measured is not None else "N/A"
            row.append(f"{measured_text} (paper {paper if paper is not None else 'N/A'})")
        rows.append(row)
    print(format_table(["type-node", "Mfr. A", "Mfr. B", "Mfr. C"], rows))

    ddr_values = [
        value
        for type_node, per_mfr in table5.items()
        for value in per_mfr.values()
        if type_node.startswith("DDR")
    ]
    lpddr4_values = [
        value
        for type_node, per_mfr in table5.items()
        for value in per_mfr.values()
        if type_node.startswith("LPDDR4")
    ]
    assert ddr_values and lpddr4_values
    # Observation 14: DDR3/DDR4 cells are overwhelmingly monotonic, LPDDR4
    # cells much less so.
    assert min(ddr_values) > 85.0
    assert sum(lpddr4_values) / len(lpddr4_values) < sum(ddr_values) / len(ddr_values)
