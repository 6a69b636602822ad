"""Figure 9: hammer count to the first 64-bit word with 1, 2 and 3 bit flips.

Observations 12-13: a single-error-correcting code buys up to ~2.8x headroom
in HC_first, with diminishing returns for stronger codes.  The paper excludes
LPDDR4 chips (their on-die ECC already obfuscates flips), and so does this
benchmark.
"""

from conftest import print_banner

from repro.analysis.figures import build_figure9_ecc
from repro.analysis.report import format_table
from repro.core.ecc_analysis import EccWordStudyConfig, run_ecc_word_analysis


def test_fig9_ecc_headroom(benchmark, representative_chips):
    chips = {
        key: chip
        for key, chip in representative_chips.items()
        if chip.is_rowhammerable() and not chip.has_on_die_ecc
    }

    def run():
        config = EccWordStudyConfig(hammer_limit=300_000, flips_per_word=(1, 2, 3))
        return [run_ecc_word_analysis(chip, config) for chip in chips.values()]

    analyses = benchmark.pedantic(run, rounds=1, iterations=1)
    figure9 = build_figure9_ecc(analyses)

    print_banner("Figure 9: HC to find the first 64-bit word with 1/2/3 flips")
    rows = []
    for (type_node, manufacturer), data in sorted(figure9.items()):
        hc = data["hc"]
        multiplier = data["multiplier"]
        rows.append(
            [
                f"{type_node}/{manufacturer}",
                int(hc[1]["mean"]),
                int(hc[2]["mean"]),
                int(hc[3]["mean"]),
                round(multiplier[2]["mean"], 2),
                round(multiplier[3]["mean"], 2),
            ]
        )
    print(
        format_table(
            ["configuration", "HC(1 flip)", "HC(2 flips)", "HC(3 flips)",
             "multiplier 1->2", "multiplier 2->3"],
            rows,
        )
    )

    # Observation 12: SEC ECC (surviving until 2 flips share a word) buys a
    # meaningful HC_first improvement on every analysed chip, and a clear
    # improvement on average.
    multipliers = []
    for analysis in analyses:
        hc1 = analysis.hc_first_word_with.get(1)
        hc2 = analysis.hc_first_word_with.get(2)
        if hc1 is None or hc2 is None:
            continue
        assert hc2 > hc1
        multipliers.append(analysis.multiplier(1, 2))
    assert multipliers
    assert all(multiplier > 1.05 for multiplier in multipliers)
    assert sum(multipliers) / len(multipliers) > 1.2
