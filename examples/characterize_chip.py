#!/usr/bin/env python3
"""Full single-chip RowHammer characterization (the paper's Section 5 studies).

For one chip this example reproduces, at small scale, every per-chip study of
the paper, driving them all through one :class:`repro.ExperimentSession`:
the ``HC_first`` search (Figure 8 / Table 4), data-pattern coverage
(Figure 4 / Table 3), the hammer-count sweep (Figure 5), the spatial
distribution of flips (Figure 6), the per-64-bit-word flip density
(Figure 7), the ECC-strength analysis (Figure 9), and the single-cell
flip-probability monotonicity study (Table 5).

Each study is looked up by its registry name and executed with a frozen
config dataclass; ``session.run(...)`` returns one result per chip, so the
same code scales from this single chip to a full population.

Run with::

    python examples/characterize_chip.py [type-node] [manufacturer]
    python examples/characterize_chip.py LPDDR4-1y A
"""

import sys

from repro import ExperimentSession, make_chip
from repro.analysis.report import format_table, render_series
from repro.core.coverage import CoverageStudyConfig
from repro.core.ecc_analysis import EccWordStudyConfig
from repro.core.probability import ProbabilityStudyConfig
from repro.core.spatial import SpatialStudyConfig
from repro.core.sweeps import loglog_slope
from repro.core.word_density import WordDensityStudyConfig
from repro.dram.geometry import ChipGeometry

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=64, row_bytes=64)

#: Flip rate the spatial / word-density studies are normalized to (the
#: paper's 1e-6, scaled to the much smaller simulated chip).
TARGET_RATE = 5e-3


def main() -> None:
    type_node = sys.argv[1] if len(sys.argv) > 1 else "DDR4-new"
    manufacturer = sys.argv[2] if len(sys.argv) > 2 else "A"
    chip = make_chip(type_node, manufacturer, seed=3, geometry=GEOMETRY)
    session = ExperimentSession(chip)
    print(f"characterizing {chip.chip_id}\n")

    # HC_first (Figure 8 / Table 4).
    hcfirst = session.run("fig8-hcfirst").single()
    print(f"HC_first: {hcfirst.hcfirst} (data pattern {hcfirst.data_pattern})\n")

    # Data-pattern coverage (Figure 4, Table 3).
    coverage = session.run(
        "fig4-coverage", CoverageStudyConfig(hammer_count=150_000)
    ).single()
    print(format_table(
        ["data pattern", "coverage %"],
        [[name, 100.0 * value] for name, value in sorted(coverage.coverage_by_pattern.items())],
        title="Data-pattern coverage (Figure 4)",
    ))
    print(f"worst-case pattern (Table 3): {coverage.worst_case_pattern}\n")

    # Hammer-count sweep (Figure 5).
    sweep = session.run("fig5-hc-sweep").single()
    print(render_series(
        {point.hammer_count: point.flip_rate for point in sweep.points},
        label="bit flip rate", key_label="hammer count",
    ))
    print(f"log-log slope (Observation 4): {loglog_slope(sweep):.2f}\n")

    # Spatial distribution (Figure 6) and word density (Figure 7) at a
    # rate-normalized hammer count, as the paper does; the studies calibrate
    # the chip-specific hammer count themselves when target_rate is set.
    spatial = session.run(
        "fig6-spatial", SpatialStudyConfig(target_rate=TARGET_RATE)
    ).single()
    print(render_series(
        dict(sorted(spatial.fraction_by_offset().items())),
        label="fraction of flips", key_label="row offset",
    ))
    print()
    density = session.run(
        "fig7-word-density", WordDensityStudyConfig(target_rate=TARGET_RATE)
    ).single()
    print(render_series(
        dict(sorted(density.fraction_by_flip_count().items())),
        label="fraction of words", key_label="flips per 64-bit word",
    ))
    print()

    # ECC-strength analysis (Figure 9) -- only meaningful without on-die ECC.
    if not chip.has_on_die_ecc:
        ecc = session.run(
            "fig9-ecc-words", EccWordStudyConfig(hammer_limit=250_000)
        ).single()
        print(render_series(
            {k: v for k, v in ecc.hc_first_word_with.items()},
            label="HC for first word with k flips", key_label="k",
        ))
        print(f"SEC ECC would improve HC_first by {ecc.multiplier(1, 2):.2f}x\n")

    # Single-cell flip-probability monotonicity (Table 5).
    probability = session.run(
        "table5-flip-probability",
        ProbabilityStudyConfig(hammer_counts=(40_000, 80_000, 120_000, 150_000), iterations=5),
    ).single()
    print(
        f"cells observed: {probability.cells_observed}, "
        f"monotonic fraction: {100 * probability.monotonic_fraction:.1f}%"
    )

    # The session tracked every chip operation the studies performed.
    print(f"\ntotal activations across all studies: {chip.stats.activations:,}")


if __name__ == "__main__":
    main()
