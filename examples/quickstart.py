#!/usr/bin/env python3
"""Quickstart: create a simulated DRAM chip and characterize its RowHammer vulnerability.

This example walks through the core workflow of the library:

1. build a chip of a given DRAM type-node configuration and manufacturer,
2. run a worst-case double-sided hammer against one victim row,
3. search for the chip's ``HC_first`` through the session API (the minimum
   hammer count that causes the first bit flip -- the paper's headline
   vulnerability metric), and
4. compare chips across technology generations (Observation 10) by fanning
   the same registered study over a small population.

Run with::

    python examples/quickstart.py
"""

from repro import DoubleSidedHammer, ExperimentSession, make_chip, profile_for
from repro.core.data_patterns import worst_case_pattern
from repro.dram.geometry import ChipGeometry

# A small simulated chip: the vulnerability model calibrates itself to the
# simulated cell count, so chip-level metrics remain meaningful.
GEOMETRY = ChipGeometry(banks=1, rows_per_bank=64, row_bytes=64)


def main() -> None:
    # 1. Build an LPDDR4-1y chip from manufacturer A -- the most vulnerable
    #    configuration the paper characterizes (HC_first as low as 4.8k).
    chip = make_chip("LPDDR4-1y", manufacturer="A", seed=1, geometry=GEOMETRY)
    print(f"chip: {chip.chip_id}")
    print(f"  type-node:     {chip.profile.type_node}")
    print(f"  on-die ECC:    {chip.has_on_die_ecc}")
    worst = worst_case_pattern(chip.profile)
    print(f"  worst pattern: {(worst.victim_byte, worst.aggressor_byte)}")

    # 2. Hammer one victim row with the worst-case double-sided pattern.
    hammer = DoubleSidedHammer(chip)
    victim = chip.geometry.rows_per_bank // 2
    result = hammer.hammer_victim(bank=0, victim_row=victim, hammer_count=150_000)
    print(f"\nhammering victim row {victim} 150k times:")
    print(f"  aggressor rows: {result.aggressor_rows}")
    print(f"  bit flips observed: {result.num_bit_flips}")
    for flip in result.flips[:5]:
        print(
            f"    row {flip.row} (offset {flip.offset_from_victim:+d}), "
            f"bit {flip.bit_index}: {flip.expected_bit} -> {flip.observed_bit}"
        )

    # 3. Find HC_first through the session API: every paper analysis is a
    #    registered study a session can run over any chip population.
    session = ExperimentSession(chip)
    hcfirst = session.run("fig8-hcfirst").single()
    print(f"\nHC_first search: {hcfirst.hcfirst} hammers (victim row {hcfirst.victim_row})")

    # 4. Compare technology generations of the same manufacturer, using for
    #    each generation a chip as vulnerable as the weakest chip the paper
    #    found in that configuration (Table 4).  One session call fans the
    #    study over the whole generation population.
    generation_chips = [
        make_chip(
            type_node,
            "A",
            seed=7,
            geometry=GEOMETRY,
            hcfirst_target=profile_for(type_node, "A").hcfirst_min,
        )
        for type_node in ("DDR4-old", "DDR4-new", "LPDDR4-1x", "LPDDR4-1y")
    ]
    generations = ExperimentSession(generation_chips)
    print("\nHC_first across generations (manufacturer A, weakest chip per generation):")
    for generation_result in generations.run("fig8-hcfirst").payloads():
        profile = profile_for(generation_result.type_node, "A")
        print(
            f"  {generation_result.type_node:10s}: HC_first = {generation_result.hcfirst}"
            f"  (paper: {profile.hcfirst_min_k}k)"
        )


if __name__ == "__main__":
    main()
