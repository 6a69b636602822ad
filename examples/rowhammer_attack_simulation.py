#!/usr/bin/env python3
"""End-to-end RowHammer attack scenario: attacker, memory controller, chip.

The paper's threat model assumes an attacker who can activate chosen rows
with precise timing.  This example co-simulates that scenario out of the
library's pieces:

1. an attacker core runs a dependent-access double-sided hammer trace,
2. the memory controller (optionally protected by a mitigation mechanism)
   schedules the resulting activations and any victim refreshes, and
3. every activation and victim refresh the controller issues is applied to
   the behavioural chip model, so the attack's success is decided by the
   same circuit-level disturbance model the characterization studies use.

The target is a projected future chip (Section 6.3) whose ``HC_first`` is
only a few hundred hammers, so the attack completes within a short simulated
interval.

Run with::

    python examples/rowhammer_attack_simulation.py
"""

import numpy as np

from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import build_mechanism
from repro.sim.config import SystemConfig
from repro.sim.system import Simulation
from repro.sim.trace import AggressorTraceGenerator

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=256, row_bytes=64)
VICTIM_ROW = 128
DRAM_CYCLES = 60_000
#: The attack targets a projected future chip (Section 6.3): HC_first = 250.
FUTURE_HCFIRST = 250


class ChipObserver:
    """Applies the controller's row commands to a chip, then defers to a mechanism.

    The controller reports every demand activation and victim refresh to
    its mitigation mechanism, so this observer stands in for the optional
    ``mechanism``: it applies each of those commands to the chip model and
    passes every call on.
    """

    def __init__(self, chip, mechanism=None):
        self.chip = chip
        self.mechanism = mechanism

    def refresh_interval_multiplier(self):
        return 1.0 if self.mechanism is None else self.mechanism.refresh_interval_multiplier()

    def on_activate(self, bank, row, cycle):
        self.chip.activate(bank, row, 1)
        return [] if self.mechanism is None else self.mechanism.on_activate(bank, row, cycle)

    def on_refresh(self, cycle):
        return [] if self.mechanism is None else self.mechanism.on_refresh(cycle)

    def on_victim_refreshed(self, bank, row, cycle):
        self.chip.refresh_row(bank, row)
        if self.mechanism is not None:
            self.mechanism.on_victim_refreshed(bank, row, cycle)


def run_attack(mechanism_name):
    """Co-simulate the attack; returns (activations, victim refreshes, bit flips)."""
    # Dependent accesses (instruction window of 1) model a pointer-chasing /
    # flush-based attacker the controller cannot coalesce into row hits.
    config = SystemConfig(cores=1, banks=1, rows_per_bank=256, instruction_window=1)
    trace = AggressorTraceGenerator(
        target_bank=0, victim_row=VICTIM_ROW, banks=1, rows_per_bank=256, seed=1
    ).generate(40_000)
    mitigation = None
    if mechanism_name is not None:
        mitigation = build_mechanism(
            mechanism_name,
            MitigationConfig(hcfirst=FUTURE_HCFIRST, banks=1, rows_per_bank=256, seed=3),
        )

    # The chip under attack: as vulnerable as the projected future chip.
    chip = make_chip(
        "DDR4-new", "A", seed=9, geometry=GEOMETRY, hcfirst_target=FUTURE_HCFIRST
    )
    victim_byte, aggressor_byte = 0x00, 0xFF
    rows = range(VICTIM_ROW - 3, VICTIM_ROW + 4)
    chip.write_rows(
        0,
        rows,
        [victim_byte if (row - VICTIM_ROW) % 2 == 0 else aggressor_byte for row in rows],
    )

    # Wire the controller's command stream into the chip model.
    simulation = Simulation(config, [trace], mitigation=ChipObserver(chip, mitigation))
    simulation.run(DRAM_CYCLES)
    stats = simulation.controller.stats

    expected = np.full(chip.geometry.row_bytes, victim_byte, dtype=np.uint8)
    observed = chip.read_rows(0, [VICTIM_ROW])[0]
    victim_flips = int(np.unpackbits(observed ^ expected).sum())
    return stats.demand_activates, stats.mitigation_refreshes, victim_flips


def main() -> None:
    print(
        f"attack target: victim row {VICTIM_ROW}, projected future chip with "
        f"HC_first = {FUTURE_HCFIRST} hammers\n"
    )
    for mechanism in (None, "PARA", "TWiCe-ideal", "Ideal"):
        label = mechanism or "no mitigation"
        activations, refreshes, flips = run_attack(mechanism)
        outcome = "ATTACK SUCCEEDED" if flips > 0 else "attack blocked"
        print(
            f"{label:14s}: {activations:6d} aggressor activations, "
            f"{refreshes:4d} victim refreshes -> {flips:3d} victim bit flips ({outcome})"
        )


if __name__ == "__main__":
    main()
