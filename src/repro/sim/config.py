"""Simulated system configuration (paper Table 6).

The paper evaluates an 8-core, 4 GHz system with a 4-wide issue width, a
128-entry instruction window, a 16 MB last-level cache, an FR-FCFS memory
controller with 64-entry read/write queues, and a single-channel,
single-rank DDR4 main memory with 16 banks and 16k rows per bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.timing import DDR4_2400, DramTimings


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of the simulated system.

    The defaults reproduce Table 6.  ``rows_per_bank`` can be reduced for
    faster experiments; mitigation mechanisms size their tracking structures
    from it.  The simulator models one channel, one rank and no cache (the
    traces are last-level-cache misses), so those Table 6 parameters have
    no field.
    """

    cores: int = 8
    cpu_freq_ghz: float = 4.0
    issue_width: int = 4
    instruction_window: int = 128
    read_queue_depth: int = 64
    write_queue_depth: int = 64
    banks: int = 16
    rows_per_bank: int = 16384
    columns_per_row: int = 128
    timings: DramTimings = field(default_factory=lambda: DDR4_2400)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.banks <= 0 or self.rows_per_bank <= 0:
            raise ValueError("banks and rows_per_bank must be positive")
        if self.issue_width <= 0 or self.instruction_window <= 0:
            raise ValueError("issue_width and instruction_window must be positive")
        if self.read_queue_depth <= 0 or self.write_queue_depth <= 0:
            raise ValueError("read_queue_depth and write_queue_depth must be positive")
        if not self.cpu_freq_ghz > 0:
            raise ValueError("cpu_freq_ghz must be positive")

    @property
    def cpu_cycles_per_dram_cycle(self) -> float:
        """CPU clock cycles per DRAM bus cycle (the simulation ticks in DRAM cycles)."""
        dram_freq_ghz = 1.0 / self.timings.tck_ns
        return self.cpu_freq_ghz / dram_freq_ghz
