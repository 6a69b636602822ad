"""Synthetic memory-access trace generation.

The paper drives its simulations with SPEC CPU2006 traces.  Without access
to SPEC, the reproduction generates synthetic traces with the two properties
that matter for the mitigation study:

* *memory intensity* (misses per kilo-instruction, MPKI), which determines
  how many DRAM activations per unit time a workload produces and therefore
  how much work a per-activation mitigation mechanism has to do, and
* *row-buffer locality*, which determines the activation rate per access.

A trace is a sequence of :class:`TraceRecord` entries, each carrying the
number of non-memory instructions preceding one memory request plus the
request's coordinates -- the same format Ramulator's simple-core traces use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.utils.rng import make_rng


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory request in a core's instruction stream.

    Attributes
    ----------
    bubble_instructions:
        Number of non-memory instructions executed before this request.
    bank, row, column:
        DRAM coordinates of the request.
    is_write:
        Whether the request is a write (writes are posted and do not stall
        the core).
    """

    bubble_instructions: int
    bank: int
    row: int
    column: int
    is_write: bool


class SyntheticTraceGenerator:
    """Generates a reproducible synthetic trace for one core.

    Parameters
    ----------
    mpki:
        Memory requests per thousand instructions.
    row_locality:
        Probability that a request targets the same row as the previous
        request to the same bank (row-buffer hit potential).
    write_fraction:
        Fraction of requests that are writes.
    banks, rows_per_bank, columns_per_row:
        Address space to draw from (should match the simulated system).
    working_set_rows:
        Number of distinct rows per bank the workload touches; smaller
        values concentrate activations on fewer rows (which matters for
        table-based mitigation mechanisms).
    seed:
        RNG seed (combine with the core id for heterogeneous mixes).
    """

    def __init__(
        self,
        mpki: float,
        row_locality: float = 0.6,
        write_fraction: float = 0.3,
        banks: int = 16,
        rows_per_bank: int = 16384,
        columns_per_row: int = 128,
        working_set_rows: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if mpki <= 0:
            raise ValueError("mpki must be positive")
        if not 0.0 <= row_locality <= 1.0:
            raise ValueError("row_locality must be within [0, 1]")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        self.mpki = mpki
        self.row_locality = row_locality
        self.write_fraction = write_fraction
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.columns_per_row = columns_per_row
        self.working_set_rows = working_set_rows or max(64, rows_per_bank // 8)
        self.working_set_rows = min(self.working_set_rows, rows_per_bank)
        self.seed = seed

    @property
    def mean_bubble_instructions(self) -> float:
        """Average number of non-memory instructions between requests."""
        return 1000.0 / self.mpki

    def generate(self, num_requests: int) -> List[TraceRecord]:
        """Generate ``num_requests`` trace records."""
        rng = make_rng(self.seed, "trace", self.mpki, self.row_locality)
        mean_bubbles = self.mean_bubble_instructions
        last_row_per_bank = {}
        records: List[TraceRecord] = []
        # Each core's working set is a contiguous window of rows at a
        # core-specific offset, so different cores hammer different rows.
        base_row = int(rng.integers(0, max(1, self.rows_per_bank - self.working_set_rows)))
        for _ in range(num_requests):
            bubbles = int(rng.geometric(1.0 / (1.0 + mean_bubbles))) - 1
            bank = int(rng.integers(0, self.banks))
            if bank in last_row_per_bank and rng.random() < self.row_locality:
                row = last_row_per_bank[bank]
            else:
                row = base_row + int(rng.integers(0, self.working_set_rows))
            last_row_per_bank[bank] = row
            records.append(
                TraceRecord(
                    bubble_instructions=max(0, bubbles),
                    bank=bank,
                    row=row,
                    column=int(rng.integers(0, self.columns_per_row)),
                    is_write=bool(rng.random() < self.write_fraction),
                )
            )
        return records


#: Memory intensity of :class:`AggressorTraceGenerator`'s attacker.
ATTACKER_MPKI = 500.0


class AggressorTraceGenerator(SyntheticTraceGenerator):
    """A trace that behaves like a RowHammer attacker.

    The attacker repeatedly alternates between two aggressor rows in one
    bank with no row-buffer locality, maximizing the activation rate to a
    single victim row, at :data:`ATTACKER_MPKI` over the default 128
    columns per row.  Used by the security-oriented example application
    and by tests of the mitigation mechanisms' protection guarantees.
    """

    def __init__(
        self,
        target_bank: int = 0,
        victim_row: int = 1000,
        banks: int = 16,
        rows_per_bank: int = 16384,
        seed: int = 0,
    ) -> None:
        super().__init__(
            mpki=ATTACKER_MPKI,
            row_locality=0.0,
            write_fraction=0.0,
            banks=banks,
            rows_per_bank=rows_per_bank,
            seed=seed,
        )
        self.target_bank = target_bank
        self.victim_row = victim_row

    def generate(self, num_requests: int) -> List[TraceRecord]:
        rng = make_rng(self.seed, "attack", self.victim_row)
        mean_bubbles = self.mean_bubble_instructions
        aggressors = (self.victim_row - 1, self.victim_row + 1)
        records: List[TraceRecord] = []
        for index in range(num_requests):
            bubbles = int(rng.geometric(1.0 / (1.0 + mean_bubbles))) - 1
            records.append(
                TraceRecord(
                    bubble_instructions=max(0, bubbles),
                    bank=self.target_bank,
                    row=aggressors[index % 2],
                    column=int(rng.integers(0, self.columns_per_row)),
                    is_write=False,
                )
            )
        return records
