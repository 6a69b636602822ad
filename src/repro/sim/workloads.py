"""SPEC-like benchmark profiles and multi-programmed workload mixes.

The paper evaluates 48 eight-core workload mixes drawn randomly from SPEC
CPU2006, spanning aggregate MPKI values from 10 to 740.  The reproduction
defines a set of synthetic benchmark profiles whose single-core memory
intensities and localities span the same range as common SPEC CPU2006
characterizations, and draws random 8-core mixes from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.sim.trace import SyntheticTraceGenerator, TraceRecord
from repro.utils.rng import derive_seed, make_rng


@dataclass(frozen=True)
class BenchmarkProfile:
    """Memory behaviour of one synthetic benchmark.

    Attributes
    ----------
    name:
        SPEC-like benchmark name (for reporting only).
    mpki:
        Last-level-cache misses per kilo-instruction.
    row_locality:
        Probability of consecutive accesses to a bank hitting the same row.
    write_fraction:
        Fraction of memory requests that are writes.
    working_set_rows:
        Rows per bank the benchmark touches.
    """

    name: str
    mpki: float
    row_locality: float
    write_fraction: float
    working_set_rows: int

    def trace_generator(
        self,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        seed: int,
    ) -> SyntheticTraceGenerator:
        """Build a trace generator matching this profile for a given system."""
        return SyntheticTraceGenerator(
            mpki=self.mpki,
            row_locality=self.row_locality,
            write_fraction=self.write_fraction,
            banks=banks,
            rows_per_bank=rows_per_bank,
            columns_per_row=columns_per_row,
            working_set_rows=min(self.working_set_rows, rows_per_bank),
            seed=seed,
        )


#: Synthetic stand-ins for SPEC CPU2006 benchmarks.  MPKI values follow the
#: commonly reported single-core intensities (compute-bound benchmarks below
#: 1 MPKI are omitted since they produce negligible DRAM traffic).
SPEC_LIKE_BENCHMARKS: Tuple[BenchmarkProfile, ...] = (
    BenchmarkProfile("mcf-like", mpki=90.0, row_locality=0.25, write_fraction=0.25, working_set_rows=4096),
    BenchmarkProfile("lbm-like", mpki=45.0, row_locality=0.55, write_fraction=0.45, working_set_rows=2048),
    BenchmarkProfile("milc-like", mpki=30.0, row_locality=0.40, write_fraction=0.30, working_set_rows=2048),
    BenchmarkProfile("soplex-like", mpki=28.0, row_locality=0.50, write_fraction=0.20, working_set_rows=1024),
    BenchmarkProfile("libquantum-like", mpki=25.0, row_locality=0.85, write_fraction=0.10, working_set_rows=512),
    BenchmarkProfile("omnetpp-like", mpki=21.0, row_locality=0.30, write_fraction=0.30, working_set_rows=2048),
    BenchmarkProfile("gcc-like", mpki=16.0, row_locality=0.45, write_fraction=0.30, working_set_rows=1024),
    BenchmarkProfile("sphinx3-like", mpki=12.0, row_locality=0.60, write_fraction=0.15, working_set_rows=512),
    BenchmarkProfile("bwaves-like", mpki=10.0, row_locality=0.70, write_fraction=0.25, working_set_rows=1024),
    BenchmarkProfile("astar-like", mpki=6.0, row_locality=0.35, write_fraction=0.25, working_set_rows=512),
    BenchmarkProfile("gobmk-like", mpki=3.0, row_locality=0.50, write_fraction=0.25, working_set_rows=256),
    BenchmarkProfile("h264ref-like", mpki=1.5, row_locality=0.65, write_fraction=0.20, working_set_rows=256),
)


@dataclass(frozen=True)
class WorkloadMix:
    """A multi-programmed workload: one benchmark per core."""

    name: str
    benchmarks: Tuple[BenchmarkProfile, ...]

    @property
    def aggregate_mpki(self) -> float:
        """Sum of per-core MPKI values (the paper reports 10-740)."""
        return sum(benchmark.mpki for benchmark in self.benchmarks)

    def build_traces(
        self,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        requests_per_core: int,
        seed: int = 0,
    ) -> List[List[TraceRecord]]:
        """Generate one trace per core."""
        traces = []
        for core_id, benchmark in enumerate(self.benchmarks):
            generator = benchmark.trace_generator(
                banks=banks,
                rows_per_bank=rows_per_bank,
                columns_per_row=columns_per_row,
                seed=derive_seed(seed, self.name, core_id),
            )
            traces.append(generator.generate(requests_per_core))
        return traces


def make_workload_mixes(
    num_mixes: int = 48,
    cores: int = 8,
    seed: int = 0,
) -> List[WorkloadMix]:
    """Draw random multi-programmed mixes, as the paper does from SPEC CPU2006.

    Each core runs one of :data:`SPEC_LIKE_BENCHMARKS`, drawn uniformly.

    >>> mixes = make_workload_mixes(num_mixes=4, cores=8, seed=1)
    >>> len(mixes), len(mixes[0].benchmarks)
    (4, 8)
    """
    rng = make_rng(seed, "workload-mixes")
    mixes: List[WorkloadMix] = []
    for index in range(num_mixes):
        chosen = tuple(
            SPEC_LIKE_BENCHMARKS[int(rng.integers(0, len(SPEC_LIKE_BENCHMARKS)))]
            for _ in range(cores)
        )
        mixes.append(WorkloadMix(name=f"mix{index:02d}", benchmarks=chosen))
    return mixes


def mix_mpki_range(mixes: Sequence[WorkloadMix]) -> Tuple[float, float]:
    """Smallest and largest aggregate MPKI across a set of mixes."""
    values = [mix.aggregate_mpki for mix in mixes]
    return (min(values), max(values))
