"""Shared configuration for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper.  The simulated
chips are far smaller than real devices so the harnesses finish in seconds.
Run a harness with ``-s`` to see its printed tables, which set each
regenerated artefact next to the paper's numbers where the paper gives them.

The harnesses share one session-scoped :class:`repro.ExperimentSession` over
the Table 1 benchmark population, backed by a :class:`repro.ResultStore`:
benchmarks that run the same study on overlapping chip sets (for example
Figure 8 / Table 4 over all chips and Table 2 over the DDR3 subset) replay
each other's cached results instead of recomputing them.  Harnesses run
their studies through that session, never on the shared chips themselves:
the session hammers a copy of each chip, while a chip a harness hammers
directly stops being pristine, so every later harness would measure it in
its hammered state and the store would skip it.  An autouse fixture fails
any harness that leaves a benchmark chip non-pristine.
"""

from __future__ import annotations

import pytest

from repro import ExperimentSession, ResultStore
from repro.dram.geometry import ChipGeometry
from repro.dram.population import flatten_population, make_population
from repro.dram.vulnerability import available_configurations

#: Geometry used by all characterization benchmarks.
BENCH_GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)

#: Chips per (type-node, manufacturer) configuration in the benchmark
#: population.  The paper tests 24-388 chips per configuration; three chips
#: per configuration keep the harness fast while still exposing chip-to-chip
#: variation.
CHIPS_PER_CONFIG = 3

#: Seed of the benchmark population.
BENCH_SEED = 2024


@pytest.fixture(scope="session")
def bench_population():
    """One small chip population covering every configuration in Table 1."""
    return make_population(
        chips_per_config=CHIPS_PER_CONFIG, seed=BENCH_SEED, geometry=BENCH_GEOMETRY
    )


@pytest.fixture(autouse=True)
def bench_chips_stay_pristine(bench_population):
    """Fail a harness after which a shared benchmark chip is not pristine."""
    yield
    touched = [
        chip.chip_id for chip in flatten_population(bench_population) if not chip.is_pristine
    ]
    if touched:
        pytest.fail(
            f"{len(touched)} shared benchmark chips are no longer pristine "
            f"(run studies through bench_session): {', '.join(touched)}"
        )


@pytest.fixture(scope="session")
def bench_store(tmp_path_factory):
    """Result cache shared by every benchmark of one pytest session."""
    return ResultStore(tmp_path_factory.mktemp("result-store"))


@pytest.fixture(scope="session")
def bench_session(bench_population, bench_store):
    """One ExperimentSession over the benchmark population.

    Studies run through this session are cached in ``bench_store``, so
    benchmarks sharing a (study, config, chip) triple -- Table 4 + Figure 8
    versus Table 2 -- do the hammering only once.
    """
    return ExperimentSession(bench_population, store=bench_store)


@pytest.fixture(scope="session")
def representative_chips(bench_population):
    """One representative chip per configuration (the paper plots these for
    Figures 4, 6 and 7)."""
    return {key: chips[0] for key, chips in bench_population.items()}


def print_banner(title: str) -> None:
    """Print a separator so benchmark output is easy to scan."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
