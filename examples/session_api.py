#!/usr/bin/env python3
"""The ``repro.experiments`` session API end to end.

This example shows the five moves the orchestration layer is built around:

1. **register** -- define a new study as a config dataclass plus a
   ``run(chip, config)`` function; one decorator makes it a first-class
   citizen next to the paper's built-in studies,
2. **session** -- build an :class:`repro.ExperimentSession` over a chip
   population and fan the study out across it,
3. **parallel** -- swap in a :class:`repro.ParallelExecutor` and get
   bit-identical results from a process pool, and
4. **cached rerun** -- attach a :class:`repro.ResultStore` and watch the
   second run replay from disk without a single chip activation.
5. **decompose** -- declare a *sharded* study: a ``decompose`` enumerating
   independent :class:`repro.WorkUnit` shards of the grid and a
   deterministic ``merge``, with the decorated function executing one
   shard.  Sessions then cache every shard individually, so a crashed
   sweep resumes from its completed units and an edited grid replays
   everything it did not touch.

Run with::

    python examples/session_api.py
"""

import tempfile
from dataclasses import dataclass

from repro import (
    DoubleSidedHammer,
    ExperimentSession,
    ParallelExecutor,
    ResultStore,
    WorkUnit,
    list_studies,
    register_study,
)
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_population

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)


# ----------------------------------------------------------------------
# 1. Register a custom study: victim-row flip count at one hammer count.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VictimFlipConfig:
    """Parameters of the demo study."""

    hammer_count: int = 100_000
    victim_row: int = GEOMETRY.rows_per_bank // 2


@register_study("demo-victim-flips", config=VictimFlipConfig)
def run_victim_flips(chip, config):
    """Bit flips observed in one victim's neighbourhood at a fixed HC."""
    hammer = DoubleSidedHammer(chip)
    result = hammer.hammer_victim(
        bank=0, victim_row=config.victim_row, hammer_count=config.hammer_count
    )
    return {"chip": chip.chip_id, "flips": result.num_bit_flips}


# ----------------------------------------------------------------------
# 5. Register a *decomposable* study: a hammer-count sweep where every
#    count is its own work unit -- independently executed, independently
#    cached, merged in decomposition order.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlipSweepConfig:
    """A grid of hammer counts to shard across work units."""

    hammer_counts: tuple = (40_000, 80_000, 120_000)
    victim_row: int = GEOMETRY.rows_per_bank // 2


def decompose_flip_sweep(config):
    """One unit per hammer count.  Per the WorkUnit cache contract, params
    carry every config field the unit's payload depends on."""
    return [
        WorkUnit(
            study="demo-flip-sweep",
            unit_id=f"hc{hammer_count}",
            params={"hammer_count": hammer_count, "victim_row": config.victim_row},
        )
        for hammer_count in config.hammer_counts
    ]


def merge_flip_sweep(config, payloads):
    """Deterministic merge: payloads arrive in decomposition order."""
    return dict(payloads)


@register_study(
    "demo-flip-sweep",
    config=FlipSweepConfig,
    decompose=decompose_flip_sweep,
    merge=merge_flip_sweep,
)
def run_flip_sweep_unit(chip, config, unit):
    """Execute one shard: hammer the victim at the unit's count."""
    params = unit.param_dict
    result = DoubleSidedHammer(chip).hammer_victim(
        bank=0, victim_row=params["victim_row"], hammer_count=params["hammer_count"]
    )
    return (params["hammer_count"], result.num_bit_flips)


def main() -> None:
    print("registered studies:")
    for name in list_studies():
        print(f"  {name}")

    # ------------------------------------------------------------------
    # 2. Build a session over a small two-configuration population.
    # ------------------------------------------------------------------
    population = make_population(
        chips_per_config=4,
        seed=42,
        geometry=GEOMETRY,
        configurations=[("DDR4-new", "A"), ("LPDDR4-1y", "A")],
    )
    session = ExperimentSession(population)
    outcome = session.run("demo-victim-flips")
    print(f"\nserial run over {len(session.chips)} chips:")
    for payload in outcome.payloads():
        print(f"  {payload['chip']}: {payload['flips']} flips")

    # ------------------------------------------------------------------
    # 3. Same study through a process pool: bit-identical results.
    # ------------------------------------------------------------------
    parallel = ExperimentSession(population, executor=ParallelExecutor())
    parallel_outcome = parallel.run("demo-victim-flips")
    assert parallel_outcome.payloads() == outcome.payloads()
    print("\nparallel run matches the serial run bit for bit")

    # ------------------------------------------------------------------
    # 4. Cached rerun: a stored result replays without touching the chip.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        store = ResultStore(store_dir)
        cached_session = ExperimentSession(population, store=store)
        first = cached_session.run("demo-victim-flips")
        for chip in cached_session.chips:
            chip.stats.reset()
        second = cached_session.run("demo-victim-flips")
        activations = sum(chip.stats.activations for chip in cached_session.chips)
        print(
            f"\ncached rerun: {second.cache_hits}/{len(second.results)} results from the store, "
            f"{activations} chip activations performed"
        )
        assert second.cache_hits == len(session.chips)
        assert activations == 0
        assert second.payloads() == first.payloads()

    # ------------------------------------------------------------------
    # 5. Sharded study: per-unit caching and crash resume.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-shard-store-") as store_root:
        chip = session.chips[0]
        sweep_session = ExperimentSession(chip, store=ResultStore(store_root))
        sweep = sweep_session.run("demo-flip-sweep")
        print(
            f"\nsharded sweep: {sweep.executed} work units executed "
            f"({sweep.units_total} total) -> {sweep.single()}"
        )

        # Simulate a crash that lost one unit's cache entry, then resume: only
        # the missing unit re-executes and the merged payload is identical.
        shard_store = ResultStore(store_root)
        unit_files = shard_store.entry_paths("demo-flip-sweep")
        unit_files[0].unlink()
        resumed = ExperimentSession(chip, store=ResultStore(store_root)).run(
            "demo-flip-sweep"
        )
        print(
            f"resume after losing 1 unit entry: {resumed.executed} executed, "
            f"{resumed.cache_hits} replayed from cache"
        )
        assert resumed.executed == 1
        assert resumed.cache_hits == sweep.units_total - 1
        assert resumed.single() == sweep.single()


if __name__ == "__main__":
    main()
