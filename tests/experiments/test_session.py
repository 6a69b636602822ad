"""Tests for ExperimentSession, executors and the result store.

Covers the acceptance criteria of the session API: parallel execution is
bit-identical to serial for migrated studies, and a cached study replays
with zero chip activations (verified through ChipStats).
"""

from __future__ import annotations

import copy

import pytest

from repro.core.ecc_analysis import EccWordStudyConfig
from repro.core.first_flip import HCFirstStudyConfig
from repro.core.probability import ProbabilityStudyConfig
from repro.core.spatial import SpatialStudyConfig
from repro.core.sweeps import SweepStudyConfig
from repro.core.word_density import WordDensityStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.dram.population import flatten_population, make_chip, make_population
from repro.experiments import (
    ExperimentSession,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    get_study,
    register_study,
    unregister_study,
)

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)
CONFIGURATIONS = [("DDR4-new", "A"), ("LPDDR4-1y", "A")]
SWEEP = SweepStudyConfig(hammer_counts=(40_000, 150_000))


def fresh_population():
    return make_population(
        chips_per_config=2, seed=9, geometry=GEOMETRY, configurations=CONFIGURATIONS
    )


class TestPopulationHandling:
    def test_accepts_population_dict(self):
        session = ExperimentSession(fresh_population())
        assert len(session.chips) == 4

    def test_accepts_single_chip_and_list(self):
        chip = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY)
        assert len(ExperimentSession(chip).chips) == 1
        assert len(ExperimentSession([chip, chip]).chips) == 1  # dedup by identity

    def test_from_table1_builds_population(self):
        session = ExperimentSession.from_table1(
            chips_per_config=1, seed=3, geometry=GEOMETRY, configurations=CONFIGURATIONS
        )
        assert len(session.chips) == 2
        assert session.configurations() == [("DDR4-new", "A"), ("LPDDR4-1y", "A")]

    def test_chips_for_filters(self):
        session = ExperimentSession(fresh_population())
        lp = session.chips_for("LPDDR4-1y", "A")
        assert len(lp) == 2
        assert all(chip.profile.type_node.value == "LPDDR4-1y" for chip in lp)

    def test_flatten_population_preserves_order(self):
        population = fresh_population()
        chips = flatten_population(population)
        assert [c.chip_id for c in chips[:2]] == [c.chip_id for c in population[next(iter(population))]]

    def test_empty_population_rejected_for_chip_study(self):
        with pytest.raises(ValueError):
            ExperimentSession().run("fig5-hc-sweep", SWEEP)


class TestSessionRun:
    def test_results_in_chip_order_with_identity(self):
        session = ExperimentSession(fresh_population(), seed=9)
        outcome = session.run("fig5-hc-sweep", SWEEP)
        assert [r.chip_id for r in outcome.results] == [c.chip_id for c in session.chips]
        assert all(r.study == "fig5-hc-sweep" for r in outcome.results)
        assert outcome.executed == len(session.chips)
        assert outcome.cache_hits == 0

    def test_by_configuration_groups_payloads(self):
        session = ExperimentSession(fresh_population(), seed=9)
        grouped = session.run("fig5-hc-sweep", SWEEP).by_configuration()
        assert set(grouped) == {("DDR4-new", "A"), ("LPDDR4-1y", "A")}
        assert all(len(payloads) == 2 for payloads in grouped.values())

    def test_stats_merged_back_into_chips(self):
        session = ExperimentSession(fresh_population(), seed=9)
        session.run("fig5-hc-sweep", SWEEP)
        assert all(chip.stats.activations > 0 for chip in session.chips)

    def test_hermetic_execution_leaves_chip_data_untouched(self):
        session = ExperimentSession(fresh_population(), seed=9)
        chip = session.chips[0]
        before = chip.read_row(0, GEOMETRY.rows_per_bank // 2).copy()
        session.run("fig5-hc-sweep", SWEEP)
        after = chip.read_row(0, GEOMETRY.rows_per_bank // 2)
        assert (before == after).all()

    def test_run_subset_of_chips(self):
        session = ExperimentSession(fresh_population(), seed=9)
        subset = session.chips_for("DDR4-new")
        outcome = session.run("fig5-hc-sweep", SWEEP, chips=subset)
        assert len(outcome.results) == 2

    def test_single_requires_one_result(self):
        session = ExperimentSession(fresh_population(), seed=9)
        with pytest.raises(ValueError):
            session.run("fig5-hc-sweep", SWEEP).single()

    def test_run_all_runs_studies_in_order(self):
        chip = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY, hcfirst_target=20_000)
        session = ExperimentSession(chip, seed=1)
        outcomes = session.run_all(
            ["fig5-hc-sweep", "fig8-hcfirst"],
            configs={"fig5-hc-sweep": SWEEP, "fig8-hcfirst": HCFirstStudyConfig()},
        )
        assert set(outcomes) == {"fig5-hc-sweep", "fig8-hcfirst"}
        assert outcomes["fig8-hcfirst"].single().hcfirst is not None


class TestExecutorDeterminism:
    """Parallel execution must be bit-identical to serial for every study."""

    @pytest.mark.parametrize(
        "study,config",
        [
            ("fig5-hc-sweep", SWEEP),
            ("fig8-hcfirst", HCFirstStudyConfig(max_candidates=4)),
        ],
    )
    def test_parallel_matches_serial(self, study, config):
        serial = ExperimentSession(fresh_population(), executor=SerialExecutor(), seed=9)
        parallel = ExperimentSession(
            fresh_population(), executor=ParallelExecutor(max_workers=2), seed=9
        )
        serial_outcome = serial.run(study, config)
        parallel_outcome = parallel.run(study, config)
        # StudyResult equality covers study name, config digest, chip
        # identity, seed and the full domain payload.
        assert serial_outcome.results == parallel_outcome.results

    def test_parallel_merges_stats_like_serial(self):
        serial = ExperimentSession(fresh_population(), executor=SerialExecutor(), seed=9)
        parallel = ExperimentSession(
            fresh_population(), executor=ParallelExecutor(max_workers=2), seed=9
        )
        serial.run("fig5-hc-sweep", SWEEP)
        parallel.run("fig5-hc-sweep", SWEEP)
        assert [c.stats.activations for c in serial.chips] == [
            c.stats.activations for c in parallel.chips
        ]

    def test_parallel_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunksize=0)


class TestDirectCall:
    """Each undecomposed chip study's registered function, called directly
    on a copy of a pristine chip, returns the payload a session run does."""

    @pytest.mark.parametrize(
        "study,config",
        [
            ("fig5-hc-sweep", SWEEP),
            ("fig6-spatial", SpatialStudyConfig(target_rate=5e-3)),
            ("fig7-word-density", WordDensityStudyConfig(hammer_count=100_000)),
            ("fig8-hcfirst", HCFirstStudyConfig(max_candidates=4)),
            ("fig9-ecc-words", EccWordStudyConfig(hammer_limit=250_000, max_candidates=4)),
            (
                "table5-flip-probability",
                ProbabilityStudyConfig(hammer_counts=(60_000, 150_000), iterations=2),
            ),
        ],
    )
    def test_direct_call_equals_session_payload(self, study, config):
        chip = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY, hcfirst_target=20_000)
        direct = get_study(study).fn(copy.deepcopy(chip), config)
        assert direct == ExperimentSession(chip, seed=1).run(study, config).single()


class TestResultStore:
    def test_cached_rerun_zero_activations(self, tmp_path):
        """Acceptance criterion: a second run of a cached study performs
        zero chip activations, verified via ChipStats."""
        store = ResultStore(tmp_path / "store")
        first_session = ExperimentSession(fresh_population(), store=store, seed=9)
        first = first_session.run("fig5-hc-sweep", SWEEP)
        assert first.cache_hits == 0
        assert all(chip.stats.activations > 0 for chip in first_session.chips)

        # A brand-new session over an identically-constructed population and
        # a fresh store instance reading the same directory replays fully.
        second_session = ExperimentSession(
            fresh_population(), store=ResultStore(tmp_path / "store"), seed=9
        )
        second = second_session.run("fig5-hc-sweep", SWEEP)
        assert second.cache_hits == len(second_session.chips)
        assert second.executed == 0
        assert all(chip.stats.activations == 0 for chip in second_session.chips)
        assert all(result.from_cache for result in second.results)
        assert second.payloads() == first.payloads()

    def test_memory_only_store_caches_within_process(self):
        store = ResultStore()
        session = ExperimentSession(fresh_population(), store=store, seed=9)
        session.run("fig5-hc-sweep", SWEEP)
        again = session.run("fig5-hc-sweep", SWEEP)
        assert again.cache_hits == len(session.chips)
        assert store.stats.hits == len(session.chips)

    def test_config_change_misses_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        session = ExperimentSession(fresh_population(), store=store, seed=9)
        session.run("fig5-hc-sweep", SWEEP)
        other = session.run(
            "fig5-hc-sweep", SweepStudyConfig(hammer_counts=(50_000, 150_000))
        )
        assert other.cache_hits == 0

    def test_different_chip_misses_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        chip_a = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY)
        chip_b = make_chip("DDR4-new", "A", seed=2, geometry=GEOMETRY)
        ExperimentSession(chip_a, store=store).run("fig5-hc-sweep", SWEEP)
        outcome = ExperimentSession(chip_b, store=store).run("fig5-hc-sweep", SWEEP)
        assert outcome.cache_hits == 0

    def test_mutated_chip_bypasses_cache(self, tmp_path):
        """A chip hammered outside the session is not served from (or
        written to) the pristine-keyed cache -- its state differs from an
        identically-constructed fresh chip."""
        store = ResultStore(tmp_path / "store")

        dirty = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY)
        dirty.write_row(0, GEOMETRY.rows_per_bank // 2, 0xFF)  # direct mutation
        assert not dirty.is_pristine
        dirty_out = ExperimentSession(dirty, store=store).run("fig5-hc-sweep", SWEEP)
        assert store.stats.puts == 0  # nothing cached under the pristine key

        fresh = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY)
        assert fresh.is_pristine
        fresh_out = ExperimentSession(fresh, store=store).run("fig5-hc-sweep", SWEEP)
        assert fresh_out.cache_hits == 0  # computed, not replayed from dirty
        assert store.stats.puts == 1

        # Session runs themselves are hermetic, so the fresh chip stays
        # pristine and a rerun replays from the cache.
        rerun = ExperimentSession(fresh, store=store).run("fig5-hc-sweep", SWEEP)
        assert rerun.cache_hits == 1
        assert rerun.payloads() == fresh_out.payloads()

    def test_clear_empties_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        session = ExperimentSession(fresh_population(), store=store, seed=9)
        session.run("fig5-hc-sweep", SWEEP)
        assert len(store) > 0
        store.clear()
        assert len(store) == 0
        rerun = session.run("fig5-hc-sweep", SWEEP)
        assert rerun.cache_hits == 0


class TestCustomStudy:
    def test_register_run_unregister_roundtrip(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ProbeConfig:
            hammer_count: int = 60_000

        @register_study("test-session-probe", config=ProbeConfig)
        def run_probe(chip, config):
            from repro.core.hammer import DoubleSidedHammer

            hammer = DoubleSidedHammer(chip)
            victim = chip.geometry.rows_per_bank // 2
            return hammer.hammer_victim(0, victim, config.hammer_count).num_bit_flips

        try:
            chip = make_chip(
                "LPDDR4-1y", "A", seed=4, geometry=GEOMETRY, hcfirst_target=10_000
            )
            session = ExperimentSession(chip, seed=4)
            flips = session.run("test-session-probe").single()
            assert flips > 0
        finally:
            unregister_study("test-session-probe")
