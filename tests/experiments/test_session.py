"""Tests for ExperimentSession, executors and the result store.

Covers the acceptance criteria of the session API: parallel execution is
bit-identical to serial for migrated studies, and a cached study replays
with zero chip activations (verified through ChipStats).
"""

from __future__ import annotations

import copy
import dataclasses

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
        assert [
            (chip.profile.type_node.value, chip.profile.manufacturer) for chip in session.chips
        ] == [("DDR4-new", "A"), ("LPDDR4-1y", "A")]

    def test_flatten_population_preserves_order(self):
        population = fresh_population()
        chips = flatten_population(population)
        assert [c.chip_id for c in chips[:2]] == [c.chip_id for c in population[next(iter(population))]]

    def test_empty_population_rejected_for_chip_study(self):
        with pytest.raises(ValueError):
            ExperimentSession().run("fig5-hc-sweep", SWEEP)


class TestSessionRun:
    def test_results_in_chip_order_with_identity(self):
        session = ExperimentSession(fresh_population())
        outcome = session.run("fig5-hc-sweep", SWEEP)
        assert [r.chip_id for r in outcome.results] == [c.chip_id for c in session.chips]
        assert all(r.study == "fig5-hc-sweep" for r in outcome.results)
        assert outcome.executed == len(session.chips)
        assert outcome.cache_hits == 0

    def test_by_configuration_groups_payloads(self):
        session = ExperimentSession(fresh_population())
        grouped = session.run("fig5-hc-sweep", SWEEP).by_configuration()
        assert set(grouped) == {("DDR4-new", "A"), ("LPDDR4-1y", "A")}
        assert all(len(payloads) == 2 for payloads in grouped.values())

    def test_stats_merged_back_into_chips(self):
        session = ExperimentSession(fresh_population())
        session.run("fig5-hc-sweep", SWEEP)
        assert all(chip.stats.activations > 0 for chip in session.chips)

    def test_hermetic_execution_leaves_chip_data_untouched(self):
        session = ExperimentSession(fresh_population())
        chip = session.chips[0]
        before = chip.read_rows(0, [GEOMETRY.rows_per_bank // 2])
        session.run("fig5-hc-sweep", SWEEP)
        after = chip.read_rows(0, [GEOMETRY.rows_per_bank // 2])
        assert (before == after).all()

    def test_run_subset_of_chips(self):
        session = ExperimentSession(fresh_population())
        subset = [chip for chip in session.chips if chip.profile.type_node.value == "DDR4-new"]
        outcome = session.run("fig5-hc-sweep", SWEEP, chips=subset)
        assert len(outcome.results) == 2

    def test_studies_run_in_turn_match_separate_sessions(self):
        # A run leaves the session's chips as it found them, so studies run
        # one after another on one session give each the payloads of a
        # session of its own.
        def chip():
            return make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY, hcfirst_target=20_000)

        session = ExperimentSession(chip())
        sweep = session.run("fig5-hc-sweep", SWEEP)
        hcfirst = session.run("fig8-hcfirst", HCFirstStudyConfig())
        assert hcfirst.single().hcfirst is not None
        alone = ExperimentSession(chip()).run("fig5-hc-sweep", SWEEP)
        assert sweep.payloads() == alone.payloads()
        alone = ExperimentSession(chip()).run("fig8-hcfirst", HCFirstStudyConfig())
        assert hcfirst.payloads() == alone.payloads()

    def test_single_requires_one_result(self):
        session = ExperimentSession(fresh_population())
        with pytest.raises(ValueError):
            session.run("fig5-hc-sweep", SWEEP).single()


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
        serial = ExperimentSession(fresh_population(), executor=SerialExecutor())
        parallel = ExperimentSession(fresh_population(), executor=ParallelExecutor(max_workers=2))
        serial_outcome = serial.run(study, config)
        parallel_outcome = parallel.run(study, config)
        # StudyResult equality covers study name, config digest, chip
        # identity and the full domain payload.
        assert serial_outcome.results == parallel_outcome.results

    def test_parallel_merges_stats_like_serial(self):
        serial = ExperimentSession(fresh_population(), executor=SerialExecutor())
        parallel = ExperimentSession(fresh_population(), executor=ParallelExecutor(max_workers=2))
        serial.run("fig5-hc-sweep", SWEEP)
        parallel.run("fig5-hc-sweep", SWEEP)
        assert [c.stats.activations for c in serial.chips] == [
            c.stats.activations for c in parallel.chips
        ]

    def test_parallel_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)


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
        assert direct == ExperimentSession(chip).run(study, config).single()


class TestResultStore:
    def test_cached_rerun_zero_activations(self, tmp_path):
        """Acceptance criterion: a second run of a cached study performs
        zero chip activations, verified via ChipStats."""
        store = ResultStore(tmp_path / "store")
        first_session = ExperimentSession(fresh_population(), store=store)
        first = first_session.run("fig5-hc-sweep", SWEEP)
        assert first.cache_hits == 0
        assert all(chip.stats.activations > 0 for chip in first_session.chips)

        # A brand-new session over an identically-constructed population and
        # a fresh store instance reading the same directory replays fully.
        second_session = ExperimentSession(
            fresh_population(), store=ResultStore(tmp_path / "store")
        )
        second = second_session.run("fig5-hc-sweep", SWEEP)
        assert second.cache_hits == len(second_session.chips)
        assert second.executed == 0
        assert all(chip.stats.activations == 0 for chip in second_session.chips)
        assert all(result.from_cache for result in second.results)
        assert second.payloads() == first.payloads()

    def test_store_caches_within_process(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        session = ExperimentSession(fresh_population(), store=store)
        session.run("fig5-hc-sweep", SWEEP)
        again = session.run("fig5-hc-sweep", SWEEP)
        assert again.cache_hits == len(session.chips)
        assert store.stats.hits == len(session.chips)

    def test_editing_a_run_payload_leaves_the_store_entry_unchanged(self, tmp_path):
        """The store keeps the bytes it pickled at put, not the object the
        caller got back, so the same store replays the clean entry."""
        store = ResultStore(tmp_path / "store")
        chip = make_chip("DDR4-new", "A", seed=3, geometry=GEOMETRY)
        config = SweepStudyConfig(hammer_counts=(50_000, 150_000))
        session = ExperimentSession(chip, store=store)
        points = session.run("fig5-hc-sweep", config).single().points
        clean = list(points)
        assert len(clean) == 2
        points.clear()
        again = session.run("fig5-hc-sweep", config)
        assert again.cache_hits == 1
        assert again.single().points == clean

    def test_config_change_misses_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        session = ExperimentSession(fresh_population(), store=store)
        session.run("fig5-hc-sweep", SWEEP)
        other = session.run(
            "fig5-hc-sweep", SweepStudyConfig(hammer_counts=(50_000, 150_000))
        )
        assert other.cache_hits == 0

    @pytest.mark.parametrize(
        "study",
        [
            "fig5-hc-sweep",
            "fig6-spatial",
            "fig7-word-density",
            "fig8-hcfirst",
            "fig9-ecc-words",
            "table5-flip-probability",
        ],
    )
    def test_every_config_field_is_in_an_undecomposed_studys_key(self, study):
        """An undecomposed study's implicit unit carries its config, so
        editing any one field moves the unit's digest, and with it the
        store key."""
        spec = get_study(study)
        config = spec.default_config()
        (unit,) = spec.units_for(config)
        fields = dataclasses.fields(config)
        assert fields
        for field in fields:
            edited = copy.copy(config)
            object.__setattr__(edited, field.name, ("edited", getattr(config, field.name)))
            (edited_unit,) = spec.units_for(edited)
            assert edited_unit.digest != unit.digest, field.name

    def test_editing_any_config_field_re_executes_an_undecomposed_study(self, tmp_path):
        chip = make_chip(
            "DDR4-new", "A", seed=1, geometry=ChipGeometry(banks=2, rows_per_bank=32, row_bytes=16)
        )
        default = HCFirstStudyConfig()
        edits = {
            "hammer_limit": 100_000,
            "data_pattern": "RowStripe0",
            "bank": 1,
            "victims": (10, 20),
            "relative_precision": 0.05,
            "max_candidates": 4,
        }
        assert set(edits) == {field.name for field in dataclasses.fields(default)}
        store = ResultStore(tmp_path / "store")
        assert ExperimentSession(chip, store=store).run("fig8-hcfirst", default).executed == 1
        for name, value in edits.items():
            config = dataclasses.replace(default, **{name: value})
            outcome = ExperimentSession(chip, store=store).run("fig8-hcfirst", config)
            assert (outcome.executed, outcome.cache_hits) == (1, 0), name
        replay = ExperimentSession(chip, store=store).run("fig8-hcfirst", default)
        assert (replay.executed, replay.cache_hits) == (0, 1)

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
        dirty.write_rows(0, [GEOMETRY.rows_per_bank // 2], 0xFF)  # direct mutation
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
            session = ExperimentSession(chip)
            flips = session.run("test-session-probe").single()
            assert flips > 0
        finally:
            unregister_study("test-session-probe")
