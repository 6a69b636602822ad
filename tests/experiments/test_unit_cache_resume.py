"""Crash-resume behaviour of the unit-level result cache.

A decomposed study caches every work unit individually, so a killed run
resumes from its completed units: deleting k unit entries from a complete
cache (simulating a crash that lost part of the work) must re-execute
exactly k units and still merge to the bit-identical payload.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.core.characterization import CharacterizationConfig
from repro.core.first_flip import HCFirstStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.dram.population import flatten_population, make_chip, make_population
from repro.experiments import (
    ExperimentSession,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    WorkUnit,
    get_study,
    register_study,
    unregister_study,
)
from repro.experiments.executors import execute_task

TINY_FIG10 = MitigationStudyConfig(
    hcfirst_values=(2_000, 256),
    mechanisms=("PARA", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)


def fig10_session(tmp_path):
    """A fresh session reading/writing the same on-disk store directory.

    Each call builds a new ResultStore instance so nothing is served from
    process memory -- exactly the state a restarted process would see.
    """
    return ExperimentSession(store=ResultStore(tmp_path / "store"))


def points_of(outcome):
    return outcome.single().points


class TestFig10Resume:
    def test_uninterrupted_replay_is_all_unit_hits(self, tmp_path):
        first = fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)
        assert first.executed == first.units_total
        assert first.cache_hits == 0

        replay = fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)
        assert replay.executed == 0
        assert replay.cache_hits == first.units_total
        assert all(result.from_cache for result in replay.results)
        assert points_of(replay) == points_of(first)

    @pytest.mark.parametrize("killed", [1, 3])
    def test_resume_reexecutes_exactly_the_missing_units(self, tmp_path, killed):
        """Acceptance criterion: deleting k unit cache entries re-executes
        exactly k units, and the merged payload is bit-identical to the
        uninterrupted run."""
        store = ResultStore(tmp_path / "store")
        first = ExperimentSession(store=store).run(
            "fig10-mitigations", TINY_FIG10
        )
        unit_files = store.entry_paths("fig10-mitigations")
        assert len(unit_files) == first.units_total

        for path in unit_files[::2][:killed]:  # spread the damage
            path.unlink()

        resumed = fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)
        assert resumed.executed == killed
        assert resumed.cache_hits == first.units_total - killed
        assert not resumed.results[0].from_cache  # partially recomputed
        assert points_of(resumed) == points_of(first)

        # The repaired cache replays fully afterwards.
        repaired = fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)
        assert repaired.executed == 0
        assert points_of(repaired) == points_of(first)

    def test_editing_one_mechanism_invalidates_only_its_units(self, tmp_path):
        """Unit entries are keyed by unit digest (which embeds the
        unit-relevant config scope), not by the full config digest, so
        adding a mechanism to the sweep re-executes only its cells."""
        fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)

        import dataclasses

        widened = dataclasses.replace(
            TINY_FIG10, mechanisms=("PARA", "ProHIT", "Ideal")
        )
        out = fig10_session(tmp_path).run("fig10-mitigations", widened)
        # ProHIT only applies at HC_first=2000, so exactly one new cell.
        assert out.executed == 1
        assert out.cache_hits == out.units_total - 1

    def test_crash_mid_run_checkpoints_completed_units(self, tmp_path):
        """The session consumes executor outcomes as a stream and writes
        each finished unit to the store immediately, so a process dying
        mid-sweep leaves every completed unit on disk and the rerun picks
        up exactly where the crash happened."""

        class CrashAfter(SerialExecutor):
            def __init__(self, completed_before_crash):
                self.completed_before_crash = completed_before_crash

            def iter_outcomes(self, tasks):
                for index, task in enumerate(tasks):
                    if index >= self.completed_before_crash:
                        raise RuntimeError("simulated crash")
                    yield index, execute_task(task)

        survivors = 4
        store = ResultStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="simulated crash"):
            ExperimentSession(store=store, executor=CrashAfter(survivors)).run(
                "fig10-mitigations", TINY_FIG10
            )
        on_disk = store.entry_paths("fig10-mitigations")
        assert len(on_disk) == survivors

        resumed = fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)
        assert resumed.cache_hits == survivors
        assert resumed.executed == resumed.units_total - survivors

        # The recovered payload equals a never-crashed run's.
        clean = ExperimentSession().run("fig10-mitigations", TINY_FIG10)
        assert points_of(resumed) == points_of(clean)

    def test_out_of_order_outcomes_are_checkpointed_on_arrival(self, tmp_path):
        """Units that complete past a still-running one are stored as they
        arrive, so a run that fails before the first unit completes keeps
        every other unit on disk."""

        class FirstUnitFails(SerialExecutor):
            def iter_outcomes(self, tasks):
                for index in reversed(range(len(tasks))):
                    if index == 0:
                        raise RuntimeError("first unit failed")
                    yield index, execute_task(tasks[index])

        store = ResultStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="first unit failed"):
            ExperimentSession(store=store, executor=FirstUnitFails()).run(
                "fig10-mitigations", TINY_FIG10
            )
        units = get_study("fig10-mitigations").units_for(TINY_FIG10)
        stored = [store.get(store.key_for("fig10-mitigations", None, u)) for u in units]
        assert [entry is not None for entry in stored] == [False] + [True] * (len(units) - 1)

        resumed = fig10_session(tmp_path).run("fig10-mitigations", TINY_FIG10)
        assert (resumed.cache_hits, resumed.executed) == (len(units) - 1, 1)
        clean = ExperimentSession().run("fig10-mitigations", TINY_FIG10)
        assert points_of(resumed) == points_of(clean)

    def test_removed_unit_entry_reexecutes_only_that_unit(self, tmp_path):
        root = tmp_path / "store"
        session = ExperimentSession(store=ResultStore(root))
        session.run("fig10-mitigations", TINY_FIG10)

        spec_units = session.run("fig10-mitigations", TINY_FIG10)
        assert spec_units.executed == 0  # fully cached (memory + disk)

        spec = get_study("fig10-mitigations")
        unit = spec.units_for(TINY_FIG10)[0]
        store = ResultStore(root)
        key = store.key_for(spec.name, None, unit)
        entry = root / key.study / key.filename
        assert entry in store.entry_paths(spec.name)
        entry.unlink()
        again = ExperimentSession(store=store).run("fig10-mitigations", TINY_FIG10)
        assert again.executed == 1


FAILING_FIRST = "test-failing-first-unit"


@dataclasses.dataclass(frozen=True)
class FailingFirstConfig:
    """Unit 0 sleeps ``first_unit_s`` and raises; every other unit sleeps
    ``unit_s``.  Each unit first creates the file ``<markers>/<index>``."""

    units: int
    first_unit_s: float
    unit_s: float
    markers: str


def _failing_first_units(config):
    return [
        WorkUnit(
            study=FAILING_FIRST,
            unit_id=f"unit-{index}",
            params={"index": index, **dataclasses.asdict(config)},
        )
        for index in range(config.units)
    ]


def _run_failing_first_unit(_chip, _config, unit):
    params = unit.param_dict
    index = params["index"]
    open(os.path.join(params["markers"], str(index)), "w").close()
    time.sleep(params["first_unit_s"] if index == 0 else params["unit_s"])
    if index == 0:
        raise RuntimeError("unit 0 failed")
    return index


@pytest.fixture
def failing_first_study():
    """Registered before the pool's workers fork, so they inherit it."""
    register_study(
        FAILING_FIRST,
        config=FailingFirstConfig,
        requires_chip=False,
        decompose=_failing_first_units,
        merge=lambda _config, payloads: list(payloads),
    )(_run_failing_first_unit)
    yield
    unregister_study(FAILING_FIRST)


@pytest.mark.usefixtures("failing_first_study")
class TestParallelExecutorCheckpoints:
    def test_units_finished_past_a_slow_failing_unit_are_stored(self, tmp_path):
        """Unit 0 holds one worker for a second and then raises, while the
        other worker finishes units 1-3: all three reach the store before
        the run fails, because outcomes arrive in completion order."""
        config = FailingFirstConfig(units=4, first_unit_s=1.0, unit_s=0.0, markers=str(tmp_path))
        store = ResultStore(tmp_path / "store")
        session = ExperimentSession(store=store, executor=ParallelExecutor(max_workers=2))
        with pytest.raises(RuntimeError, match="unit 0 failed"):
            session.run(FAILING_FIRST, config)
        units = get_study(FAILING_FIRST).units_for(config)
        fresh = ResultStore(tmp_path / "store")
        stored = [fresh.get(fresh.key_for(FAILING_FIRST, None, u)) for u in units]
        assert [entry is not None for entry in stored] == [False, True, True, True]
        assert [entry.payload for entry in stored[1:]] == [1, 2, 3]

    def test_a_failed_unit_cancels_the_units_not_yet_started(self, tmp_path):
        """Unit 0 fails at once; of the eleven 0.2 s units behind it, only
        those the pool had already handed to a worker still start."""
        config = FailingFirstConfig(units=12, first_unit_s=0.0, unit_s=0.2, markers=str(tmp_path))
        session = ExperimentSession(executor=ParallelExecutor(max_workers=2))
        with pytest.raises(RuntimeError, match="unit 0 failed"):
            session.run(FAILING_FIRST, config)
        started = [name for name in os.listdir(tmp_path) if name.isdigit()]
        assert "0" in started
        assert len(started) < config.units


class TestChipStudyResume:
    def test_alg1_partial_cache_resume(self, tmp_path):
        config = CharacterizationConfig(hammer_counts=(25_000, 50_000, 100_000))

        def session():
            chip = make_chip(
                "LPDDR4-1y", "A", seed=4, geometry=GEOMETRY, hcfirst_target=10_000
            )
            return ExperimentSession(chip, store=ResultStore(tmp_path / "store"))

        first = session().run("alg1-characterization", config)
        assert first.executed == 3

        store = ResultStore(tmp_path / "store")
        unit_files = store.entry_paths("alg1-characterization")
        assert len(unit_files) == 3
        unit_files[1].unlink()

        resumed_session = session()
        resumed = resumed_session.run("alg1-characterization", config)
        assert resumed.executed == 1
        assert resumed.cache_hits == 2
        assert resumed.single().records == first.single().records

        # A fully cached decomposed rerun touches the chip zero times.
        replay_session = session()
        replay = replay_session.run("alg1-characterization", config)
        assert replay.executed == 0
        assert all(chip.stats.activations == 0 for chip in replay_session.chips)


class DropsLastOutcome(SerialExecutor):
    """Runs every task but the last, so it yields one outcome too few."""

    def iter_outcomes(self, tasks):
        return super().iter_outcomes(tasks[:-1])


def two_ddr4_chips():
    return [make_chip("DDR4-new", "A", seed=seed, geometry=GEOMETRY) for seed in (1, 2)]


class TestShortExecutor:
    """A session fails a run whose executor yields fewer outcomes than tasks,
    instead of merging a missing payload; the units it did yield stay
    checkpointed, so a rerun executes only the missing one."""

    @pytest.mark.parametrize(
        "study,config,chips",
        [
            ("fig8-hcfirst", HCFirstStudyConfig(), two_ddr4_chips),
            ("fig10-mitigations", TINY_FIG10, lambda: None),
        ],
        ids=["fig8", "fig10"],
    )
    def test_missing_outcome_raises_and_keeps_yielded_units(self, tmp_path, study, config, chips):
        with pytest.raises(RuntimeError, match="DropsLastOutcome yielded"):
            ExperimentSession(
                chips(), executor=DropsLastOutcome(), store=ResultStore(tmp_path / "store")
            ).run(study, config)

        on_disk = ResultStore(tmp_path / "store")
        keys = [
            on_disk.key_for(study, chip, unit)
            for chip in chips() or [None]
            for unit in get_study(study).units_for(config)
        ]
        entries = set(on_disk.entry_paths(study))
        assert [on_disk.root / key.study / key.filename in entries for key in keys] == (
            [True] * (len(keys) - 1) + [False]
        )

        rerun = ExperimentSession(chips(), store=ResultStore(tmp_path / "store")).run(study, config)
        assert (rerun.cache_hits, rerun.executed) == (len(keys) - 1, 1)
        assert rerun.results == ExperimentSession(chips()).run(study, config).results

    def test_repeated_outcome_cannot_stand_in_for_a_missing_one(self):
        class RepeatsFirstOutcome(SerialExecutor):
            """Yields the first task's outcome again in place of the last's."""

            def iter_outcomes(self, tasks):
                outcomes = list(super().iter_outcomes(tasks[:-1]))
                return outcomes + outcomes[:1]

        with pytest.raises(RuntimeError, match="yielded task index 0, which is out of range"):
            ExperimentSession(two_ddr4_chips(), executor=RepeatsFirstOutcome()).run(
                "fig8-hcfirst", HCFirstStudyConfig()
            )


class ReversedExecutor(SerialExecutor):
    """Runs every task but files the outcomes in reverse task order, so each
    outcome is yielded under another task's index."""

    def iter_outcomes(self, tasks):
        outcomes = [outcome for _, outcome in super().iter_outcomes(tasks)]
        return enumerate(reversed(outcomes))


def ddr4_new_a_1_and_2():
    """Two chips told apart by chip id: DDR4-new-A-1 and DDR4-new-A-2."""
    population = make_population(
        chips_per_config=3, seed=1, geometry=GEOMETRY, configurations=[("DDR4-new", "A")]
    )
    return flatten_population(population)[1:]


class TestMisorderedExecutor:
    """A session checks each outcome against its task before merging or
    storing it, so an executor that yields outcomes under the wrong task
    index fails the run instead of filing each chip's payload under the
    other chip."""

    def test_reversed_outcomes_raise_and_store_nothing(self, tmp_path):
        chips = ddr4_new_a_1_and_2()
        assert [chip.chip_id for chip in chips] == ["DDR4-new-A-1", "DDR4-new-A-2"]
        config = HCFirstStudyConfig()
        with pytest.raises(RuntimeError, match="ReversedExecutor yielded the outcome") as excinfo:
            ExperimentSession(
                chips, executor=ReversedExecutor(), store=ResultStore(tmp_path / "store")
            ).run("fig8-hcfirst", config)
        assert "DDR4-new-A-2" in str(excinfo.value) and "DDR4-new-A-1" in str(excinfo.value)
        assert ResultStore(tmp_path / "store").entry_paths("fig8-hcfirst") == []

        rerun = ExperimentSession(
            ddr4_new_a_1_and_2(), store=ResultStore(tmp_path / "store")
        ).run("fig8-hcfirst", config)
        clean = ExperimentSession(ddr4_new_a_1_and_2()).run("fig8-hcfirst", config)
        assert clean.results[0].payload != clean.results[1].payload
        assert rerun.executed == 2
        assert rerun.results == clean.results
        assert [r.chip_id for r in rerun.results] == ["DDR4-new-A-1", "DDR4-new-A-2"]

    def test_another_configs_outcome_raises_and_stores_nothing(self, tmp_path):
        """An executor that answers an undecomposed study's task with the
        outcome of another config (a lower ``hammer_limit``) is refused: the
        study's implicit unit carries its config, so the outcome's unit
        digest is not the task's."""

        class OtherConfigExecutor(SerialExecutor):
            def iter_outcomes(self, tasks):
                other = HCFirstStudyConfig(hammer_limit=20_000)
                (unit,) = get_study("fig8-hcfirst").units_for(other)
                for index, task in enumerate(tasks):
                    yield index, execute_task(dataclasses.replace(task, config=other, unit=unit))

        chip = make_chip("DDR4-new", "A", seed=1, geometry=GEOMETRY)
        with pytest.raises(RuntimeError, match="OtherConfigExecutor yielded the outcome"):
            ExperimentSession(
                chip, executor=OtherConfigExecutor(), store=ResultStore(tmp_path / "store")
            ).run("fig8-hcfirst", HCFirstStudyConfig())
        assert ResultStore(tmp_path / "store").entry_paths() == []
