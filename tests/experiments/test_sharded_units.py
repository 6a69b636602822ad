"""Sharded-determinism suite for work-unit (decomposed) studies.

The unit layer's core guarantee: a decomposed study's merged payload is a
pure function of (study, config, chip) -- bit-identical no matter which
executor ran the units, how many workers it used, or in what order the
units completed.  This suite pins that guarantee for the simulator-backed
Figure 10 studies (including equality with the object-taking public entry
point :func:`~repro.analysis.mitigation_study.run_mitigation_study`) and
for the chip-grid studies, on a tiny tier-1 config; a fuller sweep runs
behind the ``slow`` marker.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.analysis.mitigation_study import (
    DEFAULT_HCFIRST_SWEEP,
    DEFAULT_MECHANISMS,
    FullMitigationStudyConfig,
    MitigationStudyConfig,
    run_mitigation_study,
)
from repro.core.characterization import CharacterizationConfig
from repro.core.coverage import CoverageStudyConfig
from repro.core.sweeps import SweepStudyConfig
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.experiments import (
    WHOLE_STUDY_UNIT,
    Executor,
    ExperimentSession,
    ParallelExecutor,
    SerialExecutor,
    get_study,
)
from repro.experiments.executors import execute_task
from repro.mitigations.registry import is_evaluable
from repro.sim.config import SystemConfig
from repro.sim.workloads import make_workload_mixes

#: Tiny but representative sim-backed sweep: a probabilistic mechanism, a
#: tuned-point mechanism and the oracle, over one small mix.
TINY_FIG10 = dict(
    hcfirst_values=(2_000, 256),
    mechanisms=("PARA", "ProHIT", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=32, row_bytes=16)


class ShuffledCompletionExecutor(Executor):
    """Executes tasks in a seeded-shuffled order and yields each outcome as
    it completes -- modelling a pool whose workers finish units out of order."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def iter_outcomes(self, tasks):
        order = list(range(len(tasks)))
        random.Random(self.seed).shuffle(order)
        for index in order:
            yield index, execute_task(tasks[index])


def run_fig10(executor, step_mode, **overrides):
    config_kwargs = {**TINY_FIG10, **overrides}
    session = ExperimentSession(population=None, executor=executor)
    outcome = session.run(
        "fig10-mitigations", MitigationStudyConfig(step_mode=step_mode, **config_kwargs)
    )
    return outcome


def points_of(study_payload):
    return study_payload.points


def run_public_entry_point(num_mixes, rows_per_bank, seed, **axes):
    """The same sweep through ``run_mitigation_study``'s object arguments."""
    system_config = SystemConfig(rows_per_bank=rows_per_bank)
    return run_mitigation_study(
        system_config=system_config,
        workload_mixes=make_workload_mixes(
            num_mixes=num_mixes, cores=system_config.cores, seed=seed
        ),
        seed=seed,
        **axes,
    )


class TestFig10ShardedDeterminism:
    @pytest.mark.parametrize("step_mode", ["event", "cycle"])
    def test_parallel_matches_serial_bit_for_bit(self, step_mode):
        serial = run_fig10(SerialExecutor(), step_mode)
        parallel = run_fig10(ParallelExecutor(max_workers=2), step_mode)
        assert points_of(serial.single()) == points_of(parallel.single())
        assert serial.single().points, "the study must produce evaluation points"
        # Both executors executed every unit of the same decomposition.
        assert serial.executed == parallel.executed == serial.units_total

    @pytest.mark.parametrize("shuffle_seed", [1, 2])
    def test_shuffled_completion_order_identical(self, shuffle_seed):
        reference = run_fig10(SerialExecutor(), "event")
        shuffled = run_fig10(ShuffledCompletionExecutor(seed=shuffle_seed), "event")
        assert points_of(reference.single()) == points_of(shuffled.single())

    def test_sharded_matches_monolithic_oracle(self):
        """The session's merged payload equals what the public entry point
        computes from system and mix objects: same floats, same order."""
        public = run_public_entry_point(**TINY_FIG10)
        sharded = run_fig10(SerialExecutor(), "event").single()
        assert points_of(public) == points_of(sharded)

    def test_public_entry_point_matches_session_in_cycle_mode(self):
        public = run_public_entry_point(step_mode="cycle", **TINY_FIG10)
        sharded = run_fig10(SerialExecutor(), "cycle").single()
        assert points_of(public) == points_of(sharded)


class TestChipGridShardedDeterminism:
    """The chip-grid characterization studies shard bit-identically too."""

    def make_chip(self, seed=4):
        return make_chip(
            "LPDDR4-1y", "A", seed=seed, geometry=GEOMETRY, hcfirst_target=10_000
        )

    def test_alg1_parallel_matches_serial(self):
        config = CharacterizationConfig(hammer_counts=(25_000, 100_000))
        serial = (
            ExperimentSession(self.make_chip(), executor=SerialExecutor())
            .run("alg1-characterization", config)
            .single()
        )
        parallel = (
            ExperimentSession(self.make_chip(), executor=ParallelExecutor(max_workers=2))
            .run("alg1-characterization", config)
            .single()
        )
        assert serial.records == parallel.records
        # Merge interleaves the per-count units back into Algorithm 1's
        # loop order: hammer count is the innermost axis.
        counts = [record.hammer_count for record in serial.records]
        assert counts[:4] == [25_000, 100_000, 25_000, 100_000]

    def test_fig4_parallel_matches_serial(self):
        config = CoverageStudyConfig(
            hammer_count=100_000, patterns=("RowStripe0", "RowStripe1", "Checkered0")
        )
        serial = (
            ExperimentSession(self.make_chip(), executor=SerialExecutor())
            .run("fig4-coverage", config)
            .single()
        )
        parallel = (
            ExperimentSession(self.make_chip(), executor=ParallelExecutor(max_workers=2))
            .run("fig4-coverage", config)
            .single()
        )
        assert serial == parallel
        assert list(serial.coverage_by_pattern) == list(config.patterns)


def merge_by_hand(study, chip, config):
    """Run every unit of ``study`` on a fresh copy of ``chip`` and merge."""
    spec = get_study(study)
    payloads = [
        spec.run_unit(copy.deepcopy(chip), config, unit) for unit in spec.units_for(config)
    ]
    return spec.merge_units(config, payloads)


class TestRegisteredUnitRunner:
    """A decomposed study's registered function runs one unit: its unit
    payloads, each measured on a fresh chip copy and merged, are the
    session's payload."""

    @pytest.mark.parametrize("profile", [("DDR4-new", "A"), ("LPDDR4-1y", "A")])
    def test_fig4_units_merge_to_session_payload(self, profile):
        chip = make_chip(*profile, seed=3, geometry=GEOMETRY, hcfirst_target=10_000)
        config = CoverageStudyConfig(
            hammer_count=100_000, patterns=("RowStripe0", "RowStripe1", "Checkered0")
        )
        session = ExperimentSession(chip).run("fig4-coverage", config).single()
        assert session.unique_flips_total > 0
        assert merge_by_hand("fig4-coverage", chip, config) == session

    @pytest.mark.parametrize("profile", [("DDR4-new", "A"), ("LPDDR4-1y", "A")])
    def test_alg1_units_merge_to_session_payload(self, profile):
        chip = make_chip(*profile, seed=3, geometry=GEOMETRY, hcfirst_target=10_000)
        config = CharacterizationConfig(hammer_counts=(25_000, 100_000))
        session = ExperimentSession(chip).run("alg1-characterization", config).single()
        assert any(record.flips for record in session.records)
        assert merge_by_hand("alg1-characterization", chip, config) == session

    def test_fig10_units_merge_to_session_payload(self):
        config = MitigationStudyConfig(**TINY_FIG10)
        session = run_fig10(SerialExecutor(), config.step_mode).single()
        assert session.points
        assert merge_by_hand("fig10-mitigations", None, config) == session


class TestPaperScaleDecomposition:
    def test_fig10_full_decomposes_into_paper_grid(self):
        """Acceptance criterion: the paper-scale study decomposes into the
        full (mechanism, HC_first, mix) grid -- at least 47 x 48 cells --
        plus one baseline unit per mix."""
        spec = get_study("fig10-mitigations-full")
        config = FullMitigationStudyConfig()
        units = spec.units_for(config)
        cells = [unit for unit in units if unit.param_dict["kind"] == "cell"]
        baselines = [unit for unit in units if unit.param_dict["kind"] == "baseline"]
        evaluable_points = sum(
            1
            for mechanism in DEFAULT_MECHANISMS
            for hcfirst in DEFAULT_HCFIRST_SWEEP
            if is_evaluable(mechanism, hcfirst)
        )
        assert evaluable_points == 47
        assert len(baselines) == 48
        assert len(cells) == evaluable_points * 48
        assert len(cells) >= 47 * 48
        # Every unit has a distinct cache identity.
        digests = [unit.digest for unit in units]
        assert len(set(digests)) == len(digests)

    def test_undecomposed_study_is_single_unit(self):
        spec = get_study("fig5-hc-sweep")
        units = spec.units_for(None)
        assert len(units) == 1
        assert units[0].unit_id == WHOLE_STUDY_UNIT
        assert units[0].param_dict == {"config": SweepStudyConfig()}


@pytest.mark.slow
class TestFullSweepShardedDeterminism:
    """Wider sweep (every mechanism, several HC_first points, two mixes)."""

    SWEEP = dict(
        hcfirst_values=(100_000, 25_600, 2_000, 256, 64),
        mechanisms=DEFAULT_MECHANISMS,
        num_mixes=2,
        rows_per_bank=2_048,
        dram_cycles=8_000,
        requests_per_core=1_600,
        seed=7,
    )

    @pytest.mark.parametrize("step_mode", ["event", "cycle"])
    def test_parallel_matches_serial(self, step_mode):
        serial = run_fig10(SerialExecutor(), step_mode, **self.SWEEP)
        parallel = run_fig10(ParallelExecutor(max_workers=2), step_mode, **self.SWEEP)
        assert points_of(serial.single()) == points_of(parallel.single())

    def test_sharded_matches_monolithic_oracle(self):
        public = run_public_entry_point(**self.SWEEP)
        sharded = run_fig10(SerialExecutor(), "event", **self.SWEEP).single()
        assert points_of(public) == points_of(sharded)
