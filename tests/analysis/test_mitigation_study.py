"""Tests for the Figure 10 mitigation study harness."""

import dataclasses
import sys
import threading
from collections import defaultdict

import pytest

from repro.analysis.mitigation_study import (
    DEFAULT_HCFIRST_SWEEP,
    FullMitigationStudyConfig,
    MitigationBaselineUnit,
    MitigationCellUnit,
    MitigationStudyConfig,
    MitigationStudyPoint,
    _aggregate,
    _cached_shared_run,
    _CallRecorder,
    _run_mitigation_unit,
    _run_shared,
    _simulate_baseline,
    _simulate_cell,
    run_mitigation_study,
)
from repro.experiments import ExperimentSession, SerialExecutor
from repro.experiments.study import get_study
from repro.mitigations.base import MitigationConfig
from repro.mitigations.refresh_rate import IncreasedRefreshRate
from repro.mitigations.registry import available_mechanisms, build_mechanism, is_evaluable
from repro.sim.config import SystemConfig
from repro.sim.system import Simulation
from repro.sim.timing import DDR4_2400
from repro.sim.workloads import WorkloadMix, make_workload_mixes

UNIT_SYSTEM = SystemConfig(cores=2, banks=4, rows_per_bank=256)
UNIT_CYCLES = 2_000


@pytest.fixture(scope="module")
def small_study():
    """A reduced Figure 10 run shared across tests (seconds, not minutes)."""
    config = SystemConfig(cores=4, banks=8, rows_per_bank=1024)
    mixes = make_workload_mixes(num_mixes=2, cores=4, seed=3)
    return run_mitigation_study(
        system_config=config,
        workload_mixes=mixes,
        hcfirst_values=(50_000, 2_000, 128),
        mechanisms=("PARA", "Ideal", "TWiCe-ideal", "ProHIT"),
        dram_cycles=4_000,
        requests_per_core=1_000,
        seed=1,
    )


class TestMitigationStudy:
    def test_default_sweep_matches_paper_range(self):
        assert max(DEFAULT_HCFIRST_SWEEP) == 200_000
        assert min(DEFAULT_HCFIRST_SWEEP) == 64
        # ProHIT and MRLoc are evaluated only at their 2k design point.
        assert 2_000 in DEFAULT_HCFIRST_SWEEP

    def test_no_mixes_give_an_empty_result(self):
        assert run_mitigation_study(workload_mixes=[]).points == []

    def test_points_respect_design_constraints(self, small_study):
        prohit_points = small_study.series_for("ProHIT")
        assert set(prohit_points) == {2_000}
        para_points = small_study.series_for("PARA")
        assert set(para_points) == {50_000, 2_000, 128}

    def test_performance_bounded_and_normalized(self, small_study):
        for point in small_study.points:
            assert 0.0 < point.normalized_performance_avg <= 110.0
            assert point.normalized_performance_min <= point.normalized_performance_avg
            assert point.normalized_performance_avg <= point.normalized_performance_max
            assert point.bandwidth_overhead_avg >= 0.0
            assert point.workloads_evaluated == 2

    def test_para_overhead_grows_as_hcfirst_drops(self, small_study):
        para = small_study.series_for("PARA")
        assert para[128].bandwidth_overhead_avg > para[50_000].bandwidth_overhead_avg
        assert (
            para[128].normalized_performance_avg
            <= para[50_000].normalized_performance_avg + 1e-6
        )

    def test_ideal_outperforms_para_at_low_hcfirst(self, small_study):
        para = small_study.series_for("PARA")[128].normalized_performance_avg
        ideal = small_study.series_for("Ideal")[128].normalized_performance_avg
        assert ideal >= para

    def test_serialization_and_lookup(self, small_study):
        point = small_study.points[0]
        assert small_study.series_for(point.mechanism)[point.hcfirst] == point
        assert small_study.series_for("DoesNotExist") == {}
        assert set(small_study.mechanisms()) <= {"PARA", "Ideal", "TWiCe-ideal", "ProHIT"}


class TestSweepChecks:
    """``run_mitigation_study`` rejects what the config rejects, up front."""

    @pytest.mark.parametrize(
        "sweep,match",
        [
            (dict(mechanisms=["PARA", "PARA"]), "mechanisms must not repeat"),
            (dict(hcfirst_values=[2_000, 2_000]), "hcfirst_values must not repeat"),
            (dict(mechanisms=[]), "at least one mechanism"),
            (dict(mechanisms=["PARA", "Nope"]), "unknown mechanism 'Nope'"),
            (dict(hcfirst_values=[0]), "positive"),
            (dict(mechanisms=["ProHIT"], hcfirst_values=[64]), "evaluable"),
        ],
    )
    def test_bad_sweep_fails_before_any_simulation(self, sweep, match, monkeypatch):
        runs = count_simulation_runs(monkeypatch)
        builds = count_trace_builds(monkeypatch)
        system = SystemConfig(rows_per_bank=512)
        with pytest.raises(ValueError, match=match):
            run_mitigation_study(
                system_config=system,
                workload_mixes=make_workload_mixes(num_mixes=2, cores=system.cores, seed=3),
                dram_cycles=2_000,
                requests_per_core=400,
                seed=3,
                **sweep,
            )
        assert runs == [] and builds == []


def unit_traces(seed=2):
    mix = make_workload_mixes(num_mixes=1, cores=UNIT_SYSTEM.cores, seed=seed)[0]
    return mix.build_traces(
        banks=UNIT_SYSTEM.banks,
        rows_per_bank=UNIT_SYSTEM.rows_per_bank,
        columns_per_row=UNIT_SYSTEM.columns_per_row,
        requests_per_core=300,
        seed=seed,
    )


def shared_run(traces, step_mode="event"):
    return _run_shared(UNIT_SYSTEM, traces, UNIT_CYCLES, step_mode)


def simulate_cell(mix, seed, step_mode="event"):
    """A PARA cell at an HC_first where PARA's draws, not certainty, decide."""
    return _simulate_cell(shared_run(unit_traces(), step_mode), "PARA", 256, mix, seed, 1.0)


class TestSimulatedUnits:
    """The baseline and cell functions every Figure 10 entry point uses."""

    def test_baseline_unit_is_shared_run_plus_alone_runs(self):
        traces = unit_traces()
        unit = _simulate_baseline(shared_run(traces), 1)
        shared = Simulation(UNIT_SYSTEM, traces).run(UNIT_CYCLES)
        alone = [Simulation(UNIT_SYSTEM, [trace]).run(UNIT_CYCLES) for trace in traces]
        assert unit == MitigationBaselineUnit(
            mix=1,
            core_ipcs=tuple(shared.core_ipcs),
            alone_ipcs=tuple(result.core_ipcs[0] for result in alone),
        )
        # Alone, a core has the memory system to itself.
        assert all(a >= s for a, s in zip(unit.alone_ipcs, unit.core_ipcs))

    def test_baseline_unit_identical_across_step_modes(self):
        traces = unit_traces()
        event = _simulate_baseline(shared_run(traces, "event"), 0)
        cycle = _simulate_baseline(shared_run(traces, "cycle"), 0)
        assert event == cycle

    def test_cell_unit_identical_across_step_modes(self):
        event = simulate_cell(mix=0, seed=4, step_mode="event")
        assert event == simulate_cell(mix=0, seed=4, step_mode="cycle")
        assert (event.mechanism, event.hcfirst, event.mix) == ("PARA", 256, 0)
        assert event.bandwidth_overhead_percent > 0.0

    def test_cell_unit_seeds_its_mechanism_with_seed_plus_mix(self):
        """Cached cell payloads depend on this derivation: mix 1 of seed 0
        draws the same PARA stream as mix 0 of seed 1, not that of seed 0."""
        shifted = simulate_cell(mix=1, seed=0)
        same_stream = simulate_cell(mix=0, seed=1)
        assert shifted.core_ipcs == same_stream.core_ipcs
        assert shifted.bandwidth_overhead_percent == same_stream.bandwidth_overhead_percent
        assert shifted.mix == 1
        other_stream = simulate_cell(mix=0, seed=0)
        assert shifted.bandwidth_overhead_percent != other_stream.bandwidth_overhead_percent


def baseline(mix, core_ipcs, alone_ipcs):
    return MitigationBaselineUnit(mix=mix, core_ipcs=core_ipcs, alone_ipcs=alone_ipcs)


def cell(mechanism, mix, core_ipcs, overhead):
    return MitigationCellUnit(
        mechanism=mechanism,
        hcfirst=64,
        mix=mix,
        core_ipcs=core_ipcs,
        bandwidth_overhead_percent=overhead,
    )


#: Two mixes with hand-computable weighted speedups (all values exact in
#: binary floating point): mix 0 has baseline speedup 1.0, mix 1 has 1.5.
SYNTHETIC_PAYLOADS = [
    baseline(0, (1.0, 1.0), (2.0, 2.0)),
    cell("PARA", 0, (0.5, 1.0), 10.0),
    cell("Ideal", 0, (1.0, 1.0), 0.0),
    baseline(1, (1.0, 0.5), (1.0, 1.0)),
    cell("PARA", 1, (1.0, 0.5), 2.0),
    cell("Ideal", 1, (1.0, 0.5), 0.0),
]
SYNTHETIC_POINTS = [("PARA", 64), ("Ideal", 64)]


class TestAggregate:
    def test_per_point_statistics(self):
        para, ideal = _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS).points
        assert para == MitigationStudyPoint(
            mechanism="PARA",
            hcfirst=64,
            normalized_performance_avg=87.5,
            normalized_performance_min=75.0,
            normalized_performance_max=100.0,
            bandwidth_overhead_avg=6.0,
            bandwidth_overhead_min=2.0,
            bandwidth_overhead_max=10.0,
            workloads_evaluated=2,
        )
        assert ideal.normalized_performance_min == ideal.normalized_performance_max == 100.0
        assert ideal.bandwidth_overhead_max == 0.0

    def test_payload_order_does_not_matter(self):
        forward = _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS)
        backward = _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS[::-1])
        assert forward.points == backward.points

    def test_points_keep_the_requested_order(self):
        result = _aggregate(SYNTHETIC_POINTS[::-1], 2, SYNTHETIC_PAYLOADS)
        assert result.mechanisms() == ["Ideal", "PARA"]

    def test_rejects_foreign_payloads(self):
        with pytest.raises(TypeError, match="unexpected Figure 10 unit payload"):
            _aggregate(SYNTHETIC_POINTS, 2, SYNTHETIC_PAYLOADS + [object()])

    def test_missing_cell_is_an_error(self):
        incomplete = [p for p in SYNTHETIC_PAYLOADS if p != cell("PARA", 1, (1.0, 0.5), 2.0)]
        with pytest.raises(KeyError):
            _aggregate(SYNTHETIC_POINTS, 2, incomplete)


class TestConfigValidation:
    """Bad inputs fail at construction, before any unit is simulated or stored."""

    @pytest.mark.parametrize("config_cls", [MitigationStudyConfig, FullMitigationStudyConfig])
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("mechanisms", ("PARA", "Ideal", "PARA"), "mechanisms must not repeat"),
            ("hcfirst_values", (2_000, 64, 2_000), "hcfirst_values must not repeat"),
            ("mechanisms", ("PARA", "Nope"), "unknown mechanism 'Nope'"),
            ("step_mode", "fast", "step_mode"),
            ("dram_cycles", 0, "dram_cycles"),
            ("requests_per_core", 0, "requests_per_core"),
            ("time_scale", 0.0, "time_scale"),
            ("rows_per_bank", 0, "rows_per_bank"),
        ],
    )
    def test_rejects_bad_input(self, config_cls, field, value, match):
        with pytest.raises(ValueError, match=match):
            config_cls(**{field: value})

    def test_rejects_a_grid_with_no_evaluable_point(self):
        """ProHIT is evaluated only at 2k, so this sweep would run every
        mix's baseline and merge to no point at all."""
        with pytest.raises(ValueError, match="evaluable"):
            MitigationStudyConfig(mechanisms=("ProHIT",), hcfirst_values=(64,))
        MitigationStudyConfig(
            mechanisms=("ProHIT",), hcfirst_values=(64,), respect_design_constraints=False
        )


def count_simulation_runs(monkeypatch):
    """Patch ``Simulation.run`` to log (step mode, mechanism type) per call."""
    runs = []
    original = Simulation.run

    def run(simulation, dram_cycles):
        runs.append((simulation.step_mode, type(simulation.mitigation)))
        return original(simulation, dram_cycles)

    monkeypatch.setattr(Simulation, "run", run)
    return runs


def count_trace_builds(monkeypatch):
    """Patch ``WorkloadMix.build_traces`` to log the mix of each call."""
    builds = []
    original = WorkloadMix.build_traces

    def build_traces(mix, *args, **kwargs):
        builds.append(mix.name)
        return original(mix, *args, **kwargs)

    monkeypatch.setattr(WorkloadMix, "build_traces", build_traces)
    return builds


class _Spy:
    """Forwards the controller's calls to a mechanism and notes how it first acts."""

    def __init__(self, mechanism):
        self.mechanism = mechanism
        self.acted_through = None

    def _note(self, hook, victims):
        if victims and self.acted_through is None:
            self.acted_through = hook
        return victims

    def refresh_interval_multiplier(self):
        multiplier = self.mechanism.refresh_interval_multiplier()
        if multiplier != 1.0:
            self.acted_through = "multiplier"
        return multiplier

    def on_activate(self, bank, row, cycle):
        return self._note("on_activate", self.mechanism.on_activate(bank, row, cycle))

    def on_refresh(self, cycle):
        return self._note("on_refresh", self.mechanism.on_refresh(cycle))

    def on_victim_refreshed(self, bank, row, cycle):
        self.mechanism.on_victim_refreshed(bank, row, cycle)


#: 64-row banks and tREFI x 0.1: 2,000 cycles cross two refresh commands,
#: and over the two mixes of seed 3 every mechanism is idle in some cells
#: and acts in others.
IDLE_SYSTEM = SystemConfig(
    cores=2, banks=4, rows_per_bank=64, timings=DDR4_2400.scaled_refresh(0.1)
)
IDLE_SEED = 3

#: A session config whose cells are partly idle at both time scales.
GUARD_CONFIG = dict(
    hcfirst_values=(200_000, 32_000, 2_000, 64),
    num_mixes=2,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)


def build_cell_mechanism(system, name, hcfirst, seed, time_scale):
    """The mechanism a Figure 10 cell on ``system`` evaluates."""
    return build_mechanism(
        name,
        MitigationConfig(
            hcfirst=hcfirst,
            banks=system.banks,
            rows_per_bank=system.rows_per_bank,
            timings=system.timings,
            seed=seed,
            time_scale=time_scale,
        ),
    )


class _Log:
    """Requests nothing and logs every hook call as (hook name, arguments)."""

    def __init__(self):
        self.calls = []

    def refresh_interval_multiplier(self):
        return 1.0

    def on_activate(self, *args):
        self.calls.append(("on_activate", args))
        return []

    def on_refresh(self, *args):
        self.calls.append(("on_refresh", args))
        return []


def count_acting_cells(config):
    """(acting cells, all cells) of ``config``, found by replay.

    Restates the harness's rule on runs logged here: a mechanism acts if
    it scales tREFI to a value inside the run or if any replayed hook call
    returns a victim.
    """
    system = SystemConfig(rows_per_bank=config.rows_per_bank)
    mixes = make_workload_mixes(num_mixes=config.num_mixes, cores=system.cores, seed=config.seed)
    points = [
        (name, hcfirst)
        for name in config.mechanisms
        for hcfirst in config.hcfirst_values
        if is_evaluable(name, hcfirst)
    ]
    acting = 0
    for mix, workload in enumerate(mixes):
        traces = workload.build_traces(
            banks=system.banks,
            rows_per_bank=system.rows_per_bank,
            columns_per_row=system.columns_per_row,
            requests_per_core=config.requests_per_core,
            seed=config.seed,
        )
        log = _Log()
        Simulation(system, traces, mitigation=log).run(config.dram_cycles)
        for name, hcfirst in points:
            mechanism = build_cell_mechanism(
                system, name, hcfirst, config.seed + mix, config.time_scale
            )
            multiplier = mechanism.refresh_interval_multiplier()
            refreshes_sooner = (
                multiplier != 1.0
                and system.timings.scaled_refresh(multiplier).trefi < config.dram_cycles
            )
            acting += refreshes_sooner or any(
                getattr(mechanism, hook)(*args) for hook, args in log.calls
            )
    return acting, len(points) * len(mixes)


class TestIdleCells:
    """A cell whose mechanism never acts reuses its mix's shared run."""

    # The cycle-mode sweep takes several seconds; it runs with the slow tests.
    @pytest.mark.parametrize("step_mode", ["event", pytest.param("cycle", marks=pytest.mark.slow)])
    def test_cells_equal_full_simulations(self, step_mode, monkeypatch):
        runs = count_simulation_runs(monkeypatch)
        branches = defaultdict(set)
        mixes = make_workload_mixes(num_mixes=2, cores=IDLE_SYSTEM.cores, seed=IDLE_SEED)
        for mix, workload in enumerate(mixes):
            traces = workload.build_traces(
                banks=IDLE_SYSTEM.banks,
                rows_per_bank=IDLE_SYSTEM.rows_per_bank,
                columns_per_row=IDLE_SYSTEM.columns_per_row,
                requests_per_core=400,
                seed=IDLE_SEED,
            )
            shared = _run_shared(IDLE_SYSTEM, traces, UNIT_CYCLES, step_mode)
            for name in available_mechanisms():
                for hcfirst in (200_000, 2_000, 64):
                    for time_scale in (1.0, 0.01):
                        before = len(runs)
                        unit = _simulate_cell(shared, name, hcfirst, mix, IDLE_SEED, time_scale)
                        simulated = len(runs) - before
                        spy = _Spy(
                            build_cell_mechanism(
                                IDLE_SYSTEM, name, hcfirst, IDLE_SEED + mix, time_scale
                            )
                        )
                        full = Simulation(
                            IDLE_SYSTEM, traces, mitigation=spy, step_mode=step_mode
                        ).run(UNIT_CYCLES)
                        case = (name, hcfirst, time_scale, mix)
                        assert unit == MitigationCellUnit(
                            mechanism=name,
                            hcfirst=hcfirst,
                            mix=mix,
                            core_ipcs=tuple(full.core_ipcs),
                            bandwidth_overhead_percent=full.bandwidth_overhead_percent,
                        ), case
                        # Only a mechanism that acts in the full run is simulated.
                        assert simulated == (spy.acted_through is not None), case
                        branches[name].add(spy.acted_through or "idle")
        # The cases reach every branch of the rule, and each mechanism on
        # both sides of it.
        assert set(branches) == set(available_mechanisms())
        assert all("idle" in seen and len(seen) > 1 for seen in branches.values()), branches
        assert "multiplier" in branches["IncreasedRefresh"]
        assert "on_refresh" in branches["ProHIT"]
        assert "on_activate" in branches["PARA"]

    @pytest.mark.parametrize("time_scale", [1.0, 0.01])
    def test_session_simulates_shared_alone_and_acting_runs_only(self, time_scale, monkeypatch):
        config = MitigationStudyConfig(time_scale=time_scale, **GUARD_CONFIG)
        acting, cells = count_acting_cells(config)
        assert 0 < acting < cells
        # The memo outlives a session; start from an empty one.
        _cached_shared_run.cache_clear()
        runs = count_simulation_runs(monkeypatch)
        builds = count_trace_builds(monkeypatch)
        ExperimentSession(executor=SerialExecutor()).run("fig10-mitigations", config)
        cores = SystemConfig().cores
        assert len(runs) == config.num_mixes * (1 + cores) + acting
        # One memo: each mix's traces are built once, with its shared run.
        assert len(builds) == len(set(builds)) == config.num_mixes

    @pytest.mark.parametrize("dram_cycles,simulated", [(400, 0), (1_000, 1), (1_500, 2)])
    def test_increased_refresh_cells_simulate_only_a_refresh_inside_the_run(
        self, dram_cycles, simulated, monkeypatch
    ):
        """The scaled tREFI is 1,340 cycles at HC_first 200k and 421 at 50k:
        a cell whose first scaled refresh comes after the run equals its
        mix's baseline run, and only the others are simulated."""
        config = MitigationStudyConfig(
            hcfirst_values=(200_000, 50_000),
            mechanisms=("IncreasedRefresh",),
            num_mixes=1,
            rows_per_bank=512,
            dram_cycles=dram_cycles,
            requests_per_core=100,
            seed=3,
        )
        system = SystemConfig(rows_per_bank=config.rows_per_bank)
        trefis = [
            system.timings.scaled_refresh(
                build_cell_mechanism(
                    system, "IncreasedRefresh", hcfirst, config.seed, config.time_scale
                ).refresh_interval_multiplier()
            ).trefi
            for hcfirst in config.hcfirst_values
        ]
        assert trefis == [1_340, 421] and system.timings.trefi > max(trefis)
        _cached_shared_run.cache_clear()
        runs = count_simulation_runs(monkeypatch)
        ExperimentSession(executor=SerialExecutor()).run("fig10-mitigations", config)
        assert sum(kind is IncreasedRefreshRate for _, kind in runs) == simulated
        # Every cell, simulated or not, equals a full run with its mechanism.
        shared = _cached_shared_run(
            1, 0, config.rows_per_bank, config.requests_per_core, config.seed, dram_cycles, "event"
        )
        for hcfirst in config.hcfirst_values:
            cell = _simulate_cell(
                shared, "IncreasedRefresh", hcfirst, 0, config.seed, config.time_scale
            )
            full = Simulation(
                system,
                shared.traces,
                mitigation=build_cell_mechanism(
                    system, "IncreasedRefresh", hcfirst, config.seed, config.time_scale
                ),
            ).run(dram_cycles)
            assert cell.core_ipcs == tuple(full.core_ipcs), hcfirst
            assert cell.bandwidth_overhead_percent == full.bandwidth_overhead_percent, hcfirst

    def test_cycle_mode_study_simulates_its_own_baselines(self, monkeypatch):
        event = MitigationStudyConfig(
            hcfirst_values=(2_000,),
            mechanisms=("PARA", "ProHIT"),
            num_mixes=2,
            rows_per_bank=512,
            dram_cycles=1_000,
            requests_per_core=200,
            seed=3,
        )
        session = ExperimentSession(executor=SerialExecutor())
        _cached_shared_run.cache_clear()
        builds = count_trace_builds(monkeypatch)
        expected = session.run("fig10-mitigations", event).payloads()
        assert len(builds) == event.num_mixes
        runs = count_simulation_runs(monkeypatch)
        cycle = session.run("fig10-mitigations", dataclasses.replace(event, step_mode="cycle"))
        assert [mode for mode, _ in runs] == ["cycle"] * len(runs)
        assert sum(kind is _CallRecorder for _, kind in runs) == event.num_mixes
        # The cycle-mode shared runs build their own traces, once per mix.
        assert len(builds) == 2 * event.num_mixes
        assert cycle.payloads() == expected

    def test_threads_filling_the_memo_get_the_serial_payloads(self):
        """Service workers in one process share the memo; a thread that
        reads a mix's run while another is filling it must see the same
        payloads as a serial run."""
        config = MitigationStudyConfig(
            hcfirst_values=(2_000,),
            mechanisms=("PARA", "ProHIT", "Ideal"),
            num_mixes=2,
            rows_per_bank=512,
            dram_cycles=500,
            requests_per_core=100,
            seed=3,
        )
        units = get_study("fig10-mitigations").units_for(config)
        _cached_shared_run.cache_clear()
        expected = [_run_mitigation_unit(None, config, unit) for unit in units]
        _cached_shared_run.cache_clear()
        results = [None] * 4

        def work(index):
            # Each thread starts at a different unit, cells before baselines.
            order = units[index:] + units[:index]
            payloads = {unit.unit_id: _run_mitigation_unit(None, config, unit) for unit in order}
            results[index] = [payloads[unit.unit_id] for unit in units]

        threads = [threading.Thread(target=work, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
