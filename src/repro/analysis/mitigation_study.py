"""Figure 10 harness: mitigation-mechanism overhead versus ``HC_first``.

For every (mechanism, HC_first) point the harness simulates a set of
multi-programmed workload mixes with and without the mechanism, computes

* the DRAM bandwidth overhead the mechanism imposes (Figure 10a), and
* the weighted speedup normalized to the no-mitigation baseline
  (Figure 10b),

and reports the average, minimum and maximum across mixes, mirroring the
paper's error bars.  Mechanisms are only evaluated at the ``HC_first``
values where their published designs apply (Section 6.1): ProHIT and MRLoc
at 2000 only, increased refresh rate and non-ideal TWiCe at 32k and above.

One implementation, three steps
-------------------------------
The evaluation is split into one *baseline* unit per workload mix (the
no-mitigation run plus the per-core alone-IPC runs), one *cell* unit per
evaluable (mechanism, HC_first, mix) grid point, and an aggregation that
turns the unit payloads into the per-point statistics.  Both entry points
go through the same three functions (:func:`_simulate_baseline`,
:func:`_simulate_cell`, :func:`_aggregate`):

* the registered studies (``fig10-mitigations`` and
  ``fig10-mitigations-full``, both run by :func:`_run_mitigation_unit`)
  declare the units as their work-unit decomposition (see
  :mod:`repro.experiments.study`), so sessions cache, resume and shard the
  grid cell by cell;
* :func:`run_mitigation_study` takes the system and workload mixes as
  objects, builds each mix's traces and shared run once and feeds them to
  the same functions.

Each simulation is run through ``step_mode`` (``"event"`` by default, or
the bit-identical ``"cycle"`` oracle).

Idle cells reuse the baseline run
---------------------------------
A mix's no-mitigation run is simulated once, with a recorder attached that
logs every call the memory controller makes into a mechanism (each
``on_activate`` and ``on_refresh``, in order) and requests nothing.  The
registered studies memoize it per process, traces included
(:func:`_cached_shared_run`, their only memo), so the baseline unit and
every cell of the mix share it; a process that runs a cell first builds
it then.  A cell replays the log into its freshly built mechanism.  If the
mechanism moves no refresh inside the run (it keeps the nominal refresh
interval, or neither the nominal nor its scaled tREFI falls inside the
run) and no replayed call returns a victim, the mechanism is *idle*: the
controller reaches a mechanism only through these hooks, and
``on_victim_refreshed`` follows only a requested refresh, so a real run
would make exactly the logged calls and equal the baseline run.  The cell
then takes the baseline's core IPCs and bandwidth overhead.  Any other
cell is simulated in full with a newly built mechanism, since the replay
has advanced the first one's state (PARA's RNG, TWiCe's table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.study import WorkUnit, register_study
from repro.mitigations.base import MitigationConfig, MitigationMechanism
from repro.mitigations.registry import available_mechanisms, build_mechanism, is_evaluable
from repro.sim.batch import SimulationBatch
from repro.sim.config import SystemConfig
from repro.sim.controller import mitigated_timings
from repro.sim.metrics import normalized_performance, weighted_speedup
from repro.sim.system import STEP_MODES, Simulation
from repro.sim.trace import TraceRecord
from repro.sim.workloads import WorkloadMix, make_workload_mixes

#: Default HC_first sweep of Figure 10 (200k down to 64).
DEFAULT_HCFIRST_SWEEP: Tuple[int, ...] = (
    200_000,
    100_000,
    50_000,
    25_600,
    12_800,
    6_400,
    3_200,
    2_000,
    1_024,
    512,
    256,
    128,
    64,
)

#: Threshold scaling of :func:`run_mitigation_study` and the registered
#: studies' default: 1.0 models the counter-based mechanisms faithfully (see
#: :class:`repro.mitigations.base.MitigationConfig`).
FAITHFUL_TIME_SCALE = 1.0

#: Default mechanism set of Figure 10.
DEFAULT_MECHANISMS: Tuple[str, ...] = (
    "IncreasedRefresh",
    "PARA",
    "ProHIT",
    "MRLoc",
    "TWiCe",
    "TWiCe-ideal",
    "Ideal",
)


@dataclass
class MitigationStudyPoint:
    """Results of one (mechanism, HC_first) evaluation point."""

    mechanism: str
    hcfirst: int
    normalized_performance_avg: float
    normalized_performance_min: float
    normalized_performance_max: float
    bandwidth_overhead_avg: float
    bandwidth_overhead_min: float
    bandwidth_overhead_max: float
    workloads_evaluated: int


@dataclass
class MitigationStudyResult:
    """All evaluation points of one Figure 10 run."""

    points: List[MitigationStudyPoint] = field(default_factory=list)

    def series_for(self, mechanism: str) -> Dict[int, MitigationStudyPoint]:
        """Points of one mechanism keyed by HC_first (descending vulnerability)."""
        return {
            point.hcfirst: point
            for point in sorted(self.points, key=lambda p: -p.hcfirst)
            if point.mechanism == mechanism
        }

    def mechanisms(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            if point.mechanism not in names:
                names.append(point.mechanism)
        return names


@dataclass(frozen=True)
class MitigationStudyConfig:
    """Parameters of the registered Figure 10 mitigation study.

    A hashable mirror of :func:`run_mitigation_study`'s arguments: the
    simulated system and workload mixes are described by value
    (``rows_per_bank``, ``num_mixes``) rather than passed as objects so the
    config can key the result cache.
    """

    hcfirst_values: Tuple[int, ...] = DEFAULT_HCFIRST_SWEEP
    mechanisms: Tuple[str, ...] = DEFAULT_MECHANISMS
    num_mixes: int = 4
    rows_per_bank: int = 4096
    dram_cycles: int = 20_000
    requests_per_core: int = 4_000
    seed: int = 0
    respect_design_constraints: bool = True
    time_scale: float = FAITHFUL_TIME_SCALE
    #: Simulation stepping strategy; ``"cycle"`` is the bit-identical
    #: reference implementation (see :class:`repro.sim.system.Simulation`).
    step_mode: str = "event"

    def __post_init__(self) -> None:
        _check_sweep(
            self.mechanisms,
            self.hcfirst_values,
            self.respect_design_constraints,
            self.dram_cycles,
            self.requests_per_core,
            self.step_mode,
        )
        if not 0.0 < self.time_scale <= 1.0:
            raise ValueError(f"time_scale must be within (0, 1], got {self.time_scale}")
        if self.num_mixes < 1:
            raise ValueError("num_mixes must be at least 1")
        if self.rows_per_bank < 1:
            raise ValueError("rows_per_bank must be at least 1")


@dataclass(frozen=True)
class FullMitigationStudyConfig(MitigationStudyConfig):
    """Paper-scale Figure 10 preset: the full 48-mix evaluation.

    Section 6 of the paper evaluates every mechanism over 48 randomly
    mixed 8-core workloads; this preset reproduces that axis in full (the
    quick ``fig10-mitigations`` default samples 4 mixes) on the Table 6
    geometry, with simulations 2.5x longer than the quick preset so every
    run crosses several refresh intervals.  Designed to be executed through
    a cached :class:`repro.experiments.session.ExperimentSession`: the
    default sweep is 2,304 work units (one baseline and 47 evaluable
    cells per mix), each cached on its own, so an interrupted run resumes
    from its finished units and a completed one replays from the store.
    """

    num_mixes: int = 48
    rows_per_bank: int = 16384
    dram_cycles: int = 50_000
    requests_per_core: int = 8_000


# ----------------------------------------------------------------------
# Work-unit decomposition of the Figure 10 grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MitigationBaselineUnit:
    """Payload of one baseline work unit: the no-mitigation run of one mix.

    Carries the raw per-core IPCs of the shared baseline run and the
    alone-run IPC of every core, from which the aggregation computes the
    mix's baseline weighted speedup.
    """

    mix: int
    core_ipcs: Tuple[float, ...]
    alone_ipcs: Tuple[float, ...]


@dataclass(frozen=True)
class MitigationCellUnit:
    """Payload of one (mechanism, HC_first, mix) cell work unit."""

    mechanism: str
    hcfirst: int
    mix: int
    core_ipcs: Tuple[float, ...]
    bandwidth_overhead_percent: float


class _CallRecorder:
    """A mechanism that requests nothing and logs the controller's calls.

    ``on_activate`` calls are logged as ``(bank, row, cycle)`` and
    ``on_refresh`` calls as ``(cycle,)``, in call order.  Since it never
    requests a victim and keeps the nominal refresh interval, a run with
    the recorder attached is a run with no mechanism.
    """

    def __init__(self) -> None:
        self.calls: List[Tuple[int, ...]] = []

    def refresh_interval_multiplier(self) -> float:
        return 1.0

    def on_activate(self, bank: int, row: int, cycle: int) -> List[Tuple[int, int]]:
        self.calls.append((bank, row, cycle))
        return []

    def on_refresh(self, cycle: int) -> List[Tuple[int, int]]:
        self.calls.append((cycle,))
        return []


@dataclass(frozen=True)
class _SharedRun:
    """The no-mitigation run of one mix and the mechanism calls it made.

    It keeps the inputs it ran on, which the mix's alone runs and acting
    cells simulate on too.
    """

    system_config: SystemConfig
    traces: Tuple[Sequence[TraceRecord], ...]
    dram_cycles: int
    step_mode: str
    core_ipcs: Tuple[float, ...]
    bandwidth_overhead_percent: float
    calls: Tuple[Tuple[int, ...], ...]


def _run_shared(
    system_config: SystemConfig,
    traces: Sequence[Sequence[TraceRecord]],
    dram_cycles: int,
    step_mode: str,
) -> _SharedRun:
    """Simulate one mix with no mechanism, logging the mechanism calls."""
    recorder = _CallRecorder()
    result = Simulation(
        system_config, traces, mitigation=recorder, step_mode=step_mode
    ).run(dram_cycles)
    return _SharedRun(
        system_config=system_config,
        traces=tuple(traces),
        dram_cycles=dram_cycles,
        step_mode=step_mode,
        core_ipcs=tuple(result.core_ipcs),
        bandwidth_overhead_percent=result.bandwidth_overhead_percent,
        calls=tuple(recorder.calls),
    )


@lru_cache(maxsize=4)
def _cached_shared_run(
    num_mixes: int,
    mix_index: int,
    rows_per_bank: int,
    requests_per_core: int,
    seed: int,
    dram_cycles: int,
    step_mode: str,
) -> _SharedRun:
    """Per-process memo of each mix's shared run, traces included.

    The baseline unit and every cell of a mix read it, so a process builds
    the mix's traces and simulates the run once per mix (``Simulation``
    copies the per-core record lists it consumes, and the records are
    immutable).  ``step_mode`` is part of the key so that a ``"cycle"``
    study never reuses an event-mode run; the cells' ``time_scale`` and the
    sweep axes stay out of it, because the run does not depend on them.
    """
    system_config = SystemConfig(rows_per_bank=rows_per_bank)
    mixes = make_workload_mixes(num_mixes=num_mixes, cores=system_config.cores, seed=seed)
    traces = mixes[mix_index].build_traces(
        banks=system_config.banks,
        rows_per_bank=system_config.rows_per_bank,
        columns_per_row=system_config.columns_per_row,
        requests_per_core=requests_per_core,
        seed=seed,
    )
    return _run_shared(system_config, traces, dram_cycles, step_mode)


def _acts(mechanism: MitigationMechanism, shared: _SharedRun) -> bool:
    """Whether ``mechanism`` would change the mix's shared run.

    A mechanism acts if it moves a refresh that falls inside the run, or
    if any replayed hook call returns a victim, even one the controller
    would drop as out of range.  Of the timings a mechanism scales (the
    controller's own :func:`mitigated_timings`), the controller reads only
    tREFI, and a run of ``dram_cycles`` cycles refreshes first at cycle
    tREFI; when neither tREFI falls inside the run, neither run refreshes
    and the mechanism's extra refresh time is zero.  Up to its first
    request, the mechanism sees exactly the calls of the run without it.
    """
    nominal = shared.system_config.timings.trefi
    trefi = mitigated_timings(shared.system_config.timings, mechanism).trefi
    if trefi != nominal and min(trefi, nominal) < shared.dram_cycles:
        return True
    on_activate, on_refresh = mechanism.on_activate, mechanism.on_refresh
    return any(
        on_activate(*call) if len(call) == 3 else on_refresh(*call) for call in shared.calls
    )


def _evaluation_points(
    mechanisms: Sequence[str],
    hcfirst_values: Sequence[int],
    respect_design_constraints: bool,
) -> List[Tuple[str, int]]:
    """The (mechanism, HC_first) grid points a sweep evaluates, in order."""
    return [
        (mechanism, hcfirst)
        for mechanism in mechanisms
        for hcfirst in hcfirst_values
        if not respect_design_constraints or is_evaluable(mechanism, hcfirst)
    ]


def _check_sweep(
    mechanisms: Sequence[str],
    hcfirst_values: Sequence[int],
    respect_design_constraints: bool,
    dram_cycles: int,
    requests_per_core: int,
    step_mode: str,
) -> None:
    """Reject a sweep that cannot run or would evaluate nothing.

    :class:`MitigationStudyConfig` and :func:`run_mitigation_study` both
    apply these rules before any trace is built.
    """
    if not hcfirst_values or any(hc <= 0 for hc in hcfirst_values):
        raise ValueError("hcfirst_values must hold positive values")
    if len(set(hcfirst_values)) != len(hcfirst_values):
        raise ValueError(f"hcfirst_values must not repeat a value: {tuple(hcfirst_values)}")
    if not mechanisms:
        raise ValueError("at least one mechanism is required")
    if len(set(mechanisms)) != len(mechanisms):
        raise ValueError(f"mechanisms must not repeat a name: {tuple(mechanisms)}")
    known = available_mechanisms()
    for name in mechanisms:
        if name not in known:
            raise ValueError(f"unknown mechanism {name!r}; available: {known}")
    if not _evaluation_points(mechanisms, hcfirst_values, respect_design_constraints):
        raise ValueError(
            f"no mechanism of {tuple(mechanisms)} is evaluable at any HC_first of "
            f"{tuple(hcfirst_values)}"
        )
    if dram_cycles < 1:
        raise ValueError("dram_cycles must be at least 1")
    if requests_per_core < 1:
        raise ValueError("requests_per_core must be at least 1")
    if step_mode not in STEP_MODES:
        raise ValueError(f"step_mode must be one of {STEP_MODES}, got {step_mode!r}")


def _fig10_decompose(study_name: str):
    """Decomposition for one registered Figure 10 study.

    Units are ordered mix-major (a mix's baseline, then all of its cells)
    so workers draining consecutive units reuse the per-process shared-run
    memo; merge order is reconstructed from the config axes, not the unit
    order, so this is purely a locality choice.
    """

    def decompose(config: MitigationStudyConfig) -> List[WorkUnit]:
        # Per the WorkUnit cache contract, params carry every config field
        # the unit's payload depends on.  The sweep axes (mechanisms,
        # hcfirst_values) and the design-constraint flag shape only *which*
        # units exist, so they stay out -- editing them invalidates nothing
        # that survives the edit.
        simulated = {
            "num_mixes": config.num_mixes,
            "rows_per_bank": config.rows_per_bank,
            "dram_cycles": config.dram_cycles,
            "requests_per_core": config.requests_per_core,
            "seed": config.seed,
            "step_mode": config.step_mode,
        }
        units: List[WorkUnit] = []
        points = _evaluation_points(
            config.mechanisms, config.hcfirst_values, config.respect_design_constraints
        )
        for mix in range(config.num_mixes):
            units.append(
                WorkUnit(
                    study=study_name,
                    unit_id=f"baseline/mix{mix:02d}",
                    params={"kind": "baseline", "mix": mix, **simulated},
                )
            )
            for mechanism, hcfirst in points:
                units.append(
                    WorkUnit(
                        study=study_name,
                        unit_id=f"cell/{mechanism}/hc{hcfirst}/mix{mix:02d}",
                        params={
                            "kind": "cell",
                            "mechanism": mechanism,
                            "hcfirst": hcfirst,
                            "mix": mix,
                            "time_scale": config.time_scale,
                            **simulated,
                        },
                    )
                )
        return units

    return decompose


def _simulate_baseline(shared: _SharedRun, mix: int) -> MitigationBaselineUnit:
    """The mix's shared no-mitigation run plus every core's alone run."""
    alone = SimulationBatch(
        shared.system_config, [[trace] for trace in shared.traces], backend=shared.step_mode
    ).run(shared.dram_cycles)
    return MitigationBaselineUnit(
        mix=mix,
        core_ipcs=shared.core_ipcs,
        alone_ipcs=tuple(result.core_ipcs[0] for result in alone),
    )


def _simulate_cell(
    shared: _SharedRun,
    mechanism: str,
    hcfirst: int,
    mix: int,
    seed: int,
    time_scale: float,
) -> MitigationCellUnit:
    """One mix under one mechanism configured for one HC_first.

    An idle mechanism (see :func:`_acts`) leaves the mix's shared run
    unchanged, so only a mechanism that acts is simulated.
    """
    system_config = shared.system_config
    config = MitigationConfig(
        hcfirst=hcfirst,
        banks=system_config.banks,
        rows_per_bank=system_config.rows_per_bank,
        timings=system_config.timings,
        seed=seed + mix,
        time_scale=time_scale,
    )
    core_ipcs, overhead = shared.core_ipcs, shared.bandwidth_overhead_percent
    if _acts(build_mechanism(mechanism, config), shared):
        result = Simulation(
            system_config,
            shared.traces,
            mitigation=build_mechanism(mechanism, config),
            step_mode=shared.step_mode,
        ).run(shared.dram_cycles)
        core_ipcs, overhead = tuple(result.core_ipcs), result.bandwidth_overhead_percent
    return MitigationCellUnit(
        mechanism=mechanism,
        hcfirst=hcfirst,
        mix=mix,
        core_ipcs=core_ipcs,
        bandwidth_overhead_percent=overhead,
    )


def _aggregate(
    points: Sequence[Tuple[str, int]], num_mixes: int, payloads: Sequence[object]
) -> MitigationStudyResult:
    """Per-point statistics across mixes, computed from unit payloads.

    Walks ``points`` in order and each point's mixes in index order, so the
    result does not depend on the order of ``payloads`` -- which is what
    makes a merged payload independent of the executor that ran the units
    and of the order they completed in.
    """
    baselines: Dict[int, MitigationBaselineUnit] = {}
    cells: Dict[Tuple[str, int, int], MitigationCellUnit] = {}
    for payload in payloads:
        if isinstance(payload, MitigationBaselineUnit):
            baselines[payload.mix] = payload
        elif isinstance(payload, MitigationCellUnit):
            cells[(payload.mechanism, payload.hcfirst, payload.mix)] = payload
        else:
            raise TypeError(f"unexpected Figure 10 unit payload: {payload!r}")

    baseline_speedups = {
        mix: weighted_speedup(unit.core_ipcs, unit.alone_ipcs)
        for mix, unit in baselines.items()
    }
    study = MitigationStudyResult()
    for mechanism_name, hcfirst in points:
        performances: List[float] = []
        overheads: List[float] = []
        for mix in range(num_mixes):
            cell = cells[(mechanism_name, hcfirst, mix)]
            baseline = baselines[mix]
            speedup = weighted_speedup(cell.core_ipcs, baseline.alone_ipcs)
            performances.append(
                normalized_performance(speedup, baseline_speedups[mix])
            )
            overheads.append(cell.bandwidth_overhead_percent)
        study.points.append(
            MitigationStudyPoint(
                mechanism=mechanism_name,
                hcfirst=hcfirst,
                normalized_performance_avg=sum(performances) / len(performances),
                normalized_performance_min=min(performances),
                normalized_performance_max=max(performances),
                bandwidth_overhead_avg=sum(overheads) / len(overheads),
                bandwidth_overhead_min=min(overheads),
                bandwidth_overhead_max=max(overheads),
                workloads_evaluated=len(performances),
            )
        )
    return study


def _merge_mitigation_units(
    config: MitigationStudyConfig, payloads: Sequence[object]
) -> MitigationStudyResult:
    """Reassemble the Figure 10 payload from unit payloads."""
    points = _evaluation_points(
        config.mechanisms, config.hcfirst_values, config.respect_design_constraints
    )
    return _aggregate(points, config.num_mixes, payloads)


@register_study(
    "fig10-mitigations-full",
    config=FullMitigationStudyConfig,
    requires_chip=False,
    description="Figure 10 at paper scale: all 48 workload mixes, Table 6 geometry.",
    decompose=_fig10_decompose("fig10-mitigations-full"),
    merge=_merge_mitigation_units,
)
@register_study(
    "fig10-mitigations",
    config=MitigationStudyConfig,
    requires_chip=False,
    description="Mitigation overhead versus HC_first (Figure 10), population-level.",
    decompose=_fig10_decompose("fig10-mitigations"),
    merge=_merge_mitigation_units,
)
def _run_mitigation_unit(
    _chip: None, config: MitigationStudyConfig, unit: WorkUnit
) -> object:
    """Execute one Figure 10 work unit (a baseline or a grid cell)."""
    params = unit.param_dict
    mix = params["mix"]
    shared = _cached_shared_run(
        config.num_mixes,
        mix,
        config.rows_per_bank,
        config.requests_per_core,
        config.seed,
        config.dram_cycles,
        config.step_mode,
    )
    if params["kind"] == "baseline":
        return _simulate_baseline(shared, mix)
    return _simulate_cell(
        shared, params["mechanism"], params["hcfirst"], mix, config.seed, config.time_scale
    )


def run_mitigation_study(
    system_config: Optional[SystemConfig] = None,
    workload_mixes: Optional[Sequence[WorkloadMix]] = None,
    hcfirst_values: Sequence[int] = DEFAULT_HCFIRST_SWEEP,
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    dram_cycles: int = 20_000,
    requests_per_core: int = 4_000,
    seed: int = 0,
    respect_design_constraints: bool = True,
    step_mode: str = "event",
) -> MitigationStudyResult:
    """Run the Figure 10 evaluation.

    Parameters
    ----------
    system_config:
        Simulated system (defaults to Table 6 with a reduced row count for
        speed -- mitigation table sizes scale with it).
    workload_mixes:
        Multi-programmed mixes to evaluate; defaults to a small random set.
        The paper uses 48 mixes; the default here is sized for a quick run.
        No mixes give an empty result.
    hcfirst_values, mechanisms:
        The sweep axes of Figure 10.
    dram_cycles, requests_per_core:
        Length of each simulation.
    respect_design_constraints:
        When true (the default, matching the paper), mechanisms are skipped
        at HC_first values where their published design does not apply.
    step_mode:
        Simulation stepping strategy; the default event-driven mode and the
        ``"cycle"`` reference produce bit-identical studies.

    Runs the same baseline and cell units as the registered studies, mix by
    mix: each mix's traces and shared no-mitigation run are computed once
    and shared by its baseline and every evaluation point.  Mechanisms run
    at :data:`FAITHFUL_TIME_SCALE`; to compress the refresh window, run a
    registered study with a smaller ``time_scale``.  The sweep follows
    :class:`MitigationStudyConfig`'s rules and is checked before any trace
    is built: a sweep the config rejects raises ``ValueError``.
    """
    _check_sweep(
        mechanisms,
        hcfirst_values,
        respect_design_constraints,
        dram_cycles,
        requests_per_core,
        step_mode,
    )
    config = system_config or SystemConfig(rows_per_bank=4096)
    mixes = list(workload_mixes) if workload_mixes is not None else make_workload_mixes(
        num_mixes=4, cores=config.cores, seed=seed
    )
    if not mixes:
        return MitigationStudyResult()
    points = _evaluation_points(mechanisms, hcfirst_values, respect_design_constraints)
    payloads: List[object] = []
    for mix, workload in enumerate(mixes):
        traces = workload.build_traces(
            banks=config.banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            requests_per_core=requests_per_core,
            seed=seed,
        )
        shared = _run_shared(config, traces, dram_cycles, step_mode)
        payloads.append(_simulate_baseline(shared, mix))
        for mechanism, hcfirst in points:
            payloads.append(
                _simulate_cell(shared, mechanism, hcfirst, mix, seed, FAITHFUL_TIME_SCALE)
            )
    return _aggregate(points, len(mixes), payloads)

