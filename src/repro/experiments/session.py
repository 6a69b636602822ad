"""The session API: one orchestration layer for every paper study.

:class:`ExperimentSession` owns a chip population, fans registered studies
out across it through a pluggable executor, caches per-chip results in a
:class:`~repro.experiments.store.ResultStore`, and aggregates per-chip
results into population-level views.

>>> from repro.experiments import ExperimentSession
>>> session = ExperimentSession.from_table1(chips_per_config=1, seed=7)
>>> outcome = session.run("fig8-hcfirst")
>>> len(outcome.results) == len(session.chips)
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dram.chip import DramChip
from repro.dram.geometry import ChipGeometry
from repro.dram.module import DramModule
from repro.dram.population import flatten_population, make_population
from repro.experiments.executors import Executor, SerialExecutor, StudyTask
from repro.experiments.store import CacheKey, ResultStore
from repro.experiments.study import (
    RegisteredStudy,
    StudyResult,
    WorkUnit,
    config_digest,
    get_study,
)
from repro.utils.rng import derive_seed

#: Anything a session accepts as its chip population: a single chip, a
#: module, an iterable of chips, or the configuration-keyed dict produced
#: by :func:`repro.dram.population.make_population`.
PopulationLike = Union[
    DramChip,
    DramModule,
    Iterable[DramChip],
    Mapping[Any, Sequence[DramChip]],
]


@dataclass
class SessionRunResult:
    """Outcome of one :meth:`ExperimentSession.run` call.

    Holds one :class:`~repro.experiments.study.StudyResult` per chip (or a
    single result for population-level studies), in chip order, plus
    aggregation conveniences mirroring how the paper rolls chips up into
    per-configuration figures and tables.
    """

    study: str
    config: Any
    results: List[StudyResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    def payloads(self) -> List[Any]:
        """The domain result of every chip, in chip order."""
        return [result.payload for result in self.results]

    def single(self) -> Any:
        """The payload of a single-result run (one chip or a system study)."""
        if len(self.results) != 1:
            raise ValueError(
                f"run produced {len(self.results)} results; single() needs exactly one"
            )
        return self.results[0].payload

    def by_configuration(self) -> Dict[Tuple[str, str], List[Any]]:
        """Payloads grouped by (type-node, manufacturer), preserving chip order."""
        grouped: Dict[Tuple[str, str], List[Any]] = {}
        for result in self.results:
            if result.configuration is None:
                continue
            grouped.setdefault(result.configuration, []).append(result.payload)
        return grouped

    @property
    def cache_hits(self) -> int:
        """How many *work units* were replayed from the store.

        Counts at unit granularity so progress reporting stays truthful for
        decomposed studies: a 2000-unit sweep resumed with 3 missing units
        reports 1997 hits, not 0.  Undecomposed studies run as one implicit
        unit per chip, so the count matches the old per-task meaning there.
        """
        return sum(result.units_from_cache for result in self.results)

    @property
    def executed(self) -> int:
        """How many *work units* were freshly computed (see ``cache_hits``)."""
        return sum(result.units_total - result.units_from_cache for result in self.results)

    @property
    def units_total(self) -> int:
        """Total work units behind this run's results."""
        return sum(result.units_total for result in self.results)

    @property
    def retries(self) -> int:
        """Extra dispatch attempts beyond the first, summed over all units.

        Always zero for local executors; for service runs (see
        :class:`~repro.experiments.remote.ServiceExecutor`) this counts
        every re-execution caused by worker deaths, expired leases or
        worker-reported failures -- the recovery work behind the result.
        """
        return sum(result.units_retries for result in self.results)

    @property
    def requeues(self) -> int:
        """Leases reclaimed from dead or hung workers, summed over all units."""
        return sum(result.units_requeued for result in self.results)


class ExperimentSession:
    """Runs registered studies over a chip population.

    Parameters
    ----------
    population:
        The chips to study -- a single chip, a module, a chip list, or the
        dict :func:`repro.dram.population.make_population` returns.  More
        chips can be added later with :meth:`add_chips`.
    executor:
        Execution backend; defaults to
        :class:`~repro.experiments.executors.SerialExecutor`.  Swapping in
        a :class:`~repro.experiments.executors.ParallelExecutor` changes
        wall-clock time, never results (see the executor module docs).
    store:
        Optional :class:`~repro.experiments.store.ResultStore`; when given,
        per-chip results are cached and replayed instead of recomputed.
    seed:
        Session seed from which every task derives an independent stream
        (recorded on each result for standalone reproduction).
    """

    def __init__(
        self,
        population: Optional[PopulationLike] = None,
        executor: Optional[Executor] = None,
        store: Optional[ResultStore] = None,
        seed: int = 0,
    ) -> None:
        self.executor = executor or SerialExecutor()
        self.store = store
        self.seed = seed
        self._chips: List[DramChip] = []
        if population is not None:
            self.add_chips(population)

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    @classmethod
    def from_table1(
        cls,
        chips_per_config: Optional[int] = None,
        seed: int = 0,
        geometry: Optional[ChipGeometry] = None,
        configurations: Optional[Sequence[Tuple[Any, str]]] = None,
        executor: Optional[Executor] = None,
        store: Optional[ResultStore] = None,
    ) -> "ExperimentSession":
        """Build a session over a Table 1 population (see ``make_population``)."""
        population = make_population(
            chips_per_config=chips_per_config,
            seed=seed,
            geometry=geometry,
            configurations=configurations,
        )
        return cls(population, executor=executor, store=store, seed=seed)

    def add_chips(self, population: PopulationLike) -> None:
        """Add chips to the session's population (duplicates by identity skipped)."""
        known = {id(chip) for chip in self._chips}
        for chip in self._coerce_chips(population):
            if id(chip) not in known:
                known.add(id(chip))
                self._chips.append(chip)

    @staticmethod
    def _coerce_chips(population: PopulationLike) -> List[DramChip]:
        if isinstance(population, DramChip):
            return [population]
        if isinstance(population, DramModule):
            return list(population.chips)
        if isinstance(population, Mapping):
            return flatten_population(population)
        return list(population)

    @property
    def chips(self) -> List[DramChip]:
        """The session's chip population, in insertion order."""
        return list(self._chips)

    def chips_for(self, type_node: Any, manufacturer: Optional[str] = None) -> List[DramChip]:
        """Chips of one type-node (and optionally one manufacturer)."""
        wanted = str(type_node)
        return [
            chip
            for chip in self._chips
            if chip.profile.type_node.value == wanted
            and (manufacturer is None or chip.profile.manufacturer == manufacturer)
        ]

    def configurations(self) -> List[Tuple[str, str]]:
        """Distinct (type-node, manufacturer) pairs present, in insertion order."""
        seen: List[Tuple[str, str]] = []
        for chip in self._chips:
            key = (chip.profile.type_node.value, chip.profile.manufacturer)
            if key not in seen:
                seen.append(key)
        return seen

    # ------------------------------------------------------------------
    # Study execution
    # ------------------------------------------------------------------
    def run(
        self,
        study: Union[str, RegisteredStudy],
        config: Any = None,
        chips: Optional[Sequence[DramChip]] = None,
    ) -> SessionRunResult:
        """Run one registered study over the population (or a chip subset).

        The study is first decomposed into work units (one implicit unit for
        undecomposed studies; see :meth:`RegisteredStudy.units_for`).  Units
        already in the store are replayed without touching the chips; the
        remaining units go through the executor at unit granularity, and
        each freshly computed unit is written back to the store
        individually -- so a killed run resumes from its completed units.
        Unit payloads are then merged *in decomposition order*, which makes
        the returned payloads bit-identical regardless of cache state,
        executor backend, worker count or unit completion order.  The
        results are in chip order.
        """
        spec = study if isinstance(study, RegisteredStudy) else get_study(study)
        if config is None:
            config = spec.default_config()
        digest = config_digest(config)
        units = spec.units_for(config)

        if spec.requires_chip:
            targets: List[Optional[DramChip]] = list(chips) if chips is not None else list(self._chips)
            if not targets:
                raise ValueError(
                    f"study {spec.name!r} runs per chip but the session population is empty"
                )
        else:
            targets = [None]

        started = time.perf_counter()
        # Per target: the payload of every unit (filled from cache or the
        # executor), how many came from the cache, and the executed seconds.
        unit_payloads: List[List[Any]] = [[None] * len(units) for _ in targets]
        units_cached: List[int] = [0] * len(targets)
        unit_elapsed: List[float] = [0.0] * len(targets)
        units_retries: List[int] = [0] * len(targets)
        units_requeued: List[int] = [0] * len(targets)
        # Per pending task: its target, its unit and the store key its
        # result is written back under (``None`` when it is not cached).
        pending_slots: List[Tuple[int, int, Optional[CacheKey]]] = []
        pending_tasks: List[StudyTask] = []
        for t_index, chip in enumerate(targets):
            # The store keys results by chip *construction* parameters, which
            # only describe a chip nobody has written to or hammered outside
            # the session.  A chip mutated directly by the caller bypasses
            # the cache entirely (results stay correct, just uncached).
            cacheable = chip is None or chip.is_pristine
            for u_index, unit in enumerate(units):
                key = None
                if self.store is not None and cacheable:
                    key = self.store.key_for(spec.name, digest, chip, unit)
                    cached = self.store.get(key)
                    if cached is not None:
                        unit_payloads[t_index][u_index] = cached.payload
                        units_cached[t_index] += 1
                        continue
                pending_slots.append((t_index, u_index, key))
                pending_tasks.append(
                    StudyTask(
                        study=spec.name,
                        config=config,
                        chip=chip,
                        seed=self._unit_seed(spec, digest, chip, unit),
                        unit=unit,
                    )
                )

        # iter_outcomes streams completed units in task order, so every
        # finished unit is checkpointed into the store *before* the batch is
        # done -- a run killed mid-sweep resumes from the units on disk.
        outcomes = self.executor.iter_outcomes(pending_tasks)
        try:
            for (t_index, u_index, key), outcome in zip(pending_slots, outcomes):
                unit_payloads[t_index][u_index] = outcome.result.payload
                unit_elapsed[t_index] += outcome.result.elapsed_s
                units_retries[t_index] += max(0, outcome.attempts - 1)
                units_requeued[t_index] += outcome.requeues
                chip = targets[t_index]
                if chip is not None and outcome.stats is not None:
                    # The executor ran against a copy; fold the copy's
                    # operation counters back so ChipStats reflects all work
                    # done on a chip.
                    chip.stats.merge(outcome.stats)
                if key is not None:
                    self.store.put(key, outcome.result)
        finally:
            # zip() stops at the last slot without advancing the generator
            # past its final yield; closing it releases executor resources
            # (e.g. the process pool) before the merge phase instead of at GC.
            close = getattr(outcomes, "close", None)
            if close is not None:
                close()

        results: List[StudyResult] = []
        for t_index, chip in enumerate(targets):
            payload = spec.merge_units(config, unit_payloads[t_index])
            results.append(
                StudyResult(
                    study=spec.name,
                    config_digest=digest,
                    chip_id=chip.chip_id if chip is not None else None,
                    type_node=chip.profile.type_node.value if chip is not None else None,
                    manufacturer=chip.profile.manufacturer if chip is not None else None,
                    seed=derive_seed(self.seed, spec.name, digest, self._chip_label(chip)),
                    payload=payload,
                    elapsed_s=unit_elapsed[t_index],
                    from_cache=units_cached[t_index] == len(units),
                    units_total=len(units),
                    units_from_cache=units_cached[t_index],
                    units_retries=units_retries[t_index],
                    units_requeued=units_requeued[t_index],
                )
            )

        return SessionRunResult(
            study=spec.name,
            config=config,
            results=results,
            elapsed_s=time.perf_counter() - started,
        )

    @staticmethod
    def _chip_label(chip: Optional[DramChip]) -> str:
        return chip.chip_id if chip is not None else "population"

    def _unit_seed(
        self, spec: RegisteredStudy, digest: str, chip: Optional[DramChip], unit: WorkUnit
    ) -> int:
        """Independent, reproducible stream for one (chip, unit) task.

        The implicit whole-study unit keeps the historical derivation (no
        unit component), so undecomposed studies record the same seeds --
        and produce byte-identical cached envelopes -- as before the unit
        layer existed.
        """
        if unit.is_whole_study:
            return derive_seed(self.seed, spec.name, digest, self._chip_label(chip))
        return derive_seed(self.seed, spec.name, digest, self._chip_label(chip), unit.unit_id)

    def run_all(
        self,
        studies: Sequence[Union[str, RegisteredStudy]],
        configs: Optional[Mapping[str, Any]] = None,
        chips: Optional[Sequence[DramChip]] = None,
    ) -> Dict[str, SessionRunResult]:
        """Run several studies in order, returning results keyed by study name."""
        configs = configs or {}
        outcomes: Dict[str, SessionRunResult] = {}
        for study in studies:
            name = study if isinstance(study, str) else study.name
            outcomes[name] = self.run(study, config=configs.get(name), chips=chips)
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ExperimentSession(chips={len(self._chips)}, executor={self.executor!r}, "
            f"store={'yes' if self.store is not None else 'no'}, seed={self.seed})"
        )
