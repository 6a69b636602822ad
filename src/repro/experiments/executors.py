"""Pluggable execution backends for fanning studies out across chips.

An :class:`Executor` turns a batch of :class:`StudyTask` items, each one
:class:`~repro.experiments.study.WorkUnit` on one chip (an undecomposed
study's single implicit unit, or one shard of a decomposed study), into
:class:`TaskOutcome` items, each paired with the index of its task.  Two
backends are provided:

* :class:`SerialExecutor` runs tasks one after another in-process -- the
  reference behaviour every other backend must reproduce bit-identically.
* :class:`ParallelExecutor` fans tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Determinism
-----------
Both executors run every task against a *copy* of the task's chip taken at
submission time (hermetic execution).  Because a simulated chip derives all
of its stochastic state (cell thresholds, coupling classes, noise epochs)
on demand from its own seed via :func:`repro.utils.rng.derive_seed`, a copy
behaves bit-identically to the original, whether it is deep-copied in
process or pickled into a worker.  The session files every outcome under
its task's index and merges unit payloads in decomposition order, so a
parallel run produces exactly the serial run's results whatever order its
outcomes arrive in.

Hermetic execution also keeps the cache sound: a study's result depends
only on the chip's construction parameters and the study config, never on
residue left behind by an earlier study.

The chip's operation counters are not lost: each outcome carries the
:class:`~repro.dram.chip.ChipStats` accrued by the copy, which the session
merges back into the original chip.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.dram.chip import ChipStats, DramChip
from repro.experiments.study import WorkUnit, get_study


@dataclass
class StudyTask:
    """One unit of executor work: run ``study`` with ``config`` on ``chip``.

    ``unit`` selects one shard of a decomposed study (see
    :class:`~repro.experiments.study.WorkUnit`); an undecomposed study runs
    as its single implicit whole-study unit, which carries the config.
    ``study``, ``config``, ``chip`` and ``unit`` are all a task's outcome
    depends on: a chip's behaviour follows from its construction
    parameters, its seed among them.
    """

    study: str
    config: Any
    chip: Optional[DramChip]
    unit: WorkUnit


@dataclass
class TaskOutcome:
    """One work unit's result on one chip: what an executor yields for a
    task, and what a :class:`~repro.experiments.store.ResultStore` keeps.

    ``study``, ``unit_digest`` and ``chip_id`` (``None`` for a
    population-level study) name the unit and chip ``payload`` belongs to:
    the session checks them against the task, the store against the key.
    The rest is bookkeeping, excluded from equality so a replayed outcome
    compares equal to the one that was stored: ``elapsed_s`` is the unit's
    execution time, ``stats`` the :class:`~repro.dram.chip.ChipStats` the
    chip copy accrued, and ``attempts`` / ``requeues`` record recovery
    behaviour for backends that can lose workers mid-task (``attempts`` =
    times the task was dispatched until this result, ``requeues`` = leases
    reclaimed from dead or hung workers; see
    :class:`repro.experiments.remote.ServiceExecutor`).  Local executors
    always report one attempt and no requeues; a store hit has no execution
    behind it, so it reports zero seconds and no stats.
    """

    study: str
    unit_digest: str
    chip_id: Optional[str]
    payload: Any
    elapsed_s: float = field(default=0.0, compare=False)
    stats: Optional[ChipStats] = field(default=None, compare=False)
    attempts: int = field(default=1, compare=False)
    requeues: int = field(default=0, compare=False)


def execute_task(task: StudyTask) -> TaskOutcome:
    """Execute one study task (one work unit on one chip) hermetically.

    Module-level so :class:`ParallelExecutor` can ship it to worker
    processes; the registry lookup re-imports the built-in study modules
    inside spawn-based workers.
    """
    spec = get_study(task.study)
    chip = copy.deepcopy(task.chip) if task.chip is not None else None
    if chip is not None:
        chip.stats.reset()
    started = time.perf_counter()
    payload = spec.run_unit(chip, task.config, task.unit)
    elapsed = time.perf_counter() - started
    return TaskOutcome(
        study=task.study,
        unit_digest=task.unit.digest,
        chip_id=chip.chip_id if chip is not None else None,
        payload=payload,
        elapsed_s=elapsed,
        stats=chip.stats if chip is not None else None,
    )


class Executor:
    """Base class of execution backends.

    Subclasses implement :meth:`iter_outcomes`, which must yield one
    ``(task index, outcome)`` pair per task, in any order, and should yield
    each pair *as soon as* its task completes.  The session files each
    outcome under its task by index and checkpoints it into the result
    store on arrival, so a killed or failed run leaves every finished work
    unit on disk and a rerun resumes from them.  It fails a run that gets
    fewer outcomes than tasks, a second outcome for one task, or an
    outcome whose study, unit or chip is not its task's.
    """

    def iter_outcomes(self, tasks: Sequence[StudyTask]) -> Iterator[Tuple[int, TaskOutcome]]:
        """Yield ``(task index, outcome)`` once per task, each as it completes."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Runs every task sequentially in the calling process."""

    def iter_outcomes(self, tasks: Sequence[StudyTask]) -> Iterator[Tuple[int, TaskOutcome]]:
        for index, task in enumerate(tasks):
            yield index, execute_task(task)


class ParallelExecutor(Executor):
    """Fans tasks out across a process pool.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to ``os.cpu_count()`` capped at the
        number of tasks per batch.

    Tasks are shipped one per round trip, which gives the best load
    balance for the coarse-grained tasks studies produce.  Outcomes are
    yielded in completion order; once a task raises, the tasks not yet
    started are cancelled and the error propagates.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers

    def iter_outcomes(self, tasks: Sequence[StudyTask]) -> Iterator[Tuple[int, TaskOutcome]]:
        tasks = list(tasks)
        if not tasks:
            return
        workers = self.max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(tasks)))
        if workers == 1:
            for index, task in enumerate(tasks):
                yield index, execute_task(task)
            return
        # Imported here: concurrent.futures loads logging, and its process
        # pool multiprocessing, which a process that builds no pool never uses.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {pool.submit(execute_task, task): index for index, task in enumerate(tasks)}
            # Each outcome is yielded as its task completes, so the consuming
            # session checkpoints it while slower units (or one that will
            # fail) still run.
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            # A failed task, or a consumer that stops early, cancels every
            # task not yet started; running ones finish before the pool
            # shuts down.
            pool.shutdown(cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ParallelExecutor(max_workers={self.max_workers})"
