"""`ServiceExecutor`: run a session's work units on a remote worker fleet.

Drop-in :class:`~repro.experiments.executors.Executor` backend that ships
every :class:`~repro.experiments.executors.StudyTask` to a
:mod:`repro.service` scheduler instead of running it locally.  The session
layer is untouched: units are still decomposed, cached and merged exactly
as with :class:`~repro.experiments.executors.SerialExecutor`, so a service
run's merged payloads are bit-identical to a serial run's -- for any worker
count, any completion order, and across worker deaths mid-sweep (the
scheduler re-leases and retries lost units; see
:mod:`repro.service.leases`).

Outcomes stream back in task order as their in-order turn completes --
the same contract ``ParallelExecutor`` gets from ``pool.map`` -- so the
session checkpoints finished units into its store while later units are
still executing remotely.  Each outcome additionally carries the
scheduler's recovery record (``attempts``/``requeues``), which the session
surfaces as :attr:`SessionRunResult.retries` / ``requeues``.

Tasks whose chip is pristine (or absent) also ship *cache metadata* -- the
exact :class:`~repro.experiments.store.CacheKey` fields the session would
use locally -- so a scheduler configured with its own result store
checkpoints completed units server-side; a local session pointed at the
same (advisory-locked) store directory then replays the service run from
cache.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Optional, Sequence

from repro.experiments.executors import Executor, StudyTask, TaskOutcome
from repro.experiments.store import cache_key
from repro.experiments.study import WHOLE_STUDY_UNIT, config_digest
from repro.service.client import PoisonedUnitError, ServiceClient
from repro.service.protocol import pack_blob, unpack_blob


class ServiceExecutor(Executor):
    """Executes task batches through a ``repro.service`` scheduler.

    Parameters
    ----------
    host, port:
        Scheduler endpoint (see ``python -m repro.service scheduler``).
    label:
        Submission label shown by the ``status`` endpoint; defaults to the
        first task's study name.
    client_name:
        Client identity in scheduler telemetry.
    """

    name = "service"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7075,
        *,
        label: Optional[str] = None,
        client_name: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.label = label
        self.client_name = client_name

    def iter_outcomes(self, tasks: Sequence[StudyTask]) -> Iterator[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return
        label = self.label or tasks[0].study
        units = [self._unit_spec(index, task) for index, task in enumerate(tasks)]
        with ServiceClient(self.host, self.port, name=self.client_name) as client:
            client.submit_units(units, label=label)
            buffered: Dict[int, TaskOutcome] = {}
            next_index = 0
            for event in client.events():
                kind = event.get("type")
                if kind == "unit_complete":
                    outcome: TaskOutcome = unpack_blob(event["outcome"])
                    outcome.attempts = int(event.get("attempts") or 1)
                    outcome.requeues = int(event.get("requeues") or 0)
                    buffered[int(event["index"])] = outcome
                    while next_index in buffered:
                        yield buffered.pop(next_index)
                        next_index += 1
                elif kind == "unit_quarantined":
                    # A poisoned unit can never complete, so the study
                    # cannot be merged: fail fast with the recorded errors.
                    # Closing the connection cancels the submission, so the
                    # scheduler stops dispatching its remaining units.
                    raise PoisonedUnitError(label, [event])
                elif kind == "submission_done":
                    quarantined = event.get("quarantined") or []
                    if quarantined:  # pragma: no cover - covered by the branch above
                        raise PoisonedUnitError(
                            label, [{"key": key} for key in quarantined]
                        )

    @staticmethod
    def _unit_spec(index: int, task: StudyTask) -> dict:
        """The JSON unit dict shipped in a submit message for one task."""
        unit = task.unit
        digest = WHOLE_STUDY_UNIT if unit.is_whole_study else unit.digest
        cache = None
        if task.chip is None or task.chip.is_pristine:
            # Lets the scheduler checkpoint this unit's result server-side
            # under the exact key a local session would use.
            key = cache_key(task.study, config_digest(task.config), task.chip, unit)
            cache = dataclasses.asdict(key)
        return {
            "key": f"{index:06d}-{digest}",
            "index": index,
            "unit_digest": digest,
            "task": pack_blob(task),
            "cache": cache,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServiceExecutor({self.host!r}, {self.port})"
