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

Outcomes stream back in completion order, each with its task index, so
the session checkpoints every finished unit into its store the moment it
arrives -- a quarantined unit or an interrupted client loses no unit that
completed.  Each outcome additionally carries the scheduler's recovery
record (``attempts``/``requeues``), which the session surfaces as
:attr:`SessionRunResult.retries` / ``requeues``.

The scheduler keeps no results: to cache a service run, give the
submitting session a ``store=``, and any later session over the same
directory replays it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.experiments.executors import Executor, StudyTask, TaskOutcome
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
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7075,
        *,
        label: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.label = label

    def iter_outcomes(self, tasks: Sequence[StudyTask]) -> Iterator[Tuple[int, TaskOutcome]]:
        tasks = list(tasks)
        if not tasks:
            return
        label = self.label or tasks[0].study
        with ServiceClient(self.host, self.port) as client:
            client.submit_units([pack_blob(task) for task in tasks], label=label)
            for event in client.events():
                kind = event.get("type")
                if kind == "unit_complete":
                    outcome: TaskOutcome = unpack_blob(event["outcome"])
                    outcome.attempts = int(event.get("attempts") or 1)
                    outcome.requeues = int(event.get("requeues") or 0)
                    yield int(event["index"]), outcome
                elif kind == "unit_quarantined":
                    # A poisoned unit can never complete, so the study
                    # cannot be merged: fail fast with the recorded errors.
                    # Closing the connection cancels the submission, so the
                    # scheduler stops dispatching its remaining units.
                    raise PoisonedUnitError(label, [event])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServiceExecutor({self.host!r}, {self.port})"
