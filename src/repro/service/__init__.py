"""Distributed experiment service: leased work-unit dispatch at fleet scale.

``repro.service`` turns the sharded session layer (PR 4's
:class:`~repro.experiments.study.WorkUnit` machinery) into a multi-host
system: an asyncio **scheduler** accepts study submissions from many
concurrent clients, fans their work units out to a fleet of **workers**
over a newline-delimited-JSON socket protocol, and streams each unit's
outcome back to the submitting client, which merges them through the
unchanged session/store machinery.  The unit digests and bit-identity
contracts define correctness: a study run through
:class:`~repro.experiments.remote.ServiceExecutor` produces payloads
bit-identical to :class:`~repro.experiments.executors.SerialExecutor`, for
any worker count, any completion order, and across worker deaths mid-sweep.

Standing up a fleet
-------------------
One scheduler, N workers, any number of clients -- from a shell::

    # terminal 1: the scheduler (ephemeral port printed at startup)
    python -m repro.service scheduler --port 7075

    # terminals 2..N+1: workers (local or on other hosts)
    python -m repro.service worker --host scheduler-host --port 7075

    # terminal N+2: submit a study and wait for the merged result; the
    # units are cached in the submitter's store, so a rerun replays them
    python -m repro.service submit --host scheduler-host --port 7075 \\
        --store /tmp/units --study fig10-mitigations \\
        --config-json '{"num_mixes": 1}'

    # anywhere: live telemetry
    python -m repro.service status --host scheduler-host --port 7075

or in-process (tests, examples, notebooks)::

    from repro.service import SchedulerThread, ServiceWorker
    from repro.experiments import ExperimentSession
    from repro.experiments.remote import ServiceExecutor

    with SchedulerThread() as scheduler:
        host, port = scheduler.address
        # ... start ServiceWorker(host, port).run() in threads/processes ...
        session = ExperimentSession(executor=ServiceExecutor(host, port))
        outcome = session.run("fig10-mitigations")

Protocol
--------
Every message is one JSON object per line; pickled tasks/outcomes ride as
base64 blobs inside JSON strings.  The full message reference lives in
:mod:`repro.service.protocol`.  In short: clients ``submit`` a list of task
blobs and receive ``unit_complete`` / ``unit_quarantined`` / ``submission_done``;
workers loop ``lease_request`` -> ``lease_grant`` -> ``unit_result`` |
``unit_failed`` with fire-and-forget ``heartbeat`` renewals; anyone may
send ``status_request``.

Lease state machine
-------------------
Workers pull unit *batches* under leases (expiry + heartbeat).  Per unit::

                 grant                    complete
    PENDING  ------------->  LEASED  ----------------->  COMPLETED
       ^                       |
       |  requeue + backoff    |  lease expired / worker died /
       +-----------------------+  worker-reported failure
       |
       |  attempts >= max_attempts
       +----------------------------->  QUARANTINED

A dead worker's units are re-leased immediately (connection loss) or at
the next sweep (heartbeat expiry), and retried under capped exponential
backoff; a unit that fails ``max_attempts`` times is quarantined --
reported to the client as poisoned -- without sinking other units,
submissions or clients.  The scheduler names every unit after its
submission and its index in it, and completions are idempotent by that
key: re-dispatch races resolve to first-wins, with late duplicates counted
and dropped.  See :mod:`repro.service.leases`.

Telemetry
---------
The ``status`` endpoint reports per-study progress, unit throughput,
lease/retry/quarantine counters and worker liveness; unit execution times
are aggregated as *streaming* statistics (bounded reservoir summarised via
:func:`repro.utils.stats.box_stats`), so scheduler memory stays bounded no
matter how many units a sweep completes.  See
:mod:`repro.service.telemetry`.

Lazy names
----------
Every public name here resolves on first access, from the ``_EXPORTS``
table that also makes ``__all__``.  The scheduler, client, worker and
protocol modules import asyncio, ssl, socket and selectors, and the
study registry imports :mod:`repro.service.selftest` on its first lookup
to register ``service-selftest``; resolving lazily keeps that import, and
so every local session, from loading a stack it never uses.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Lease": "leases",
    "LeaseManager": "leases",
    "PoisonedUnitError": "client",
    "PROTOCOL_VERSION": "protocol",
    "ProtocolError": "protocol",
    "SchedulerServer": "scheduler",
    "SchedulerTelemetry": "telemetry",
    "SchedulerThread": "scheduler",
    "SchedulerUnavailableError": "client",
    "ServiceClient": "client",
    "ServiceSelfTestConfig": "selftest",
    "ServiceSelfTestResult": "selftest",
    "ServiceWorker": "worker",
    "StreamingStats": "telemetry",
    "UnitRecord": "leases",
    "UnitState": "leases",
    "fetch_status": "client",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
