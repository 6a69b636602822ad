"""Unified experiment orchestration: studies, work units, executors, cache.

Every paper analysis is exposed as a named *study* (see
:func:`list_studies`) with a frozen config dataclass and a registered
function that runs one unit of it.  An :class:`ExperimentSession`
owns a chip population, fans studies out across it via pluggable executors
(:class:`SerialExecutor`, process-pool :class:`ParallelExecutor` with
bit-identical results), and caches every work unit's result in a
:class:`ResultStore` so work is never repeated across benchmarks or runs.

Work units: sharded execution and crash resume
----------------------------------------------
A study's registered function is ``fn(chip, config) -> payload`` when
the whole study is one unit: its single implicit :class:`WorkUnit`
(``WHOLE_STUDY_UNIT``) carries the config, so the unit's digest covers
every config field.  Grid-shaped studies instead declare a
*decomposition* at registration time -- ``decompose(config)`` enumerating
independent :class:`WorkUnit` shards and a deterministic ``merge(config,
payloads)`` reassembling the study payload in decomposition order -- and
register the function that executes one shard hermetically::

    @register_study("my-sweep", config=SweepConfig,
                    decompose=my_decompose, merge=my_merge)
    def run_my_sweep_unit(chip, config, unit):
        ...  # one shard, on a fresh copy of the chip

Sessions then fan the *units* (not whole studies) through the executor and
cache each unit individually: every executor outcome and every store entry
is one unit's :class:`TaskOutcome`, keyed by the chip's and the unit's
content digests; a decomposed study runs only through a session.  That
buys three things at once:

* **sharding** -- a process pool parallelizes across grid cells even for
  population-level (simulator-backed) studies that have no chips to shard
  over; results stay bit-identical to serial execution regardless of
  worker count or completion order, because the merge runs in
  decomposition order over pure data;
* **resume** -- a killed sweep replays its completed units from the store
  and re-executes exactly the missing ones (see
  ``tests/experiments/test_unit_cache_resume.py``);
* **surgical invalidation** -- a unit's params embed every config field
  its payload depends on, so editing one axis of a sweep (say, adding a
  mechanism to the Figure 10 grid) re-executes only the units the edit
  created.

The Figure 10 studies (``fig10-mitigations``, ``fig10-mitigations-full``)
shard into one baseline unit per workload mix plus one cell unit per
evaluable (mechanism, HC_first, mix) grid point -- 48 + 47 x 48 units at
paper scale -- and merge bit-identically to
:func:`~repro.analysis.mitigation_study.run_mitigation_study`, which runs
the same units in turn.  The
chip-grid characterization studies shard along their grid axes
(``alg1-characterization`` per hammer count, ``fig4-coverage`` per data
pattern), each unit measuring a fresh hermetic chip copy.
``SessionRunResult.cache_hits`` / ``executed`` count at unit granularity,
so progress reporting stays truthful for decomposed studies.

Beyond one host, :class:`ServiceExecutor` ships the same work units to a
:mod:`repro.service` scheduler, which leases them out to a multi-host
worker fleet with retry/quarantine fault tolerance -- still bit-identical
to :class:`SerialExecutor`, with recovery behaviour surfaced as
``SessionRunResult.retries`` / ``requeues``.

``ServiceExecutor`` is the one name here that loads on first use: it
imports the service client, and with it asyncio, ssl and socket, which a
local session never needs.  Likewise :class:`ParallelExecutor` imports
:mod:`concurrent.futures` and its process pool (and with them logging and
multiprocessing) only when it builds a pool.

Quickstart
----------
>>> from repro.experiments import ExperimentSession
>>> session = ExperimentSession.from_table1(chips_per_config=1, seed=1)
>>> sweep = session.run("fig5-hc-sweep")
>>> len(sweep.results) == len(session.chips)
True
"""

from repro.experiments.study import (
    WHOLE_STUDY_UNIT,
    DecompositionError,
    DuplicateStudyError,
    RegisteredStudy,
    StudyResult,
    UnknownStudyError,
    WorkUnit,
    config_digest,
    get_study,
    list_studies,
    register_study,
    unregister_study,
)
from repro.experiments.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    StudyTask,
    TaskOutcome,
)
from repro.experiments.store import CacheKey, ResultStore, chip_digest
from repro.experiments.session import ExperimentSession, SessionRunResult

__all__ = [
    "CacheKey",
    "DecompositionError",
    "DuplicateStudyError",
    "Executor",
    "ExperimentSession",
    "ParallelExecutor",
    "RegisteredStudy",
    "ResultStore",
    "SerialExecutor",
    "ServiceExecutor",
    "SessionRunResult",
    "StudyResult",
    "StudyTask",
    "TaskOutcome",
    "UnknownStudyError",
    "WHOLE_STUDY_UNIT",
    "WorkUnit",
    "chip_digest",
    "config_digest",
    "get_study",
    "list_studies",
    "register_study",
    "unregister_study",
]


def __getattr__(name: str) -> type:
    if name == "ServiceExecutor":
        from repro.experiments.remote import ServiceExecutor

        return ServiceExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
