#!/usr/bin/env python3
"""A distributed experiment sweep through ``repro.service``, end to end.

This example stands up the whole service stack *inside one process* --
scheduler, a two-worker fleet, a submitting session and its result
store -- so it runs anywhere with no setup.  Every piece maps one-to-one
onto a real multi-host deployment; the shell equivalent is shown next to
each step.  The moves:

1. **scheduler** -- start the lease-dispatching scheduler
   (multi-host: ``python -m repro.service scheduler --port 7075``),
2. **workers** -- attach a fleet of pull-based workers
   (on each host: ``python -m repro.service worker --host SCHED``),
3. **submit** -- run a registered study through an
   :class:`repro.ServiceExecutor`-backed session with a result store,
   exactly like a local run (or: ``python -m repro.service submit
   --store DIR --study fig10-mitigations``),
4. **bit identity** -- compare against a local ``SerialExecutor`` run:
   the payloads are identical, whatever the fleet did,
5. **shared store** -- the submitting session checkpointed every
   completed unit, so a purely local session over the same directory
   replays the sweep from cache without recomputing anything.

Run with::

    PYTHONPATH=src python examples/distributed_sweep.py
"""

import tempfile
import threading
from pathlib import Path

from repro import ExperimentSession, ResultStore, SerialExecutor, ServiceExecutor
from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.service import SchedulerThread, ServiceClient, ServiceWorker

#: A small simulator-backed Figure 10 sweep: three mitigation mechanisms
#: evaluated at two HC_first points over one workload mix.
CONFIG = MitigationStudyConfig(
    hcfirst_values=(2_000, 256),
    mechanisms=("PARA", "ProHIT", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="distributed-sweep-") as scratch:
        sweep(Path(scratch) / "store")


def sweep(store_root: Path) -> None:
    # ------------------------------------------------------------------
    # 1. Scheduler.  Shell: python -m repro.service scheduler --port 7075
    # ------------------------------------------------------------------
    with SchedulerThread() as scheduler:
        host, port = scheduler.address
        print(f"scheduler listening on {host}:{port}")

        # --------------------------------------------------------------
        # 2. Worker fleet.  Shell, once per host:
        #        python -m repro.service worker --host HOST --port 7075
        # Workers pull unit batches under leases; if one dies, the
        # scheduler requeues its incomplete units for the others.
        # --------------------------------------------------------------
        stop = threading.Event()
        workers = [
            ServiceWorker(host, port, name=f"worker-{i}", stop_event=stop)
            for i in range(2)
        ]
        threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
        for thread in threads:
            thread.start()

        # --------------------------------------------------------------
        # 3. Submit.  A ServiceExecutor session is a drop-in for a local
        # one, and checkpoints each unit into its store as soon as a worker
        # finishes it, in whatever order the workers finish.
        # Shell: python -m repro.service submit --store /shared/store \
        #        --study fig10-mitigations --config-json '{...}'
        # --------------------------------------------------------------
        print(f"submitting with store {store_root}")
        service_run = ExperimentSession(
            executor=ServiceExecutor(host, port, label="example-fig10"),
            store=ResultStore(store_root),
        ).run("fig10-mitigations", CONFIG)
        print(
            f"service run: {service_run.units_total} units, "
            f"retries={service_run.retries}, requeues={service_run.requeues}"
        )

        # Live telemetry.  Shell: python -m repro.service status
        with ServiceClient(host, port) as probe:
            status = probe.status()
        for name, view in sorted(status["workers"].items()):
            print(f"  {name}: {view['units_completed']} units, {view['state']}")

        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # 4. Bit identity: the fleet's merged payload equals a local serial
    # run's, point for point.
    # ------------------------------------------------------------------
    serial_run = ExperimentSession(executor=SerialExecutor()).run("fig10-mitigations", CONFIG)
    service_points = service_run.single().points
    serial_points = serial_run.single().points
    assert service_points == serial_points
    print(f"bit identity: {len(service_points)} evaluation points match exactly")

    # ------------------------------------------------------------------
    # 5. Shared store: the submitting session checkpointed every unit, so
    # a local session over the same directory replays the sweep from cache.
    # ------------------------------------------------------------------
    replay = ExperimentSession(store=ResultStore(store_root)).run("fig10-mitigations", CONFIG)
    assert replay.executed == 0 and replay.cache_hits == replay.units_total
    assert replay.single().points == serial_points
    print(
        f"shared-store replay: {replay.cache_hits}/{replay.units_total} units "
        "from cache, zero recomputation"
    )


if __name__ == "__main__":
    main()
