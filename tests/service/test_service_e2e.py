"""Loopback end-to-end: ServiceExecutor == SerialExecutor, bit for bit.

The acceptance contract of :mod:`repro.service`: a study submitted through
:class:`~repro.experiments.ServiceExecutor` to a loopback scheduler with
two or more workers produces payloads *bit-identical* to a local
:class:`~repro.experiments.SerialExecutor` run -- for both simulator
``step_mode``s, and including a run where one worker process is SIGKILLed
mid-sweep (its leased units are re-dispatched and re-executed exactly
once each).
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.experiments import ExperimentSession, SerialExecutor, ServiceExecutor
from repro.service import SchedulerThread, ServiceClient, ServiceWorker
from repro.service.selftest import ServiceSelfTestConfig

TINY_FIG10 = dict(
    hcfirst_values=(2_000, 256),
    mechanisms=("PARA", "ProHIT", "Ideal"),
    num_mixes=1,
    rows_per_bank=512,
    dram_cycles=2_000,
    requests_per_core=400,
    seed=3,
)

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def points_of(study_payload):
    return [point.to_dict() for point in study_payload.points]


@contextlib.contextmanager
def worker_fleet(host, port, count=2, batch_size=2):
    """Run ``count`` in-process workers until the block exits."""
    stop = threading.Event()
    workers = [
        ServiceWorker(host, port, name=f"w{i}", batch_size=batch_size, stop_event=stop)
        for i in range(count)
    ]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    try:
        yield workers
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)


def spawn_worker_process(host, port, name, batch_size=2):
    """Start ``python -m repro.service worker`` as a killable subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "worker",
            "--host",
            host,
            "--port",
            str(port),
            "--name",
            name,
            "--batch",
            str(batch_size),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestServiceMatchesSerial:
    """Acceptance: fig10 payloads over the service == SerialExecutor."""

    @pytest.mark.parametrize("step_mode", ["event", "cycle"])
    def test_fig10_bit_identical_with_two_workers(self, step_mode):
        config = MitigationStudyConfig(step_mode=step_mode, **TINY_FIG10)
        serial = ExperimentSession(executor=SerialExecutor(), seed=3).run(
            "fig10-mitigations", config
        )
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            with worker_fleet(host, port, count=2):
                service = ExperimentSession(
                    executor=ServiceExecutor(host, port), seed=3
                ).run("fig10-mitigations", config)
            with ServiceClient(host, port) as probe:
                status = probe.status()
        assert points_of(serial.single()) == points_of(service.single())
        assert serial.single().points
        assert service.executed == serial.executed == service.units_total
        # A healthy loopback run has no recoveries; both workers connected
        # (tiny units finish so fast one worker may drain the whole queue,
        # so shared load is asserted in the slower selftest run below).
        assert service.retries == 0 and service.requeues == 0
        assert len(status["workers"]) == 2
        assert status["counters"]["units_completed"] == service.units_total

    def test_selftest_many_workers_any_batch(self):
        """Worker count and batch size are invisible in the payloads."""
        config = ServiceSelfTestConfig(units=9, rounds=200, unit_sleep_s=0.2, seed=11)
        serial = ExperimentSession(executor=SerialExecutor(), seed=2).run(
            "service-selftest", config
        )
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            with worker_fleet(host, port, count=3, batch_size=1):
                service = ExperimentSession(
                    executor=ServiceExecutor(host, port), seed=2
                ).run("service-selftest", config)
            with ServiceClient(host, port) as probe:
                status = probe.status()
        assert service.single() == serial.single()
        assert service.single().combined_digest == serial.single().combined_digest
        # Workers that found no work wait 0.5 s before asking again, so one
        # early worker could drain a short sweep alone.  Units sleep 200 ms
        # each (1.8 s for one worker), so the sweep genuinely spreads across
        # the fleet: at least two of the three workers completed units.
        busy = [w for w in status["workers"].values() if w["units_completed"] >= 1]
        assert len(busy) >= 2


class TestWorkerKilledMidSweep:
    def test_sigkill_mid_batch_redispatches_and_stays_bit_identical(self):
        """Kill a subprocess worker holding a lease: the scheduler requeues
        exactly its incomplete units, a rescue worker re-executes them, and
        the merged payload still equals the serial run's."""
        config = ServiceSelfTestConfig(units=6, rounds=50, unit_sleep_s=0.35, seed=4)
        serial = ExperimentSession(executor=SerialExecutor(), seed=9).run(
            "service-selftest", config
        )
        with SchedulerThread(
            lease_ttl=2.0, backoff_base=0.05, backoff_cap=0.2
        ) as scheduler:
            host, port = scheduler.address
            victim = spawn_worker_process(host, port, "victim", batch_size=2)
            try:
                session = ExperimentSession(
                    executor=ServiceExecutor(host, port), seed=9
                )
                run_box = {}

                def run_study():
                    run_box["result"] = session.run("service-selftest", config)

                runner = threading.Thread(target=run_study, daemon=True)

                def victim_has_lease():
                    with ServiceClient(host, port) as probe:
                        worker = probe.status()["workers"].get("victim")
                    return worker is not None and worker["leases_granted"] >= 1

                runner.start()
                # Wait until the victim holds a lease, then catch it mid-unit
                # (each unit sleeps 0.35s, so the lease cannot be done yet).
                assert wait_for(victim_has_lease), "victim never got a lease"
                time.sleep(0.1)
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=10.0)
                # A rescue worker finishes the study, re-dispatched units
                # included.
                stop = threading.Event()
                rescue = ServiceWorker(
                    host, port, name="rescue", batch_size=2, stop_event=stop
                )
                rescue_thread = threading.Thread(target=rescue.run, daemon=True)
                rescue_thread.start()
                runner.join(timeout=120.0)
                assert not runner.is_alive(), "service run did not finish"
                stop.set()
                rescue_thread.join(timeout=10.0)
                result = run_box["result"]
                with ServiceClient(host, port) as probe:
                    status = probe.status()
            finally:
                if victim.poll() is None:  # pragma: no cover - cleanup path
                    victim.kill()
                    victim.wait(timeout=10.0)
        # Bit identity survives the death.
        assert result.single() == serial.single()
        counters = status["counters"]
        # The victim was killed holding incomplete units, so the run
        # recovered at least one unit -- and the session surfaces it.
        assert result.requeues >= 1
        assert result.retries == result.requeues  # no failures, only the kill
        assert counters["units_requeued"] == result.requeues
        # Exactly the lost units were re-executed: every unit completed
        # exactly once (no duplicates), every failure path stayed quiet.
        assert counters["units_completed"] == config.units
        assert counters["duplicate_completions"] == 0
        assert counters["units_failed"] == 0
        assert status["workers"]["victim"]["state"] == "dead"
        assert status["workers"]["rescue"]["units_completed"] >= result.requeues
