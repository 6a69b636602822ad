"""Fault injection against a live loopback scheduler.

These tests drive the wire protocol *manually* (a hand-rolled worker over a
raw :class:`~repro.service.protocol.MessageStream`) so each failure mode is
triggered deterministically rather than by racing real threads:

* lease expiry: a worker that takes a lease and never heartbeats loses it,
  and the units are re-dispatched to a live worker;
* duplicate completion: the same unit completed twice is accepted once and
  counted as a duplicate the second time;
* poison quarantine: a unit failing ``max_attempts`` times is quarantined,
  the submission still terminates, and the client sees exactly which unit
  poisoned the study.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.experiments import (
    ExperimentSession,
    ResultStore,
    ServiceExecutor,
    get_study,
)
from repro.service import (
    PoisonedUnitError,
    SchedulerThread,
    ServiceClient,
    protocol,
)
from repro.service.selftest import ServiceSelfTestConfig


def manual_worker(host, port, name):
    """Open a worker connection without the real pull loop around it."""
    stream = protocol.connect_stream(host, port)
    stream.send(protocol.hello("worker", name))
    ack = stream.recv()
    assert ack["type"] == "hello_ack"
    return stream


def request_lease(stream, capacity=8, attempts=100, delay=0.05):
    """Poll until the scheduler grants a lease (retries across backoff)."""
    for _ in range(attempts):
        stream.send({"type": "lease_request", "capacity": capacity})
        reply = stream.recv()
        if reply["type"] == "lease_grant":
            return reply
        assert reply["type"] == "no_work"
        time.sleep(min(delay, float(reply.get("retry_in") or delay)))
    raise AssertionError("scheduler never granted a lease")


def submit_selftest(client, config):
    """Submit a selftest study's tasks through the raw client."""
    from repro.experiments.executors import StudyTask

    spec = get_study("service-selftest")
    tasks = [
        StudyTask(study=spec.name, config=config, chip=None, unit=unit)
        for unit in spec.units_for(config)
    ]
    client.submit_units([protocol.pack_blob(task) for task in tasks], label="faults")


def run_unit_blob(task_blob):
    """Execute one shipped unit the way a real worker would."""
    from repro.experiments.executors import execute_task

    return protocol.pack_blob(execute_task(protocol.unpack_blob(task_blob)))


class TestLeaseExpiry:
    def test_hung_worker_loses_lease_and_units_are_redispatched(self):
        with SchedulerThread(
            lease_ttl=0.4, backoff_base=0.01, backoff_cap=0.05, max_attempts=5
        ) as scheduler:
            host, port = scheduler.address
            config = ServiceSelfTestConfig(units=2, rounds=10)
            with ServiceClient(host, port) as client:
                submit_selftest(client, config)
                hung = manual_worker(host, port, "hung")
                grant = request_lease(hung, capacity=2)
                assert len(grant["units"]) == 2
                # The hung worker never heartbeats and never reports; the
                # sweep reclaims the lease after the TTL.
                live = manual_worker(host, port, "live")
                regrant = request_lease(live, capacity=2)
                assert {u["key"] for u in regrant["units"]} == {
                    u["key"] for u in grant["units"]
                }
                for unit in regrant["units"]:
                    live.send(
                        {
                            "type": "unit_result",
                            "lease_id": regrant["lease_id"],
                            "key": unit["key"],
                            "elapsed_s": 0.01,
                            "outcome": run_unit_blob(unit["task"]),
                        }
                    )
                events = [event for event in client.events()]
                done = events[-1]
                assert done["type"] == "submission_done"
                assert done["completed"] == 2 and not done["quarantined"]
                completes = [e for e in events if e["type"] == "unit_complete"]
                # Both units record the reclaimed lease: attempts=2, requeues=1.
                assert all(e["attempts"] == 2 and e["requeues"] == 1 for e in completes)
                status = client.status()
            assert status["counters"]["leases_expired"] >= 1
            assert status["counters"]["units_requeued"] == 2
            hung.close()
            live.close()


class TestDuplicateCompletion:
    def test_second_completion_is_dropped(self):
        with SchedulerThread(lease_ttl=30.0) as scheduler:
            host, port = scheduler.address
            config = ServiceSelfTestConfig(units=1, rounds=10)
            with ServiceClient(host, port) as client:
                submit_selftest(client, config)
                worker = manual_worker(host, port, "dup")
                grant = request_lease(worker, capacity=1)
                unit = grant["units"][0]
                outcome_blob = run_unit_blob(unit["task"])
                for _ in range(2):  # send the identical completion twice
                    worker.send(
                        {
                            "type": "unit_result",
                            "lease_id": grant["lease_id"],
                            "key": unit["key"],
                            "elapsed_s": 0.01,
                            "outcome": outcome_blob,
                        }
                    )
                events = list(client.events())
                # Exactly one unit_complete reaches the client.
                assert [e["type"] for e in events] == [
                    "unit_complete",
                    "submission_done",
                ]
                status = client.status()
            assert status["counters"]["duplicate_completions"] == 1
            assert status["counters"]["units_completed"] == 1
            worker.close()

    def test_completion_for_cancelled_submission_is_unknown(self):
        with SchedulerThread(lease_ttl=30.0) as scheduler:
            host, port = scheduler.address
            config = ServiceSelfTestConfig(units=1, rounds=10)
            client = ServiceClient(host, port)
            client.connect()
            submit_selftest(client, config)
            worker = manual_worker(host, port, "orphan")
            grant = request_lease(worker, capacity=1)
            client.close()  # client goes away; submission cancelled
            time.sleep(0.2)
            unit = grant["units"][0]
            worker.send(
                {
                    "type": "unit_result",
                    "lease_id": grant["lease_id"],
                    "key": unit["key"],
                    "elapsed_s": 0.01,
                    "outcome": run_unit_blob(unit["task"]),
                }
            )
            # The scheduler drops the orphan result and stays serviceable.
            with ServiceClient(host, port) as probe:
                status = probe.status()
            assert status["counters"]["submissions_cancelled"] == 1
            assert status["counters"]["unknown_completions"] == 1
            worker.close()


class TestPoisonQuarantine:
    def test_poison_unit_quarantined_without_sinking_study(self):
        with SchedulerThread(
            lease_ttl=5.0, max_attempts=2, backoff_base=0.01, backoff_cap=0.02
        ) as scheduler:
            host, port = scheduler.address
            from repro.service.worker import ServiceWorker
            import threading

            stop = threading.Event()
            worker = ServiceWorker(
                host, port, name="pw", batch_size=2, stop_event=stop
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                config = ServiceSelfTestConfig(units=4, rounds=10, fail_units=(1,))
                session = ExperimentSession(executor=ServiceExecutor(host, port))
                with pytest.raises(PoisonedUnitError) as excinfo:
                    session.run("service-selftest", config)
                assert len(excinfo.value.reports) == 1
                report = excinfo.value.reports[0]
                assert report["index"] == 1
                assert report["attempts"] == 2
                assert any("poisoned" in err for err in report["errors"])
                with ServiceClient(host, port) as probe:
                    status = probe.status()
                assert status["counters"]["units_quarantined"] == 1
                assert status["counters"]["units_failed"] == 2  # both attempts
            finally:
                stop.set()
                thread.join(timeout=5.0)

    def test_units_completed_past_a_poisoned_unit_stay_in_the_store(self, tmp_path):
        """The session stores each outcome as it arrives: when unit 1 is
        quarantined after units 0, 2 and 3 completed, all three are on disk,
        so a rerun has only unit 1 left to execute."""
        config = ServiceSelfTestConfig(units=4, rounds=10, fail_units=(1,))
        store = ResultStore(tmp_path / "store")
        raised = []
        with SchedulerThread(lease_ttl=30.0, max_attempts=1) as scheduler:
            host, port = scheduler.address
            session = ExperimentSession(executor=ServiceExecutor(host, port), store=store)

            def submit():
                try:
                    session.run("service-selftest", config)
                except PoisonedUnitError as exc:
                    raised.append(exc)

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            worker = manual_worker(host, port, "pw")
            grant = request_lease(worker, capacity=4)
            units = grant["units"]  # granted in index order
            for unit in (units[0], units[2], units[3]):
                worker.send(
                    {
                        "type": "unit_result",
                        "lease_id": grant["lease_id"],
                        "key": unit["key"],
                        "outcome": run_unit_blob(unit["task"]),
                    }
                )
            worker.send({"type": "unit_failed", "key": units[1]["key"], "error": "poisoned"})
            submitter.join(timeout=10.0)
            worker.close()
        assert not submitter.is_alive()
        assert [report["index"] for report in raised[0].reports] == [1]
        fresh = ResultStore(tmp_path / "store")
        assert [
            fresh.get(fresh.key_for("service-selftest", None, unit)) is not None
            for unit in get_study("service-selftest").units_for(config)
        ] == [True, False, True, True]
