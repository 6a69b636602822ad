"""What the scheduler does with its connections, driven over raw sockets.

The scheduler relays task and outcome blobs without reading them, answers
a malformed line or field with an ``error`` and then EOF, frees a departed
client's submissions, and closes every connected peer on ``stop()``.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.experiments import ExperimentSession, ServiceExecutor
from repro.service import SchedulerThread, ServiceWorker, UnitState, protocol
from repro.service.selftest import ServiceSelfTestConfig


class RawPeer:
    """A client or worker past hello, reading with a 2 s timeout.

    ``rcvbuf`` shrinks the socket's receive buffer, so a peer that stops
    reading backs the scheduler's writes up sooner.
    """

    def __init__(self, address, role, name, rcvbuf=None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(2.0)
        self.sock.connect(address)
        self.lines = self.sock.makefile("rb")
        self.send(protocol.hello(role, name))
        assert self.recv()["type"] == "hello_ack"

    def send(self, message):
        self.sock.sendall(protocol.encode_message(message))

    def recv(self):
        return json.loads(self.lines.readline())

    def at_eof(self):
        return self.lines.readline() == b""

    def close(self):
        self.lines.close()
        self.sock.close()


def submit(label, tasks):
    return {"type": "submit", "submission_id": label, "label": label, "tasks": tasks}


class TestRelay:
    def test_blobs_that_are_not_pickles_arrive_byte_for_byte(self):
        task, outcome = "task: not a pickle ☃", "outcome: \x00 not base64 either"
        with SchedulerThread() as scheduler:
            client = RawPeer(scheduler.address, "client", "relay-client")
            worker = RawPeer(scheduler.address, "worker", "relay-worker")
            client.send(submit("relay", [task]))
            assert client.recv()["type"] == "submit_ack"
            worker.send({"type": "lease_request", "capacity": 1})
            grant = worker.recv()
            assert grant["units"] == [{"key": "sub-1/0", "task": task}]
            worker.send(
                {
                    "type": "unit_result",
                    "lease_id": grant["lease_id"],
                    "key": "sub-1/0",
                    "elapsed_s": 0.0,
                    "outcome": outcome,
                }
            )
            complete = client.recv()
            assert complete == {
                "type": "unit_complete",
                "submission_id": "sub-1",
                "key": "sub-1/0",
                "index": 0,
                "attempts": 1,
                "requeues": 0,
                "outcome": outcome,
            }
            assert client.recv()["type"] == "submission_done"
            client.close()
            worker.close()


class TestMalformedLines:
    @pytest.mark.parametrize(
        "line",
        [b"\xff\xfe not json\n", b"x" * 5000 + b"\n"],
        ids=["undecodable", "over-limit"],
    )
    def test_error_reply_then_eof(self, monkeypatch, line):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
        with SchedulerThread() as scheduler:
            peer = RawPeer(scheduler.address, "worker", "garbler")
            peer.sock.sendall(line)
            assert peer.recv()["type"] == "error"
            assert peer.at_eof()
            peer.close()

    @pytest.mark.parametrize(
        "role, bad",
        [
            ("client", {"type": "submit", "submission_id": "bad", "label": "bad"}),
            ("client", submit("bad", [])),
            ("client", submit("bad", ["task", 7])),
            ("worker", {"type": "lease_request", "capacity": "lots"}),
            ("worker", {"type": "lease_request", "capacity": 0}),
            ("worker", {"type": "unit_result", "elapsed_s": 0.0}),
            ("worker", {"type": "unit_result", "elapsed_s": "slow", "outcome": "o"}),
        ],
        ids=[
            "tasks-missing",
            "tasks-empty",
            "task-not-a-string",
            "capacity-not-an-int",
            "capacity-zero",
            "outcome-missing",
            "elapsed-not-a-number",
        ],
    )
    def test_bad_field_gets_an_error_then_eof_and_changes_nothing(self, role, bad):
        """A message the scheduler cannot act on is refused before it changes
        any state: a bad ``unit_result`` leaves its unit to another worker."""
        with SchedulerThread(backoff_base=0.01, backoff_cap=0.01) as scheduler:
            client = RawPeer(scheduler.address, "client", "good-client")
            client.send(submit("good", ["task-0"]))
            assert client.recv()["type"] == "submit_ack"
            peer = RawPeer(scheduler.address, role, "bad-peer")
            if bad["type"] == "unit_result":
                peer.send({"type": "lease_request", "capacity": 1})
                grant = peer.recv()
                bad = dict(bad, lease_id=grant["lease_id"], key=grant["units"][0]["key"])
            peer.send(bad)
            assert peer.recv()["type"] == "error"
            assert peer.at_eof()
            peer.close()
            unit = scheduler.server.manager.units["sub-1/0"]
            assert unit.state is not UnitState.COMPLETED
            worker = RawPeer(scheduler.address, "worker", "good-worker")
            deadline = time.monotonic() + 5.0
            while True:
                worker.send({"type": "lease_request", "capacity": 1})
                grant = worker.recv()
                if grant["type"] == "lease_grant":
                    break
                assert time.monotonic() < deadline, "the unit was never granted again"
                time.sleep(0.01)
            assert grant["units"] == [{"key": "sub-1/0", "task": "task-0"}]
            worker.send(
                {
                    "type": "unit_result",
                    "lease_id": grant["lease_id"],
                    "key": "sub-1/0",
                    "elapsed_s": 0.0,
                    "outcome": "outcome-0",
                }
            )
            complete = client.recv()
            assert (complete["type"], complete["outcome"]) == ("unit_complete", "outcome-0")
            assert client.recv()["type"] == "submission_done"
            client.close()
            worker.close()

    def test_goodbye_closes_without_a_reply(self):
        with SchedulerThread() as scheduler:
            peer = RawPeer(scheduler.address, "client", "leaver")
            peer.send({"type": "goodbye"})
            assert peer.at_eof()
            peer.close()


class TestClientDeparture:
    def test_finished_submission_is_freed_when_its_client_leaves(self):
        with SchedulerThread() as scheduler:
            host, port = scheduler.address
            stop = threading.Event()
            worker = ServiceWorker(host, port, name="w0", stop_event=stop)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                ExperimentSession(executor=ServiceExecutor(host, port)).run(
                    "service-selftest", ServiceSelfTestConfig(units=3, rounds=10)
                )
                manager = scheduler.server.manager
                deadline = time.monotonic() + 2.0
                while (manager.units or manager.submissions) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not manager.units and not manager.submissions
                counters = scheduler.server.telemetry.counters
                assert counters["submissions_completed"] == 1
                assert counters["submissions_cancelled"] == 0
            finally:
                stop.set()
                thread.join(timeout=10.0)


class TestStop:
    def test_stop_closes_every_peer_and_runs_its_cleanup(self):
        scheduler = SchedulerThread()
        address = scheduler.start()
        worker = RawPeer(address, "worker", "idle-worker")
        client = RawPeer(address, "client", "idle-client")
        started = time.monotonic()
        scheduler.stop()
        assert time.monotonic() - started < 2.0
        assert worker.at_eof() and client.at_eof()
        assert scheduler.server.telemetry.workers["idle-worker"].state == "dead"
        worker.close()
        client.close()

    def test_stop_returns_while_a_peer_is_not_reading(self):
        """A worker that stops reading leaves the scheduler's lease grant
        unsent; stop() drops those bytes instead of waiting for them."""
        scheduler = SchedulerThread()
        address = scheduler.start()
        client = RawPeer(address, "client", "big-client")
        client.send(submit("big", ["x" * (8 << 20)]))
        assert client.recv()["type"] == "submit_ack"
        worker = RawPeer(address, "worker", "stalled-worker", rcvbuf=4096)
        worker.send({"type": "lease_request", "capacity": 1})
        server = scheduler.server

        def backed_up():
            """Whether the handler waits in drain() for the worker to read."""
            for conn in list(server._connections):
                if conn.name == "stalled-worker":
                    transport = conn.writer.transport
                    high_water = transport.get_write_buffer_limits()[1]
                    return transport.get_write_buffer_size() > high_water
            return False

        deadline = time.monotonic() + 5.0
        while not backed_up():
            assert time.monotonic() < deadline, "the write to the worker never backed up"
            time.sleep(0.01)
        started = time.monotonic()
        scheduler.stop()
        assert time.monotonic() - started < 2.0
        assert server.telemetry.workers["stalled-worker"].state == "dead"
        assert client.at_eof()
        worker.close()
        client.close()
