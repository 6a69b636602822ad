"""Framing and blob round-trips of the ndjson wire protocol."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.experiments.executors import StudyTask
from repro.experiments.study import WorkUnit
from repro.service import SchedulerThread, protocol


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"type": "lease_request", "capacity": 4, "name": "w≠1"}
        data = protocol.encode_message(message)
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert protocol.decode_message(data) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"\xff\xfe not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"[1, 2, 3]\n")  # no "type"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b'{"no_type": 1}\n')

    def test_blob_roundtrips_study_tasks(self):
        unit = WorkUnit(study="demo", unit_id="cell/1", params={"a": 1, "b": (2, 3)})
        task = StudyTask(study="demo", config=None, chip=None, unit=unit)
        clone = protocol.unpack_blob(protocol.pack_blob(task))
        assert clone.study == task.study
        assert clone.unit == unit
        assert clone.unit.digest == unit.digest

    def test_check_hello_validation(self):
        good = protocol.hello("worker", "w1")
        assert protocol.check_hello(good, ("worker",)) is good
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(None, ("worker",))
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello({"type": "submit"}, ("worker",))
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(dict(good, protocol=99), ("worker",))
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(good, ("client",))


class TestProtocolVersion:
    """Version 1 task blobs carried a ``seed`` field that later tasks lack,
    version 2 cache dicts lack the ``chip_id`` that version 3 stores check
    entries against, a version 3 client expects a scheduler that
    checkpoints the ``cache`` dict it ships, which no later scheduler does,
    a version 4 submit names its own units, which a version 5 scheduler
    does instead, a version 5 task blob lacks the config digest a version 6
    worker stamps on its result, and a version 6 client reads each outcome
    blob as a result envelope, which a version 7 worker no longer sends; so
    an older peer is refused at hello rather than failing on every unit it
    unpickles, silently caching nothing or having its submit rejected."""

    def test_speaks_protocol_7(self):
        assert protocol.PROTOCOL_VERSION == 7

    def test_check_hello_refuses_protocol_1(self):
        with pytest.raises(protocol.ProtocolError, match="protocol mismatch"):
            protocol.check_hello(dict(protocol.hello("worker", "w1"), protocol=1), ("worker",))

    def test_check_hello_refuses_protocol_2(self):
        with pytest.raises(protocol.ProtocolError, match="protocol mismatch"):
            protocol.check_hello(dict(protocol.hello("client", "c1"), protocol=2), ("client",))

    def test_scheduler_answers_protocol_1_with_an_error(self):
        with SchedulerThread() as scheduler:
            with protocol.connect_stream(*scheduler.address, timeout=10.0) as stream:
                stream.send(dict(protocol.hello("worker", "old"), protocol=1))
                reply = stream.recv()
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]

    def test_scheduler_answers_protocol_2_with_an_error(self):
        with SchedulerThread() as scheduler:
            with protocol.connect_stream(*scheduler.address, timeout=10.0) as stream:
                stream.send(dict(protocol.hello("client", "old"), protocol=2))
                reply = stream.recv()
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]

    def test_scheduler_answers_protocol_3_with_an_error(self):
        with SchedulerThread() as scheduler:
            with protocol.connect_stream(*scheduler.address, timeout=10.0) as stream:
                stream.send(dict(protocol.hello("client", "old"), protocol=3))
                reply = stream.recv()
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]

    def test_scheduler_answers_protocol_4_with_an_error(self):
        with SchedulerThread() as scheduler:
            with protocol.connect_stream(*scheduler.address, timeout=10.0) as stream:
                stream.send(dict(protocol.hello("client", "old"), protocol=4))
                reply = stream.recv()
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]

    def test_scheduler_answers_protocol_5_with_an_error(self):
        with SchedulerThread() as scheduler:
            with protocol.connect_stream(*scheduler.address, timeout=10.0) as stream:
                stream.send(dict(protocol.hello("worker", "old"), protocol=5))
                reply = stream.recv()
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]

    def test_scheduler_answers_protocol_6_with_an_error(self):
        with SchedulerThread() as scheduler:
            with protocol.connect_stream(*scheduler.address, timeout=10.0) as stream:
                stream.send(dict(protocol.hello("client", "old"), protocol=6))
                reply = stream.recv()
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]


class TestMessageStream:
    def make_pair(self):
        left, right = socket.socketpair()
        return protocol.MessageStream(left), protocol.MessageStream(right)

    def test_send_recv_over_socketpair(self):
        a, b = self.make_pair()
        try:
            a.send({"type": "ping", "n": 1})
            a.send({"type": "ping", "n": 2})
            assert b.recv() == {"type": "ping", "n": 1}
            assert b.recv() == {"type": "ping", "n": 2}
        finally:
            a.close()
            b.close()

    def test_recv_returns_none_on_close(self):
        a, b = self.make_pair()
        a.close()
        assert b.recv() is None
        b.close()

    def test_concurrent_sends_stay_framed(self):
        """Heartbeat threads share the stream with the execution loop."""
        a, b = self.make_pair()
        per_thread = 50

        def blast(tag):
            for n in range(per_thread):
                a.send({"type": "msg", "tag": tag, "n": n, "pad": "x" * 512})

        threads = [threading.Thread(target=blast, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        received = [b.recv() for _ in range(4 * per_thread)]
        for thread in threads:
            thread.join()
        assert all(message["type"] == "msg" for message in received)
        seen = {(message["tag"], message["n"]) for message in received}
        assert len(seen) == 4 * per_thread
        a.close()
        b.close()
