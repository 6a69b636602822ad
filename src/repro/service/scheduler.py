"""The asyncio scheduler: accepts submissions, leases units, relays outcomes.

One :class:`SchedulerServer` serves every peer kind over the same ndjson
port (see :mod:`repro.service.protocol`): *clients* submit batches of
:class:`~repro.experiments.executors.StudyTask` units as opaque blobs
and receive each unit's outcome as it completes, *workers* pull unit
batches under leases and push results/failures back, and anyone may ask
for a ``status`` snapshot.  Fault tolerance lives in
:class:`~repro.service.leases.LeaseManager`; this module wires it to
connections, timers and telemetry:

* a worker connection dropping releases its leases immediately (fast
  re-dispatch);
* a periodic sweep reaps expired leases of *hung-but-connected* workers
  and finalizes submissions whose last unit just quarantined;
* a client connection dropping frees its submissions, finished or not.

Task and outcome blobs pass through unread: the submitting session's
result store is the only checkpoint of a service run.

:class:`SchedulerThread` hosts a server on a background event-loop thread
for in-process use -- loopback tests, benchmarks and the bundled example
stand up a full scheduler this way in a few lines.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.leases import LeaseManager, UnitEvent, UnitRecord
from repro.service.telemetry import SchedulerTelemetry


class Connection:
    """One accepted peer connection with serialized writes.

    Unit completions are pushed to a client from whichever *worker*
    connection handler received them, so writes to one peer can originate
    from several coroutines; the per-connection lock keeps frames whole.
    """

    _ids = itertools.count(1)

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.name = f"conn-{next(self._ids)}"
        self.role = "unknown"
        self._write_lock = asyncio.Lock()
        self.closed = False

    async def send(self, message: Dict[str, Any]) -> bool:
        """Write one message; ``False`` (never an exception) if the peer is gone."""
        if self.closed:
            return False
        data = protocol.encode_message(message)
        try:
            async with self._write_lock:
                self.writer.write(data)
                await self.writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            self.closed = True
            return False

    async def recv(self) -> Optional[Dict[str, Any]]:
        """Read one message; ``None`` when the peer closed the connection."""
        try:
            line = await self.reader.readline()
        except ValueError as exc:  # readline's report of an over-limit line
            raise protocol.ProtocolError(f"message line too long: {exc}") from None
        except (ConnectionError, OSError):
            return None
        if not line:
            return None
        return protocol.decode_message(line)

    async def close(self) -> None:
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


class SchedulerServer:
    """Serves study submissions to a worker fleet with leased dispatch.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    lease_ttl, max_attempts, backoff_base, backoff_cap:
        Fault-tolerance knobs, passed to
        :class:`~repro.service.leases.LeaseManager`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: float = 15.0,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = LeaseManager(
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
        )
        self.telemetry = SchedulerTelemetry()
        #: Open peer connections and the tasks handling them.
        self._connections: Dict[Connection, asyncio.Task] = {}
        self._submission_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        return (self.host, self.port)

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        interval = min(1.0, self.manager.lease_ttl / 4)
        self._sweep_task = asyncio.create_task(self._sweep_loop(interval))
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopping.wait()

    async def stop(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            try:
                await self._sweep_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
        # Unsent bytes do not matter at shutdown, so each peer's transport is
        # aborted rather than closed: a graceful close waits for a peer that
        # has stopped reading to drain its buffer.  Every handler then reads
        # EOF and runs its cleanup (leases released, workers marked dead).
        handlers = dict(self._connections)
        for conn in handlers:
            conn.closed = True
            conn.writer.transport.abort()
        await asyncio.gather(*handlers.values(), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        # Set last: serve_forever (and the hosting thread's loop) must only
        # unblock once the listener, peers and sweeper are fully torn down.
        self._stopping.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(reader, writer)
        if self._server is not None and not self._server.is_serving():
            await conn.close()  # accepted while stop() was closing the rest
            return
        self._connections[conn] = asyncio.current_task()
        try:
            hello = protocol.check_hello(await conn.recv(), ("client", "worker"))
            conn.role = hello["role"]
            if hello.get("name"):
                conn.name = str(hello["name"])
            now = time.monotonic()
            if conn.role == "worker":
                self.telemetry.worker_connected(conn.name, now)
            await conn.send({"type": "hello_ack", "protocol": protocol.PROTOCOL_VERSION})
            while True:
                message = await conn.recv()
                if message is None or message["type"] == "goodbye":
                    break
                await self._dispatch(conn, message)
        except protocol.ProtocolError as exc:
            await conn.send({"type": "error", "error": str(exc)})
        finally:
            await self._connection_lost(conn)
            await conn.close()
            # Deregistered last, so stop() also aborts a close that waits on
            # a peer that stopped reading.
            del self._connections[conn]

    async def _dispatch(self, conn: Connection, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "status_request":
            await conn.send({"type": "status_reply", "status": self.status()})
        elif kind == "submit" and conn.role == "client":
            await self._handle_submit(conn, message)
        elif kind == "lease_request" and conn.role == "worker":
            await self._handle_lease_request(conn, message)
        elif kind == "heartbeat" and conn.role == "worker":
            self.telemetry.bump("heartbeats")
            self.telemetry.worker_seen(conn.name, time.monotonic())
            self.manager.heartbeat(str(message.get("lease_id")), time.monotonic())
        elif kind == "unit_result" and conn.role == "worker":
            await self._handle_unit_result(conn, message)
        elif kind == "unit_failed" and conn.role == "worker":
            await self._handle_unit_failed(conn, message)
        elif kind == "lease_failed" and conn.role == "worker":
            await self._handle_lease_failed(conn, message)
        else:
            raise protocol.ProtocolError(f"unexpected {kind!r} from a {conn.role}")

    async def _connection_lost(self, conn: Connection) -> None:
        now = time.monotonic()
        if conn.role == "worker":
            events = self.manager.release_worker(conn.name, now)
            if events:
                self.telemetry.bump("leases_released")
            self.telemetry.worker_dead(conn.name, now)
            await self._apply_unit_events(events)
        elif conn.role == "client":
            # Nothing reaches a departed client, so its finished submissions
            # are freed too; only the unfinished ones count as cancelled.
            for sid, record in list(self.manager.submissions.items()):
                if record.client is conn:
                    if self.manager.cancel_submission(sid) and not record.finished:
                        self.telemetry.bump("submissions_cancelled")

    # ------------------------------------------------------------------
    # Client messages
    # ------------------------------------------------------------------
    async def _handle_submit(self, conn: Connection, message: Dict[str, Any]) -> None:
        tasks = message.get("tasks")
        if not (isinstance(tasks, list) and tasks and all(isinstance(t, str) for t in tasks)):
            raise protocol.ProtocolError("submit needs a non-empty list of task blobs")
        # The scheduler names every unit, so two submissions of the same
        # study never share a key.
        submission_id = f"sub-{next(self._submission_ids)}"
        label = str(message.get("label") or "unlabelled")
        records = [
            UnitRecord(f"{submission_id}/{index}", submission_id, index, task)
            for index, task in enumerate(tasks)
        ]
        self.manager.add_submission(submission_id, label, records, client=conn)
        self.telemetry.bump("submissions_opened")
        self.telemetry.bump("units_submitted", len(records))
        await conn.send(
            {
                "type": "submit_ack",
                "submission_id": submission_id,
                "client_id": message.get("submission_id"),
                "units": len(records),
            }
        )

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    async def _handle_lease_request(self, conn: Connection, message: Dict[str, Any]) -> None:
        capacity = message.get("capacity")
        if type(capacity) is not int or capacity < 1:
            raise protocol.ProtocolError(f"capacity {capacity!r} is not a positive int")
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        # Backoff gate: when every pending unit is sitting out a backoff,
        # answer with the exact wait instead of attempting a grant -- the
        # attempt could not succeed and would only churn the pending queues.
        wait = self.manager.next_available_in(now)
        if wait is not None and wait > 0.0:
            await conn.send({"type": "no_work", "retry_in": max(0.05, min(wait, 5.0))})
            return
        lease = self.manager.grant(conn.name, capacity, now)
        if lease is None:
            retry_in = 0.5 if wait is None else max(0.05, min(wait, 5.0))
            await conn.send({"type": "no_work", "retry_in": retry_in})
            return
        self.telemetry.bump("leases_granted")
        view = self.telemetry.workers.get(conn.name)
        if view is not None:
            view.leases_granted += 1
        await conn.send(
            {
                "type": "lease_grant",
                "lease_id": lease.lease_id,
                "expires_in": self.manager.lease_ttl,
                "units": [
                    {"key": key, "task": self.manager.units[key].task_blob}
                    for key in sorted(lease.keys, key=lambda k: self.manager.units[k].index)
                ],
            }
        )

    async def _handle_unit_result(self, conn: Connection, message: Dict[str, Any]) -> None:
        # Checked before the unit is marked completed: a result the client
        # can never receive must leave the unit to be leased again.
        outcome = message.get("outcome")
        if not isinstance(outcome, str):
            raise protocol.ProtocolError("unit_result carries no outcome blob")
        elapsed = message.get("elapsed_s", 0.0)
        if type(elapsed) not in (int, float):
            raise protocol.ProtocolError(f"elapsed_s {elapsed!r} is not a number")
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        key = str(message.get("key"))
        unit = self.manager.units.get(key)
        verdict = self.manager.complete(key)
        if verdict == "duplicate":
            self.telemetry.bump("duplicate_completions")
            return
        if verdict == "unknown":
            self.telemetry.bump("unknown_completions")
            return
        assert unit is not None
        self.telemetry.unit_completed(conn.name, float(elapsed), now)
        record = self.manager.submissions[unit.submission_id]
        await record.client.send(
            {
                "type": "unit_complete",
                "submission_id": unit.submission_id,
                "key": key,
                "index": unit.index,
                "attempts": unit.attempts,
                "requeues": unit.requeues,
                "outcome": outcome,
            }
        )
        await self._finish_if_done(unit.submission_id)

    async def _handle_unit_failed(self, conn: Connection, message: Dict[str, Any]) -> None:
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        self.telemetry.unit_failed(conn.name, now)
        event = self.manager.fail(
            str(message.get("key")), str(message.get("error") or "unit failed"),
            now, worker=conn.name,
        )
        if event is not None:
            await self._apply_unit_events([event])

    async def _handle_lease_failed(self, conn: Connection, message: Dict[str, Any]) -> None:
        """A worker surrendered a whole lease (its heartbeat thread died)."""
        now = time.monotonic()
        self.telemetry.worker_seen(conn.name, now)
        events = self.manager.fail_lease(
            str(message.get("lease_id")),
            str(message.get("error") or "lease failed"),
            now,
        )
        if events:
            self.telemetry.bump("leases_failed")
            await self._apply_unit_events(events)

    # ------------------------------------------------------------------
    # Shared transitions
    # ------------------------------------------------------------------
    async def _apply_unit_events(self, events: List[UnitEvent]) -> None:
        """Propagate requeue/quarantine transitions to telemetry and clients."""
        touched: List[str] = []
        for event in events:
            if event.transition == "requeued":
                self.telemetry.bump("units_requeued")
                continue
            self.telemetry.bump("units_quarantined")
            touched.append(event.submission_id)
            record = self.manager.submissions.get(event.submission_id)
            unit = self.manager.units.get(event.key)
            if record is not None and unit is not None:
                await record.client.send(
                    {
                        "type": "unit_quarantined",
                        "submission_id": event.submission_id,
                        "key": event.key,
                        "index": unit.index,
                        "attempts": unit.attempts,
                        "errors": unit.errors[-self.manager.max_attempts :],
                    }
                )
        for submission_id in dict.fromkeys(touched):
            await self._finish_if_done(submission_id)

    async def _finish_if_done(self, submission_id: str) -> None:
        record = self.manager.submissions.get(submission_id)
        if record is None or record.finished or not record.done:
            return
        record.finished = True
        self.telemetry.bump("submissions_completed")
        await record.client.send(
            {
                "type": "submission_done",
                "submission_id": submission_id,
                "completed": record.completed,
                "quarantined": list(record.quarantined),
            }
        )

    async def _sweep_loop(self, interval: float) -> None:
        """Periodically reap expired leases (hung workers) and requeue units."""
        while True:
            await asyncio.sleep(interval)
            expired, events = self.manager.reap_expired(time.monotonic())
            if expired:
                self.telemetry.bump("leases_expired", expired)
            if events:
                await self._apply_unit_events(events)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The JSON document behind the ``status`` endpoint."""
        now = time.monotonic()
        status = {
            "service": "repro.service",
            "protocol": protocol.PROTOCOL_VERSION,
            "address": list(self.address),
            "lease_ttl": self.manager.lease_ttl,
            "max_attempts": self.manager.max_attempts,
            "unit_states": self.manager.state_counts(),
            "submissions": [
                self.manager.submission_view(sid)
                for sid in self.manager.submissions
            ],
        }
        status.update(self.telemetry.status(now))
        return status


class SchedulerThread:
    """Host a :class:`SchedulerServer` on a daemon event-loop thread.

    >>> from repro.service import SchedulerThread
    >>> with SchedulerThread() as scheduler:
    ...     host, port = scheduler.address
    """

    def __init__(self, **kwargs: Any) -> None:
        self._kwargs = kwargs
        self.server: Optional[SchedulerServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server is not None, "scheduler thread not started"
        return self.server.address

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("scheduler thread failed to start in time")
        if self._failure is not None:
            raise RuntimeError("scheduler thread failed to start") from self._failure
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = SchedulerServer(**self._kwargs)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # bind failures surface in start()
                self._failure = exc
                self._started.set()
                return
            self._started.set()
            await self.server.serve_forever()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self.server is None:
            return

        async def shutdown() -> None:
            await self.server.stop()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(timeout=10.0)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "SchedulerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
