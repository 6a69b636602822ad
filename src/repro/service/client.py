"""Client-side protocol wrapper: submit task blobs, stream events, query status.

:class:`ServiceClient` is the thin synchronous counterpart of the
scheduler's client role.  It knows nothing about studies or executors --
it ships opaque task blobs and yields back raw protocol events; the
outcome-unpickling logic lives in
:class:`repro.experiments.remote.ServiceExecutor`, which is the API almost
all code should use instead.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, Iterator, List, Optional

from repro.service import protocol

#: Seconds a client waits for the scheduler to accept its connection.
CONNECT_TIMEOUT_S = 10.0


class SchedulerUnavailableError(ConnectionError):
    """The scheduler connection failed or dropped mid-submission."""


class PoisonedUnitError(RuntimeError):
    """One or more units were quarantined after exhausting their attempts.

    Carries the scheduler's quarantine reports (key, index, attempts and
    the recorded per-attempt errors) so the failure names the exact units
    -- and exceptions -- that poisoned the study.
    """

    def __init__(self, label: str, reports: List[Dict[str, Any]]) -> None:
        self.label = label
        self.reports = list(reports)
        keys = ", ".join(str(report.get("key")) for report in self.reports)
        detail = ""
        if self.reports:
            errors = self.reports[0].get("errors") or []
            if errors:
                detail = f"; first error:\n{errors[-1]}"
        super().__init__(
            f"{len(self.reports)} unit(s) of {label!r} were quarantined as "
            f"poisoned: {keys}{detail}"
        )


class ServiceClient:
    """One client connection to a scheduler.

    >>> with ServiceClient("127.0.0.1", 7075) as client:   # doctest: +SKIP
    ...     client.submit_units([pack_blob(task) for task in tasks], label="fig10")
    ...     for event in client.events():
    ...         ...   # unit_complete events carry each task's list index
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.name = f"client-{uuid.uuid4().hex[:8]}"
        self._stream: Optional[protocol.MessageStream] = None

    # ------------------------------------------------------------------
    def connect(self) -> None:
        if self._stream is not None:
            return
        try:
            stream = protocol.connect_stream(self.host, self.port, timeout=CONNECT_TIMEOUT_S)
        except OSError as exc:
            raise SchedulerUnavailableError(
                f"cannot reach scheduler at {self.host}:{self.port}: {exc}"
            ) from exc
        stream.send(protocol.hello("client", self.name))
        ack = stream.recv()
        if ack is None or ack.get("type") != "hello_ack":
            stream.close()
            raise SchedulerUnavailableError(f"bad handshake reply: {ack!r}")
        self._stream = stream

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.send({"type": "goodbye"})
            except OSError:
                pass
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit_units(self, tasks: List[str], label: str = "") -> str:
        """Submit task blobs as one submission; returns the scheduler's id for it.

        The scheduler names unit ``i`` after ``tasks[i]``, and every event of
        the submission carries that ``index``.
        """
        self.connect()
        assert self._stream is not None
        client_id = uuid.uuid4().hex
        self._stream.send(
            {
                "type": "submit",
                "submission_id": client_id,
                "label": label,
                "tasks": tasks,
            }
        )
        ack = self._recv()
        if ack.get("type") == "error":
            raise SchedulerUnavailableError(f"submit rejected: {ack.get('error')}")
        if ack.get("type") != "submit_ack" or ack.get("client_id") != client_id:
            raise protocol.ProtocolError(f"expected submit_ack, got {ack!r}")
        return str(ack["submission_id"])

    def events(self) -> Iterator[Dict[str, Any]]:
        """Yield submission events until (and including) ``submission_done``."""
        while True:
            message = self._recv()
            yield message
            if message.get("type") == "submission_done":
                return

    def status(self) -> Dict[str, Any]:
        """Fetch the scheduler's live status document."""
        self.connect()
        assert self._stream is not None
        self._stream.send({"type": "status_request"})
        reply = self._recv()
        if reply.get("type") != "status_reply":
            raise protocol.ProtocolError(f"expected status_reply, got {reply!r}")
        return reply["status"]

    def _recv(self) -> Dict[str, Any]:
        assert self._stream is not None, "client is not connected"
        message = self._stream.recv()
        if message is None:
            self._stream = None
            raise SchedulerUnavailableError(
                f"scheduler at {self.host}:{self.port} closed the connection"
            )
        return message


def fetch_status(host: str, port: int) -> Dict[str, Any]:
    """One-shot status query (the ``python -m repro.service status`` backend)."""
    with ServiceClient(host, port) as client:
        return client.status()
